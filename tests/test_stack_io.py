import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnpuct import (
    BadHeader,
    BadMagic,
    IndexOutOfRange,
    NonFiniteData,
    PixelModel,
    RectPulse,
    ThermogramStack,
    Timing,
    TrailingBytes,
    TruncatedFile,
    UnencodableMetadata,
    export_pixel_trace,
    export_slice,
    lpt_reference,
    read_stack,
    write_stack,
)


def small_stack(seed=0, metadata=None):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(5, 3, 4)).astype(np.float32)
    return ThermogramStack(data=data, fps=40.0,
                           metadata=metadata or {"stage": "test", "k": "2"})


def parse_pgm(path):
    blob = open(path, "rb").read()
    magic, dims, maxval, rest = blob.split(b"\n", 3)
    assert magic == b"P5"
    w, h = (int(v) for v in dims.split())
    assert maxval == b"65535"
    return np.frombuffer(rest, dtype=">u2").reshape(h, w)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        stack = small_stack()
        path = tmp_path / "s.tgs"
        write_stack(stack, path)
        back = read_stack(path)
        np.testing.assert_array_equal(back.data, stack.data)
        assert back.data.dtype == np.float32
        assert back.fps == np.float32(40.0)
        assert back.metadata == stack.metadata

    def test_rewrite_is_byte_identical(self, tmp_path):
        stack = small_stack()
        a, b = tmp_path / "a.tgs", tmp_path / "b.tgs"
        write_stack(stack, a)
        write_stack(read_stack(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_minimal_stack_size_formula(self, tmp_path):
        meta = {"a": "1"}
        stack = ThermogramStack(data=np.zeros((1, 1, 1), dtype=np.float32),
                                fps=1.0, metadata=meta)
        path = tmp_path / "tiny.tgs"
        write_stack(stack, path)
        meta_len = len("a = 1".encode())
        assert path.stat().st_size == 4 + 12 + 4 + 4 + meta_len + 4

    def test_header_layout_little_endian(self, tmp_path):
        stack = ThermogramStack(data=np.full((1, 1, 2), 1.5, dtype=np.float32),
                                fps=25.0, metadata={})
        path = tmp_path / "h.tgs"
        write_stack(stack, path)
        blob = path.read_bytes()
        assert blob[:4] == b"TGS1"
        assert struct.unpack_from("<III", blob, 4) == (2, 1, 1)
        assert struct.unpack_from("<f", blob, 16)[0] == 25.0
        assert struct.unpack_from("<I", blob, 20)[0] == 0
        np.testing.assert_array_equal(
            np.frombuffer(blob[24:], dtype="<f4"), [1.5, 1.5])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tgs"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(BadMagic):
            read_stack(path)

    def test_truncated(self, tmp_path):
        stack = small_stack()
        path = tmp_path / "t.tgs"
        write_stack(stack, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(TruncatedFile):
            read_stack(path)
        path.write_bytes(blob[:10])
        with pytest.raises(TruncatedFile):
            read_stack(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        stack = small_stack()
        path = tmp_path / "long.tgs"
        write_stack(stack, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TrailingBytes):
            read_stack(path)

    def test_exact_fps_from_timing_metadata(self, tmp_path):
        # 0.1 is not a float32; the header alone reads back 0.10000000149
        stack = ThermogramStack(data=np.ones((2, 1, 1), dtype=np.float32),
                                fps=0.1, metadata={"t_bit": "10.0", "k": "1"})
        path = tmp_path / "slow.tgs"
        write_stack(stack, path)
        assert read_stack(path).fps == 0.1
        write_stack(ThermogramStack(data=stack.data, fps=0.1), path)
        assert read_stack(path).fps == float(np.float32(0.1))
        # metadata that disagrees with the header does not override it
        write_stack(ThermogramStack(data=stack.data, fps=0.1,
                                    metadata={"t_bit": "10.0", "k": "2"}),
                    path)
        assert read_stack(path).fps == float(np.float32(0.1))

    def test_non_finite_rejected_on_read(self, tmp_path):
        stack = small_stack()
        path = tmp_path / "n.tgs"
        write_stack(stack, path)
        blob = bytearray(path.read_bytes())
        (meta_len,) = struct.unpack_from("<I", blob, 20)
        offset = 24 + meta_len
        blob[offset: offset + 4] = struct.pack("<f", float("nan"))
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteData):
            read_stack(path)

    @pytest.mark.parametrize("fps", [0.0, -25.0, float("nan"), float("inf")])
    def test_bad_header_fps_rejected(self, tmp_path, fps):
        path = tmp_path / "fps.tgs"
        write_stack(small_stack(), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<f", fps)
        path.write_bytes(bytes(blob))
        with pytest.raises(BadHeader, match="fps.tgs"):
            read_stack(path)

    @pytest.mark.parametrize("fps", [0.0, float("nan"), float("inf")])
    def test_bad_fps_rejected_at_construction(self, fps):
        with pytest.raises(ValueError):
            ThermogramStack(data=np.ones((1, 1, 1), dtype=np.float32), fps=fps)

    def test_line_breaks_other_than_newline_round_trip(self, tmp_path):
        meta = {"a": "x\ry", "b": "p q", "c\x1c": "v", "d": "1\u2028 = 2"}
        path = tmp_path / "m.tgs"
        write_stack(small_stack(metadata=meta), path)
        assert read_stack(path).metadata == meta

    @pytest.mark.parametrize("meta", [{"a\nb": "1"}, {"a=b": "1"},
                                      {"a": "1\n2"}])
    def test_unencodable_metadata_rejected(self, tmp_path, meta):
        with pytest.raises(UnencodableMetadata):
            write_stack(small_stack(metadata=meta), tmp_path / "u.tgs")

    @settings(max_examples=60, deadline=None)
    @given(meta=st.dictionaries(
        st.text(max_size=12).filter(lambda k: "\n" not in k and "=" not in k),
        st.text(max_size=12).filter(lambda v: "\n" not in v), max_size=6))
    def test_metadata_round_trip(self, tmp_path_factory, meta):
        stack = ThermogramStack(data=np.zeros((1, 1, 1), dtype=np.float32),
                                fps=40.0, metadata=meta)
        path = tmp_path_factory.mktemp("meta") / "m.tgs"
        write_stack(stack, path)
        back = read_stack(path)
        assert back.metadata == meta
        rewritten = path.with_name("again.tgs")
        write_stack(back, rewritten)
        assert rewritten.read_bytes() == path.read_bytes()

    def test_non_finite_rejected_at_construction(self):
        data = np.ones((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.inf
        with pytest.raises(NonFiniteData):
            ThermogramStack(data=data, fps=1.0)


class TestExportSlice:
    def test_constant_frame_uniform(self, tmp_path):
        stack = ThermogramStack(data=np.full((2, 3, 4), 7.5, dtype=np.float32),
                                fps=2.0)
        pgm, csv_path, sidecar = export_slice(stack, 0, tmp_path / "s.pgm")
        image = parse_pgm(pgm)
        assert image.shape == (3, 4)
        assert np.all(image == image[0, 0])
        rows = open(csv_path).read().strip().splitlines()
        values = [float(v) for row in rows for v in row.split(",")]
        assert values == [7.5] * 12
        text = open(sidecar).read()
        assert "scale_min = 7.5" in text and "scale_max = 7.5" in text

    def test_scaling_and_bounds(self, tmp_path):
        data = np.zeros((1, 1, 3), dtype=np.float32)
        data[0, 0] = [1.0, 2.0, 3.0]
        stack = ThermogramStack(data=data, fps=1.0)
        pgm, _, sidecar = export_slice(stack, 0, tmp_path / "s")
        image = parse_pgm(pgm)
        np.testing.assert_array_equal(image[0], [0, 32768, 65535])
        text = open(sidecar).read()
        assert "scale_min = 1.0" in text and "scale_max = 3.0" in text

    def test_last_frame_of_two(self, tmp_path):
        data = np.stack([np.zeros((2, 2)), np.ones((2, 2))]).astype(np.float32)
        stack = ThermogramStack(data=data, fps=1.0)
        _, csv_path, _ = export_slice(stack, 1, tmp_path / "s")
        rows = open(csv_path).read().strip().splitlines()
        assert all(float(v) == 1.0 for row in rows for v in row.split(","))

    def test_index_out_of_range(self, tmp_path):
        stack = small_stack()
        with pytest.raises(IndexOutOfRange):
            export_slice(stack, 5, tmp_path / "s")
        with pytest.raises(IndexOutOfRange):
            export_slice(stack, -1, tmp_path / "s")


class TestExportPixelTrace:
    def test_constant_pixel(self, tmp_path):
        stack = ThermogramStack(data=np.full((4, 2, 2), 3.5, dtype=np.float32),
                                fps=8.0)
        path = tmp_path / "p.csv"
        export_pixel_trace(stack, 1, 0, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "time_s,value"
        assert len(rows) == 5
        times, values = zip(*(r.split(",") for r in rows[1:]))
        assert all(float(v) == 3.5 for v in values)
        assert float(times[2]) == pytest.approx(0.25)

    def test_out_of_range(self, tmp_path):
        stack = small_stack()
        with pytest.raises(IndexOutOfRange):
            export_pixel_trace(stack, 9, 0, tmp_path / "p.csv")

    def test_pulse_scenario_cooling(self, tmp_path):
        # 3 s pulse observed for 50 s: the exported trace cools after
        # the pulse ends
        timing = Timing(t_bit=1.0, fps=4.0)
        trace = lpt_reference(PixelModel(diffusivity=1e-6),
                              RectPulse(duration=3.0, amplitude=1.0),
                              timing, 50.0)
        stack = ThermogramStack(
            data=trace.astype(np.float32).reshape(-1, 1, 1), fps=4.0)
        path = tmp_path / "p.csv"
        export_pixel_trace(stack, 0, 0, path)
        rows = path.read_text().strip().splitlines()[1:]
        values = np.array([float(r.split(",")[1]) for r in rows])
        after_pulse = values[12:]
        assert np.all(np.diff(after_pulse) <= 0)
