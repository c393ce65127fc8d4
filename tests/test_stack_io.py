import hashlib
import mmap
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pnpuct import (
    BadHeader,
    BadMagic,
    IndexOutOfRange,
    InvalidScene,
    InvalidStack,
    InvalidWaveform,
    NonFiniteData,
    NonPositiveAmplitude,
    OverwritesInput,
    PixelModel,
    RectPulse,
    Region,
    SceneConfig,
    SimulatedStack,
    ThermogramStack,
    Timing,
    TimingMismatch,
    TrailingBytes,
    TruncatedFile,
    UnencodableMetadata,
    build_bipolar,
    build_unipolar,
    decimate_to_bit_rate,
    export_pixel_trace,
    export_slice,
    generate_ls,
    impulse_response,
    lpt_reference,
    open_stack,
    read_stack,
    simulate_stack,
    snr_metric,
    write_stack,
)
import pnpuct.stack
from pnpuct.stack import (check_stored, chunks, drops_pages, frame_at,
                          read_header)
from pipeline_helpers import resident_kib


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


def metadata_cases(test):
    """Hypothesis cases of metadata that a TGS1 file can hold."""
    return settings(max_examples=60, deadline=None)(given(
        meta=st.dictionaries(
            st.text(max_size=12).filter(lambda k: "\n" not in k
                                        and "=" not in k),
            st.text(max_size=12).filter(lambda v: "\n" not in v),
            max_size=6))(test))


def digest_cases(test):
    """Hypothesis cases of whole stacks, zero-sized ones included."""
    return settings(max_examples=60, deadline=None)(given(
        data=hnp.arrays(
            np.float32, hnp.array_shapes(min_dims=3, max_dims=3,
                                         min_side=0, max_side=4),
            elements=st.floats(-1e6, 1e6, width=32)),
        fps=st.floats(1e-3, 1e4),
        meta=st.dictionaries(
            st.text(max_size=8).filter(lambda k: "\n" not in k
                                       and "=" not in k),
            st.text(max_size=8).filter(lambda v: "\n" not in v),
            max_size=4))(example(
                data=np.zeros((0, 2, 3), np.float32), fps=40.0,
                meta={"kamera": "Wärmebild",
                      "\u6e29\u5ea6": "\u00b0C \U0001f525"})(test)))


class TestRoundTrip:
    # the reader of the file cases, which TestOpenStack runs again
    read = staticmethod(read_stack)

    def test_bit_exact(self, tmp_path):
        stack = small_stack()
        path = tmp_path / "s.tgs"
        write_stack(stack, path)
        back = self.read(path)
        np.testing.assert_array_equal(back.data, stack.data)
        assert back.data.dtype == np.float32
        assert back.fps == np.float32(40.0)
        assert back.metadata == stack.metadata

    def test_rewrite_is_byte_identical(self, tmp_path):
        stack = small_stack()
        a, b = tmp_path / "a.tgs", tmp_path / "b.tgs"
        write_stack(stack, a)
        write_stack(self.read(a), b)
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
            self.read(path)

    def test_truncated(self, tmp_path):
        stack = small_stack()
        path = tmp_path / "t.tgs"
        write_stack(stack, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(TruncatedFile):
            self.read(path)
        path.write_bytes(blob[:10])
        with pytest.raises(TruncatedFile):
            self.read(path)

    def test_metadata_past_the_end_is_truncated(self, tmp_path):
        path = tmp_path / "meta.tgs"
        path.write_bytes(b"TGS1" + struct.pack("<IIIfI", 1, 1, 1, 1.0, 64)
                         + b"a = 1")
        with pytest.raises(TruncatedFile, match="metadata incomplete"):
            self.read(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        stack = small_stack()
        path = tmp_path / "long.tgs"
        write_stack(stack, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TrailingBytes):
            self.read(path)

    def test_exact_fps_from_timing_metadata(self, tmp_path):
        # 0.1 is not a float32; the header alone reads back 0.10000000149
        stack = ThermogramStack(data=np.ones((2, 1, 1), dtype=np.float32),
                                fps=0.1, metadata={"t_bit": "10.0", "k": "1"})
        path = tmp_path / "slow.tgs"
        write_stack(stack, path)
        assert self.read(path).fps == 0.1
        write_stack(ThermogramStack(data=stack.data, fps=0.1), path)
        assert self.read(path).fps == float(np.float32(0.1))
        # metadata that disagrees with the header does not override it
        write_stack(ThermogramStack(data=stack.data, fps=0.1,
                                    metadata={"t_bit": "10.0", "k": "2"}),
                    path)
        assert self.read(path).fps == float(np.float32(0.1))

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
            self.read(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, -1])
    def test_non_finite_first_or_last_voxel_rejected_on_read(
            self, tmp_path, index, value):
        data = np.ones((3, 2, 4), dtype=np.float32)
        path = tmp_path / "n.tgs"
        # built valid, then the sample is set in the file
        write_stack(ThermogramStack(data=data, fps=1.0,
                                    metadata={"odd": "x"}), path)
        blob = bytearray(path.read_bytes())
        offset = len(blob) - 4 if index == -1 else len(blob) - data.nbytes
        blob[offset: offset + 4] = struct.pack("<f", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(NonFiniteData, match="n.tgs: non-finite samples"):
            self.read(path)

    def test_empty_file_is_bad_magic(self, tmp_path):
        path = tmp_path / "empty.tgs"
        path.write_bytes(b"")
        with pytest.raises(BadMagic, match="empty.tgs"):
            self.read(path)

    @pytest.mark.parametrize("fps", [0.0, -25.0, float("nan"), float("inf")])
    def test_bad_header_fps_rejected(self, tmp_path, fps):
        path = tmp_path / "fps.tgs"
        write_stack(small_stack(), path)
        blob = bytearray(path.read_bytes())
        blob[16:20] = struct.pack("<f", fps)
        path.write_bytes(bytes(blob))
        with pytest.raises(BadHeader, match="fps.tgs"):
            self.read(path)

    @pytest.mark.parametrize("fps", [0.0, float("nan"), float("inf"), "10",
                                     None])
    def test_bad_fps_rejected_at_construction(self, fps):
        with pytest.raises(InvalidStack,
                           match="^fps must be positive and finite$"):
            ThermogramStack(data=np.ones((1, 1, 1), dtype=np.float32), fps=fps)

    def test_non_utf8_metadata_is_bad_header(self, tmp_path):
        path = tmp_path / "latin.tgs"
        meta = b"\xff\xfe = 1"
        path.write_bytes(b"TGS1" + struct.pack("<IIIfI", 1, 1, 2, 1.0,
                                               len(meta))
                         + meta + np.zeros(2, "<f4").tobytes())
        with pytest.raises(BadHeader, match="latin.tgs: metadata"):
            self.read(path)

    def test_line_breaks_other_than_newline_round_trip(self, tmp_path):
        meta = {"a": "x\ry", "b": "p q", "c\x1c": "v", "d": "1\u2028 = 2"}
        path = tmp_path / "m.tgs"
        write_stack(small_stack(metadata=meta), path)
        assert self.read(path).metadata == meta

    @pytest.mark.parametrize("meta", [{"a\nb": "1"}, {"a=b": "1"},
                                      {"a": "1\n2"}])
    def test_unencodable_metadata_rejected(self, tmp_path, meta):
        with pytest.raises(UnencodableMetadata):
            write_stack(small_stack(metadata=meta), tmp_path / "u.tgs")

    @metadata_cases
    def test_metadata_round_trip(self, tmp_path_factory, meta):
        stack = ThermogramStack(data=np.zeros((1, 1, 1), dtype=np.float32),
                                fps=40.0, metadata=meta)
        path = tmp_path_factory.mktemp("meta") / "m.tgs"
        write_stack(stack, path)
        back = self.read(path)
        assert back.metadata == meta
        rewritten = path.with_name("again.tgs")
        write_stack(back, rewritten)
        assert rewritten.read_bytes() == path.read_bytes()

    @digest_cases
    def test_digests_are_the_file_hash(self, tmp_path_factory, data, fps,
                                       meta):
        stack = ThermogramStack(data=data, fps=fps, metadata=meta)
        path = tmp_path_factory.mktemp("digest") / "d.tgs"
        written = write_stack(stack, path)
        assert written == hashlib.sha256(path.read_bytes()).hexdigest()
        assert self.read(path).data.shape == data.shape

    @pytest.mark.parametrize("shape", [(2, 2), (2,), (1, 1, 1, 1)])
    def test_data_must_be_three_dimensional(self, shape):
        with pytest.raises(InvalidStack, match=r"\(n_frames, ny, nx\)"):
            ThermogramStack(data=np.ones(shape, dtype=np.float32), fps=1.0)

    def test_non_finite_rejected_at_construction(self):
        data = np.ones((2, 2, 2), dtype=np.float32)
        data[0, 0, 0] = np.inf
        with pytest.raises(NonFiniteData):
            ThermogramStack(data=data, fps=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, -1])
    def test_non_finite_first_or_last_voxel_rejected(self, value, index):
        data = np.ones((3, 2, 4), dtype=np.float32)
        data.reshape(-1)[index] = value
        with pytest.raises(NonFiniteData):
            ThermogramStack(data=data, fps=1.0)

    def test_float32_extremes_and_zero_frames_accepted(self):
        top = np.finfo(np.float32).max
        data = np.array([-top, top], dtype=np.float32).reshape(2, 1, 1)
        assert ThermogramStack(data=data, fps=1.0).n_frames == 2
        empty = np.empty((0, 2, 2), dtype=np.float32)
        assert ThermogramStack(data=empty, fps=1.0).n_frames == 0

    def test_finite_scan_allocates_no_stack_sized_mask(self):
        data = np.ones((2480, 64, 64), dtype=np.float32)
        tracemalloc.start()
        try:
            ThermogramStack(data=data, fps=40.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestOpenStack:
    """The file cases of TestRoundTrip, through open_stack."""

    read = staticmethod(open_stack)
    test_bit_exact = TestRoundTrip.test_bit_exact
    test_rewrite_is_byte_identical = TestRoundTrip.test_rewrite_is_byte_identical
    test_bad_magic = TestRoundTrip.test_bad_magic
    test_empty_file_is_bad_magic = TestRoundTrip.test_empty_file_is_bad_magic
    test_truncated = TestRoundTrip.test_truncated
    test_trailing_bytes_rejected = TestRoundTrip.test_trailing_bytes_rejected
    test_exact_fps_from_timing_metadata = (
        TestRoundTrip.test_exact_fps_from_timing_metadata)
    test_non_finite_rejected_on_read = (
        TestRoundTrip.test_non_finite_rejected_on_read)
    test_non_finite_first_or_last_voxel_rejected_on_read = (
        TestRoundTrip.test_non_finite_first_or_last_voxel_rejected_on_read)
    test_bad_header_fps_rejected = TestRoundTrip.test_bad_header_fps_rejected
    test_non_utf8_metadata_is_bad_header = (
        TestRoundTrip.test_non_utf8_metadata_is_bad_header)
    test_line_breaks_other_than_newline_round_trip = (
        TestRoundTrip.test_line_breaks_other_than_newline_round_trip)
    # hypothesis tests are decorated once per class
    test_metadata_round_trip = metadata_cases(
        TestRoundTrip.test_metadata_round_trip.hypothesis.inner_test)

    @digest_cases
    def test_digests_are_the_file_hash(self, tmp_path_factory, data, fps,
                                       meta):
        # open_stack hashes the file as it reads it
        stack = ThermogramStack(data=data, fps=fps, metadata=meta)
        path = tmp_path_factory.mktemp("digest") / "d.tgs"
        written = write_stack(stack, path)
        digest = hashlib.sha256()
        back = open_stack(path, digest)
        assert digest.hexdigest() == written == hashlib.sha256(
            path.read_bytes()).hexdigest()
        assert back.data.shape == data.shape

    def test_data_is_a_read_only_view_of_the_file(self, tmp_path):
        stack = small_stack()
        path = tmp_path / "s.tgs"
        write_stack(stack, path)
        opened = open_stack(path)
        assert not opened.data.flags.writeable
        assert opened.data.shape == (5, 3, 4)
        with pytest.raises(ValueError, match="read-only"):
            opened.data[0, 0, 0] = 1.0
        np.testing.assert_array_equal(opened.data, stack.data)

    def test_the_file_is_recorded_as_it_was_when_opened(self, tmp_path):
        path = tmp_path / "s.tgs"
        write_stack(small_stack(), path)
        before = os.stat(path)
        opened = open_stack(path)
        assert opened.file == (str(path), before.st_size, before.st_mtime_ns)
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 10 ** 9))
        assert opened.file.mtime_ns == before.st_mtime_ns
        # a stack in memory maps no file
        assert small_stack().file is None
        assert read_stack(path).file is None

    def test_zero_frames(self, tmp_path):
        path = tmp_path / "z.tgs"
        write_stack(ThermogramStack(data=np.empty((0, 2, 3), np.float32),
                                    fps=4.0, metadata={"k": "1"}), path)
        opened = open_stack(path)
        assert opened.data.shape == (0, 2, 3)
        assert opened.metadata == {"k": "1"}

    @pytest.mark.skipif(not Path("/proc/self/smaps").exists(),
                        reason="needs /proc/self/smaps")
    def test_opening_leaves_no_page_of_the_file_resident(self, tmp_path):
        # 8.8 MB of frames after a metadata blob of odd length: each
        # 1 MiB chunk is hashed and checked, and its pages dropped
        data = np.ones((626, 50, 70), dtype=np.float32)
        path = tmp_path / "big.tgs"
        write_stack(ThermogramStack(data=data, fps=1.0,
                                    metadata={"x": "abc"}), path)
        opened = open_stack(path)
        assert resident_kib(opened.data) == 0
        assert float(opened.data[100:110].sum()) == 10 * 50 * 70
        assert resident_kib(opened.data) > 0

    @pytest.mark.skipif(not Path("/proc/self/smaps").exists(),
                        reason="needs /proc/self/smaps")
    @pytest.mark.parametrize("jx, jy", [(0, 0), (69, 49), (13, 31)])
    def test_pixel_trace_leaves_no_page_of_the_file_resident(self, tmp_path,
                                                             jx, jy):
        # 4.2 MB of frames: the trace reads one sample in every page
        data = np.random.default_rng(2).standard_normal(
            (300, 50, 70), dtype=np.float32)
        path = tmp_path / "s.tgs"
        write_stack(ThermogramStack(data=data, fps=1.0,
                                    metadata={"x": "abc"}), path)
        opened = open_stack(path)
        trace = opened.pixel_trace(jx, jy)
        assert resident_kib(opened.data) == 0
        expected = read_stack(path).pixel_trace(jx, jy)
        assert trace.dtype == expected.dtype == np.float64
        assert trace.tobytes() == expected.tobytes()


class TestReadHeader:
    """The header cases of TestRoundTrip, through read_header."""

    read = staticmethod(read_header)
    test_bad_magic = TestRoundTrip.test_bad_magic
    test_empty_file_is_bad_magic = TestRoundTrip.test_empty_file_is_bad_magic
    test_truncated = TestRoundTrip.test_truncated
    test_metadata_past_the_end_is_truncated = (
        TestRoundTrip.test_metadata_past_the_end_is_truncated)
    test_trailing_bytes_rejected = TestRoundTrip.test_trailing_bytes_rejected
    test_exact_fps_from_timing_metadata = (
        TestRoundTrip.test_exact_fps_from_timing_metadata)
    test_bad_header_fps_rejected = TestRoundTrip.test_bad_header_fps_rejected
    test_non_utf8_metadata_is_bad_header = (
        TestRoundTrip.test_non_utf8_metadata_is_bad_header)
    test_line_breaks_other_than_newline_round_trip = (
        TestRoundTrip.test_line_breaks_other_than_newline_round_trip)

    def test_header_of_the_stack_open_stack_maps(self, tmp_path):
        path = tmp_path / "s.tgs"
        write_stack(small_stack(metadata={"k": "2", "t_bit": "0.05"}), path)
        header, stack = read_header(path), open_stack(path)
        assert header == (stack.file, stack.data.shape, stack.fps,
                          stack.metadata)
        assert header.file.path == str(path)

    def test_no_frame_is_read(self, tmp_path):
        # a NaN sample is open_stack's to find
        path = tmp_path / "nan.tgs"
        write_stack(small_stack(), path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        assert read_header(path).shape == (5, 3, 4)
        with pytest.raises(NonFiniteData):
            open_stack(path)


class TestWriteStack:
    """write_stack walks its stack through chunks, as every reader does."""

    @settings(max_examples=60, deadline=None)
    @given(data=hnp.arrays(
               np.float32, hnp.array_shapes(min_dims=3, max_dims=3,
                                            min_side=0, max_side=6),
               elements=st.floats(-1e6, 1e6, width=32)),
           chunk_bytes=st.integers(4, 1 << 20))
    # chunks of one frame of one sample, and a stack of no frames
    @example(data=np.arange(6, dtype=np.float32).reshape(6, 1, 1),
             chunk_bytes=4)
    @example(data=np.zeros((0, 2, 3), np.float32), chunk_bytes=4)
    def test_bytes_and_digest(self, tmp_path_factory, data, chunk_bytes):
        stack = ThermogramStack(data=data, fps=40.0, metadata={"k": "1"})
        expected = (pnpuct.stack._header(data.shape, 40.0, {"k": "1"})
                    + data.astype("<f4").tobytes())
        directory = tmp_path_factory.mktemp("write")
        with mock.patch.object(pnpuct.stack, "CHUNK_BYTES", chunk_bytes):
            digest = write_stack(stack, directory / "memory.tgs")
            again = write_stack(open_stack(directory / "memory.tgs"),
                                directory / "mapped.tgs")
        for name in ("memory.tgs", "mapped.tgs"):
            assert (directory / name).read_bytes() == expected
        assert digest == again == hashlib.sha256(expected).hexdigest()

    def test_a_mapped_stack_is_not_written_over_its_own_file(self, tmp_path):
        # 16 KiB of frames; in a child process, as truncating the file
        # under its mapping would kill it with SIGBUS
        path = tmp_path / "s.tgs"
        write_stack(ThermogramStack(data=np.ones((64, 8, 8), np.float32),
                                    fps=2.0), path)
        before = path.read_bytes()
        script = ("import sys\n"
                  "import pnpuct as pn\n"
                  "try:\n"
                  "    pn.write_stack(pn.open_stack(sys.argv[1]), sys.argv[1])\n"
                  "except pn.OverwritesInput as exc:\n"
                  "    print(exc)\n")
        src = str(Path(pnpuct.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout == f"{path}: is the stack {path} being read\n"
        assert path.read_bytes() == before
        # in process too, and to another path of the same file
        link = tmp_path / "link.tgs"
        link.symlink_to(path)
        with pytest.raises(OverwritesInput):
            write_stack(open_stack(path), link)
        assert path.read_bytes() == before

    @pytest.mark.skipif(not Path("/proc/self/smaps").exists(),
                        reason="needs /proc/self/smaps")
    def test_a_mapped_stack_is_written_with_no_page_resident(self, tmp_path):
        # 8.8 MB of frames, written 1 MiB at a time
        data = np.random.default_rng(3).standard_normal(
            (626, 50, 70), dtype=np.float32)
        source = tmp_path / "source.tgs"
        write_stack(ThermogramStack(data=data, fps=1.0,
                                    metadata={"x": "abc"}), source)
        opened = open_stack(source)
        digest = write_stack(opened, tmp_path / "copy.tgs")
        assert resident_kib(opened.data) == 0
        assert (tmp_path / "copy.tgs").read_bytes() == source.read_bytes()
        assert digest == hashlib.sha256(source.read_bytes()).hexdigest()


class TestChunks:
    """stack.chunks walks axis 0 in (rows, chunk) pairs and drops the
    pages of a mapped file."""

    @settings(max_examples=100, deadline=None)
    @given(length=st.integers(0, 300), width=st.integers(1, 40),
           step=st.integers(1, 303))
    def test_slices_cover_axis_0_once_in_order(self, length, width, step):
        array = np.random.default_rng(length).standard_normal((length, width))
        before = array.tobytes()
        pairs = list(chunks(array, step))
        # the rows cover axis 0 once, in order, and each chunk is their view
        assert [(r.start, r.stop) for r, _ in pairs] == [
            (first, min(first + step, length))
            for first in range(0, length, step)]
        assert all(c.base is array and np.array_equal(c, array[r])
                   for r, c in pairs)
        slices = [c for _, c in pairs]
        assert [len(s) for s in slices] == [
            min(step, length - first) for first in range(0, length, step)]
        assert all(np.shares_memory(s, array) for s in slices)
        assert b"".join(s.tobytes() for s in slices) == before
        # an array in memory drops nothing: it keeps its bytes
        assert not drops_pages(array)
        assert array.tobytes() == before

    # float64 rows of 24 bytes: CHUNK_BYTES of rows, one row at least;
    # rows of no bytes are walked CHUNK_BYTES rows at a time
    @pytest.mark.parametrize("shape, chunk_bytes, step", [
        ((10, 3), 48, 2), ((10, 3), 50, 2), ((10, 3), 4, 1),
        ((10, 3), 1 << 20, 10), ((10, 0), 4, 4), ((0, 3), 48, 1)])
    def test_default_step_is_chunk_bytes_of_rows(self, shape, chunk_bytes,
                                                 step):
        array = np.zeros(shape)
        with mock.patch.object(pnpuct.stack, "CHUNK_BYTES", chunk_bytes):
            rows = [r for r, _ in chunks(array)]
        assert rows == [slice(first, min(first + step, shape[0]))
                        for first in range(0, shape[0], step)]

    @pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"),
                        reason="needs private mappings")
    def test_an_anonymous_mapping_keeps_its_bytes(self):
        # dropping the pages of a private anonymous mapping zeroes them
        whole = np.frombuffer(mmap.mmap(
            -1, 4 * 300 * 2048, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS),
            np.uint8)
        stack = ThermogramStack(data=whole.view("<f4").reshape(300, 32, 64),
                                fps=1.0)
        stack.data[...] = 1.0
        assert not drops_pages(stack.data)
        assert (stack.pixel_trace(0, 0) == 1.0).all()
        assert (stack.data == 1.0).all()

    @pytest.mark.skipif(not Path("/proc/self/smaps").exists(),
                        reason="needs /proc/self/smaps")
    @settings(max_examples=40, deadline=None)
    @given(length=st.integers(0, 300), nx=st.integers(1, 2048),
           step=st.integers(1, 303), madvise=st.booleans())
    # 2.5 MB in chunks of 16 KiB, 1 MiB and more than the whole
    @example(length=300, nx=2048, step=2, madvise=True)
    @example(length=300, nx=2048, step=128, madvise=True)
    @example(length=300, nx=2048, step=301, madvise=False)
    def test_a_pass_over_a_mapped_stack(self, tmp_path_factory, length, nx,
                                        step, madvise):
        # frames after a metadata blob of odd length; without madvise
        # (Windows) the slices are the same and every page read stays
        # resident
        frames = np.random.default_rng(nx).standard_normal(
            (length, 1, nx), dtype=np.float32)
        path = tmp_path_factory.mktemp("chunks") / "s.tgs"
        write_stack(ThermogramStack(data=frames, fps=1.0,
                                    metadata={"x": "abc"}), path)
        with pytest.MonkeyPatch.context() as patch:
            if not madvise:
                patch.delattr(pnpuct.stack.mmap, "MADV_DONTNEED")
            opened = open_stack(path)
            assert drops_pages(opened.data) == madvise
            slices = [s.copy() for _, s in chunks(opened.data, step)]
        assert b"".join(s.tobytes() for s in slices) == frames.tobytes()
        if madvise:
            assert resident_kib(opened.data) == 0
        else:
            assert resident_kib(opened.data) * 1024 >= frames.nbytes


class TestReadStack:
    """read_stack is open_stack plus one copy into memory."""

    @pytest.mark.parametrize("metadata", [{}, {"x": "abc"}],
                             ids=["aligned", "unaligned"])
    def test_a_writeable_copy_of_the_opened_stack(self, tmp_path, metadata):
        # 1.26 MB of frames, more than one chunk, with signed zeros; odd
        # metadata leaves the mapped frames unaligned
        data = np.random.default_rng(0).standard_normal(
            (90, 50, 70), dtype=np.float32)
        data[0, 0, :2] = [0.0, -0.0]
        path = tmp_path / "s.tgs"
        write_stack(ThermogramStack(data=data, fps=2.0, metadata=metadata),
                    path)
        read, opened = read_stack(path), open_stack(path)
        assert read.data.dtype == np.float32
        assert read.data.flags.writeable and read.data.flags.c_contiguous
        assert not drops_pages(read.data)
        assert read.data.tobytes() == opened.data.tobytes()
        assert (read.fps, read.metadata) == (opened.fps, opened.metadata)
        read.data[0, 0, 0] = 1.0
        assert opened.data[0, 0, 0] == 0.0

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                        reason="needs /proc/self/maps")
    def test_no_mapping_of_the_file_is_left(self, tmp_path):
        path = tmp_path / "s.tgs"
        write_stack(small_stack(), path)
        stack = read_stack(path)
        assert str(path) not in Path("/proc/self/maps").read_text()
        opened = open_stack(path)
        assert str(path) in Path("/proc/self/maps").read_text()
        np.testing.assert_array_equal(stack.data, opened.data)


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

    @pytest.mark.parametrize("index", [1.5, True, np.float64(1.0), None])
    def test_an_index_that_is_not_an_integer(self, tmp_path, index):
        # refused before any of the three files is written
        with pytest.raises(IndexOutOfRange):
            export_slice(small_stack(), index, tmp_path / "s")
        assert not list(tmp_path.iterdir())

    def test_frame_at_rounds_the_time_at_the_frame_rate(self):
        stack = ThermogramStack(data=np.zeros((8, 1, 1), np.float32), fps=2.0)
        assert [frame_at(stack, t) for t in (0.0, 1.2, 1.3, -1.0)] == [
            0, 2, 3, -2]

    @pytest.mark.parametrize("seconds",
                             [np.inf, -np.inf, np.nan, 1e308, None, "1"])
    def test_frame_at_no_finite_frame(self, seconds):
        # 1e308 s is finite, but not at 2 fps
        stack = ThermogramStack(data=np.zeros((8, 1, 1), np.float32), fps=2.0)
        with pytest.raises(IndexOutOfRange, match="no frame"):
            frame_at(stack, seconds)


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

    @pytest.mark.parametrize("jx, jy", [
        (1.5, 0), (True, 0), (0, np.float64(1.0)), (None, 0)])
    def test_a_pixel_that_is_not_an_integer(self, tmp_path, jx, jy):
        stack = small_stack()
        assert len(stack.pixel_trace(np.int64(1), np.uint8(0))) == 5
        with pytest.raises(IndexOutOfRange):
            stack.pixel_trace(jx, jy)
        with pytest.raises(IndexOutOfRange):
            export_pixel_trace(stack, jx, jy, tmp_path / "p.csv")
        assert not list(tmp_path.iterdir())

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


class TestFramesOfASimulatedStack:
    """A SimulatedStack stores no sample: its frames' readers refuse it."""

    @pytest.fixture
    def simulated(self):
        # a 4 x 4 px LS7 scene at K = 4
        timing = Timing(t_bit=1.0, fps=4.0, n_per=2)
        wave = build_unipolar(build_bipolar(generate_ls(7), timing), 1.0)
        scene = SceneConfig(nx=4, ny=4, background=PixelModel(
            diffusivity=1e-6), noise_sigma=0.1, rng_seed=5)
        return SimulatedStack(scene, wave), timing

    def test_snr_metric(self, simulated):
        stack, _ = simulated
        with pytest.raises(InvalidStack, match=r"no samples.*bands\(\)"):
            snr_metric(stack, Region(x0=0, y0=0, width=2, height=2),
                       Region(x0=2, y0=0, width=2, height=2))

    def test_export_slice(self, simulated, tmp_path):
        stack, _ = simulated
        with pytest.raises(InvalidStack, match=r"no samples.*bands\(\)"):
            export_slice(stack, 1, tmp_path / "s")
        assert not list(tmp_path.iterdir())

    def test_decimate_to_bit_rate(self, simulated):
        stack, timing = simulated
        with pytest.raises(InvalidStack, match=r"no samples.*bands\(\)"):
            decimate_to_bit_rate(stack, timing)

    def test_export_pixel_trace(self, simulated, tmp_path):
        stack, _ = simulated
        with pytest.raises(InvalidStack, match=r"no samples.*bands\(\)"):
            export_pixel_trace(stack, 1, 2, tmp_path / "p.csv")
        assert not list(tmp_path.iterdir())

    def test_write_stack(self, simulated, tmp_path):
        # its placeholder data would reshape to a view of one NaN
        stack, _ = simulated
        with pytest.raises(InvalidStack, match=r"no samples.*bands\(\)"):
            write_stack(stack, tmp_path / "s.tgs")
        assert not list(tmp_path.iterdir())


def _walk(bands):
    """The cols of each (cols, band) pair, and every band's samples side by
    side, copied as each band is drawn."""
    pairs = [(cols, band.copy()) for cols, band in bands]
    assert all(band.dtype == np.float32 for _, band in pairs)
    return [cols for cols, _ in pairs], np.hstack([b for _, b in pairs])


class TestBands:
    """bands(width): the one way a stored or simulated stack reaches the
    block core."""

    @pytest.mark.skipif(not Path("/proc/self/smaps").exists(),
                        reason="needs /proc/self/smaps")
    @settings(max_examples=25, deadline=None)
    @given(nx=st.integers(1, 40), ny=st.integers(1, 20), k=st.integers(1, 3),
           blocks=st.integers(1, 3), seed=st.integers(0, 2 ** 31 - 1))
    # 800 px: four bands of one block, the last one short
    @example(nx=40, ny=20, k=3, blocks=1, seed=5)
    def test_the_band_protocol(self, tmp_path_factory, nx, ny, k, blocks,
                               seed):
        timing = Timing(t_bit=1.0, fps=float(k), n_per=2)
        wave = build_unipolar(build_bipolar(generate_ls(7), timing), 1.0)
        scene = SceneConfig(nx=nx, ny=ny, background=PixelModel(
            diffusivity=1e-6), noise_sigma=0.1, rng_seed=seed)
        n_pix, block = nx * ny, pnpuct.stack._BLOCK
        width = blocks * block
        in_memory = simulate_stack(scene, wave)
        n = in_memory.n_frames
        samples = in_memory.data.reshape(n, n_pix)

        # a stack in memory is one band: its data, read in place
        [(cols, band)] = in_memory.bands(width)
        assert cols == slice(0, n_pix)
        assert band.shape == (n, n_pix)
        assert np.shares_memory(band, in_memory.data)
        assert band.tobytes() == samples.tobytes()

        # a mapped stack: bands of width columns, in order, of every
        # column, and no page of the file resident after the walk
        path = tmp_path_factory.mktemp("bands") / "s.tgs"
        write_stack(in_memory, path)
        mapped = open_stack(path)
        spans, walked = _walk(mapped.bands(width))
        assert spans == [slice(s, min(s + width, n_pix))
                         for s in range(0, n_pix, width)]
        assert resident_kib(mapped.data) == 0
        assert walked.tobytes() == read_stack(path).data.reshape(
            n, n_pix).tobytes() == samples.tobytes()

        # a simulated stack: the same samples at any width
        simulated = SimulatedStack(scene, wave)
        for w in (width, block):
            spans, walked = _walk(simulated.bands(w))
            assert spans == [slice(s, min(s + w, n_pix))
                             for s in range(0, n_pix, w)]
            assert walked.tobytes() == samples.tobytes()

        # only a ThermogramStack stores samples
        with pytest.raises(InvalidStack, match=r"no samples"):
            check_stored(simulated)
        check_stored(mapped)
        check_stored(in_memory)

    @pytest.mark.parametrize("width", [0, -256, 1.5, True])
    @pytest.mark.parametrize("kind", ["memory", "mapped", "simulated"])
    def test_a_width_that_is_not_a_positive_integer(self, tmp_path, kind,
                                                    width):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        wave = build_unipolar(build_bipolar(generate_ls(7), timing), 1.0)
        scene = SceneConfig(nx=4, ny=4, background=PixelModel(
            diffusivity=1e-6), noise_sigma=0.1, rng_seed=5)
        if kind == "simulated":
            stack = SimulatedStack(scene, wave)
        else:
            stack = simulate_stack(scene, wave, tmp_path / "s.tgs"
                                   if kind == "mapped" else None)
        with pytest.raises(InvalidStack, match="positive integer"):
            next(stack.bands(width))


HUGE = 10 ** 400


def _wave():
    return build_bipolar(generate_ls(7), Timing(t_bit=1.0, fps=1.0))


def _frame_of(seconds):
    return frame_at(small_stack(), seconds)


@pytest.mark.parametrize("build, error", [
    # an int beyond the float range was compared exactly, then stored or
    # multiplied as a float: a bare OverflowError, or accepted
    (lambda: Timing(HUGE, 1.0), TimingMismatch),
    (lambda: Timing(1.0, 40.0, n_per=HUGE), TimingMismatch),
    (lambda: SceneConfig(nx=1, ny=1, background=PixelModel(1e-6),
                         noise_sigma=HUGE), InvalidScene),
    (lambda: ThermogramStack(data=np.ones((1, 1, 1), np.float32), fps=HUGE),
     InvalidStack),
    (lambda: build_unipolar(_wave(), HUGE), NonPositiveAmplitude),
    (lambda: impulse_response(PixelModel(1e-6), Timing(1.0, 1.0), HUGE),
     InvalidScene),
    (lambda: _frame_of(HUGE), IndexOutOfRange),
    (lambda: _frame_of(-HUGE), IndexOutOfRange),
    (lambda: RectPulse(HUGE, 1.0), InvalidWaveform),
    (lambda: PixelModel(diffusivity=HUGE), InvalidScene),
    (lambda: PixelModel(diffusivity=1e-6, defect_depth=HUGE), InvalidScene),
    (lambda: PixelModel(diffusivity=1e-6, amplitude_scale=-HUGE),
     InvalidScene),
    # a bool is no real number
    (lambda: Timing(True, 40.0), TimingMismatch),
    (lambda: PixelModel(diffusivity=True), InvalidScene),
    (lambda: RectPulse(True, True), InvalidWaveform),
    (lambda: SceneConfig(nx=1, ny=1, background=PixelModel(1e-6),
                         noise_sigma=True), InvalidScene),
    (lambda: ThermogramStack(data=np.ones((1, 1, 1), np.float32), fps=True),
     InvalidStack),
], ids=["timing-t_bit", "timing-n_per", "noise_sigma", "stack-fps",
        "amplitude", "duration", "seconds", "negative-seconds",
        "pulse-duration", "diffusivity", "defect_depth", "amplitude_scale",
        "timing-bool", "diffusivity-bool", "pulse-bool", "noise_sigma-bool",
        "stack-fps-bool"])
def test_a_huge_int_or_a_bool_is_no_real_argument(build, error):
    # stack.real gives +-inf for the first and NaN for the second, and
    # each range check fails with its typed error
    with pytest.raises(error):
        build()
