import numpy as np
import pytest

from pnpuct import (
    CodeKind,
    ExcitationWaveform,
    InvalidWaveform,
    MlsSpec,
    NonPositiveAmplitude,
    PnCode,
    RectPulse,
    ThermogramStack,
    Timing,
    TimingMismatch,
    UnmodifiedCode,
    WaveformKind,
    binarize_ls4,
    build_bipolar,
    build_matched_filter,
    build_unipolar,
    generate_ls,
    generate_mls,
    modify_for_perfect_pacf,
    waveform_to_csv,
)
from pnpuct.waveform import filter_to_csv, timing_of
from conftest import MLS7, dense_taps, resolution_function


def cyclic_convolve_direct(a, b):
    """O(N^2) cyclic convolution, the independent oracle."""
    n = len(a)
    return np.array([sum(a[m] * b[(i - m) % n] for m in range(n))
                     for i in range(n)])


def table1_mls7():
    return PnCode(kind=CodeKind.MLS, n_bit=7, values=MLS7.copy(), gain=7.0)


class TestTiming:
    def test_k_and_dt(self):
        t = Timing(t_bit=1.4, fps=40.0)
        assert t.k == 56
        assert t.dt == pytest.approx(0.025)
        assert t.t_meas(23) == pytest.approx(32.2)
        assert t.total_frames(23) == 2 * 56 * 23

    def test_non_integer_product_rejected(self):
        with pytest.raises(TimingMismatch):
            Timing(t_bit=1.0 / 3.0, fps=40.0)

    def test_fractional_fps_allowed_when_integer_product(self):
        t = Timing(t_bit=1.4, fps=40.0 / 56.0)
        assert t.k == 1

    def test_n_per_minimum(self):
        with pytest.raises(TimingMismatch):
            Timing(t_bit=1.0, fps=10.0, n_per=1)

    def test_positive(self):
        with pytest.raises(TimingMismatch):
            Timing(t_bit=-1.0, fps=10.0)

    @pytest.mark.parametrize("t_bit, fps, n_per", [
        (np.inf, 1.0, 2),
        (1.0, np.inf, 2),
        (1e200, 1e200, 2),
        (np.nan, 1.0, 2),
        (1.0, np.nan, 2),
        (1.0, 1.0, 2.7),
        (1.0, 1.0, np.nan),
        (1.0, 1.0, np.inf),
    ])
    def test_non_finite_or_fractional_rejected(self, t_bit, fps, n_per):
        with pytest.raises(TimingMismatch):
            Timing(t_bit=t_bit, fps=fps, n_per=n_per)


class TestTimingOf:
    @staticmethod
    def stack(fps=2.0, **metadata):
        return ThermogramStack(data=np.zeros((1, 1, 1), np.float32), fps=fps,
                               metadata=metadata)

    def test_stack_fills_what_is_not_given(self):
        stack = self.stack(fps=4.0, t_bit="0.5", n_per="3", k="2")
        assert timing_of(stack) == Timing(t_bit=0.5, fps=4.0, n_per=3)
        assert timing_of(stack, n_per=2) == Timing(0.5, 4.0, 2)

    def test_given_value_wins(self):
        stack = self.stack(fps=4.0, t_bit="0.5", n_per="3")
        assert timing_of(stack, "1", "2", "2") == Timing(1.0, 2.0, 2)
        assert timing_of(stack, t_bit=0.25) == Timing(0.25, 4.0, 3)

    def test_n_per_default_is_timings(self):
        assert timing_of(self.stack(t_bit="1")) == Timing(t_bit=1.0, fps=2.0)
        assert timing_of(None, "1", "2") == Timing(t_bit=1.0, fps=2.0)

    @pytest.mark.parametrize("stack, args", [
        (None, ("1", "2", "2.5")),
        (None, ("1", "2", "two")),
        (None, ("1", "0", None)),
        (None, (None, "2", None)),
        (None, ("1", None, None)),
        ({"t_bit": "1", "n_per": "2.5"}, ()),
        ({"n_per": "2"}, ()),
    ])
    def test_bad_or_missing_values_rejected(self, stack, args):
        stack = None if stack is None else self.stack(**stack)
        with pytest.raises(TimingMismatch):
            timing_of(stack, *args)


class TestRectPulse:
    def test_validation(self):
        RectPulse(duration=3.0, amplitude=1.0)
        with pytest.raises(NonPositiveAmplitude):
            RectPulse(duration=3.0, amplitude=0.0)
        with pytest.raises(InvalidWaveform,
                           match="^duration must be positive and finite$"):
            RectPulse(duration=0.0, amplitude=1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rejected(self, value):
        # such a pulse reached lpt_reference: a non-finite amplitude gave
        # non-finite samples, a duration a bare ValueError or OverflowError
        with pytest.raises(InvalidWaveform, match="finite"):
            RectPulse(duration=value, amplitude=1.0)
        with pytest.raises(NonPositiveAmplitude, match="finite"):
            RectPulse(duration=1.0, amplitude=value)


class TestBuildBipolar:
    def test_ls4_base_11bit_k3(self):
        code = binarize_ls4(generate_ls(11), +1)
        wave = build_bipolar(code, Timing(t_bit=3.0, fps=1.0))
        assert len(wave.samples) == 33
        np.testing.assert_allclose(
            wave.samples, np.repeat(code.base_values, 3), rtol=1e-12)
        assert set(np.round(wave.samples, 9)) == {-1.0, 1.0}

    def test_k1_verbatim(self):
        code = generate_ls(7)
        wave = build_bipolar(code, Timing(t_bit=1.0, fps=1.0))
        np.testing.assert_array_equal(wave.samples, code.values)

    def test_mls7_k2_frozen(self):
        wave = build_bipolar(table1_mls7(), Timing(t_bit=2.0, fps=1.0))
        expected = [1, 1, -1, -1, -1, -1, 1, 1, -1, -1, 1, 1, 1, 1]
        np.testing.assert_array_equal(wave.samples, expected)

    def test_kind_and_duration(self):
        wave = build_bipolar(generate_ls(31), Timing(t_bit=1.0, fps=40.0))
        assert wave.kind is WaveformKind.BIPOLAR_XPN
        assert len(wave.samples) == 1240
        assert wave.duration == pytest.approx(31.0)


class TestBuildUnipolar:
    def test_two_sample_by_hand(self):
        bipolar = ExcitationWaveform(
            samples=np.array([1.0, -1.0]), kind=WaveformKind.BIPOLAR_XPN,
            timing=Timing(t_bit=1.0, fps=1.0, n_per=2))
        uni = build_unipolar(bipolar, amplitude=2.0)
        np.testing.assert_array_equal(uni.samples, [2, 0, 2, 0])

    def test_mls7_on_count(self):
        bipolar = build_bipolar(table1_mls7(),
                                Timing(t_bit=1.0, fps=1.0, n_per=2))
        uni = build_unipolar(bipolar, amplitude=1.0)
        assert len(uni.samples) == 14
        assert set(uni.samples) == {0.0, 1.0}
        assert np.sum(uni.samples[:7] == 1.0) == 4

    def test_ls_zero_bit_at_half_amplitude(self):
        bipolar = build_bipolar(generate_ls(7), Timing(t_bit=1.0, fps=2.0))
        uni = build_unipolar(bipolar, amplitude=3.0)
        assert uni.samples[0] == pytest.approx(1.5)
        assert uni.samples[1] == pytest.approx(1.5)
        assert uni.samples[2] == pytest.approx(3.0)

    def test_non_positive_amplitude(self):
        bipolar = build_bipolar(generate_ls(7), Timing(t_bit=1.0, fps=1.0))
        with pytest.raises(NonPositiveAmplitude):
            build_unipolar(bipolar, amplitude=-1.0)

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf])
    def test_non_finite_amplitude(self, amplitude):
        # it stopped a run only at stage simulate, on the non-finite
        # samples it made
        bipolar = build_bipolar(generate_ls(7), Timing(t_bit=1.0, fps=1.0))
        with pytest.raises(NonPositiveAmplitude):
            build_unipolar(bipolar, amplitude=amplitude)

    def test_decomposition_identity(self):
        bipolar = build_bipolar(generate_ls(11),
                                Timing(t_bit=0.5, fps=8.0, n_per=3))
        uni = build_unipolar(bipolar, amplitude=2.5)
        np.testing.assert_array_equal(uni.samples - 1.25,
                                      1.25 * np.tile(bipolar.samples, 3))

    def test_energy_bookkeeping(self):
        code = table1_mls7()
        timing = Timing(t_bit=0.5, fps=4.0, n_per=2)
        bipolar = build_bipolar(code, timing)
        uni = build_unipolar(bipolar, amplitude=2.0)
        # ON time per period equals t_bit times the +1 bit count
        on_time = np.sum(uni.samples[:14] == 2.0) * timing.dt
        assert on_time == pytest.approx(0.5 * 4)
        energy = np.sum(uni.samples) * timing.dt
        t_meas = timing.t_meas(7)
        expected = 0.5 * 2.0 * timing.n_per * t_meas * (1 + 1 / 7)
        assert energy == pytest.approx(expected, rel=1e-12)


class TestWaveformRules:
    TIMING = Timing(t_bit=1.0, fps=1.0, n_per=2)

    @pytest.mark.parametrize("kind, samples, amplitude, match", [
        (WaveformKind.BIPOLAR_XPN, np.ones(6), None, "span one period"),
        (WaveformKind.UNIPOLAR_XTH, np.ones(7), 1.0, "span n_per periods"),
        (WaveformKind.UNIPOLAR_XTH, np.full(14, 3.0), 2.0,
         r"lie in \[0, amplitude\]"),
    ], ids=["bipolar-length", "unipolar-length", "unipolar-range"])
    def test_samples_checked(self, kind, samples, amplitude, match):
        with pytest.raises(InvalidWaveform, match=match):
            ExcitationWaveform(samples=samples, kind=kind, timing=self.TIMING,
                               source_code=table1_mls7(), amplitude=amplitude)

    def test_unipolar_of_a_unipolar_wave(self):
        uni = build_unipolar(build_bipolar(table1_mls7(), self.TIMING), 1.0)
        with pytest.raises(InvalidWaveform, match="must be a bipolar"):
            build_unipolar(uni, 1.0)


class TestMatchedFilter:
    def test_k1_time_reversed(self, ls31_plus):
        filt = build_matched_filter(ls31_plus, Timing(t_bit=1.0, fps=1.0))
        expected = ls31_plus.values[(-np.arange(31)) % 31]
        np.testing.assert_array_equal(filt.bit_taps, expected)
        assert not filt.bit_taps.flags.writeable
        assert filt.k == 1
        assert filt.gain == 31.0

    def test_ls11_4plus_k3_layout(self, tmp_path):
        code = binarize_ls4(generate_ls(11), +1)
        filt = build_matched_filter(code, Timing(t_bit=3.0, fps=1.0))
        path = tmp_path / "filter.csv"
        filter_to_csv(filt, path)
        header, *rows = path.read_text().splitlines()
        assert header == "tap_index,value"
        index, taps = zip(*(row.split(",") for row in rows))
        assert [int(n) for n in index] == list(range(33))
        taps = np.array([float(v) for v in taps])
        nonzero = np.flatnonzero(taps)
        np.testing.assert_array_equal(nonzero, np.arange(0, 33, 3))
        np.testing.assert_array_equal(taps[nonzero], filt.bit_taps)
        np.testing.assert_array_equal(taps, dense_taps(code, 3))

    def test_unmodified_rejected(self, ls31):
        with pytest.raises(UnmodifiedCode):
            build_matched_filter(ls31, Timing(t_bit=1.0, fps=40.0))


class TestResolutionFunction:
    """The compression core's filter op on the periodic code."""

    def test_ls31_plus_k1(self, ls31_plus):
        res = resolution_function(ls31_plus, Timing(t_bit=1.0, fps=1.0))
        assert res[0] == pytest.approx(31.0, rel=1e-12)
        np.testing.assert_allclose(res[1:], 0.0, atol=1e-9)

    def test_ls11_4plus_k3(self):
        code = binarize_ls4(generate_ls(11), +1)
        res = resolution_function(code, Timing(t_bit=3.0, fps=1.0))
        np.testing.assert_allclose(res[:3], 12.0, rtol=1e-12)
        np.testing.assert_allclose(res[3:], 0.0, atol=1e-9)

    def test_mls7_plus_k4_against_direct_oracle(self, mls7):
        code = modify_for_perfect_pacf(mls7)
        res = resolution_function(code, Timing(t_bit=4.0, fps=1.0))
        np.testing.assert_allclose(res[:4], 8.0, rtol=1e-12)
        np.testing.assert_allclose(res[4:], 0.0, atol=1e-9)
        upsampled = np.repeat(code.values, 4)
        oracle = cyclic_convolve_direct(upsampled, dense_taps(code, 4))
        np.testing.assert_allclose(res, oracle, atol=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 20])
    def test_resolution_exactness_sample(self, k, ls31_plus):
        res = resolution_function(ls31_plus, Timing(t_bit=float(k), fps=1.0))
        gain = ls31_plus.gain
        np.testing.assert_allclose(res[:k], gain, rtol=1e-9)
        assert np.abs(res[k:]).max() < 1e-9 * gain


class TestCsvExport:
    def test_round_trip(self, tmp_path):
        wave = build_bipolar(generate_ls(7), Timing(t_bit=0.5, fps=4.0))
        path = tmp_path / "wave.csv"
        waveform_to_csv(wave, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "time_s,value"
        times, values = zip(*(r.split(",") for r in rows[1:]))
        np.testing.assert_array_equal([float(v) for v in values], wave.samples)
        assert float(times[1]) == pytest.approx(0.25)


class TestBinaryTraceExport:
    def test_waveform_as_stack_round_trip(self, tmp_path):
        from pnpuct import read_stack, waveform_to_stack, write_stack

        timing = Timing(t_bit=0.5, fps=4.0, n_per=2)
        wave = build_unipolar(build_bipolar(generate_ls(7), timing), 2.0)
        stack = waveform_to_stack(wave)
        assert stack.data.shape == (28, 1, 1)
        assert stack.metadata["waveform_kind"] == "UNIPOLAR_XTH"
        assert stack.metadata["amplitude"] == "2.0"
        path = tmp_path / "w.tgs"
        write_stack(stack, path)
        back = read_stack(path)
        np.testing.assert_array_equal(
            back.data[:, 0, 0], wave.samples.astype(np.float32))
