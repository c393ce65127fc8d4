import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import pnpuct.compression
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pnpuct import (
    EmptyRegion,
    InvalidScene,
    MlsSpec,
    NonFiniteData,
    Normalization,
    PixelModel,
    PnPuctError,
    RectPulse,
    Region,
    RegionOverlap,
    SceneConfig,
    ShapeMismatch,
    SimulatedStack,
    ThermogramStack,
    Timing,
    UnmodifiedCode,
    binarize_ls4,
    build_bipolar,
    build_matched_filter,
    build_unipolar,
    compress_stack,
    compress_trace,
    decimate_to_bit_rate,
    design_matrix,
    generate_ls,
    generate_mls,
    impulse_response,
    lpt_reference,
    modify_for_perfect_pacf,
    open_stack,
    read_stack,
    remove_dc,
    remove_dc_stack,
    respond,
    simulate_stack,
    snr_metric,
    verify_resolution,
    write_stack,
)
from pipeline_helpers import (file_sha256, fusion_bound, resident_kib,
                              run_pixel)

SOUND = PixelModel(diffusivity=1e-6)
PLUS_CODES = [
    modify_for_perfect_pacf(generate_ls(7)),
    modify_for_perfect_pacf(generate_ls(13)),
    modify_for_perfect_pacf(generate_mls(MlsSpec(order=3))),
    modify_for_perfect_pacf(generate_mls(MlsSpec(order=4))),
    binarize_ls4(generate_ls(11), -1),
]
RESOLUTION_CODES = [
    modify_for_perfect_pacf(generate_ls(31)),
    modify_for_perfect_pacf(generate_ls(127)),
    modify_for_perfect_pacf(generate_mls(MlsSpec(order=5))),
    binarize_ls4(generate_ls(31), -1),
]
LS1031_PLUS = modify_for_perfect_pacf(generate_ls(1031))


def _camera_stack():
    """64 x 64 px x 2480 frames (LS31, K = 40) of noise: a 40.6 MB stack."""
    timing = Timing(t_bit=1.0, fps=40.0, n_per=2)
    data = np.random.default_rng(0).standard_normal(
        (timing.total_frames(31), 64, 64), dtype=np.float32)
    return ThermogramStack(data=data, fps=timing.fps), timing


def _peak_alloc(fn, *args, **kwargs):
    """Peak bytes that tracemalloc sees allocated during one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCompressTrace:
    def test_code_itself_gives_gain_times_pulse(self, ls31_plus):
        timing = Timing(t_bit=1.0, fps=3.0, n_per=2)
        y = np.tile(np.repeat(ls31_plus.values, 3), 2)
        out = compress_trace(y, ls31_plus, timing)
        np.testing.assert_allclose(out.values[:3], 31.0, rtol=1e-9)
        np.testing.assert_allclose(out.values[3:], 0.0, atol=1e-9 * 31)
        assert out.periods_averaged == 1

    def test_zeros_give_zeros(self, ls31_plus):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        out = compress_trace(np.zeros(124), ls31_plus, timing)
        np.testing.assert_array_equal(out.values, np.zeros(62))

    def test_transparency_vs_lpt_reference(self, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=40.0, n_per=2)
        compressed, _ = run_pixel(SOUND, ls31, ls31_plus, timing)
        reference = lpt_reference(SOUND, RectPulse(duration=1.0, amplitude=1.0),
                                  timing, timing.t_meas(31))
        scaled = compressed.values / (ls31_plus.gain * 0.5)
        err = np.sqrt(np.mean((scaled - reference) ** 2))
        assert err < 0.02 * reference.max()

    @pytest.mark.parametrize("code_name, n_frames, error", [
        ("ls31_plus", 62, ShapeMismatch),
        ("ls31_plus", 130, ShapeMismatch),
        ("ls31_plus", 186, ShapeMismatch),
        ("ls31", 124, UnmodifiedCode),
    ], ids=["62-frames", "130-frames", "186-frames", "unmodified"])
    def test_same_errors_as_the_stack(self, request, code_name, n_frames,
                                      error):
        # n_per = 2 at K = 2 is 124 frames: fewer, more or a partial
        # period fail both calls alike, as does a code with sidelobes
        code = request.getfixturevalue(code_name)
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        with pytest.raises(error):
            compress_trace(np.zeros(n_frames), code, timing)
        stack = ThermogramStack(
            data=np.ones((n_frames, 1, 1), dtype=np.float32), fps=2.0)
        with pytest.raises(error):
            compress_stack(stack, code, timing)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 61, 123])
    def test_non_finite_sample_raises(self, ls31_plus, value, index):
        # a trace is held to a stack's rule: a stack of the same samples
        # is refused at construction
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        y = np.zeros(124)
        y[index] = value
        with pytest.raises(NonFiniteData,
                           match="^trace samples must be finite$"):
            compress_trace(y, ls31_plus, timing)
        with pytest.raises(NonFiniteData,
                           match="^stack data must be finite$"):
            ThermogramStack(data=y.reshape(124, 1, 1), fps=timing.fps)

    def test_fft_matches_direct_convolution(self, ls31_plus):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=3)
        filt = build_matched_filter(ls31_plus, timing)
        rng = np.random.default_rng(12)
        y = rng.normal(size=3 * 62)
        out = compress_trace(y, ls31_plus, timing)
        period = 62
        conv = np.convolve(y, filt.taps)
        direct = np.mean([conv[period: 2 * period], conv[2 * period: 3 * period]],
                         axis=0)
        np.testing.assert_allclose(out.values, direct, rtol=1e-10, atol=1e-10)

    def test_single_period_flag(self, ls31_plus):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=3)
        filt = build_matched_filter(ls31_plus, timing)
        rng = np.random.default_rng(13)
        y = rng.normal(size=3 * 62)
        single = compress_trace(y, ls31_plus, timing, single_period=True)
        conv = np.convolve(y, filt.taps)
        np.testing.assert_allclose(single.values, conv[62:124], rtol=1e-10)
        assert single.periods_averaged == 1

    def test_gain_linearity(self, ls31_plus):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        rng = np.random.default_rng(14)
        y = rng.normal(size=124)
        base = compress_trace(y, ls31_plus, timing).values
        scaled = compress_trace(2.5 * y, ls31_plus, timing).values
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)

    @staticmethod
    def _period_residual(h, t_bit, k, n_per=3):
        """Relative RMS difference of consecutive steady periods for the
        exact response to the modified-sequence excitation."""
        from pnpuct import ExcitationWaveform, WaveformKind

        code = generate_ls(31)
        plus = modify_for_perfect_pacf(code)
        timing = Timing(t_bit=t_bit, fps=k / t_bit, n_per=n_per)
        x_mod = ExcitationWaveform(
            samples=0.5 * np.tile(np.repeat(plus.values, k), n_per),
            kind=WaveformKind.BIPOLAR_XPN, timing=timing)
        y_ac = respond(h(len(x_mod.samples), timing.dt), x_mod)
        filt = build_matched_filter(plus, timing)
        conv = np.convolve(y_ac, filt.taps)
        period = len(filt.taps)
        p1 = conv[period: 2 * period]
        p2 = conv[2 * period: 3 * period]
        return np.linalg.norm(p2 - p1) / np.linalg.norm(p1)

    def test_steady_state_periodicity(self):
        # a pixel whose response dies within one code period (strong
        # heat drain into a high-effusivity backing): consecutive
        # post-transient periods agree to better than 1 percent
        model = PixelModel(diffusivity=1e-6, defect_depth=0.5e-3,
                           reflection_coeff=-0.99)

        def h(n, dt):
            return impulse_response(model, Timing(t_bit=1.0, fps=1 / dt),
                                    n * dt)

        assert self._period_residual(h, t_bit=1.0, k=4) < 0.01

    def test_aliasing_residual_shrinks_as_t_meas_grows(self):
        # lumped-capacitance pixel (Newton cooling, time constant 2 s):
        # the uncaptured tail, and with it the period-to-period
        # residual, shrinks as the code period is stretched
        def h(n, dt):
            return np.exp(-np.arange(n) * dt / 2.0) / 2.0

        residuals = [self._period_residual(h, t_bit=t, k=4)
                     for t in (0.25, 0.5, 1.0, 2.0)]
        assert all(a > b for a, b in zip(residuals, residuals[1:]))

    def test_period_averaging_reduces_noise_variance(self, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=1.0, n_per=3)
        rng = np.random.default_rng(15)
        sigma = 0.1
        clean, _ = run_pixel(SOUND, ls31, ls31_plus, timing)
        var_avg, var_single = [], []
        for _ in range(120):
            noise = rng.normal(0, sigma, 3 * 31)
            avg, _ = run_pixel(SOUND, ls31, ls31_plus, timing, noise=noise)
            single, _ = run_pixel(SOUND, ls31, ls31_plus, timing, noise=noise,
                                  single_period=True)
            var_avg.append(np.var(avg.values - clean.values))
            var_single.append(np.var(single.values - clean.values))
        ratio = np.mean(var_avg) / np.mean(var_single)
        assert 0.4 < ratio < 0.6


class TestCompressStack:
    def _dc_removed_stack(self, scene, code, plus, timing):
        unipolar = build_unipolar(build_bipolar(code, timing), 1.0)
        raw = simulate_stack(scene, unipolar)
        removed, _ = remove_dc_stack(raw, plus, timing)
        return removed

    def test_uniform_stack_compresses_uniformly(self, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        scene = SceneConfig(nx=3, ny=2, background=SOUND)
        removed = self._dc_removed_stack(scene, ls31, ls31_plus, timing)
        out = compress_stack(removed, ls31_plus, timing)
        assert out.n_frames == 62
        first = out.data[:, 0, 0]
        for jy in range(2):
            for jx in range(3):
                np.testing.assert_array_equal(out.data[:, jy, jx], first)
        assert out.metadata["stage"] == "compressed"

    def test_stack_matches_trace_path(self, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        scene = SceneConfig(nx=2, ny=1, background=SOUND)
        removed = self._dc_removed_stack(scene, ls31, ls31_plus, timing)
        out = compress_stack(removed, ls31_plus, timing)
        trace = compress_trace(removed.pixel_trace(0, 0), ls31_plus, timing)
        np.testing.assert_array_equal(out.data[:, 0, 0],
                                      np.float32(trace.values))

    def test_normalizations_are_exact_scalings(self, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        scene = SceneConfig(nx=2, ny=2, background=SOUND)
        removed = self._dc_removed_stack(scene, ls31, ls31_plus, timing)
        raw = compress_stack(removed, ls31_plus, timing, Normalization.RAW)
        length = compress_stack(removed, ls31_plus, timing,
                                Normalization.PER_LENGTH)
        gain = compress_stack(removed, ls31_plus, timing,
                              Normalization.PER_GAIN)
        np.testing.assert_allclose(length.data, raw.data / 31.0, rtol=1e-6)
        np.testing.assert_allclose(gain.data, raw.data / 31.0, rtol=1e-6)
        assert length.metadata["normalization"] == "per_length"

    def test_defect_pixels_cool_higher(self, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        defect = PixelModel(diffusivity=1e-6, defect_depth=1e-3,
                            reflection_coeff=0.9)
        scene = SceneConfig(nx=4, ny=4, background=SOUND,
                            defects=((Region(0, 0, 2, 2), defect),))
        removed = self._dc_removed_stack(scene, ls31, ls31_plus, timing)
        out = compress_stack(removed, ls31_plus, timing)
        sample_mean = out.data.reshape(out.n_frames, -1).mean(axis=1)
        defect_trace = out.data[:, 0, 0]
        cooling = slice(int(5 * timing.fps), int(25 * timing.fps))
        assert np.all(defect_trace[cooling] > sample_mean[cooling])

    def test_unmodified_code_rejected(self, ls31):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        stack = ThermogramStack(data=np.ones((124, 1, 1), dtype=np.float32),
                                fps=2.0)
        with pytest.raises(UnmodifiedCode):
            compress_stack(stack, ls31, timing)

    def test_frame_count_checked(self, ls31_plus):
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        stack = ThermogramStack(data=np.ones((100, 1, 1), dtype=np.float32),
                                fps=2.0)
        with pytest.raises(ShapeMismatch):
            compress_stack(stack, ls31_plus, timing)


def _timing(k, n_per):
    return Timing(t_bit=1.0, fps=float(k), n_per=n_per)


def _output_bound(filt, *inputs):
    """Bound on |output| of filtering inputs of these magnitudes."""
    return np.abs(filt.taps).sum() * sum(np.abs(x).max() for x in inputs)


class TestCompressionProperties:
    @settings(max_examples=50, deadline=None)
    @given(code=st.sampled_from(RESOLUTION_CODES), k=st.integers(1, 8),
           n_per=st.integers(2, 4))
    def test_periodic_code_gives_the_resolution_function(self, code, k,
                                                          n_per):
        # the production core against verify_resolution, which is built
        # from build_matched_filter: both run the one matched filter
        timing = _timing(k, n_per)
        y = np.tile(np.repeat(code.values, k), n_per)
        out = compress_trace(y, code, timing).values
        expected = verify_resolution(code, timing)
        pulse = np.zeros(k * code.n_bit)
        pulse[:k] = code.gain
        np.testing.assert_allclose(expected, pulse, rtol=0,
                                   atol=1e-9 * code.gain)
        np.testing.assert_allclose(out, expected, rtol=0,
                                   atol=1e-9 * code.gain)

    @settings(max_examples=30, deadline=None)
    @given(code=st.sampled_from(PLUS_CODES), k=st.integers(1, 3),
           n_per=st.integers(2, 4), ny=st.integers(1, 3),
           nx=st.integers(1, 100),
           normalization=st.sampled_from(list(Normalization)),
           single_period=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    @example(code=PLUS_CODES[0], k=2, n_per=3, ny=3, nx=100,
             normalization=Normalization.PER_GAIN, single_period=False,
             seed=0)
    def test_trace_equals_stack_pixel(self, code, k, n_per, ny, nx,
                                      normalization, single_period, seed):
        # ny * nx up to 300 straddles one block of columns
        assert 100 < pnpuct.dc_removal._BLOCK < 300
        timing = _timing(k, n_per)
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(timing.total_frames(code.n_bit), ny, nx))
        stack = ThermogramStack(data=data.astype(np.float32), fps=timing.fps)
        out = compress_stack(stack, code, timing, normalization, single_period)
        for jy in range(ny):
            for jx in range(nx):
                trace = compress_trace(stack.pixel_trace(jx, jy), code,
                                       timing, normalization, single_period)
                np.testing.assert_array_equal(out.data[:, jy, jx],
                                              np.float32(trace.values))

    @settings(max_examples=30, deadline=None)
    @given(code=st.sampled_from(PLUS_CODES), k=st.integers(1, 3),
           n_per=st.integers(2, 4), ny=st.integers(1, 3),
           nx=st.integers(1, 100),
           normalization=st.sampled_from(list(Normalization)),
           single_period=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_result_is_a_new_array_with_zero_dead_pixels(
            self, code, k, n_per, ny, nx, normalization, single_period, seed,
            data):
        timing = _timing(k, n_per)
        n = timing.total_frames(code.n_bit)
        rng = np.random.default_rng(seed)
        stack = ThermogramStack(
            data=rng.normal(size=(n, ny, nx)).astype(np.float32),
            fps=timing.fps)
        flat = stack.data.reshape(n, -1)
        dead = data.draw(st.lists(st.integers(0, ny * nx - 1), unique=True))
        flat[:, dead] = 0.0
        args = (stack, code, timing, normalization, single_period)
        if data.draw(st.booleans()):
            # a non-finite sample that a steady period reads fails both
            # calls; the first bit's frames enter only with a zero tap
            flat[data.draw(st.integers(k, 2 * n // n_per - 1)),
                 data.draw(st.integers(0, ny * nx - 1))] = np.nan
            with pytest.raises(NonFiniteData):
                compress_stack(*args)
            return
        before = stack.data.tobytes()
        result = compress_stack(*args)
        assert stack.data.tobytes() == before
        assert not np.shares_memory(result.data, stack.data)
        assert not result.data.reshape(result.n_frames, -1)[:, dead].any()

    @settings(max_examples=30, deadline=None)
    @given(code=st.sampled_from(PLUS_CODES), k=st.integers(1, 3),
           n_per=st.integers(2, 4), n_pix=st.integers(1, 3),
           normalization=st.sampled_from(list(Normalization)),
           single_period=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    # codes long enough that BLAS blocks the triangular products
    @example(code=RESOLUTION_CODES[1], k=1, n_per=3, n_pix=3,
             normalization=Normalization.RAW, single_period=False, seed=1)
    @example(code=LS1031_PLUS, k=1, n_per=2, n_pix=2,
             normalization=Normalization.PER_GAIN, single_period=False,
             seed=2)
    @example(code=LS1031_PLUS, k=1, n_per=3, n_pix=3,
             normalization=Normalization.RAW, single_period=True, seed=3)
    def test_core_matches_direct_convolution(self, code, k, n_per, n_pix,
                                             normalization, single_period,
                                             seed):
        timing = _timing(k, n_per)
        filt = build_matched_filter(code, timing)
        period = len(filt.taps)
        traces = np.random.default_rng(seed).normal(
            size=(n_per * period, n_pix))
        matched = pnpuct.compression._MatchedFilter(
            code, timing, normalization, single_period)
        out, _ = pnpuct.dc_removal._columns(
            [(slice(0, n_pix), traces)], traces.shape, matched, period,
            np.float64)
        n_avg = matched.n_avg
        assert n_avg == (1 if single_period else n_per - 1)
        scale = {Normalization.RAW: 1.0, Normalization.PER_GAIN: code.gain,
                 Normalization.PER_LENGTH: code.n_bit}[normalization]
        for j in range(n_pix):
            conv = np.convolve(traces[:, j], filt.taps)
            direct = np.mean([conv[i * period: (i + 1) * period]
                              for i in range(1, n_avg + 1)], axis=0) / scale
            np.testing.assert_allclose(
                out[:, j], direct, rtol=0,
                atol=1e-12 * _output_bound(filt, traces[:, j]) / scale)

    @settings(max_examples=30, deadline=None)
    @given(code=st.sampled_from(PLUS_CODES), k=st.integers(1, 3),
           n_per=st.integers(2, 4),
           a=st.floats(-10, 10), b=st.floats(-10, 10),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(code=PLUS_CODES[0], k=1, n_per=2, a=0.0, b=2.2250738585e-313,
             seed=0)
    def test_linearity(self, code, k, n_per, a, b, seed):
        timing = _timing(k, n_per)
        filt = build_matched_filter(code, timing)
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, timing.total_frames(code.n_bit)))
        combined = compress_trace(a * x + b * y, code, timing).values
        separate = (a * compress_trace(x, code, timing).values
                    + b * compress_trace(y, code, timing).values)
        # with subnormal a * x or b * y the relative bound underflows to 0,
        # while each rounding there still costs up to one subnormal step
        subnormal = len(filt.taps) * np.finfo(float).smallest_subnormal
        np.testing.assert_allclose(
            combined, separate, rtol=0,
            atol=1e-12 * _output_bound(filt, a * x, b * y) + subnormal)

    @settings(max_examples=30, deadline=None)
    @given(code=st.sampled_from(PLUS_CODES), k=st.integers(1, 3),
           n_per=st.integers(2, 4), shift=st.integers(0, 10 ** 6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_cyclic_shift_equivariance(self, code, k, n_per, shift, seed):
        timing = _timing(k, n_per)
        filt = build_matched_filter(code, timing)
        period = len(filt.taps)
        shift %= period
        one_period = np.random.default_rng(seed).normal(size=period)
        base = compress_trace(np.tile(one_period, n_per), code, timing)
        shifted = compress_trace(np.tile(np.roll(one_period, shift), n_per),
                                 code, timing)
        np.testing.assert_allclose(
            shifted.values, np.roll(base.values, shift), rtol=0,
            atol=1e-12 * _output_bound(filt, one_period))


class TestFusedDcRemoval:
    """compress_stack(..., remove_dc=True) against the two stages."""

    @settings(max_examples=40, deadline=None)
    @given(code=st.sampled_from(PLUS_CODES), k=st.integers(1, 3),
           n_per=st.integers(2, 4), ny=st.integers(1, 3),
           nx=st.integers(1, 100),
           normalization=st.sampled_from(list(Normalization)),
           single_period=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_fused_matches_two_stages(self, code, k, n_per, ny, nx,
                                      normalization, single_period, seed,
                                      data):
        timing = _timing(k, n_per)
        n = timing.total_frames(code.n_bit)
        rng = np.random.default_rng(seed)
        traces = (design_matrix(np.arange(n) * timing.dt)
                  @ rng.exponential(size=(3, ny * nx)))
        traces += rng.normal(size=traces.shape)
        dead = data.draw(st.integers(0, ny * nx - 1))
        traces[:, dead] = 0.0
        stack = ThermogramStack(
            data=traces.reshape(n, ny, nx).astype(np.float32), fps=timing.fps)
        if data.draw(st.booleans()):
            # a dead pixel may also be non-finite (set after the stack's
            # check): +inf and -inf one period apart meet in the fold
            frame = data.draw(st.integers(0, n // n_per - 1))
            flat = stack.data.reshape(n, -1)
            flat[frame, dead] = np.inf
            flat[frame + n // n_per, dead] = -np.inf
        raw = stack.data.copy()
        removed, fits = remove_dc_stack(stack, code, timing)
        two = compress_stack(removed, code, timing, normalization,
                             single_period)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fused, fused_fits = compress_stack(
                stack, code, timing, normalization, single_period, True)
        assert not np.shares_memory(fused.data, stack.data)
        assert stack.data.tobytes() == raw.tobytes()
        assert fused_fits.tobytes() == fits.tobytes()
        assert fused.metadata == two.metadata
        scale = {Normalization.RAW: 1.0, Normalization.PER_GAIN: code.gain,
                 Normalization.PER_LENGTH: code.n_bit}[normalization]
        assert (np.abs(fused.data.astype(float) - two.data).max()
                <= fusion_bound(code, scale, two.data, removed.data))
        flat = fused.data.reshape(fused.n_frames, -1)
        assert not flat[:, dead].any()
        assert np.isnan(fused_fits.reshape(-1, 4)[dead]).all()
        # one pixel on its own, zero-padded to a block, gives the same bits
        jy, jx = divmod(data.draw(st.integers(0, ny * nx - 1)), nx)
        at = (slice(None), slice(jy, jy + 1), slice(jx, jx + 1))
        pixel = ThermogramStack(data=np.zeros_like(raw[at]), fps=timing.fps)
        pixel.data[...] = raw[at]
        one, one_fits = compress_stack(pixel, code, timing, normalization,
                                       single_period, True)
        assert one.data.tobytes() == fused.data[at].tobytes()
        assert one_fits.tobytes() == fits[at[1:]].tobytes()


class TestBlockWidth:
    """A column's result does not depend on the width of the blocks.

    DC removal, compression and the two fused are one loop over blocks
    of dc_removal._BLOCK columns, each zero-padded to that width; each
    output column must be that of the column alone, at any width.
    """

    WIDTHS = (64, 512)

    @staticmethod
    def _run(mode, stack, code, timing):
        if mode == "dc_removal":
            removed, fits = remove_dc_stack(stack, code, timing)
            return removed.data.tobytes(), fits.tobytes()
        if mode == "compression":
            return compress_stack(stack, code, timing).data.tobytes(),
        compressed, fits = compress_stack(stack, code, timing,
                                          Normalization.RAW, False, True)
        return compressed.data.tobytes(), fits.tobytes()

    @pytest.mark.parametrize("mode", ["dc_removal", "compression", "fused"])
    @pytest.mark.parametrize("code", [PLUS_CODES[0], RESOLUTION_CODES[0],
                                      LS1031_PLUS], ids=["ls7", "ls31",
                                                         "ls1031"])
    @settings(max_examples=6, deadline=None)
    @given(n_pix=st.integers(1, 600), seed=st.integers(0, 2 ** 32 - 1),
           dead=st.lists(st.integers(0, 599), max_size=3))
    # 600 columns straddle blocks of every width
    @example(n_pix=600, seed=1, dead=[0, 255, 599])
    def test_a_column_does_not_depend_on_the_block_width(self, mode, code,
                                                         n_pix, seed, dead):
        timing = _timing(1, 2)
        n = timing.total_frames(code.n_bit)
        rng = np.random.default_rng(seed)
        traces = (design_matrix(np.arange(n) * timing.dt)
                  @ rng.exponential(size=(3, n_pix)))
        traces += rng.normal(size=traces.shape)
        traces[:, [d for d in dead if d < n_pix]] = 0.0
        stack = ThermogramStack(
            data=traces.reshape(n, 1, n_pix).astype(np.float32),
            fps=timing.fps)
        assert pnpuct.dc_removal._BLOCK == 256
        expected = self._run(mode, stack, code, timing)
        for width in self.WIDTHS:
            with mock.patch.object(pnpuct.dc_removal, "_BLOCK", width):
                assert self._run(mode, stack, code, timing) == expected, width


class TestMappedInput:
    """compress_stack of an open_stack file, against the file read whole."""

    @settings(max_examples=40, deadline=None)
    @given(code=st.sampled_from(PLUS_CODES), k=st.integers(1, 3),
           n_per=st.integers(2, 4), ny=st.integers(1, 3),
           nx=st.integers(1, 300), band_blocks=st.integers(1, 2),
           chunk_bytes=st.sampled_from([4, 4096, 1 << 20]),
           remove_dc=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_banded_equals_whole(self, tmp_path_factory, code, k, n_per, ny,
                                 nx, band_blocks, chunk_bytes, remove_dc,
                                 seed, data):
        timing = _timing(k, n_per)
        n = timing.total_frames(code.n_bit)
        rng = np.random.default_rng(seed)
        traces = (design_matrix(np.arange(n) * timing.dt)
                  @ rng.exponential(size=(3, ny * nx)))
        traces += rng.normal(size=traces.shape)
        dead = data.draw(st.lists(st.integers(0, ny * nx - 1), max_size=3))
        traces[:, dead] = 0.0
        path = tmp_path_factory.mktemp("mapped") / "raw.tgs"
        write_stack(ThermogramStack(
            data=traces.reshape(n, ny, nx).astype(np.float32),
            fps=timing.fps, metadata={"odd": "x"}), path)
        on_disk = path.read_bytes()
        whole = compress_stack(read_stack(path), code, timing,
                               remove_dc=remove_dc)
        # bands of one or two blocks and chunks down to one frame
        band_bytes = 4 * n * pnpuct.dc_removal._BLOCK * band_blocks
        with mock.patch.object(pnpuct.dc_removal, "_BAND_BYTES", band_bytes), \
                mock.patch.object(pnpuct.stack, "CHUNK_BYTES", chunk_bytes):
            banded = compress_stack(open_stack(path), code, timing,
                                    remove_dc=remove_dc)
        if remove_dc:
            (whole, fits), (banded, banded_fits) = whole, banded
            assert banded_fits.tobytes() == fits.tobytes()
        assert banded.data.tobytes() == whole.data.tobytes()
        assert banded.metadata == whole.metadata
        assert path.read_bytes() == on_disk

    def test_dc_removal_of_a_mapped_stack_allocates(self, tmp_path, ls31_plus):
        stack, timing = _camera_stack()
        path = tmp_path / "raw.tgs"
        write_stack(stack, path)
        on_disk = file_sha256(path)
        mapped = open_stack(path)
        removed, fits = remove_dc_stack(mapped, ls31_plus, timing)
        expected, expected_fits = remove_dc_stack(stack, ls31_plus, timing)
        assert removed.data.tobytes() == expected.data.tobytes()
        assert fits.tobytes() == expected_fits.tobytes()
        assert file_sha256(path) == on_disk

    def test_peak_stays_below_the_input(self, tmp_path, ls31_plus):
        # the 20.3 MB period, a 10.2 MB band and a 5.1 MB block, against
        # the 40.6 MB that reading the stack whole takes
        stack, timing = _camera_stack()
        path = tmp_path / "raw.tgs"
        write_stack(stack, path)
        del stack
        on_disk = file_sha256(path)
        tracemalloc.start()
        try:
            mapped = open_stack(path)
            compress_stack(mapped, ls31_plus, timing, remove_dc=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert file_sha256(path) == on_disk
        assert peak < mapped.data.nbytes
        if Path("/proc/self/smaps").exists():
            # every band's pages were dropped behind it
            assert resident_kib(mapped.data) == 0

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_a_stack_of_no_pixels(self, tmp_path, ls31_plus, shape):
        # one band of no columns, whose width is still a positive integer
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        data = np.empty((timing.total_frames(31),) + shape, np.float32)
        path = tmp_path / "raw.tgs"
        write_stack(ThermogramStack(data=data, fps=timing.fps), path)
        for stack in (read_stack(path), open_stack(path)):
            result, fits = compress_stack(stack, ls31_plus, timing,
                                          remove_dc=True)
            assert result.data.shape == (timing.total_frames(31) // 2,
                                         ) + shape
            assert fits.shape == shape + (4,)
            removed, _ = remove_dc_stack(stack, ls31_plus, timing)
            assert removed.data.shape == data.shape

    def test_without_madvise_the_mapping_is_read_in_place(
            self, tmp_path, monkeypatch, ls31_plus):
        # Windows' mmap has no madvise: no page is dropped and the
        # mapping is read as one band, with the same results
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        data = np.random.default_rng(1).standard_normal(
            (timing.total_frames(31), 3, 300), dtype=np.float32)
        path = tmp_path / "raw.tgs"
        write_stack(ThermogramStack(data=data, fps=timing.fps), path)
        expected = compress_stack(read_stack(path), ls31_plus, timing,
                                  remove_dc=True)
        monkeypatch.delattr(pnpuct.stack.mmap, "MADV_DONTNEED")
        mapped = open_stack(path)
        assert not pnpuct.stack.drops_pages(mapped.data.reshape(-1))
        on_disk = path.read_bytes()
        result = compress_stack(mapped, ls31_plus, timing, remove_dc=True)
        assert result[0].data.tobytes() == expected[0].data.tobytes()
        assert result[1].tobytes() == expected[1].tobytes()
        assert path.read_bytes() == on_disk


class TestSimulatedInput:
    """A SimulatedStack reads as the stack simulate_stack stores."""

    @pytest.mark.parametrize("band_bytes", [1, 10 << 20],
                             ids=["one-block-bands", "one-band"])
    def test_results_equal_those_of_the_stored_stack(self, band_bytes):
        # 300 px: bands of 256 and 44 px, or one band
        code = PLUS_CODES[0]
        timing = _timing(2, 3)
        wave = build_unipolar(build_bipolar(generate_ls(7), timing), 1.0)
        scene = SceneConfig(
            nx=20, ny=15, background=SOUND,
            defects=((Region(x0=3, y0=4, width=9, height=8), PixelModel(
                diffusivity=1e-6, defect_depth=1e-3, reflection_coeff=0.9)),),
            noise_sigma=0.3, rng_seed=9)
        stored = simulate_stack(scene, wave)

        def digest(results):
            # stacks by their data, fit maps as they are
            return [getattr(r, "data", r).tobytes() for r in results]
        with mock.patch.object(pnpuct.dc_removal, "_BAND_BYTES", band_bytes):
            simulated = SimulatedStack(scene, wave)
            for run in (lambda x: remove_dc_stack(x, code, timing),
                        lambda x: compress_stack(x, code, timing,
                                                 remove_dc=True),
                        lambda x: (compress_stack(x, code, timing),)):
                assert digest(run(simulated)) == digest(run(stored))
        assert (simulated.fps, simulated.metadata) == (stored.fps,
                                                       stored.metadata)


class TestDerivedMetadata:
    """The whole metadata of every stack derived from another."""

    # LS7 at K = 2 and n_per = 2: 28 frames of 4 x 4 px
    TIMING = Timing(t_bit=1.0, fps=2.0, n_per=2)
    SCENE = SceneConfig(nx=4, ny=4, background=SOUND, noise_sigma=0.1,
                        rng_seed=3)
    MEASURED = {"stage": "measured", "k": "2", "bias": "0.5", "odd": "x"}
    SIMULATED = {"stage": "simulated", "rng_seed": "3", "noise_sigma": "0.1",
                 "t_bit": "1.0", "n_per": "2", "k": "2", "code_kind": "LS",
                 "code_n_bit": "7", "amplitude": "1.0"}
    CODE_KEYS = {"code_kind": "LS_PLUS", "code_n_bit": "7"}
    BIAS = {"bias": "0.3779644730092272"}
    COMPRESSED = {"stage": "compressed", "k": "2", "normalization": "raw",
                  "periods_averaged": "1", **CODE_KEYS}
    # (derived stack of a source, the keys it sets, the source's fps over its)
    OPS = {
        "remove_dc_stack": (
            lambda s, c, t: remove_dc_stack(s, c, t)[0],
            {"stage": "dc_removed", **CODE_KEYS, **BIAS}, 1),
        "compress_stack": (
            lambda s, c, t: compress_stack(s, c, t), COMPRESSED, 1),
        "compress_stack_remove_dc": (
            lambda s, c, t: compress_stack(s, c, t, remove_dc=True)[0],
            {**COMPRESSED, **BIAS}, 1),
        "decimate_first_frame": (
            lambda s, c, t: decimate_to_bit_rate(s, t)[0],
            {"decimated": "first_frame", "k": "1"}, 2),
        "decimate_mean": (
            lambda s, c, t: decimate_to_bit_rate(s, t, average=True)[0],
            {"decimated": "mean", "k": "1"}, 2),
    }

    def _source(self, kind, op, tmp_path):
        wave = build_unipolar(build_bipolar(generate_ls(7), self.TIMING), 1.0)
        if kind == "simulated":
            # decimation reads frames, which a SimulatedStack does not
            # store: it decimates the stack that simulate_stack stores
            if op.startswith("decimate"):
                return simulate_stack(self.SCENE, wave), self.SIMULATED
            return SimulatedStack(self.SCENE, wave), self.SIMULATED
        stack = ThermogramStack(data=simulate_stack(self.SCENE, wave).data,
                                fps=self.TIMING.fps, metadata=self.MEASURED)
        if kind == "mapped":
            write_stack(stack, tmp_path / "raw.tgs")
            stack = open_stack(tmp_path / "raw.tgs")
        return stack, self.MEASURED

    @pytest.mark.parametrize("kind", ["in_memory", "mapped", "simulated"])
    @pytest.mark.parametrize("op", list(OPS))
    def test_source_metadata_updated_by_the_op(self, tmp_path, op, kind):
        source, metadata = self._source(kind, op, tmp_path)
        run, keys, rate_divisor = self.OPS[op]
        derived = run(source, PLUS_CODES[0], self.TIMING)
        assert derived.metadata == {**metadata, **keys}
        assert derived.fps == self.TIMING.fps / rate_divisor
        assert source.metadata == metadata


class TestGemmUpdate:
    """dc_removal._gemm and _trmm write into the block loop's buffer."""

    BLOCK = pnpuct.dc_removal._BLOCK

    @classmethod
    def _targets(cls):
        """The block buffer and the filter's product, a[:P], at n_per = 2
        and 3: the filter writes into the block buffer itself."""
        code = PLUS_CODES[0]
        buffers = []
        for n_per in (2, 3):
            timing = _timing(2, n_per)
            n = timing.total_frames(code.n_bit)
            filt = pnpuct.compression._MatchedFilter(
                code, timing, Normalization.RAW, False)
            traces = np.ones((n, 3), np.float32)
            _, _, a = next(pnpuct.dc_removal._blocks(
                [(slice(0, 3), traces)]))
            product = filt(a)
            assert product.shape == (filt.period, cls.BLOCK)
            # a[:P]: the first rows of the block buffer
            assert product.ctypes.data == a.ctypes.data
            assert product.strides == a.strides
            if n_per == 2:
                buffers.append(a)
            buffers.append(product)
        return buffers

    @pytest.mark.parametrize("alpha, beta", [(-1.0, 1.0), (0.5, 0.0),
                                             (1.0, 1.0)])
    def test_each_loop_buffer_is_updated_in_place(self, alpha, beta):
        # integer operands: every summation order gives the same bits
        rng = np.random.default_rng(0)
        for target in self._targets():
            x = rng.integers(-8, 8, (len(target), 3)).astype(float)
            y = rng.integers(-8, 8, (3, self.BLOCK)).astype(float)
            start = rng.integers(-8, 8, target.shape).astype(float)
            target[...] = start
            if beta == 0.0:
                # the old contents are not read
                target[0, 0] = np.nan
            expected = alpha * (x @ y) + beta * start
            pnpuct.dc_removal._gemm(alpha, x, y, beta, target)
            np.testing.assert_array_equal(target, expected)

    @pytest.mark.parametrize("layout", ["column slice", "fortran", "float32"])
    def test_a_copied_target_raises(self, layout):
        a = np.zeros((12, self.BLOCK))
        target = {"column slice": a[:, :5],
                  "fortran": np.asfortranarray(a),
                  "float32": a.astype(np.float32)}[layout]
        x = np.ones((12, 3))
        y = np.ones((3, target.shape[1]))
        with pytest.raises(RuntimeError, match="copied"):
            pnpuct.dc_removal._gemm(1.0, x, y, 1.0, target)
        assert not target.any()

    @pytest.mark.parametrize("layout", ["column slice", "fortran", "float32"])
    def test_a_copied_trmm_target_raises(self, layout):
        a = np.zeros((12, self.BLOCK))
        target = {"column slice": a[:, :5],
                  "fortran": np.asfortranarray(a),
                  "float32": a.astype(np.float32)}[layout]
        with pytest.raises(RuntimeError, match="copied"):
            pnpuct.dc_removal._trmm(np.ones((12, 12)), target, upper=True)
        assert not target.any()

    @pytest.mark.parametrize("upper", [True, False])
    def test_trmm_reads_one_triangle(self, upper):
        # integer operands: every summation order gives the same bits
        rng = np.random.default_rng(1)
        t = rng.integers(-8, 8, (12, 12)).astype(float)
        b = rng.integers(-8, 8, (12, self.BLOCK)).astype(float)
        expected = (np.triu(t) if upper else np.tril(t)) @ b
        pnpuct.dc_removal._trmm(t, b, upper)
        np.testing.assert_array_equal(b, expected)


class TestDecimate:
    def test_identity_at_k1(self, ls31):
        timing = Timing(t_bit=1.0, fps=1.0, n_per=2)
        stack = ThermogramStack(data=np.ones((62, 1, 1), dtype=np.float32),
                                fps=1.0)
        out, out_timing = decimate_to_bit_rate(stack, timing)
        assert out is stack
        assert out_timing is timing

    @pytest.mark.parametrize("average", [False, True])
    def test_frames_that_are_not_whole_bits(self, average):
        timing = Timing(t_bit=1.0, fps=4.0, n_per=2)
        stack = ThermogramStack(data=np.ones((10, 1, 2), dtype=np.float32),
                                fps=4.0)
        with pytest.raises(ShapeMismatch, match="10 frames .* bits of 4"):
            decimate_to_bit_rate(stack, timing, average)

    def test_frame_count_after_decimation(self):
        # 40 fps, 0.5 s bits, 61-bit code, 2 periods: 122 frames remain
        code = generate_ls(61)
        timing = Timing(t_bit=0.5, fps=40.0, n_per=2)
        scene = SceneConfig(nx=1, ny=1, background=SOUND)
        unipolar = build_unipolar(build_bipolar(code, timing), 1.0)
        raw = simulate_stack(scene, unipolar)
        assert raw.n_frames == 2440
        out, out_timing = decimate_to_bit_rate(raw, timing)
        assert out.n_frames == 122
        assert out_timing.k == 1
        assert out_timing.fps == pytest.approx(2.0)
        np.testing.assert_array_equal(out.data, raw.data[::20])

    def test_bin_average_option(self):
        data = np.arange(12, dtype=np.float32).reshape(12, 1, 1)
        stack = ThermogramStack(data=data, fps=4.0)
        timing = Timing(t_bit=1.0, fps=4.0, n_per=2)
        first, _ = decimate_to_bit_rate(stack, timing)
        np.testing.assert_array_equal(first.data[:, 0, 0], [0, 4, 8])
        binned, _ = decimate_to_bit_rate(stack, timing, average=True)
        np.testing.assert_array_equal(binned.data[:, 0, 0], [1.5, 5.5, 9.5])

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(2, 12), n_bits=st.integers(1, 30),
           ny=st.integers(1, 3), nx=st.integers(1, 40),
           chunk_bytes=st.sampled_from([4, 100, 4096, 1 << 20]),
           average=st.booleans(), mapped=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_chunks_of_bits_give_the_whole_stack_result(
            self, tmp_path_factory, k, n_bits, ny, nx, chunk_bytes, average,
            mapped, seed):
        data = 100 * np.random.default_rng(seed).standard_normal(
            (n_bits * k, ny, nx), dtype=np.float32)
        stack = ThermogramStack(data=data, fps=float(k))
        if mapped:
            path = tmp_path_factory.mktemp("decimate") / "raw.tgs"
            write_stack(stack, path)
            stack = open_stack(path)
        # the formulas of a stack decimated whole
        expected = (data.reshape(-1, k, ny, nx).mean(axis=1) if average
                    else data[::k])
        with mock.patch.object(pnpuct.stack, "CHUNK_BYTES", chunk_bytes):
            out, _ = decimate_to_bit_rate(
                stack, Timing(t_bit=1.0, fps=float(k), n_per=2), average)
        assert out.data.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("average", [False, True])
    def test_mapped_stack_is_not_left_resident(self, tmp_path, average):
        if not Path("/proc/self/smaps").exists():
            pytest.skip("no /proc/self/smaps")
        stack, timing = _camera_stack()
        path = tmp_path / "raw.tgs"
        write_stack(stack, path)
        mapped = open_stack(path)
        out, _ = decimate_to_bit_rate(mapped, timing, average)
        expected, _ = decimate_to_bit_rate(stack, timing, average)
        assert out.data.tobytes() == expected.data.tobytes()
        # the pages behind every chunk of bits were dropped
        assert resident_kib(mapped.data) == 0

    def test_decimated_pipeline_matches_full_rate(self, ls31, ls31_plus):
        full_timing = Timing(t_bit=1.0, fps=40.0, n_per=2)
        compressed_full, _ = run_pixel(SOUND, ls31, ls31_plus, full_timing)
        at_bits = compressed_full.values[::full_timing.k]

        # decimated route: subsample the raw trace, then DC removal and
        # compression at one frame per bit
        unipolar = build_unipolar(build_bipolar(ls31, full_timing), 1.0)
        h = impulse_response(SOUND, full_timing, unipolar.duration)
        y = respond(h, unipolar)[::full_timing.k]
        dec_timing = Timing(t_bit=1.0, fps=1.0, n_per=2)
        y_ac = remove_dc(y, ls31_plus, dec_timing)
        compressed_dec = compress_trace(y_ac, ls31_plus, dec_timing)
        rel = (np.linalg.norm(compressed_dec.values - at_bits)
               / np.linalg.norm(at_bits))
        assert rel < 0.02


def _snr_whole_regions(stack, region_signal, region_reference):
    """snr_metric's formula on one float64 copy of each whole region."""
    def block(region):
        return stack.data[(slice(None),) + region.slices].astype(
            np.float64).reshape(stack.n_frames, -1)

    m_sig = block(region_signal).mean(axis=1)
    ref = block(region_reference)
    m_ref = ref.mean(axis=1)
    contrast = float(np.abs(m_sig - m_ref).max())
    n_pix = ref.shape[1]
    noise_of_mean = 0.0
    if n_pix >= 2:
        ref -= m_ref[:, None]
        noise_of_mean = float(np.sqrt(np.sum(np.square(ref))
                                      / (stack.n_frames * (n_pix - 1)))
                              / np.sqrt(n_pix))
    if contrast == 0.0:
        return float("-inf")
    if noise_of_mean == 0.0:
        return float("inf")
    return 20.0 * float(np.log10(contrast / noise_of_mean))


class TestSnrMetric:
    def _stack(self, noise_sigma=0.0, seed=1):
        defect = PixelModel(diffusivity=1e-6, defect_depth=0.5e-3,
                            reflection_coeff=0.9)
        scene = SceneConfig(nx=6, ny=4, background=SOUND,
                            defects=((Region(0, 0, 3, 4), defect),),
                            noise_sigma=noise_sigma, rng_seed=seed)
        code = generate_ls(31)
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        unipolar = build_unipolar(build_bipolar(code, timing), 1.0)
        raw = simulate_stack(scene, unipolar)
        plus = modify_for_perfect_pacf(code)
        removed, _ = remove_dc_stack(raw, plus, timing)
        return compress_stack(removed, plus, timing)

    def test_zero_noise_saturates(self):
        stack = self._stack(noise_sigma=0.0)
        value = snr_metric(stack, Region(0, 0, 3, 4), Region(3, 0, 3, 4))
        assert value == float("inf")

    def test_same_region_gives_minus_inf(self):
        stack = self._stack(noise_sigma=0.1)
        region = Region(3, 0, 3, 4)
        assert snr_metric(stack, region, region) == float("-inf")

    def test_offset_stability(self):
        stack = self._stack(noise_sigma=0.1)
        sig, ref = Region(0, 0, 3, 4), Region(3, 0, 3, 4)
        base = snr_metric(stack, sig, ref)
        shifted = ThermogramStack(data=stack.data + 100.0, fps=stack.fps,
                                  metadata=stack.metadata)
        assert snr_metric(shifted, sig, ref) == pytest.approx(base, abs=1e-3)

    def test_one_copy_of_the_reference_block(self):
        stack, _ = _camera_stack()
        signal, reference = Region(0, 0, 32, 64), Region(32, 0, 32, 64)
        block_bytes = stack.n_frames * 32 * 64 * 8
        peak = _peak_alloc(snr_metric, stack, signal, reference)
        assert peak < 1.2 * block_bytes

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_chunks_of_frames_match_whole_regions(self, data):
        n_frames = data.draw(st.integers(1, 30))
        ny, nx = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 6))
        stack_data = data.draw(hnp.arrays(
            np.float32, (n_frames, ny, nx),
            elements=st.floats(-1e3, 1e3, width=32)))
        split = data.draw(st.integers(1, nx - 1))

        def region(x0, x1):
            width = data.draw(st.integers(1, x1 - x0))
            y0 = data.draw(st.integers(0, ny - 1))
            return Region(data.draw(st.integers(x0, x1 - width)), y0, width,
                          data.draw(st.integers(1, ny - y0)))

        signal = region(0, split)
        reference = (signal if data.draw(st.booleans())
                     else region(split, nx))
        if data.draw(st.booleans()):
            # every reference pixel equal in each frame: no residual
            stack_data[(slice(None),) + reference.slices] = (
                stack_data[:, reference.y0:reference.y0 + 1,
                           reference.x0:reference.x0 + 1])
        stack = ThermogramStack(data=stack_data, fps=1.0)
        expected = _snr_whole_regions(stack, signal, reference)
        # a chunk of 1 to n_frames + 1 frames of the larger region
        frames = data.draw(st.integers(1, n_frames + 1))
        pixels = max(r.width * r.height for r in (signal, reference))
        with mock.patch.object(pnpuct.compression, "CHUNK_BYTES",
                               8 * pixels * frames):
            value = snr_metric(stack, signal, reference)
        if np.isinf(expected):
            assert value == expected
        else:
            assert value == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_no_float64_copy_of_the_whole_reference_region(self):
        # a 1240 x 32 x 64 reference, the shape of measured_ls31's
        # compressed stack's background: 20.3 MB as float64
        data = np.random.default_rng(0).standard_normal(
            (1240, 32, 128), dtype=np.float32)
        stack = ThermogramStack(data=data, fps=40.0)
        signal, reference = Region(0, 0, 64, 32), Region(64, 0, 64, 32)
        expected = _snr_whole_regions(stack, signal, reference)
        peak = _peak_alloc(snr_metric, stack, signal, reference)
        assert peak < 1240 * 32 * 64 * 8 / 4
        assert snr_metric(stack, signal, reference) == pytest.approx(
            expected, rel=1e-12)

    @pytest.mark.parametrize("signal, reference", [
        (Region(0, 0, 32, 64), Region(32, 0, 32, 64)),
        (Region(10, 20, 8, 8), Region(40, 50, 24, 14)),
    ], ids=["halves", "small"])
    def test_mapped_stack_is_not_left_resident(self, tmp_path, signal,
                                               reference):
        if not Path("/proc/self/smaps").exists():
            pytest.skip("no /proc/self/smaps")
        # 600 frames of 64 x 64 px (9.8 MB); a reference region of 64
        # frames per 1 MiB chunk, or of 312 frames
        data = np.random.default_rng(3).standard_normal(
            (600, 64, 64), dtype=np.float32)
        path = tmp_path / "c.tgs"
        write_stack(ThermogramStack(data=data, fps=40.0), path)
        mapped = open_stack(path)
        value = snr_metric(mapped, signal, reference)
        assert resident_kib(mapped.data) == 0
        assert value == snr_metric(read_stack(path), signal, reference)

    def test_empty_or_outside_region(self):
        stack = self._stack()
        with pytest.raises(EmptyRegion):
            snr_metric(stack, Region(0, 0, 3, 4), Region(5, 0, 3, 4))
        with pytest.raises(InvalidScene, match="at least one pixel"):
            Region(0, 0, 0, 2)

    def test_zero_frames_is_empty_region(self):
        # TGS1 allows a stack of no frames; it has no peak contrast
        stack = ThermogramStack(data=np.empty((0, 4, 6), np.float32),
                                fps=1.0)
        with pytest.raises(EmptyRegion, match="no frames"):
            snr_metric(stack, Region(0, 0, 3, 4), Region(3, 0, 3, 4))

    def test_overlap_rejected(self):
        stack = self._stack(noise_sigma=0.1)
        with pytest.raises(RegionOverlap, match="regions overlap$"):
            snr_metric(stack, Region(0, 0, 4, 4), Region(3, 0, 3, 4))

    def test_overlap_is_a_typed_error(self):
        stack = self._stack(noise_sigma=0.1)
        with pytest.raises(RegionOverlap) as info:
            snr_metric(stack, Region(0, 0, 4, 4), Region(3, 0, 3, 4))
        assert isinstance(info.value, PnPuctError)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_overlap_verdict_matches_pixel_sets(self, data):
        stack = ThermogramStack(
            data=np.random.default_rng(0).normal(size=(5, 4, 6)), fps=1.0)

        def region():
            x0, y0 = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 3))
            return Region(x0, y0, data.draw(st.integers(1, 6 - x0)),
                          data.draw(st.integers(1, 4 - y0)))

        def pixels(r):
            return {(jx, jy) for jx in range(r.x0, r.x0 + r.width)
                    for jy in range(r.y0, r.y0 + r.height)}

        signal, reference = region(), region()
        if signal != reference and pixels(signal) & pixels(reference):
            with pytest.raises(ValueError, match="overlap"):
                snr_metric(stack, signal, reference)
        else:
            snr_metric(stack, signal, reference)
