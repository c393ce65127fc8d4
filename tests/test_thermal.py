import errno
import hashlib
import os
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnpuct import (
    ExcitationWaveform,
    IndexOutOfRange,
    InvalidConfig,
    InvalidScene,
    InvalidWaveform,
    NonFiniteData,
    PixelModel,
    RectPulse,
    Region,
    SceneConfig,
    SeriesNotConverged,
    Timing,
    build_bipolar,
    build_unipolar,
    generate_ls,
    impulse_response,
    load_scene_config,
    lpt_reference,
    respond,
    simulate_stack,
    write_stack,
)
import pnpuct.stack
from pnpuct import thermal
from pnpuct.thermal import MIN_SCALE
from pnpuct.waveform import MAX_SCALE
from fd_oracle import fd_impulse_response
from pipeline_helpers import file_resident_kib, resident_kib

SQRT_PI = np.sqrt(np.pi)
SOUND = PixelModel(diffusivity=1e-6)
# a sound pixel, shallow and deep interfaces of either sign, and a thin
# insulated layer, whose R = 1 takes the mode series
MODELS = (SOUND,
          PixelModel(diffusivity=1e-6, defect_depth=5e-4, reflection_coeff=0.9),
          PixelModel(diffusivity=1e-6, defect_depth=2e-3,
                     reflection_coeff=-0.5),
          PixelModel(diffusivity=1e-6, defect_depth=1e-5, reflection_coeff=1.0))


def wave_from(samples, fps, t_bit=None):
    timing = Timing(t_bit=t_bit if t_bit else 1.0 / fps, fps=fps)
    return ExcitationWaveform(samples=np.asarray(samples, dtype=float),
                              timing=timing)


def image_series_response(model, dt, n_frames):
    """Frame-averaged h from the image-source series alone, every term kept
    down to exp(-36) at the last frame edge.

    Term m is S(t, c_m) = sqrt(c_m) * S(t / c_m, 1), with S the
    ``_series_integral`` antiderivative, so blocks of terms take one call.
    """
    edges = np.arange(n_frames + 1) * dt
    a, d = model.amplitude_scale, model.defect_depth
    r, alpha = model.reflection_coeff, model.diffusivity
    n_terms = int(np.ceil(np.sqrt(36.0 * alpha * edges[-1]) / d)) + 1
    series = np.zeros_like(edges)
    for start in range(1, n_terms + 1, 4096):
        m = np.arange(start, min(start + 4096, n_terms + 1))[:, None]
        c = (m * d) ** 2 / alpha
        block = thermal._series_integral(edges / c, 1.0) * np.sqrt(c)
        series += (r ** m * block).sum(axis=0)
    leading = np.sqrt(edges) / SQRT_PI
    return 2.0 * a * (np.diff(leading) + np.diff(series)) / dt


class TestImpulseResponse:
    def test_step_response_exact_by_telescoping(self):
        timing = Timing(t_bit=1.0, fps=40.0)
        h = impulse_response(SOUND, timing, duration=10.0)
        cumulative = np.cumsum(h) * timing.dt
        n = np.arange(1, len(h) + 1)
        expected = 2.0 * np.sqrt(n * timing.dt) / SQRT_PI
        np.testing.assert_allclose(cumulative, expected, rtol=1e-12)

    def test_amplitude_scale_linearity(self):
        timing = Timing(t_bit=1.0, fps=40.0)
        h1 = impulse_response(SOUND, timing, 5.0)
        h3 = impulse_response(
            PixelModel(diffusivity=1e-6, amplitude_scale=3.0), timing, 5.0)
        np.testing.assert_allclose(h3, 3.0 * h1, rtol=1e-12)

    def test_zero_reflection_equals_sound(self):
        timing = Timing(t_bit=1.0, fps=40.0)
        defective = PixelModel(diffusivity=1e-6, defect_depth=1e-3,
                               reflection_coeff=0.0)
        np.testing.assert_array_equal(
            impulse_response(defective, timing, 5.0),
            impulse_response(SOUND, timing, 5.0))

    # the R = 1 layers cross from the image series to the mode series
    # at d^2 / (pi alpha): 0.08 s and 0.32 s
    @pytest.mark.parametrize("depth,r", [(1e-3, 0.5), (0.5e-3, 0.9),
                                         (0.5e-3, 1.0), (1e-3, 1.0)])
    def test_against_finite_difference_oracle(self, depth, r):
        timing = Timing(t_bit=1.0, fps=40.0)
        duration = 4.0
        model = PixelModel(diffusivity=1e-6, defect_depth=depth,
                           reflection_coeff=r)
        analytic = impulse_response(model, timing, duration)
        numeric = fd_impulse_response(1e-6, timing.dt, len(analytic),
                                      depth_interface=depth, reflection=r)
        rel = np.abs(analytic[3:] - numeric[3:]) / np.abs(analytic[3:])
        assert rel.max() < 0.01

    def test_series_truncation_converged(self):
        timing = Timing(t_bit=1.0, fps=40.0)
        model = PixelModel(diffusivity=1e-6, defect_depth=0.5e-3,
                           reflection_coeff=0.95)
        h_default = impulse_response(model, timing, 10.0)
        # forcing many more terms must not change anything measurable
        h_forced = impulse_response(model, timing, 10.0)
        scale = np.abs(h_default).max()
        # recompute with a manual long series
        t0 = np.arange(len(h_default)) * timing.dt
        t1 = t0 + timing.dt
        from pnpuct.thermal import _series_integral

        h_long = 2.0 * (np.sqrt(t1) - np.sqrt(t0)) / (SQRT_PI * timing.dt)
        for m in range(1, 400):
            c = (m * 0.5e-3) ** 2 / 1e-6
            h_long = h_long + 2.0 * 0.95 ** m * (
                _series_integral(t1, c) - _series_integral(t0, c)) / timing.dt
        np.testing.assert_allclose(h_default, h_long, rtol=0, atol=1e-10 * scale)
        np.testing.assert_array_equal(h_default, h_forced)

    def test_unconverged_series_raises(self, monkeypatch):
        timing = Timing(t_bit=1.0, fps=40.0)
        thin = PixelModel(diffusivity=1e-6, defect_depth=1e-5,
                          reflection_coeff=0.999)
        impulse_response(thin, timing, 2.0)  # about 800 terms
        monkeypatch.setattr(thermal, "_MAX_TERMS", 50)
        with pytest.raises(SeriesNotConverged):
            impulse_response(thin, timing, 2.0)

    def test_insulated_thin_layer_needs_few_terms(self, monkeypatch):
        # the image series alone would need about 4300 terms here
        monkeypatch.setattr(thermal, "_MAX_TERMS", 50)
        thin = PixelModel(diffusivity=1e-6, defect_depth=1e-5,
                          reflection_coeff=1.0)
        h = impulse_response(thin, Timing(t_bit=1.0, fps=40.0), 62.0)
        # an insulated slab warms linearly: h tends to a sqrt(alpha) / d
        np.testing.assert_allclose(h[1:], 1e-3 / 1e-5, rtol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(log_depth=st.floats(np.log(1e-6), np.log(3e-3)),
           log_alpha=st.floats(np.log(1e-7), np.log(1e-5)),
           fps=st.sampled_from([1.0, 4.0, 10.0, 40.0]),
           n_frames=st.integers(1, 160))
    def test_insulated_layer_matches_image_series(self, log_depth, log_alpha,
                                                  fps, n_frames):
        model = PixelModel(diffusivity=np.exp(log_alpha),
                           defect_depth=np.exp(log_depth),
                           reflection_coeff=1.0)
        timing = Timing(t_bit=1.0, fps=fps)
        h = impulse_response(model, timing, n_frames / fps)
        reference = image_series_response(model, timing.dt, len(h))
        np.testing.assert_allclose(h, reference, rtol=0,
                                   atol=1e-11 * np.abs(reference).max())

    def test_model_validation(self):
        with pytest.raises(InvalidScene, match="^diffusivity must be"):
            PixelModel(diffusivity=0.0)
        with pytest.raises(InvalidScene, match="^defect_depth must be"):
            PixelModel(diffusivity=1e-6, defect_depth=-1.0)
        with pytest.raises(InvalidScene, match="^reflection_coeff must lie"):
            PixelModel(diffusivity=1e-6, reflection_coeff=1.5)

    def test_bounds_keep_the_response_finite(self):
        # at float32's largest diffusivity, amplitude scale and amplitude
        # no float64 product overflows (run under -W error)
        big = MAX_SCALE
        timing = Timing(t_bit=1.0, fps=1000.0)
        wave = build_unipolar(build_bipolar(generate_ls(31), timing), big)
        for model in (PixelModel(big, amplitude_scale=big),
                      PixelModel(big, 1e-3, 0.9, -big),
                      PixelModel(big, 1e-5, 1.0, big),
                      PixelModel(1e-6, 1e-5, 1.0, big)):
            assert np.isfinite(respond(
                impulse_response(model, timing, wave.duration), wave)).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fields", [
        # invalid values in the image series' products
        {"diffusivity": 1e-320, "defect_depth": 1e-3,
         "reflection_coeff": 0.9},
        {"diffusivity": np.nextafter(MIN_SCALE, 0), "defect_depth": 1e-3,
         "reflection_coeff": 1.0},
        # OverflowError from the mode series' (pi / d)^2
        {"defect_depth": 1e-160, "reflection_coeff": 1.0},
        {"defect_depth": np.nextafter(MIN_SCALE, 0), "reflection_coeff": 0.9},
        # OverflowError from the image series' (m d)^2
        {"defect_depth": 1e200, "reflection_coeff": 0.9},
        {"defect_depth": np.nextafter(MAX_SCALE, np.inf),
         "reflection_coeff": -0.5},
    ], ids=["alpha-1e-320", "alpha-below", "depth-1e-160", "depth-below",
            "depth-1e200", "depth-above"])
    def test_scale_beyond_its_bound_rejected(self, fields):
        # each passed the check, positive and finite, and its response
        # raised (under -W error) where the bound now refuses the model
        model = {"diffusivity": 1e-6, **fields}
        with pytest.raises(InvalidScene,
                           match="at least 1.1754944e-38 and at most "
                                 "3.4028235e"):
            PixelModel(**model)

    @pytest.mark.filterwarnings("error")
    def test_lower_bounds_keep_the_series_finite(self):
        # every corner of the diffusivity and depth bounds, through the
        # image series (R < 1) and the mode series (R = 1), at unit and
        # the largest amplitude scale
        timing = Timing(t_bit=1.0, fps=10.0)
        for alpha, depth in [(MIN_SCALE, MIN_SCALE), (MIN_SCALE, MAX_SCALE),
                             (MAX_SCALE, MIN_SCALE), (MAX_SCALE, MAX_SCALE),
                             (MIN_SCALE, 1e-5), (1e-6, MIN_SCALE)]:
            for r in (-0.9, 0.9, 1.0):
                for scale in (1.0, MAX_SCALE):
                    model = PixelModel(alpha, depth, r, scale)
                    assert np.isfinite(
                        impulse_response(model, timing, 10.0)).all(), model

    @pytest.mark.parametrize("fields", [
        {"diffusivity": np.nan},
        {"diffusivity": np.inf},
        {"defect_depth": np.nan, "reflection_coeff": 0.9},
        {"defect_depth": np.inf, "reflection_coeff": 1.0},
        {"amplitude_scale": np.nan},
        {"amplitude_scale": np.inf},
        {"amplitude_scale": -np.inf},
        {"diffusivity": "1e-6"},
        {"defect_depth": "0.001", "reflection_coeff": 0.9},
        {"amplitude_scale": None},
        {"diffusivity": 1e308, "defect_depth": 1e-3, "reflection_coeff": 0.9},
        {"amplitude_scale": 1e308},
        {"amplitude_scale": -1e308},
    ], ids=["alpha-nan", "alpha-inf", "depth-nan", "depth-inf",
            "scale-nan", "scale-inf", "scale-minus-inf", "alpha-str",
            "depth-str", "scale-none", "alpha-1e308", "scale-1e308",
            "scale-minus-1e308"])
    def test_non_finite_model_rejected(self, fields):
        # a NaN diffusivity or depth ran the image series to its term cap
        # (1.2 s at 10 fps over 10 s) before it raised; the others gave
        # non-finite responses, and a string or None a bare TypeError.
        # Past float32's largest value the image series' tail bound
        # overflowed (alpha) and so did the antiderivative (scale)
        with pytest.raises(InvalidScene, match="finite"):
            PixelModel(**{"diffusivity": 1e-6, **fields})


class TestRespond:
    def test_unit_sample_gives_scaled_kernel(self):
        timing = Timing(t_bit=1.0, fps=10.0)
        h = impulse_response(SOUND, timing, 2.0)
        x = np.zeros(20)
        x[0] = 1.0
        out = respond(h, wave_from(x, 10.0))
        np.testing.assert_allclose(out, h * timing.dt, rtol=1e-12)

    def test_step_response_proportional_to_sqrt_t(self):
        fps = 40.0
        h = impulse_response(SOUND, Timing(t_bit=1.0, fps=fps), 5.0)
        out = respond(h, wave_from(np.full(200, 2.0), fps))
        n = np.arange(1, 201)
        expected = 2.0 * 2.0 * np.sqrt(n / fps) / SQRT_PI
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_pulse_rise_then_monotone_cooling(self):
        # 3 s pulse observed for 50 s: rises while heated, then cools
        fps = 40.0
        timing = Timing(t_bit=1.0, fps=fps)
        out = lpt_reference(SOUND, RectPulse(duration=3.0, amplitude=1.0),
                            timing, 50.0)
        peak = np.argmax(out)
        assert peak == int(3.0 * fps) - 1
        cooling = np.diff(out[int(3.0 * fps):])
        assert np.all(cooling <= 0)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        fps = 20.0
        h = impulse_response(SOUND, Timing(t_bit=1.0, fps=fps), 3.0)
        x1 = rng.normal(size=60)
        x2 = rng.normal(size=60)
        a, b = 2.3, -0.7
        left = respond(h, wave_from(a * x1 + b * x2, fps))
        right = (a * respond(h, wave_from(x1, fps))
                 + b * respond(h, wave_from(x2, fps)))
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)

    def test_time_shift_equivariance(self):
        fps = 20.0
        h = impulse_response(SOUND, Timing(t_bit=1.0, fps=fps), 3.0)
        rng = np.random.default_rng(4)
        x = rng.normal(size=40)
        shift = 7
        shifted = np.concatenate([np.zeros(shift), x])[:40]
        out_shifted = respond(h, wave_from(shifted, fps))
        out = respond(h, wave_from(x, fps))
        np.testing.assert_allclose(out_shifted[shift:], out[:-shift],
                                   rtol=1e-12, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.one_of(st.integers(1, 3000),
                       st.sampled_from([2, 3, 1031, 2477, 2999])),
           length=st.sampled_from(["shorter", "equal", "longer"]),
           rows=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
    @example(n=1, length="equal", rows=1, seed=0)
    @example(n=2999, length="longer", rows=2, seed=1)
    def test_matches_the_direct_sum(self, n, length, rows, seed):
        rng = np.random.default_rng(seed)
        m = {"shorter": max(n // 3, 1), "equal": n, "longer": n + 57}[length]
        fps = 40.0
        wave = wave_from(rng.normal(size=n), fps)
        h = rng.normal(size=(rows, m))
        out = respond(h, wave)
        assert out.shape == (rows, n)
        for row, h_row in zip(out, h):
            direct = np.convolve(wave.samples, h_row)[:n] / fps
            error = np.abs(row - direct).max()
            assert error <= 1e-13 * np.abs(direct).max()
            # each row of a stack is the response to that row alone
            np.testing.assert_array_equal(row, respond(h_row, wave))

    def test_scalar_response_scales_the_excitation(self):
        x = np.arange(1.0, 6.0)
        np.testing.assert_allclose(respond(2.0, wave_from(x, 10.0)),
                                   2.0 * x / 10.0, rtol=1e-15)

    def test_empty_response_or_excitation_is_invalid(self):
        h = impulse_response(SOUND, Timing(t_bit=1.0, fps=10.0), 2.0)
        with pytest.raises(InvalidWaveform):
            respond(h[:0], wave_from(np.ones(10), 10.0))
        with pytest.raises(InvalidWaveform):
            respond(np.ones((3, 0)), wave_from(np.ones(10), 10.0))
        with pytest.raises(InvalidWaveform):
            respond(h, wave_from(np.ones(0), 10.0))


class TestLptReference:
    def test_short_pulse_limit(self):
        fps = 40.0
        timing = Timing(t_bit=1.0, fps=fps)
        h = impulse_response(SOUND, timing, 5.0)
        out = lpt_reference(SOUND, RectPulse(duration=1 / fps, amplitude=40.0),
                            timing, 5.0)
        # one-frame pulse of area A*T = 1: the response is h * (A*T)
        np.testing.assert_allclose(out, h, rtol=1e-12)

    def test_heating_stage_causality(self):
        fps = 40.0
        timing = Timing(t_bit=1.0, fps=fps)
        short = lpt_reference(SOUND, RectPulse(0.5, 1.0), timing, 10.0)
        long = lpt_reference(SOUND, RectPulse(1.9, 1.0), timing, 10.0)
        n = int(0.5 * fps)
        np.testing.assert_array_equal(short[:n], long[:n])

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("pulse_s", [1 / 40, 1.0, 12.0])
    def test_matches_the_convolved_pulse(self, model, pulse_s):
        # pulses of 1 frame, 40 frames and longer than the 10 s span
        fps, amplitude = 40.0, 1.5
        timing = Timing(t_bit=1.0, fps=fps)
        out = lpt_reference(model, RectPulse(pulse_s, amplitude), timing, 10.0)
        h = impulse_response(model, timing, 10.0)
        x = np.zeros(len(h))
        x[:int(round(pulse_s * fps))] = amplitude
        direct = np.convolve(x, h)[:len(x)] / fps
        assert out.shape == direct.shape
        assert np.abs(out - direct).max() <= 1e-12 * np.abs(direct).max()

    def test_pulse_under_half_a_frame_is_invalid(self):
        timing = Timing(t_bit=1.0, fps=40.0)
        with pytest.raises(InvalidWaveform, match="RectPulse.*40.0 fps"):
            lpt_reference(SOUND, RectPulse(0.4 / 40, 1.0), timing, 10.0)
        with pytest.raises(InvalidScene):
            lpt_reference(SOUND, RectPulse(1.0, 1.0), timing, 0.4 / 40)


    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf, "10",
                                          None])
    def test_a_span_of_no_finite_frame_is_a_scene_error(self, duration):
        # int(round(duration * fps)) raised a bare ValueError or
        # OverflowError
        timing = Timing(t_bit=1.0, fps=10.0)
        with pytest.raises(InvalidScene, match=f"duration {duration!r} s"):
            impulse_response(SOUND, timing, duration)
        with pytest.raises(InvalidScene, match=f"duration {duration!r} s"):
            lpt_reference(SOUND, RectPulse(1.0, 1.0), timing, duration)


class TestSimulateStack:
    def _unipolar(self, n_bit=7, fps=2.0, amplitude=1.0):
        code = generate_ls(n_bit)
        timing = Timing(t_bit=1.0, fps=fps, n_per=2)
        return build_unipolar(build_bipolar(code, timing), amplitude)

    def test_traces_are_each_models_response(self):
        wave = self._unipolar(n_bit=31, fps=10.0)
        scene = SceneConfig(
            nx=4, ny=1, background=SOUND,
            defects=tuple((Region(i, 0, 1, 1), model)
                          for i, model in enumerate(MODELS[1:], 1)))
        traces = thermal.SimulatedStack(scene, wave)._traces
        assert len(traces) == len(MODELS)
        for trace, model in zip(traces, scene.models):
            np.testing.assert_array_equal(
                trace, respond(impulse_response(model, wave.timing,
                                                wave.duration), wave))

    def test_uniform_noiseless_scene(self):
        scene = SceneConfig(nx=4, ny=3, background=SOUND)
        stack = simulate_stack(scene, self._unipolar())
        assert stack.data.shape == (28, 3, 4)
        first = stack.data[:, 0, 0]
        for jy in range(3):
            for jx in range(4):
                np.testing.assert_array_equal(stack.data[:, jy, jx], first)

    def test_seeded_reproducibility(self):
        scene = SceneConfig(nx=3, ny=3, background=SOUND, noise_sigma=0.5,
                            rng_seed=99)
        wave = self._unipolar()
        a = simulate_stack(scene, wave)
        b = simulate_stack(scene, wave)
        np.testing.assert_array_equal(a.data, b.data)

    def test_noise_stream_is_per_pixel(self):
        wave = self._unipolar()
        small = SceneConfig(nx=2, ny=2, background=SOUND, noise_sigma=0.5,
                            rng_seed=42)
        large = SceneConfig(nx=3, ny=4, background=SOUND, noise_sigma=0.5,
                            rng_seed=42)
        a = simulate_stack(small, wave)
        b = simulate_stack(large, wave)
        # pixel (jx, jy) noise depends only on (seed, jx, jy), not grid shape
        np.testing.assert_array_equal(a.data[:, :2, :2], b.data[:, :2, :2])

    def test_defect_contrast_decreases_with_depth(self):
        depths = [0.5e-3, 1.0e-3, 1.5e-3, 2.0e-3, 2.5e-3]
        defects = []
        for i, d in enumerate(depths):
            model = PixelModel(diffusivity=1e-6, defect_depth=d,
                               reflection_coeff=0.9)
            defects.append((Region(x0=2 * i, y0=0, width=1, height=1), model))
        scene = SceneConfig(nx=10, ny=2, background=SOUND,
                            defects=tuple(defects))
        timing = Timing(t_bit=1.0, fps=4.0)
        pulse = np.zeros(4 * 20)
        pulse[: 4 * 3] = 1.0
        wave = ExcitationWaveform(samples=pulse, timing=timing)
        stack = simulate_stack(scene, wave)
        t_index = int(6.0 * 4)
        background_value = stack.data[t_index, 1, 1]
        contrasts = [stack.data[t_index, 0, 2 * i] - background_value
                     for i in range(len(depths))]
        assert all(c > 0 for c in contrasts)
        assert all(contrasts[i] > contrasts[i + 1]
                   for i in range(len(contrasts) - 1))

    @pytest.mark.parametrize("seed", [-3, -1, 2.5, 7.0, "7", None, True])
    def test_rng_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidScene, match="rng_seed"):
            SceneConfig(nx=2, ny=2, background=SOUND, noise_sigma=0.5,
                        rng_seed=seed)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, "0.1", None])
    def test_noise_sigma_must_be_finite(self, sigma):
        with pytest.raises(InvalidScene, match="noise_sigma"):
            SceneConfig(nx=2, ny=2, background=SOUND, noise_sigma=sigma)

    def test_numpy_integer_seed_is_that_int(self):
        wave = self._unipolar()
        scene = SceneConfig(nx=2, ny=2, background=SOUND, noise_sigma=0.5,
                            rng_seed=np.uint64(2 ** 63 + 1))
        assert type(scene.rng_seed) is int
        same = SceneConfig(nx=2, ny=2, background=SOUND, noise_sigma=0.5,
                           rng_seed=2 ** 63 + 1)
        np.testing.assert_array_equal(simulate_stack(scene, wave).data,
                                      simulate_stack(same, wave).data)

    def test_equal_scenes_and_timings_write_equal_bytes(self, tmp_path):
        # t_bit, fps and noise_sigma are stored as floats, so the stack
        # metadata holds the same text for an int or a numpy scalar
        written = set()
        for t_bit, fps, sigma in [
                (1, 2, 0.5), (1.0, 2.0, np.float32(0.5)),
                (np.float64(1.0), np.float32(2.0), np.float64(0.5))]:
            timing = Timing(t_bit, fps)
            wave = build_unipolar(build_bipolar(generate_ls(7), timing), 1.0)
            scene = SceneConfig(nx=2, ny=2, background=SOUND,
                                noise_sigma=sigma, rng_seed=3)
            path = tmp_path / "s.tgs"
            simulate_stack(scene, wave, path)
            written.add(path.read_bytes())
        assert len(written) == 1

    @pytest.mark.parametrize("seed", [
        0, 1, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64,
        2 ** 64 + 5, 2 ** 96, 2 ** 200 + 12345])
    def test_seed_states_match_numpy_seeding(self, seed):
        jx = np.array([0, 1, 0, 7, 63, 2 ** 31, 2 ** 32 - 1])
        jy = np.array([0, 0, 1, 3, 63, 5, 2 ** 32 - 1])
        words = thermal._seed_states(seed, jx, jy)
        for row, x, y in zip(words, jx.tolist(), jy.tolist()):
            seq = np.random.SeedSequence([seed, x, y])
            np.testing.assert_array_equal(
                row, seq.generate_state(4, np.uint64))
            assert thermal._pcg64_state(row) == np.random.PCG64(seq).state

    def test_region_must_fit(self):
        with pytest.raises(InvalidScene, match="outside the grid$"):
            SceneConfig(nx=4, ny=4, background=SOUND,
                        defects=((Region(x0=3, y0=0, width=2, height=1),
                                  SOUND),))

    @pytest.mark.parametrize("build, match", [
        (lambda: Region(x0=-1, y0=0, width=1, height=1), "origin"),
        (lambda: Region(x0=0, y0=-2, width=1, height=1), "origin"),
        (lambda: SceneConfig(nx=0, ny=4, background=SOUND), "1 x 1"),
        (lambda: SceneConfig(nx=4, ny=0, background=SOUND), "1 x 1"),
    ], ids=["x0", "y0", "nx", "ny"])
    def test_negative_origin_or_empty_grid(self, build, match):
        with pytest.raises(InvalidScene, match=match):
            build()

    @pytest.mark.parametrize("nx, ny", [(2 ** 32, 1), (1, 10 ** 22)],
                             ids=["nx-2^32", "ny-1e22"])
    def test_grid_beyond_tgs1_rejected_before_its_map(self, nx, ny):
        # the label map of (1, 2^32) pixels asked 32 GiB, and ny = 1e22 a
        # bare ValueError; TGS1 stores nx and ny as uint32
        with pytest.raises(InvalidScene, match=r"at most 2\^32 - 1 a side"):
            SceneConfig(nx=nx, ny=ny, background=SOUND)

    @pytest.mark.parametrize("region, grid", [
        ({"width": 1.5}, {}),
        ({"height": 1.0}, {}),
        ({"x0": "0"}, {}),
        ({"y0": True}, {}),
        ({"width": np.float64(1.0)}, {}),
        ({}, {"nx": 2.5}),
        ({}, {"ny": np.float64(2.0)}),
        ({}, {"nx": "2"}),
        ({}, {"ny": None}),
    ], ids=["width-1.5", "height-1.0", "x0-str", "y0-bool", "width-float64",
            "nx-2.5", "ny-float64", "nx-str", "ny-none"])
    def test_integer_fields_take_integers_only(self, region, grid):
        # a float width was accepted and failed as a bare TypeError when
        # it sliced the label map; a float nx or ny failed the same way
        with pytest.raises(InvalidScene, match="integer"):
            SceneConfig(**{"nx": 2, "ny": 2, **grid}, background=SOUND,
                        defects=((Region(**{"x0": 0, "y0": 0, "width": 1,
                                            "height": 1, **region}), SOUND),))

    @pytest.mark.parametrize("entry", [
        (1, 2),
        (Region(x0=0, y0=0, width=1, height=1), "x"),
        Region(x0=0, y0=0, width=1, height=1),
    ], ids=["numbers", "model_not_a_model", "bare_region"])
    def test_malformed_defect_entry_is_a_scene_error(self, entry):
        with pytest.raises(InvalidScene, match="defect entry"):
            SceneConfig(nx=4, ny=4, background=SOUND, defects=(entry,))


# equal models in separate entries must share one label
MODEL_POOL = (
    SOUND,
    PixelModel(diffusivity=1e-6, amplitude_scale=2.0),
    PixelModel(diffusivity=1e-6, defect_depth=1e-3, reflection_coeff=0.9),
    PixelModel(diffusivity=1e-6, defect_depth=1e-3, reflection_coeff=0.9),
    PixelModel(diffusivity=2e-6, defect_depth=2e-3, reflection_coeff=-0.5),
)


@st.composite
def scenes(draw):
    nx, ny = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    defects = []
    for _ in range(draw(st.integers(0, 5))):
        x0, y0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        region = Region(x0=x0, y0=y0, width=draw(st.integers(1, nx - x0)),
                        height=draw(st.integers(1, ny - y0)))
        defects.append((region, draw(st.sampled_from(MODEL_POOL))))
    return SceneConfig(nx=nx, ny=ny, background=draw(st.sampled_from(MODEL_POOL)),
                       defects=tuple(defects),
                       noise_sigma=draw(st.sampled_from([0.0, 0.3])),
                       rng_seed=draw(st.integers(0, 2 ** 200)))


def per_pixel_stack(scene, wave):
    """Reference build: the last defect covering a pixel wins, one by one."""
    n_frames = len(wave.samples)
    data = np.empty((n_frames, scene.ny, scene.nx))
    for jy in range(scene.ny):
        for jx in range(scene.nx):
            model = scene.background
            for region, defect in scene.defects:
                if (region.x0 <= jx < region.x0 + region.width
                        and region.y0 <= jy < region.y0 + region.height):
                    model = defect
            assert scene.model_at(jx, jy) == model
            trace = respond(impulse_response(model, wave.timing, wave.duration),
                            wave)
            if scene.noise_sigma > 0:
                rng = np.random.default_rng([scene.rng_seed, jx, jy])
                trace = trace + rng.normal(0.0, scene.noise_sigma, n_frames)
            data[:, jy, jx] = trace
    return data.astype(np.float32)


class TestLabelMap:
    WAVE = build_unipolar(build_bipolar(generate_ls(7), Timing(t_bit=1.0,
                                                               fps=2.0)), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(scene=scenes(), band_px=st.sampled_from([None, 1, 2, 5]))
    # one, two and three 32-bit words of seed
    @example(scene=SceneConfig(nx=3, ny=2, background=SOUND, noise_sigma=0.3,
                               rng_seed=0), band_px=None)
    @example(scene=SceneConfig(nx=3, ny=2, background=SOUND, noise_sigma=0.3,
                               rng_seed=2 ** 32 - 1), band_px=None)
    @example(scene=SceneConfig(nx=3, ny=2, background=SOUND, noise_sigma=0.3,
                               rng_seed=2 ** 32), band_px=None)
    @example(scene=SceneConfig(nx=3, ny=2, background=SOUND, noise_sigma=0.3,
                               rng_seed=2 ** 64), band_px=None)
    # bands of two rows, the last band holding one row; bands that end
    # inside rows; and three bands of 256 px, the last of 2, over rows
    # of 257
    @example(scene=SceneConfig(
        nx=127, ny=5, background=SOUND,
        defects=((Region(x0=90, y0=3, width=10, height=2), MODEL_POOL[2]),),
        noise_sigma=0.3, rng_seed=3), band_px=254)
    @example(scene=SceneConfig(
        nx=127, ny=5, background=SOUND,
        defects=((Region(x0=90, y0=3, width=10, height=2), MODEL_POOL[2]),),
        noise_sigma=0.3, rng_seed=3), band_px=100)
    @example(scene=SceneConfig(nx=257, ny=2, background=MODEL_POOL[1],
                               noise_sigma=0.3, rng_seed=4), band_px=256)
    def test_matches_per_pixel_build(self, scene, band_px):
        # band_px: the pixels of a band, as blocks of band_px columns
        # and a budget below one block; None for the default geometry
        block = band_px or pnpuct.stack._BLOCK
        budget = 1 if band_px else pnpuct.stack._BAND_BYTES
        with mock.patch.object(pnpuct.stack, "_BLOCK", block), \
                mock.patch.object(pnpuct.stack, "_BAND_BYTES", budget):
            stack = simulate_stack(scene, self.WAVE)
        np.testing.assert_array_equal(stack.data,
                                      per_pixel_stack(scene, self.WAVE))

    @settings(max_examples=40, deadline=None)
    @given(nx=st.integers(1, 5), ny=st.integers(1, 5),
           jx=st.integers(-3, 7), jy=st.integers(-3, 7))
    def test_model_at_outside_grid_raises(self, nx, ny, jx, jy):
        scene = SceneConfig(nx=nx, ny=ny, background=SOUND)
        if 0 <= jx < nx and 0 <= jy < ny:
            assert scene.model_at(jx, jy) is SOUND
        else:
            with pytest.raises(IndexOutOfRange):
                scene.model_at(jx, jy)

    @pytest.mark.parametrize("jx, jy", [
        (1.5, 0), (True, 0), (0, np.float64(1.0)), (None, 0), ("1", 0)])
    def test_model_at_takes_integers_only(self, jx, jy):
        scene = SceneConfig(nx=3, ny=3, background=SOUND)
        assert scene.model_at(np.int64(1), np.uint8(0)) is SOUND
        with pytest.raises(IndexOutOfRange):
            scene.model_at(jx, jy)


@st.composite
def wide_scenes(draw):
    """Grids of 1-40 x 1-12 px with up to three defects, noisy or not."""
    nx, ny = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    defects = []
    for _ in range(draw(st.integers(0, 3))):
        x0, y0 = draw(st.integers(0, nx - 1)), draw(st.integers(0, ny - 1))
        region = Region(x0=x0, y0=y0, width=draw(st.integers(1, nx - x0)),
                        height=draw(st.integers(1, ny - y0)))
        defects.append((region, draw(st.sampled_from(MODEL_POOL[1:]))))
    return SceneConfig(nx=nx, ny=ny, background=SOUND,
                       defects=tuple(defects),
                       noise_sigma=draw(st.sampled_from([0.0, 0.3])),
                       rng_seed=draw(st.integers(0, 2 ** 64)))


class TestSimulatedFile:
    """simulate_stack with a path writes what write_stack writes."""

    @staticmethod
    def _wave(n_per):
        return build_unipolar(build_bipolar(generate_ls(7), Timing(
            t_bit=1.0, fps=2.0, n_per=n_per)), 1.0)

    @settings(max_examples=60, deadline=None)
    @given(scene=wide_scenes(), n_per=st.integers(2, 3),
           block=st.integers(1, 64), band_blocks=st.integers(0, 4),
           spare=st.floats(0.0, 0.99), chunk_frames=st.integers(1, 45),
           hash_bytes=st.integers(4, 5000))
    # bands of one pixel cut by a budget below one block, chunks of one
    # frame
    @example(scene=SceneConfig(nx=40, ny=12, background=SOUND,
                               noise_sigma=0.3, rng_seed=5),
             n_per=3, block=1, band_blocks=0, spare=0.5, chunk_frames=1,
             hash_bytes=4096)
    # one band of every pixel
    @example(scene=SceneConfig(nx=3, ny=12, background=SOUND,
                               defects=((Region(0, 4, 2, 3), MODEL_POOL[2]),),
                               noise_sigma=0.3, rng_seed=6),
             n_per=2, block=64, band_blocks=1, spare=0.0, chunk_frames=5,
             hash_bytes=7)
    def test_file_bytes_equal_write_stack(self, tmp_path_factory, scene,
                                          n_per, block, band_blocks, spare,
                                          chunk_frames, hash_bytes):
        wave = self._wave(n_per)
        n_frames = len(wave.samples)
        expected = simulate_stack(scene, wave)
        directory = tmp_path_factory.mktemp("sim")
        digest = write_stack(expected, directory / "memory.tgs")
        # blocks of ``block`` pixels and a budget of band_blocks blocks and
        # a spare fraction of one: bands cut at every block count, inside
        # rows or not, and never hold less than one block; they are
        # stored in chunks of chunk_frames frames, or of hash_bytes of
        # frames where that is more, and the file is hashed hash_bytes at
        # a time
        block_bytes = 4 * n_frames * block
        sha = hashlib.sha256()
        with mock.patch.object(pnpuct.stack, "_BLOCK", block), \
                mock.patch.object(pnpuct.stack, "_BAND_BYTES",
                                  int((band_blocks + spare) * block_bytes)), \
                mock.patch.object(pnpuct.stack, "_CHUNK_FRAMES",
                                  chunk_frames), \
                mock.patch.object(pnpuct.stack, "CHUNK_BYTES", hash_bytes):
            mapped = simulate_stack(scene, wave, directory / "file.tgs", sha)
        assert ((directory / "file.tgs").read_bytes()
                == (directory / "memory.tgs").read_bytes())
        assert sha.hexdigest() == digest
        assert not mapped.data.flags.writeable
        assert mapped.data.tobytes() == expected.data.tobytes()
        assert (mapped.fps, mapped.metadata) == (expected.fps,
                                                 expected.metadata)

    def test_the_placeholder_data_is_not_read(self, tmp_path, monkeypatch):
        scene = SceneConfig(nx=5, ny=4, background=SOUND, noise_sigma=0.3,
                            rng_seed=8)
        wave = self._wave(2)
        expected = simulate_stack(scene, wave)
        write_stack(expected, tmp_path / "memory.tgs")

        class Unread(thermal.SimulatedStack):
            @property
            def data(self):
                raise AssertionError("SimulatedStack.data was read")

            @data.setter
            def data(self, value):
                pass

        monkeypatch.setattr(thermal, "SimulatedStack", Unread)
        stored = simulate_stack(scene, wave)
        assert stored.data.tobytes() == expected.data.tobytes()
        assert (stored.fps, stored.metadata) == (expected.fps,
                                                 expected.metadata)
        simulate_stack(scene, wave, tmp_path / "file.tgs")
        assert ((tmp_path / "file.tgs").read_bytes()
                == (tmp_path / "memory.tgs").read_bytes())

    def test_without_posix_fallocate_the_file_is_the_same(
            self, tmp_path, monkeypatch):
        # macOS and Windows have no posix_fallocate: the file is extended
        # sparse, then filled through the same mapping, a band of a row
        # at a time
        scene = SceneConfig(nx=5, ny=4, background=SOUND, noise_sigma=0.3,
                            rng_seed=8)
        wave = self._wave(2)
        write_stack(simulate_stack(scene, wave), tmp_path / "memory.tgs")
        monkeypatch.delattr(pnpuct.stack.os, "posix_fallocate")
        with mock.patch.object(pnpuct.stack, "_BLOCK", scene.nx), \
                mock.patch.object(pnpuct.stack, "_BAND_BYTES", 1):
            simulate_stack(scene, wave, tmp_path / "file.tgs")
        assert ((tmp_path / "file.tgs").read_bytes()
                == (tmp_path / "memory.tgs").read_bytes())

    def test_full_disk_is_an_os_error(self, tmp_path, monkeypatch):
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        scene = SceneConfig(nx=2, ny=2, background=SOUND)
        with pytest.raises(OSError) as info:
            simulate_stack(scene, self._wave(2), tmp_path / "file.tgs")
        assert info.value.errno == errno.ENOSPC

    @pytest.mark.parametrize("to_file", [False, True],
                             ids=["memory", "file"])
    def test_non_finite_samples_raise(self, tmp_path, to_file):
        # noise of 1e39 overflows float32
        scene = SceneConfig(nx=3, ny=2, background=SOUND, noise_sigma=1e39)
        with pytest.raises(NonFiniteData):
            simulate_stack(scene, self._wave(2),
                           tmp_path / "file.tgs" if to_file else None)

    def test_series_errors_raise_before_the_file_is_made(self, tmp_path,
                                                         monkeypatch):
        monkeypatch.setattr(thermal, "_MAX_TERMS", 1)
        thin = PixelModel(diffusivity=1e-6, defect_depth=1e-5,
                          reflection_coeff=0.9)
        scene = SceneConfig(nx=2, ny=2, background=thin)
        with pytest.raises(SeriesNotConverged):
            simulate_stack(scene, self._wave(2), tmp_path / "file.tgs")
        assert not (tmp_path / "file.tgs").exists()

    def test_simulating_leaves_no_page_of_the_file_resident(
            self, tmp_path, monkeypatch):
        # 64 x 64 px x 2480 frames (40.6 MB) in four bands of 1024 px
        # (16 rows): the traced peak is about one 10.2 MB band, a float64
        # trace and the responses
        wave = build_unipolar(build_bipolar(generate_ls(31), Timing(
            t_bit=1.0, fps=40.0, n_per=2)), 1.0)
        scene = SceneConfig(nx=64, ny=64, background=SOUND)
        tracemalloc.start()
        try:
            mapped = simulate_stack(scene, wave, tmp_path / "file.tgs")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.35 * mapped.data.nbytes
        if not Path("/proc/self/smaps").exists():
            return
        # every band's pages were dropped behind it, and so were those
        # of the pass that hashed the file
        resident = []
        write_bands = thermal.write_bands

        def watched(path, shape, fps, metadata, bands):
            def stored():
                # write_bands draws the next band once it stored this one
                for pair in bands:
                    yield pair
                    resident.append(file_resident_kib(path))
            write_bands(path, shape, fps, metadata, stored())
        monkeypatch.setattr(thermal, "write_bands", watched)
        mapped = simulate_stack(scene, wave, tmp_path / "again.tgs")
        assert resident == [0, 0, 0, 0]
        assert resident_kib(mapped.data) == 0


class TestSceneConfigFile:
    def test_load(self, tmp_path):
        text = """
[scene]
nx = 8
ny = 6
noise_sigma = 0.25
rng_seed = 17

[background]
diffusivity = 1e-6
amplitude_scale = 2.0

[defect.shallow]
x0 = 1
y0 = 2
width = 3
height = 2
depth = 0.0005
reflection = 0.9
"""
        path = tmp_path / "scene.cfg"
        path.write_text(text)
        scene = load_scene_config(path)
        assert scene.nx == 8 and scene.ny == 6
        assert scene.noise_sigma == 0.25
        assert scene.rng_seed == 17
        assert scene.background.amplitude_scale == 2.0
        region, model = scene.defects[0]
        assert region == Region(x0=1, y0=2, width=3, height=2)
        assert model.defect_depth == 0.0005
        assert model.reflection_coeff == 0.9
        assert model.amplitude_scale == 2.0  # inherited from background
        assert scene.model_at(2, 3) is model
        assert scene.model_at(0, 0) is scene.background

    @pytest.mark.parametrize("text", [
        "nx = 4\n",
        "[scene]\nnx = 4\nnx = 5\n",
        "[scene]\n[scene]\n",
    ], ids=["no-section-header", "duplicate-key", "duplicate-section"])
    def test_malformed_ini_rejected(self, tmp_path, text):
        path = tmp_path / "scene.cfg"
        path.write_text(text)
        with pytest.raises(InvalidConfig):
            load_scene_config(path)

    @pytest.mark.parametrize("read", [load_scene_config, thermal.read_ini],
                             ids=["load_scene_config", "read_ini"])
    def test_non_utf8_file_is_invalid_config(self, tmp_path, read):
        # a UTF-16 byte-order mark: a bare UnicodeDecodeError before
        path = tmp_path / "utf16.cfg"
        path.write_bytes(bytes.fromhex("fffe00626164"))
        with pytest.raises(InvalidConfig, match="utf16.cfg: not UTF-8"):
            read(path)

    @pytest.mark.parametrize("drop, match", [
        ("[background]\ndiffusivity = 1e-6\n", r"\[background\] section"),
        ("[scene]\nnx = 2\nny = 2\n", r"\[scene\] section"),
        ("ny = 2\n", r"\[scene\] has no 'ny' key"),
        ("y0 = 0\n", r"\[defect.a\] has no 'y0' key"),
    ], ids=["background", "scene", "ny", "y0"])
    def test_missing_section_or_key_named(self, tmp_path, drop, match):
        text = ("[scene]\nnx = 2\nny = 2\n[background]\ndiffusivity = 1e-6\n"
                "[defect.a]\nx0 = 0\ny0 = 0\nwidth = 1\nheight = 1\n")
        assert drop in text
        path = tmp_path / "scene.cfg"
        path.write_text(text.replace(drop, ""))
        with pytest.raises(InvalidScene, match=match):
            load_scene_config(path)

    @pytest.mark.parametrize("old, new, named", [
        # each was read as the scene without it
        ("height = 1", "height = 1\ndepht = 0.001", "[defect.a] depht"),
        ("ny = 2", "ny = 2\nseed = 3", "[scene] seed"),
        ("[background]", "[backgound]", "[backgound]"),
        ("[defect.a]", "[defects.a]", "[defects.a]"),
        ("[defect.a]", "[code]", "[code]"),
    ], ids=["depht", "seed", "backgound", "defects", "code"])
    def test_unknown_section_or_key_named(self, tmp_path, old, new, named):
        text = ("[scene]\nnx = 2\nny = 2\n[background]\ndiffusivity = 1e-6\n"
                "[defect.a]\nx0 = 0\ny0 = 0\nwidth = 1\nheight = 1\n")
        assert old in text
        path = tmp_path / "scene.cfg"
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(InvalidConfig) as info:
            load_scene_config(path)
        assert str(info.value).startswith(named)

    @pytest.mark.parametrize("old, new, match", [
        ("nx = 2", "nx = four", r"\[scene\] nx = 'four'"),
        ("ny = 2", "ny = 2.5", r"\[scene\] ny = '2.5'"),
        ("\n[defect.a]\nx0 = 0", "\n[defect.a]\nx0 = left",
         r"\[defect.a\] x0 = 'left'"),
        ("diffusivity = 1e-6", "diffusivity = abc",
         r"\[background\] diffusivity = 'abc'"),
        ("height = 1", "height = 1\ndepth = deep",
         r"\[defect.a\] depth = 'deep'"),
        ("ny = 2", "ny = 2\nnoise_sigma = loud",
         r"\[scene\] noise_sigma = 'loud'"),
        ("ny = 2", "ny = 2\nrng_seed = 0x1f", r"\[scene\] rng_seed = '0x1f'"),
        # the default interpolation raised InterpolationSyntaxError
        ("nx = 2", "nx = 4%", r"^\[scene\] nx = '4%' is invalid$"),
        ("diffusivity = 1e-6", "diffusivity = 1e-6%(x)s",
         r"\[background\] diffusivity = '1e-6%\(x\)s'"),
    ], ids=["int", "fraction", "defect-int", "float", "defect-float",
            "noise", "seed", "percent", "interpolation"])
    def test_malformed_value_named(self, tmp_path, old, new, match):
        text = ("[scene]\nnx = 2\nny = 2\n[background]\ndiffusivity = 1e-6\n"
                "[defect.a]\nx0 = 0\ny0 = 0\nwidth = 1\nheight = 1\n")
        assert old in text
        path = tmp_path / "scene.cfg"
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(InvalidScene, match=match):
            load_scene_config(path)
