import csv
import hashlib
import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls as scipy_nnls

import pnpuct.dc_removal
from pnpuct import (
    BiasMismatch,
    CodeKind,
    DegenerateTrace,
    NonFiniteData,
    PixelModel,
    PnCode,
    SceneConfig,
    ShapeMismatch,
    ThermogramStack,
    Timing,
    build_bipolar,
    build_matched_filter,
    build_unipolar,
    design_matrix,
    export_fit_map_csv,
    export_pixel_trace,
    export_slice,
    fit_dc,
    generate_ls,
    generate_mls,
    impulse_response,
    modify_for_perfect_pacf,
    remove_dc,
    remove_dc_stack,
    respond,
    save_code,
    simulate_stack,
    waveform_to_csv,
    write_stack,
)
from pnpuct.waveform import filter_to_csv
from conftest import dense_taps

SOUND = PixelModel(diffusivity=1e-6)


def times_for(timing, n):
    return np.arange(n) * timing.dt


def _writer_inputs(seed):
    """A code, waveform, matched filter and stack for every pnpuct writer.

    The values span many magnitudes, and at fps = 10 the two time rules
    differ (3 * 0.1 = 0.30000000000000004, 3 / 10 = 0.3), so a CSV time
    column shows which one its writer uses.
    """
    rng = np.random.default_rng(seed)
    timing = Timing(t_bit=0.3, fps=10.0, n_per=2)
    code = modify_for_perfect_pacf(generate_ls(7))
    wave = build_unipolar(build_bipolar(generate_ls(7), timing), 2.0)
    data = rng.normal(size=(6, 3, 5)) * 10.0 ** rng.integers(-30, 30,
                                                              (6, 3, 5))
    data[2, 1, 1] = -0.0
    stack = ThermogramStack(data=data.astype(np.float32), fps=10.0)
    return code, wave, build_matched_filter(code), stack


def _csv_writer_bytes(header, rows):
    """What csv.writer writes for a header (if any) and rows, as UTF-8."""
    reference = io.StringIO(newline="")
    writer = csv.writer(reference)
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    return reference.getvalue().encode("utf-8")


class TestFitDc:
    def test_exact_member_recovery(self):
        timing = Timing(t_bit=1.0, fps=40.0)
        t = times_for(timing, 1240)
        trace = 2.0 * t + 0.5 * np.sqrt(t)
        a1, a2, a3, _ = fit_dc(trace, timing)
        assert a1 == pytest.approx(2.0, abs=1e-8)
        assert a2 == pytest.approx(0.0, abs=1e-8)
        assert a3 == pytest.approx(0.5, abs=1e-8)

    def test_step_response_is_pure_sqrt(self):
        # semi-infinite step response law: 2*a*sqrt(t/pi), a pure a3 member
        timing = Timing(t_bit=1.0, fps=40.0)
        t = times_for(timing, 1240)
        trace = 2.0 * np.sqrt(t / np.pi)
        a1, a2, a3, rms = fit_dc(trace, timing)
        assert a3 == pytest.approx(2.0 / np.sqrt(np.pi), rel=1e-10)
        assert a1 == 0.0 and a2 == 0.0
        assert rms < 1e-9 * np.sqrt(np.mean(trace ** 2))
        # the frame-integrated simulator trace is the same curve sampled at
        # frame ends; it stays a3-dominated
        h = impulse_response(SOUND, timing, 31.0)
        a1, a2, a3, _ = fit_dc(np.cumsum(h) * timing.dt, timing)
        assert a3 > 10 * (a1 + a2)

    def test_negative_trend_hits_constraint(self):
        timing = Timing(t_bit=1.0, fps=10.0)
        t = times_for(timing, 100)
        trace = -t
        fit = fit_dc(trace, timing)
        assert fit[:3].tolist() == [0.0, 0.0, 0.0]
        assert fit[3] == pytest.approx(np.sqrt(np.mean(trace ** 2)))

    def test_degenerate_traces(self):
        timing = Timing(t_bit=1.0, fps=10.0)
        with pytest.raises(DegenerateTrace):
            fit_dc(np.zeros(50), timing)
        bad = np.ones(50)
        bad[3] = np.nan
        with pytest.raises(NonFiniteData):
            fit_dc(bad, timing)

    def test_overflowing_trace_is_degenerate(self, ls31):
        # finite samples whose projection on the trend basis overflows
        timing = Timing(t_bit=1.0, fps=10.0)
        trace = np.r_[0.0, np.full(619, 1e307)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTrace):
                fit_dc(trace, timing)
            with pytest.raises(DegenerateTrace):
                remove_dc(trace, ls31, timing)

    def test_overflowing_squares_are_degenerate(self, ls31):
        # a finite projection whose squared norm overflows
        timing = Timing(t_bit=1.0, fps=10.0)
        trace = np.r_[0.0, np.full(619, 1e200)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTrace):
                fit_dc(trace, timing)
            with pytest.raises(DegenerateTrace):
                remove_dc(trace, ls31, timing)

    def test_matches_scipy_nnls(self):
        timing = Timing(t_bit=1.0, fps=20.0)
        t = times_for(timing, 400)
        basis = design_matrix(t)
        rng = np.random.default_rng(5)
        for _ in range(25):
            coefs = rng.normal(size=3)
            trace = basis @ coefs + 0.1 * rng.normal(size=len(t))
            fit = fit_dc(trace, timing)
            expected, rnorm = scipy_nnls(basis, trace)
            np.testing.assert_allclose(fit[:3], expected,
                                       rtol=1e-6, atol=1e-8)
            assert fit[3] * np.sqrt(len(t)) <= rnorm + 1e-9

    def test_optimality_under_perturbation(self):
        timing = Timing(t_bit=1.0, fps=20.0)
        t = times_for(timing, 300)
        rng = np.random.default_rng(6)
        trace = design_matrix(t) @ [0.5, 0.0, 1.2] + 0.05 * rng.normal(size=300)
        fit = fit_dc(trace, timing)
        basis = design_matrix(t)
        best = np.sum((trace - basis @ fit[:3]) ** 2)
        for i in range(3):
            for delta in (1e-6, -1e-6):
                candidate = fit[:3].copy()
                candidate[i] += delta
                if np.any(candidate < 0):
                    continue
                assert np.sum((trace - basis @ candidate) ** 2) >= best - 1e-15


class TestRemoveDc:
    def test_zero_bias_plain_subtraction(self, ls31):
        timing = Timing(t_bit=1.0, fps=10.0)
        t = times_for(timing, 620)
        trace = 3.0 * t ** 0.75 + np.sin(t)
        trend = design_matrix(t) @ fit_dc(trace, timing)[:3]
        out = remove_dc(trace, ls31, timing)
        # the reference rounds the same trend a second time
        np.testing.assert_allclose(out, trace - trend, rtol=0,
                                   atol=1e-12 * np.abs(trace).max())

    def test_ls31_plus_scale_factor(self, ls31_plus):
        timing = Timing(t_bit=1.0, fps=10.0)
        t = times_for(timing, 620)
        trace = np.sqrt(t)
        out = remove_dc(trace, ls31_plus, timing)
        factor = 1.0 - 1.0 / np.sqrt(31)
        assert factor == pytest.approx(0.82039, abs=5e-6)
        np.testing.assert_allclose(out, trace - factor * np.sqrt(t), rtol=1e-12)

    def test_idempotent_on_fit_family(self):
        timing = Timing(t_bit=1.0, fps=40.0)
        t = times_for(timing, 800)
        trace = design_matrix(t) @ [0.3, 0.7, 1.1]
        out = remove_dc(trace, generate_ls(7), timing)
        scale = np.sqrt(np.mean(trace ** 2))
        assert np.abs(out).max() < 1e-8 * scale

    def test_reconstruction_identity(self, ls31_plus):
        timing = Timing(t_bit=1.0, fps=10.0)
        t = times_for(timing, 620)
        rng = np.random.default_rng(8)
        trace = np.sqrt(t) + 0.2 * rng.normal(size=len(t))
        trend = design_matrix(t) @ fit_dc(trace, timing)[:3]
        out = remove_dc(trace, ls31_plus, timing)
        rebuilt = (1.0 - ls31_plus.bias) * trend + out
        np.testing.assert_allclose(rebuilt, trace, rtol=0,
                                   atol=1e-12 * np.abs(trace).max())

    def test_bias_mismatch_detected(self):
        values = generate_ls(31).values + 0.3
        forged = PnCode(kind=CodeKind.LS_PLUS, n_bit=31, values=values,
                        gain=31.0, bias=0.3)
        timing = Timing(t_bit=1.0, fps=10.0)
        trace = np.sqrt(times_for(timing, 620)) + 1.0
        with pytest.raises(BiasMismatch):
            remove_dc(trace, forged, timing)

    def test_matches_modified_sequence_response(self, ls31, ls31_plus):
        # noiseless pipeline check: removing the scaled trend leaves the
        # response to the biased sequence, up to the trend-fit error
        timing = Timing(t_bit=1.0, fps=40.0, n_per=2)
        amplitude = 1.0
        unipolar = build_unipolar(build_bipolar(ls31, timing), amplitude)
        h = impulse_response(SOUND, timing, unipolar.duration)
        y = respond(h, unipolar)
        fit = fit_dc(y, timing)
        y_ac = remove_dc(y, ls31_plus, timing)

        from pnpuct import ExcitationWaveform

        modified_wave = ExcitationWaveform(
            samples=0.5 * amplitude * np.tile(
                np.repeat(ls31_plus.values, timing.k), 2),
            timing=timing)
        target = respond(h, modified_wave)

        trend = design_matrix(times_for(timing, len(y))) @ fit[:3]
        step = ExcitationWaveform(
            samples=np.full(len(y), 0.5 * amplitude), timing=timing)
        true_dc = respond(h, step)
        # identity: difference equals the scaled trend-fit error exactly
        np.testing.assert_allclose(
            y_ac - target, (1.0 - ls31_plus.bias) * (true_dc - trend),
            rtol=0, atol=1e-9 * np.abs(y).max())
        # and the fit error itself is small for a sound pixel
        fit_err = np.linalg.norm(true_dc - trend)
        assert fit_err < 0.05 * np.linalg.norm(true_dc)


class TestRemoveDcStack:
    def _stack(self, scene, timing, code, amplitude=1.0):
        unipolar = build_unipolar(build_bipolar(code, timing), amplitude)
        return simulate_stack(scene, unipolar)

    def test_uniform_scene_identical_fits(self, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=4.0, n_per=2)
        scene = SceneConfig(nx=3, ny=2, background=SOUND)
        stack = self._stack(scene, timing, ls31)
        removed, fits = remove_dc_stack(stack, ls31_plus, timing)
        assert fits.shape == (2, 3, 4)
        for fit in fits.reshape(-1, 4):
            np.testing.assert_array_equal(fit, fits[0, 0])
        assert removed.metadata["stage"] == "dc_removed"
        assert float(removed.metadata["bias"]) == ls31_plus.bias

    def test_energy_ordering_across_bit_durations(self):
        # four bit durations at 40 fps on a sound pixel: the coded ripple
        # energy grows with the bit duration, peaking at 1.9 s
        energies = []
        for t_bit, n_bit in [(0.5, 61), (1.0, 31), (1.4, 23), (1.9, 17)]:
            code = generate_ls(n_bit)
            plus = modify_for_perfect_pacf(code)
            timing = Timing(t_bit=t_bit, fps=40.0, n_per=2)
            unipolar = build_unipolar(build_bipolar(code, timing), 1.0)
            h = impulse_response(SOUND, timing, unipolar.duration)
            y = respond(h, unipolar)
            y_ac = remove_dc(y, plus, timing)
            energies.append(np.sum(y_ac ** 2) / timing.fps)
        assert energies == sorted(energies)

    def test_dead_pixel_flagged_others_unaffected(self, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=4.0, n_per=2)
        scene = SceneConfig(nx=3, ny=1, background=SOUND)
        stack = self._stack(scene, timing, ls31)
        data = stack.data.copy()
        data[:, 0, 1] = 0.0
        broken = ThermogramStack(data=data, fps=stack.fps,
                                 metadata=stack.metadata)
        removed, fits = remove_dc_stack(broken, ls31_plus, timing)
        assert np.isnan(fits[0, 1]).all()
        assert np.isfinite(fits[0, 0]).all()
        np.testing.assert_array_equal(removed.data[:, 0, 1], 0.0)
        clean, clean_fits = remove_dc_stack(stack, ls31_plus, timing)
        np.testing.assert_array_equal(removed.data[:, 0, 0],
                                      clean.data[:, 0, 0])
        np.testing.assert_array_equal(clean_fits[0, 0], fits[0, 0])

    def test_non_finite_pixel_flagged(self, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=4.0, n_per=2)
        stack = self._stack(SceneConfig(nx=2, ny=1, background=SOUND),
                            timing, ls31)
        stack.data[5, 0, 1] = np.inf
        removed, fits = remove_dc_stack(stack, ls31_plus, timing)
        assert np.isnan(fits[0, 1]).all()
        assert np.isfinite(fits[0, 0]).all()
        np.testing.assert_array_equal(removed.data[:, 0, 1], 0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_first_frame_flagged_without_warning(self, ls31,
                                                          ls31_plus, bad):
        # the trend basis is zero at t = 0, so frame 0 enters the fit
        # with a zero weight; 0 * inf must not surface as a warning
        timing = Timing(t_bit=1.0, fps=2.0, n_per=2)
        stack = self._stack(SceneConfig(nx=3, ny=1, background=SOUND),
                            timing, ls31)
        clean, clean_fits = remove_dc_stack(stack, ls31_plus, timing)
        stack.data[0, 0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            removed, fits = remove_dc_stack(stack, ls31_plus, timing)
        assert np.isnan(fits[0, 1]).all()
        np.testing.assert_array_equal(removed.data[:, 0, 1], 0.0)
        for jx in (0, 2):
            np.testing.assert_array_equal(removed.data[:, 0, jx],
                                          clean.data[:, 0, jx])
            np.testing.assert_array_equal(fits[0, jx], clean_fits[0, jx])

    def test_frame_count_validated(self, ls31_plus):
        timing = Timing(t_bit=1.0, fps=4.0, n_per=2)
        stack = ThermogramStack(data=np.ones((10, 2, 2), dtype=np.float32),
                                fps=4.0)
        with pytest.raises(ShapeMismatch):
            remove_dc_stack(stack, ls31_plus, timing)

    def test_fit_map_csv(self, tmp_path, ls31, ls31_plus):
        timing = Timing(t_bit=1.0, fps=4.0, n_per=2)
        scene = SceneConfig(nx=2, ny=2, background=SOUND)
        stack = self._stack(scene, timing, ls31)
        _, fits = remove_dc_stack(stack, ls31_plus, timing)
        path = tmp_path / "fits.csv"
        export_fit_map_csv(fits, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "j_x,j_y,a1,a2,a3,rms"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[4]) == pytest.approx(fits[0, 0, 2])


LS7_PLUS = modify_for_perfect_pacf(generate_ls(7))
TREND_CODES = [LS7_PLUS, modify_for_perfect_pacf(generate_ls(31)),
               modify_for_perfect_pacf(generate_mls(4))]


@st.composite
def trend_stacks(draw, max_pixels):
    """Noisy trend-family stacks whose generating coefficients have the
    signs of a drawn mask, so that NNLS clamps zero to three of them."""
    timing = Timing(t_bit=1.0, fps=draw(st.sampled_from([1.0, 2.0, 5.0])),
                    n_per=draw(st.sampled_from([2, 3])))
    ny = draw(st.integers(1, 3))
    nx = draw(st.integers(1, max_pixels // ny))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = timing.total_frames(7)
    signs = np.where([draw(st.integers(0, 7)) >> i & 1 for i in range(3)],
                     1.0, -1.0)
    coefs = signs[:, None] * np.abs(rng.normal(size=(3, ny * nx)))
    noise = draw(st.floats(1e-3, 1.0))
    traces = design_matrix(times_for(timing, n)) @ coefs
    traces += noise * rng.normal(size=traces.shape)
    stack = ThermogramStack(data=traces.reshape(n, ny, nx), fps=timing.fps)
    return stack, timing


def strictly_complementary(basis, trace, coefs):
    """Optimum away from the boundary, so its coefficients are well posed:
    kept ones clearly positive, clamped ones with a clearly negative
    gradient."""
    grad = basis.T @ (trace - basis @ coefs)
    kept = coefs > 1e-6 * np.abs(coefs).max()
    return (np.all(coefs[~kept] == 0)
            and np.all(grad[~kept] < -1e-6 * np.abs(basis.T @ trace).max()))


class TestWholeStackSolver:
    @settings(max_examples=60, deadline=None)
    @given(trend_stacks(max_pixels=24))
    def test_matches_scipy_nnls_per_pixel(self, case):
        stack, timing = case
        _, fits = remove_dc_stack(stack, LS7_PLUS, timing)
        basis = design_matrix(times_for(timing, stack.n_frames))
        traces = stack.data.reshape(stack.n_frames, -1).astype(np.float64)
        for trace, fit in zip(traces.T, fits.reshape(-1, 4)):
            expected, rnorm = scipy_nnls(basis, trace)
            coefs, rms = fit[:3], fit[3]
            assert np.all(coefs >= 0)
            objective = np.sum((trace - basis @ coefs) ** 2)
            assert objective == pytest.approx(rnorm ** 2, rel=1e-9)
            assert len(trace) * rms ** 2 == pytest.approx(objective, rel=1e-12)
            if strictly_complementary(basis, trace, expected):
                np.testing.assert_allclose(
                    coefs, expected, rtol=1e-7,
                    atol=1e-9 * np.abs(expected).max())

    @settings(max_examples=40, deadline=None)
    @given(trend_stacks(max_pixels=300), st.data())
    def test_fit_dc_is_the_stack_row(self, case, data):
        stack, timing = case
        removed, fits = remove_dc_stack(stack, LS7_PLUS, timing)
        jy = data.draw(st.integers(0, stack.ny - 1))
        jx = data.draw(st.integers(0, stack.nx - 1))
        pixel = stack.data[:, jy, jx]
        fit = fit_dc(pixel, timing)
        assert fit.dtype == np.float64 and fit.shape == (4,)
        assert fit.tobytes() == fits[jy, jx].tobytes()
        # and the row of the trace as a one-pixel stack
        alone = ThermogramStack(data=pixel.reshape(-1, 1, 1), fps=stack.fps)
        assert fit.tobytes() == remove_dc_stack(
            alone, LS7_PLUS, timing)[1][0, 0].tobytes()
        assert (np.float32(remove_dc(pixel, LS7_PLUS, timing)).tobytes()
                == removed.data[:, jy, jx].tobytes())

    @settings(max_examples=40, deadline=None)
    @given(trend_stacks(max_pixels=300), st.data())
    def test_zero_columns_leave_neighbours_alone(self, case, data):
        stack, timing = case
        n_pix = stack.ny * stack.nx
        dead = data.draw(st.lists(st.integers(0, n_pix - 1), min_size=1,
                                  unique=True))
        alive = np.setdiff1d(np.arange(n_pix), dead)
        broken = stack.data.reshape(stack.n_frames, -1).copy()
        broken[:, dead] = 0.0
        broken[:, dead[::2]] = -0.0
        removed, fits = remove_dc_stack(
            ThermogramStack(data=broken.reshape(stack.data.shape),
                            fps=stack.fps), LS7_PLUS, timing)
        clean, clean_fits = remove_dc_stack(stack, LS7_PLUS, timing)
        out = removed.data.reshape(stack.n_frames, -1)
        fits = fits.reshape(-1, 4)
        assert np.isnan(fits[dead]).all()
        np.testing.assert_array_equal(out[:, dead], 0.0)
        assert not np.signbit(out[:, dead]).any()
        np.testing.assert_array_equal(fits[alive],
                                      clean_fits.reshape(-1, 4)[alive])
        np.testing.assert_array_equal(
            out[:, alive], clean.data.reshape(stack.n_frames, -1)[:, alive])

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 3), n_per=st.integers(2, 4), ny=st.integers(1, 3),
           nx=st.integers(1, 100), seed=st.integers(0, 2 ** 32 - 1),
           data=st.data())
    def test_result_is_a_new_array_with_zero_dead_pixels(
            self, k, n_per, ny, nx, seed, data):
        # ny * nx up to 300 straddles one block of columns
        assert 100 < pnpuct.stack._BLOCK < 300
        timing = Timing(t_bit=1.0, fps=float(k), n_per=n_per)
        n = timing.total_frames(LS7_PLUS.n_bit)
        rng = np.random.default_rng(seed)
        traces = (design_matrix(times_for(timing, n))
                  @ rng.normal(size=(3, ny * nx)))
        traces += rng.normal(size=traces.shape)
        stack = ThermogramStack(data=traces.reshape(n, ny, nx),
                                fps=timing.fps)
        flat = stack.data.reshape(n, -1)
        dead = data.draw(st.lists(st.integers(0, ny * nx - 1), unique=True))
        flat[:, dead[::3]] = 0.0
        flat[data.draw(st.integers(0, n - 1)), dead[1::3]] = np.nan
        flat[data.draw(st.integers(0, n - 1)), dead[2::3]] = -np.inf
        before = stack.data.tobytes()
        removed, fits = remove_dc_stack(stack, LS7_PLUS, timing)
        assert stack.data.tobytes() == before
        assert not np.shares_memory(removed.data, stack.data)
        # a zero, NaN or -inf pixel gets a NaN fit row and a +0.0 trace
        out = removed.data.reshape(n, -1)
        fits = fits.reshape(-1, 4)
        assert np.isnan(fits[dead]).all()
        assert not out[:, dead].any()
        assert not np.signbit(out[:, dead]).any()
        alive = np.setdiff1d(np.arange(ny * nx), dead)
        assert np.isfinite(fits[alive]).all()

    @staticmethod
    def _camera_peak(code):
        """Traced peak of DC removal on 64 x 64 px x 2480 frames."""
        timing = Timing(t_bit=1.0, fps=40.0, n_per=2)
        data = np.random.default_rng(0).standard_normal(
            (timing.total_frames(31), 64, 64), dtype=np.float32)
        stack = ThermogramStack(data=data, fps=timing.fps)
        tracemalloc.start()
        try:
            remove_dc_stack(stack, code, timing)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_default_allocates_one_output_stack(self, ls31_plus):
        # the 40.6 MB float32 output next to the one block buffer
        assert self._camera_peak(ls31_plus) < 40.6e6 + 7e6

    def test_fit_map_csv_text(self, tmp_path):
        fits = np.array([[[0.1, 0.0, 2.5, 1e-3], [np.nan] * 4]])
        path = tmp_path / "fits.csv"
        export_fit_map_csv(fits, path)
        assert path.read_text().splitlines() == [
            "j_x,j_y,a1,a2,a3,rms",
            "0,0,0.1,0.0,2.5,0.001",
            "1,0,nan,nan,nan,nan",
        ]

    def test_fit_map_csv_returns_the_sha256_of_its_bytes(self, tmp_path):
        # and so does every other writer: a manifest records these digests
        fits = np.random.default_rng(4).normal(size=(3, 5, 4))
        fits[2, 1] = np.nan
        path = tmp_path / "fits.csv"
        written = {path: export_fit_map_csv(fits, path)}
        code, wave, bit_taps, stack = _writer_inputs(4)
        for name, writer, args in [
                ("code.txt", save_code, (code,)),
                ("wave.csv", waveform_to_csv, (wave,)),
                ("filter.csv", filter_to_csv, (bit_taps, wave.timing.k)),
                ("stack.tgs", write_stack, (stack,)),
                ("pixel.csv", export_pixel_trace, (stack, 3, 1))]:
            written[tmp_path / name] = writer(*args, tmp_path / name)
        exported = export_slice(stack, 2, tmp_path / "slice")
        assert list(exported) == [str(tmp_path / f"slice.{ext}")
                                  for ext in ("pgm", "csv", "txt")]
        written.update(exported)
        for path, digest in written.items():
            with open(path, "rb") as fh:
                assert digest == hashlib.sha256(fh.read()).hexdigest(), path

    def test_fit_map_csv_bytes_match_csv_writer(self, tmp_path):
        rng = np.random.default_rng(3)
        fits = rng.normal(size=(5, 7, 4)) * 10.0 ** rng.integers(-12, 12,
                                                                  (5, 7, 4))
        fits[1, 2] = np.nan
        fits[4, 6] = np.nan
        fits[0, 0] = [-0.0, 0.0, np.inf, 1e-310]
        path = tmp_path / "fits.csv"
        export_fit_map_csv(fits, path)
        assert path.read_bytes() == _csv_writer_bytes(
            ["j_x", "j_y", "a1", "a2", "a3", "rms"],
            [[jx, jy, *map(repr, fit)]
             for jy, row in enumerate(fits.tolist())
             for jx, fit in enumerate(row)])
        # the other CSV writers against csv.writer on the same rows
        code, wave, bit_taps, stack = _writer_inputs(3)
        fps, trace = wave.timing.fps, stack.pixel_trace(3, 1)
        frame = stack.data[2].astype(np.float64)
        cases = [
            (waveform_to_csv, (wave,), ["time_s", "value"],
             [[repr(n / fps), repr(float(v))]
              for n, v in enumerate(wave.samples)]),
            (filter_to_csv, (bit_taps, wave.timing.k), ["tap_index", "value"],
             [[n, repr(float(v))]
              for n, v in enumerate(dense_taps(code, wave.timing.k))]),
            (export_pixel_trace, (stack, 3, 1), ["time_s", "value"],
             [[repr(n / stack.fps), repr(float(v))]
              for n, v in enumerate(trace)]),
        ]
        for writer, args, header, rows in cases:
            path = tmp_path / f"{writer.__name__}.csv"
            writer(*args, path)
            assert path.read_bytes() == _csv_writer_bytes(header, rows), path
        csv_path = list(export_slice(stack, 2, tmp_path / "slice"))[1]
        with open(csv_path, "rb") as fh:
            assert fh.read() == _csv_writer_bytes(
                None, [[f"{v:.9g}" for v in row] for row in frame])


class TestTrendUpdates:
    """The trend products of the block loop against their numpy formulas."""

    @settings(max_examples=40, deadline=None)
    @given(code=st.sampled_from(TREND_CODES), k=st.integers(1, 3),
           n_per=st.integers(2, 4), n_pix=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_residual_and_output_match_numpy(self, code, k, n_per, n_pix,
                                             seed, data):
        timing = Timing(t_bit=1.0, fps=float(k), n_per=n_per)
        n = timing.total_frames(code.n_bit)
        rng = np.random.default_rng(seed)
        basis = design_matrix(times_for(timing, n))
        traces = basis @ rng.exponential(size=(3, n_pix))
        traces += rng.normal(size=traces.shape)
        traces = traces.astype(np.float32)
        dead = data.draw(st.lists(st.integers(0, n_pix - 1), max_size=4,
                                  unique=True))
        traces[:, dead] = 0.0
        # +inf and -inf one period apart, frame 0 included
        frame = data.draw(st.integers(0, n // n_per - 1))
        traces[frame, dead[1::2]] = np.inf
        traces[frame + n // n_per, dead[1::2]] = -np.inf

        trend = pnpuct.dc_removal._Trend(n, timing.dt)
        for cols, src, a in pnpuct.dc_removal._blocks(
                [(slice(0, traces.shape[1]), traces)]):
            m = src.shape[1]
            coefs, valid = trend.residual(a, np.empty((m, 4)))
            y = src.astype(np.float64)
            ok = valid[:m]
            assert not ok[np.isin(np.arange(cols.start, cols.stop),
                                  dead)].any()
            # the product at the loop's width: numpy may round the K = 3
            # sums of a narrower slice differently, by an ulp of the trend
            fitted = (basis @ coefs)[:, :m][:, ok]
            ulp = np.spacing(np.maximum(np.abs(y[:, ok]), np.abs(fitted)))
            assert (np.abs(a[:, :m][:, ok] - (y[:, ok] - fitted))
                    <= ulp).all()
            np.testing.assert_array_equal(a[:, :m][:, ~ok], y[:, ~ok])

        keep = code.bias
        out, fits = pnpuct.dc_removal._columns(
            [(slice(0, traces.shape[1]), traces)], traces.shape,
            pnpuct.dc_removal._identity, n, np.float32, keep, timing.dt)
        assert out.dtype == np.float32
        valid = ~np.isnan(fits).any(axis=1)
        assert not valid[dead].any()
        expected = (traces[:, valid]
                    - (1.0 - keep) * (basis @ fits[valid, :3].T)
                    ).astype(np.float32)
        ulp = np.spacing(np.maximum(np.abs(out[:, valid]), np.abs(expected)))
        assert (np.abs(out[:, valid] - expected) <= ulp).all()
        assert not out[:, ~valid].any()
        assert not np.signbit(out[:, ~valid]).any()
