"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Synthetic scenes replace the physical sample: criterion 4 uses
the semi-infinite pixel it specifies; criteria 5 and 6 choose pixel
models compatible with the method's validity assumption (responses
comparable to one code period), since the tolerances are unreachable
for any scene otherwise.
"""

import json

import numpy as np
import pytest

from pnpuct import (
    CodeKind,
    ExcitationWaveform,
    MlsSpec,
    Normalization,
    PixelModel,
    Region,
    RectPulse,
    SceneConfig,
    Timing,
    WaveformKind,
    binarize_ls4,
    build_bipolar,
    build_matched_filter,
    build_unipolar,
    compress_stack,
    compress_trace,
    decimate_to_bit_rate,
    design_matrix,
    fit_dc,
    generate_ls,
    generate_mls,
    golay_pair,
    impulse_response,
    lpt_reference,
    modify_for_perfect_pacf,
    pacf,
    pacf_direct,
    read_stack,
    reference_autocorrelation,
    remove_dc,
    remove_dc_stack,
    respond,
    run_pipeline,
    simulate_stack,
    snr_metric,
    verify_resolution,
    write_stack,
)
from conftest import LS7, LS11, LS31, MLS7, is_cyclic_shift
from fd_oracle import fd_impulse_response
from pipeline_helpers import run_pixel

SOUND = PixelModel(diffusivity=1e-6)
PRIMES_TO_199 = [p for p in range(3, 200)
                 if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def report(criterion, detail):
    print(f"criterion {criterion} PASS: {detail}")


@pytest.fixture(scope="module")
def perfect_family():
    codes = [modify_for_perfect_pacf(generate_mls(MlsSpec(order=m)))
             for m in range(2, 11)]
    codes += [modify_for_perfect_pacf(generate_ls(p)) for p in PRIMES_TO_199]
    for p in PRIMES_TO_199:
        if p % 4 == 3:
            codes.append(binarize_ls4(generate_ls(p), +1))
            codes.append(binarize_ls4(generate_ls(p), -1))
    return codes


def test_c01_perfect_pacf_sweep(perfect_family):
    worst_side = 0.0
    worst_gain = 0.0
    for code in perfect_family:
        result = pacf(code)
        worst_side = max(worst_side, result.max_sidelobe / result.peak)
        worst_gain = max(worst_gain, abs(result.peak - code.gain) / code.gain)
    assert worst_side < 1e-9
    assert worst_gain < 1e-9
    # two-valued law of the unmodified codes, exact in integer arithmetic
    for m in range(2, 11):
        values = generate_mls(MlsSpec(order=m)).values.astype(np.int64)
        direct = pacf_direct(values)
        assert direct[0] == len(values) and np.all(direct[1:] == -1)
    for p in PRIMES_TO_199:
        values = generate_ls(p).values.astype(np.int64)
        direct = pacf_direct(values)
        assert direct[0] == p - 1 and np.all(direct[1:] == -1)
    report(1, f"{len(perfect_family)} modified codes, max sidelobe/peak "
              f"{worst_side:.1e}, max gain error {worst_gain:.1e}; "
              "standard PACF law exact")


def test_c02_tabulated_sequences():
    np.testing.assert_array_equal(generate_ls(7).values, LS7)
    np.testing.assert_array_equal(generate_ls(11).values, LS11)
    np.testing.assert_array_equal(generate_ls(31).values, LS31)
    mls = generate_mls(MlsSpec(order=3))
    assert is_cyclic_shift(mls.values, MLS7)
    report(2, "LS7/LS11/LS31 byte-equal; MLS7 cyclic shift of the tabulated row")


def test_c03_resolution_function_exactness(perfect_family):
    worst = 0.0
    count = 0
    for k in (1, 3, 20, 40, 56, 76):
        timing = Timing(t_bit=float(k), fps=1.0)
        for code in perfect_family:
            res = verify_resolution(code, timing)
            expected = np.zeros(k * code.n_bit)
            expected[:k] = code.gain
            worst = max(worst, np.abs(res - expected).max() / code.gain)
            count += 1
    assert worst < 1e-9
    report(3, f"{count} code/K combinations, max deviation from "
              f"gain*rect {worst:.1e} of gain")


def test_c04_transparency(ls31, ls31_plus, timing_1s_40fps):
    timing = timing_1s_40fps
    compressed, _ = run_pixel(SOUND, ls31, ls31_plus, timing)
    reference = lpt_reference(SOUND, RectPulse(duration=1.0, amplitude=1.0),
                              timing, timing.t_meas(31))
    scaled = compressed.values / (ls31_plus.gain * 0.5)
    rel_rms = np.sqrt(np.mean((scaled - reference) ** 2)) / reference.max()
    assert rel_rms < 0.02
    peak = compressed.values.max()
    cooling_steps = np.diff(compressed.values[timing.k:])
    max_uptick = cooling_steps.max() / peak
    assert max_uptick <= 1e-6
    report(4, f"rel RMS vs long-pulse reference {rel_rms:.2%} (< 2%), "
              f"max cooling uptick {max_uptick:.1e} of peak")


def test_c05_superposition():
    # a 5 mm plate with insulated back face: the response settles within
    # one code period, as the method assumes
    plate = PixelModel(diffusivity=1e-6, defect_depth=5e-3,
                       reflection_coeff=1.0)
    window = 20  # first 0.5 s at 40 fps
    curves = []
    for t_bit, n_bit in [(0.5, 61), (1.0, 31), (1.4, 23), (1.9, 17)]:
        code = generate_ls(n_bit)
        plus = modify_for_perfect_pacf(code)
        timing = Timing(t_bit=t_bit, fps=40.0, n_per=2)
        compressed, _ = run_pixel(plate, code, plus, timing,
                                  normalization=Normalization.PER_LENGTH)
        curves.append(compressed.values[:window])
    stackd = np.stack(curves)
    mean = stackd.mean(axis=0)
    devs = [np.linalg.norm(c - mean) / np.linalg.norm(mean) for c in stackd]
    assert max(devs) < 0.03
    report(5, "heating-stage deviation from the common curve: "
              + ", ".join(f"{d:.2%}" for d in devs) + " (< 3%)")


def test_c06_snr_proportionality():
    # moderate reflector: a strong one (R near 1) has a contrast tail far
    # outlasting the short code period, and its time aliasing skews the
    # contrast ratio away from plain gain proportionality
    defect = PixelModel(diffusivity=1e-6, defect_depth=0.5e-3,
                        reflection_coeff=0.5)
    sigma = 0.05
    region_signal = Region(0, 0, 12, 12)
    region_reference = Region(12, 0, 12, 12)

    def snr_for(n_bit, seed):
        code = generate_ls(n_bit)
        plus = modify_for_perfect_pacf(code)
        timing = Timing(t_bit=1.0, fps=1.0, n_per=2)
        scene = SceneConfig(nx=24, ny=12, background=SOUND,
                            defects=((region_signal, defect),),
                            noise_sigma=sigma, rng_seed=seed)
        unipolar = build_unipolar(build_bipolar(code, timing), 1.0)
        raw = simulate_stack(scene, unipolar)
        removed, _ = remove_dc_stack(raw, plus, timing)
        compressed = compress_stack(removed, plus, timing)
        return snr_metric(compressed, region_signal, region_reference)

    # 288 noisy pixels per run, 6 seeds: well over 200 realizations
    diffs = [snr_for(127, seed) - snr_for(31, seed) for seed in range(6)]
    gain_db = float(np.mean(diffs))
    expected = 10.0 * np.log10(127.0 / 31.0)
    assert abs(gain_db - expected) < 1.5
    report(6, f"SNR gain 127 vs 31 bits: {gain_db:.2f} dB "
              f"(expected {expected:.2f} +- 1.5)")


def test_c07_decimated_variant(ls31, ls31_plus, timing_1s_40fps):
    timing = timing_1s_40fps
    scene = SceneConfig(nx=2, ny=2, background=SOUND)
    unipolar = build_unipolar(build_bipolar(ls31, timing), 1.0)
    raw = simulate_stack(scene, unipolar)

    removed_full, _ = remove_dc_stack(raw, ls31_plus, timing)
    full = compress_stack(removed_full, ls31_plus, timing)
    at_bits = full.pixel_trace(0, 0)[:: timing.k]

    decimated, dec_timing = decimate_to_bit_rate(raw, timing)
    removed_dec, _ = remove_dc_stack(decimated, ls31_plus, dec_timing)
    dec = compress_stack(removed_dec, ls31_plus, dec_timing)
    rel = (np.linalg.norm(dec.pixel_trace(0, 0) - at_bits)
           / np.linalg.norm(at_bits))
    assert rel < 0.02
    report(7, f"one-frame-per-bit pipeline vs full rate at bit instants: "
              f"{rel:.2%} (< 2%)")


def test_c08_dc_removal(ls31_plus):
    timing = Timing(t_bit=1.0, fps=40.0)
    t = np.arange(1240) * timing.dt
    basis = design_matrix(t)
    # exact recovery inside the family
    fit = fit_dc(2.0 * t + 0.5 * np.sqrt(t), timing)
    recovery = np.abs(fit.coefficients - [2.0, 0.0, 0.5]).max()
    assert recovery < 1e-8
    # non-negativity across randomized traces
    rng = np.random.default_rng(20)
    for _ in range(50):
        coefs = rng.normal(size=3)
        trace = basis @ coefs + rng.normal(0, 0.2, len(t))
        f = fit_dc(trace, timing)
        assert f.a1 >= 0 and f.a2 >= 0 and f.a3 >= 0
    # reconstruction identity to machine precision
    trace = basis @ [0.4, 0.1, 0.9] + rng.normal(0, 0.3, len(t))
    f = fit_dc(trace, timing)
    y_ac = remove_dc(trace, ls31_plus, timing)
    rebuilt = (1.0 - ls31_plus.bias) * (basis @ f.coefficients) + y_ac
    identity_err = np.abs(rebuilt - trace).max() / np.abs(trace).max()
    assert identity_err < 1e-12
    report(8, f"family recovery {recovery:.1e} (< 1e-8), coefficients "
              f"non-negative on 50 random traces, reconstruction error "
              f"{identity_err:.1e}")


def test_c09_thermal_oracle_equivalence():
    timing = Timing(t_bit=1.0, fps=40.0)
    duration = 6.0
    worst = 0.0
    for depth in (0.5e-3, 1.0e-3, 2.0e-3):
        for refl in (0.5, 0.9):
            model = PixelModel(diffusivity=1e-6, defect_depth=depth,
                               reflection_coeff=refl)
            analytic = impulse_response(model, timing, duration)
            numeric = fd_impulse_response(1e-6, timing.dt, len(analytic),
                                          depth_interface=depth,
                                          reflection=refl)
            rel = np.abs(analytic[3:] - numeric[3:]) / np.abs(analytic[3:])
            worst = max(worst, rel.max())
    assert worst < 0.01
    report(9, f"image-series vs finite-difference solver, 6 defect cases, "
              f"worst deviation {worst:.2%} (< 1% after 3 frames)")


def test_c10_infrastructure(tmp_path):
    # bit-exact stack round trip
    rng = np.random.default_rng(31)
    from pnpuct import ThermogramStack

    stack = ThermogramStack(
        data=rng.normal(size=(6, 5, 4)).astype(np.float32), fps=40.0,
        metadata={"stage": "test"})
    path = tmp_path / "rt.tgs"
    write_stack(stack, path)
    back = read_stack(path)
    assert np.array_equal(back.data, stack.data)
    assert back.metadata == stack.metadata

    # pipeline determinism: identical configs give identical hashes
    def config(out):
        cfg = tmp_path / f"{out}.cfg"
        cfg.write_text(f"""
[code]
kind = ls
n_bit = 31

[timing]
t_bit = 1.0
fps = 2
n_per = 2

[scene]
nx = 3
ny = 3
noise_sigma = 0.1
rng_seed = 5

[background]
diffusivity = 1e-6

[output]
directory = {tmp_path / out}
""")
        return cfg

    run_pipeline(config("run_a"))
    run_pipeline(config("run_b"))
    hashes = []
    for name in ("run_a", "run_b"):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        hashes.append({k: v["sha256"]
                       for k, v in manifest["artifacts"].items()})
    assert hashes[0] == hashes[1]

    # reference autocorrelations hold exactly
    barker = reference_autocorrelation("BARKER13")
    assert barker[0] == 13.0 and np.abs(barker[1:]).max() <= 1.0
    _, _, total = reference_autocorrelation("GOLAY_A", 16)
    assert total[0] == 32.0 and np.all(total[1:] == 0.0)
    for length in (2, 4, 8, 32):
        a, b = golay_pair(length)
        acf = (np.correlate(a, a, "full") + np.correlate(b, b, "full"))
        assert acf[length - 1] == 2.0 * length
        assert np.all(np.abs(np.delete(acf, length - 1)) == 0.0)
    report(10, "round trip bit-exact, pipeline hashes reproducible, "
               "Barker/Golay reference laws exact")


def _fold(values, trace, n_bit, k):
    """The steady period of the cyclic matched filter of ``values`` on
    the first two periods of ``trace``: out[jK + p] = sum_b v[-b mod N]
    y[(N + j - b)K + p], the formula that compression runs."""
    bits = trace[:2 * n_bit * k].reshape(2 * n_bit, k)
    j, b = np.ogrid[:n_bit, :n_bit]
    taps = values[-np.arange(n_bit) % n_bit]
    return np.einsum("b,jbk->jk", taps, bits[n_bit + j - b]).reshape(-1)


def _correlate(values, trace, k):
    """The acyclic matched filter of ``values`` on ``trace``: out[jK + p]
    = sum_b v[b] y[(b + j)K + p] for the first L = len(values) lags j,
    each a complete sum over the code, as ``trace`` spans 2L - 1 bits."""
    n_bit = len(values)
    bits = trace[:(2 * n_bit - 1) * k].reshape(2 * n_bit - 1, k)
    j, b = np.ogrid[:n_bit, :n_bit]
    return np.einsum("b,jbk->jk", values, bits[b + j]).reshape(-1)


def _rel_rms(x, reference):
    return np.sqrt(np.mean((x - reference) ** 2)) / reference.max()


def _unipolar(samples, timing):
    """A heat-flux modulation of the given samples, for :func:`respond`."""
    return ExcitationWaveform(samples=samples, kind=WaveformKind.UNIPOLAR_XTH,
                              timing=timing)


def test_c11_sidelobes_of_the_unmodified_chain():
    # the prior-art chain: the standard LS or MLS drives and filters, and
    # the whole fitted trend is removed (keep = 0); it is held here, since
    # the library refuses to compress with an unmodified code
    table, modified_error = [], {}
    for standard, fps in ((generate_ls(31), 40.0), (generate_ls(127), 10.0),
                          (generate_mls(MlsSpec(order=5)), 40.0),
                          (generate_mls(MlsSpec(order=7)), 10.0)):
        n_bit = standard.n_bit
        timing = Timing(t_bit=1.0, fps=fps, n_per=2)
        modified = modify_for_perfect_pacf(standard)
        wave = build_unipolar(build_bipolar(standard, timing), 1.0)
        h = impulse_response(SOUND, timing, wave.duration)
        y = respond(h, wave)
        y_ac = remove_dc(y, modified, timing)
        compressed = compress_trace(y_ac, modified, timing).values
        # the formula is the library's on the modified code
        folded = _fold(modified.values, y_ac, n_bit, timing.k)
        assert (np.abs(folded - compressed).max()
                <= 2e-15 * np.abs(compressed).max())
        trend = (design_matrix(np.arange(len(y)) * timing.dt)
                 @ fit_dc(y, timing).coefficients)
        # scaled by the gain sum(v^2) times A / 2, as the modified chain
        prior = (_fold(standard.values, y - trend, n_bit, timing.k)
                 / (np.sum(standard.values ** 2) * 0.5))
        # the exact DC part (1 - bias) (A/2) (h * 1) in place of the
        # fitted trend (ROADMAP item 7): what the modified chain keeps
        # without the error of the trend fit
        step = respond(h, _unipolar(np.full(len(y), 0.5), timing))
        exact = compress_trace(y - (1.0 - modified.bias) * step, modified,
                               timing).values
        reference = lpt_reference(
            SOUND, RectPulse(duration=timing.t_bit, amplitude=1.0), timing,
            timing.t_meas(n_bit))
        ours, theirs, exact_dc = (
            _rel_rms(x, reference)
            for x in (compressed / (modified.gain * 0.5), prior,
                      exact / (modified.gain * 0.5)))
        undershoot = prior.min() / prior.max()
        assert theirs >= 5 * ours
        assert undershoot < -0.05
        if standard.kind is CodeKind.LS:
            modified_error[timing.k] = ours
        table.append(f"{standard.kind.value}{n_bit} K={timing.k}: "
                     f"modified {ours:.2%} (exact DC {exact_dc:.2%}), "
                     f"unmodified {theirs:.2%}, min {undershoot:+.3f} of peak")
    # a Golay pair: each member drives its own record, the code and then
    # as long again with the heat off, so that the acyclic filter of
    # every lag is complete; the two filtered records are summed
    for n_bit, fps in ((32, 40.0), (128, 10.0)):
        timing = Timing(t_bit=1.0, fps=fps, n_per=2)
        k = timing.k
        window = np.repeat(np.arange(2 * n_bit) < n_bit, k) * 1.0
        h = impulse_response(SOUND, timing, len(window) * timing.dt)
        dc = respond(h, _unipolar(0.5 * window, timing))
        fitted, exact = [], []
        for member in golay_pair(n_bit):
            bipolar = np.repeat(np.concatenate([member, np.zeros(n_bit)]), k)
            y = respond(h, _unipolar(0.5 * (bipolar + window), timing))
            trend = (design_matrix(np.arange(len(y)) * timing.dt)
                     @ fit_dc(y, timing).coefficients)
            fitted.append(_correlate(member, y - trend, k))
            exact.append(_correlate(member, y - dc, k))
        # scaled by the pair's gain 2L times A / 2
        pair, pair_exact = (sum(x) / (2 * n_bit * 0.5)
                            for x in (fitted, exact))
        member_exact = exact[0] / (n_bit * 0.5)
        reference = lpt_reference(
            SOUND, RectPulse(duration=timing.t_bit, amplitude=1.0), timing,
            timing.t_meas(n_bit))
        theirs, alone = (_rel_rms(x, reference) for x in (pair, member_exact))
        # with the exact DC the pair's sidelobes cancel to rounding, where
        # one member alone keeps them; the fitted trend, which cannot
        # follow the heat going off, leaves the pair far from the
        # reference, next to the modified LS chain at the same K
        assert (np.abs(pair_exact - reference).max()
                <= 1e-14 * reference.max())
        assert alone >= 0.05
        assert theirs >= 5 * modified_error[k]
        table.append(f"Golay{n_bit} pair K={k}: exact DC "
                     f"{_rel_rms(pair_exact, reference):.1e} (one member "
                     f"{alone:.2%}), fitted trend {theirs:.2%}, min "
                     f"{pair.min() / pair.max():+.3f} of peak")
    report(11, "sound pixel, rel RMS vs long-pulse reference; "
               + "; ".join(table))
