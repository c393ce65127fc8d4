"""Command-line interface.

Subcommand groups: seq, wave, sim, dc, puct, report, metrics, pipeline.
Every command exits nonzero on error and prints the failure to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .codes import CODE_TABLE_VERSION, load_code, make_codes, pacf, save_code
from .compression import (Normalization, compress_stack, decimate_to_bit_rate,
                          snr_metric)
from .dc_removal import export_fit_map_csv, remove_dc_stack
from .errors import PnPuctError
from .pipeline import run_pipeline
from .stack import (FORMAT_VERSION, export_pixel_trace, export_slice,
                    read_stack, write_stack)
from .thermal import Region, load_scene_config, simulate_stack
from .waveform import (Timing, build_bipolar, build_matched_filter,
                       build_unipolar, filter_to_csv, waveform_to_csv,
                       waveform_to_stack)


def _timing_from_args(args, stack=None):
    t_bit, fps, n_per = args.t_bit, args.fps, args.n_per
    if stack is not None:
        meta = stack.metadata
        if fps is None:
            fps = stack.fps
        if t_bit is None and "t_bit" in meta:
            t_bit = float(meta["t_bit"])
        if n_per is None and "n_per" in meta:
            n_per = int(meta["n_per"])
    if t_bit is None or fps is None:
        raise PnPuctError("t_bit/fps not in stack metadata; pass --t-bit/--fps")
    if n_per is None:
        return Timing(t_bit=t_bit, fps=fps)
    return Timing(t_bit=t_bit, fps=fps, n_per=n_per)


def _cmd_seq_gen(args):
    _, code = make_codes(args.kind.replace("-", "_"), n_bit=args.n_bit,
                         order=args.order, taps=args.taps,
                         seed=args.lfsr_seed, sign=args.sign)
    save_code(code, args.output)
    print(f"wrote {code.kind.value} n_bit={code.n_bit} to {args.output}")
    return 0


def _cmd_seq_verify(args):
    code = load_code(args.code)
    result = pacf(code)
    rel = result.max_sidelobe / result.peak if result.peak else float("inf")
    gain_err = abs(result.peak - code.gain) / max(code.gain, 1e-300)
    print(f"kind={code.kind.value} n_bit={code.n_bit}")
    print(f"pacf_peak={result.peak!r} gain={code.gain!r} rel_err={gain_err:.3e}")
    print(f"max_sidelobe={result.max_sidelobe!r} rel={rel:.3e}")
    # load_code checked the gain; the PACF of a modified code must be a
    # spike, the off-peak lags of a standard code must all equal -1
    if code.is_modified:
        ok = rel < args.tolerance
    else:
        ok = bool(np.all(np.abs(result.values[1:] + 1.0) < 1e-6))
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


def _cmd_wave_gen(args):
    code = load_code(args.code)
    timing = _timing_from_args(args)
    os.makedirs(args.out_dir, exist_ok=True)
    bipolar = build_bipolar(code, timing)
    unipolar = build_unipolar(bipolar, args.amplitude)
    waveform_to_csv(bipolar, os.path.join(args.out_dir, "bipolar.csv"))
    waveform_to_csv(unipolar, os.path.join(args.out_dir, "unipolar.csv"))
    write_stack(waveform_to_stack(unipolar),
                os.path.join(args.out_dir, "unipolar_trace.tgs"))
    written = ["bipolar.csv", "unipolar.csv", "unipolar_trace.tgs"]
    if code.is_modified:
        filt = build_matched_filter(code, timing)
        filter_to_csv(filt, os.path.join(args.out_dir, "matched_filter.csv"))
        written.append("matched_filter.csv")
    print(f"wrote {', '.join(written)} to {args.out_dir}")
    return 0


def _cmd_sim_run(args):
    scene = load_scene_config(args.scene)
    if args.seed is not None:
        scene = dataclasses.replace(scene, rng_seed=args.seed)
    code = load_code(args.code)
    timing = _timing_from_args(args)
    unipolar = build_unipolar(build_bipolar(code, timing), args.amplitude)
    stack = simulate_stack(scene, unipolar)
    write_stack(stack, args.output)
    print(f"wrote {stack.n_frames}x{stack.ny}x{stack.nx} stack to {args.output}")
    return 0


def _cmd_dc_remove(args):
    stack = read_stack(args.stack)
    code = load_code(args.code)
    timing = _timing_from_args(args, stack)
    removed, fit_map = remove_dc_stack(stack, code, timing,
                                       overwrite_input=True)
    write_stack(removed, args.output)
    print(f"wrote DC-removed stack to {args.output}")
    if args.fit_map:
        export_fit_map_csv(fit_map, args.fit_map)
        print(f"wrote fit map to {args.fit_map}")
    return 0


def _cmd_puct_compress(args):
    stack = read_stack(args.stack)
    code = load_code(args.code)
    timing = _timing_from_args(args, stack)
    compressed = compress_stack(
        stack, code, timing,
        normalization=Normalization(args.normalization),
        single_period=args.single_period, overwrite_input=True)
    write_stack(compressed, args.output)
    print(f"wrote compressed stack ({compressed.n_frames} frames) "
          f"to {args.output}")
    return 0


def _cmd_puct_decimate(args):
    stack = read_stack(args.stack)
    timing = _timing_from_args(args, stack)
    decimated, _ = decimate_to_bit_rate(stack, timing, average=args.average)
    write_stack(decimated, args.output)
    print(f"wrote decimated stack ({decimated.n_frames} frames) "
          f"to {args.output}")
    return 0


def _cmd_report_slice(args):
    stack = read_stack(args.stack)
    index = args.index
    if index is None:
        index = int(round(args.time * stack.fps))
    paths = export_slice(stack, index, args.output)
    print("wrote " + ", ".join(paths))
    return 0


def _cmd_report_pixel(args):
    stack = read_stack(args.stack)
    export_pixel_trace(stack, args.x, args.y, args.output)
    print(f"wrote pixel ({args.x}, {args.y}) trace to {args.output}")
    return 0


def _parse_region(token):
    parts = [int(p) for p in token.split(",")]
    if len(parts) != 4:
        raise PnPuctError(f"region must be x0,y0,width,height, got {token!r}")
    return Region(*parts)


def _cmd_metrics_snr(args):
    stack = read_stack(args.stack)
    value = snr_metric(stack, _parse_region(args.signal),
                       _parse_region(args.reference))
    print(f"snr_db = {value!r}")
    return 0


def _cmd_pipeline_run(args):
    manifest = run_pipeline(args.config, out_dir=args.out_dir, seed=args.seed)
    print(f"pipeline complete; manifest at {manifest['manifest_path']}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pnpuct",
        description="Sidelobe-free pseudo-noise pulse-compression thermography")
    parser.add_argument(
        "--version", action="version",
        version=(f"pnpuct {__version__} "
                 f"(stack format {FORMAT_VERSION}, "
                 f"code table v{CODE_TABLE_VERSION})"))
    groups = parser.add_subparsers(dest="group", required=True)

    seq = groups.add_parser("seq", help="pseudo-noise code tools")
    seq_cmds = seq.add_subparsers(dest="command", required=True)
    gen = seq_cmds.add_parser("gen", help="generate a code descriptor")
    gen.add_argument("--kind", required=True,
                     choices=["mls", "ls", "mls-plus", "ls-plus", "ls4-plus"])
    gen.add_argument("--n-bit", type=int, help="length for LS kinds")
    gen.add_argument("--order", type=int, help="register order for MLS kinds")
    gen.add_argument("--taps", help="comma list of polynomial coefficients, "
                                    "constant term first")
    gen.add_argument("--lfsr-seed", help="comma list of +1/-1 register values")
    gen.add_argument("--sign", type=int, default=1, choices=[-1, 1],
                     help="zero replacement sign for ls4-plus")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_seq_gen)
    ver = seq_cmds.add_parser("verify", help="check a code's autocorrelation")
    ver.add_argument("code")
    ver.add_argument("--tolerance", type=float, default=1e-9)
    ver.set_defaults(func=_cmd_seq_verify)

    wave = groups.add_parser("wave", help="excitation waveform tools")
    wave_cmds = wave.add_subparsers(dest="command", required=True)
    wgen = wave_cmds.add_parser("gen", help="waveform and filter CSV exports")
    wgen.add_argument("--code", required=True)
    wgen.add_argument("--t-bit", type=float, required=True)
    wgen.add_argument("--fps", type=float, required=True)
    wgen.add_argument("--n-per", type=int)
    wgen.add_argument("--amplitude", type=float, default=1.0)
    wgen.add_argument("--out-dir", required=True)
    wgen.set_defaults(func=_cmd_wave_gen)

    sim = groups.add_parser("sim", help="synthetic measurement")
    sim_cmds = sim.add_subparsers(dest="command", required=True)
    srun = sim_cmds.add_parser("run", help="simulate a thermogram stack")
    srun.add_argument("--scene", required=True)
    srun.add_argument("--code", required=True)
    srun.add_argument("--t-bit", type=float, required=True)
    srun.add_argument("--fps", type=float, required=True)
    srun.add_argument("--n-per", type=int)
    srun.add_argument("--amplitude", type=float, default=1.0)
    srun.add_argument("--seed", type=int, help="override the scene rng seed")
    srun.add_argument("-o", "--output", required=True)
    srun.set_defaults(func=_cmd_sim_run)

    dc = groups.add_parser("dc", help="DC component removal")
    dc_cmds = dc.add_subparsers(dest="command", required=True)
    drem = dc_cmds.add_parser("remove", help="fit and remove step heating")
    drem.add_argument("--stack", required=True)
    drem.add_argument("--code", required=True)
    drem.add_argument("--t-bit", type=float, help="override stack metadata")
    drem.add_argument("--fps", type=float, help="override stack rate")
    drem.add_argument("--n-per", type=int)
    drem.add_argument("--fit-map", help="CSV path for per-pixel coefficients")
    drem.add_argument("-o", "--output", required=True)
    drem.set_defaults(func=_cmd_dc_remove)

    puct = groups.add_parser("puct", help="pulse compression")
    puct_cmds = puct.add_subparsers(dest="command", required=True)
    pcomp = puct_cmds.add_parser("compress", help="matched-filter compression")
    pcomp.add_argument("--stack", required=True)
    pcomp.add_argument("--code", required=True)
    pcomp.add_argument("--t-bit", type=float)
    pcomp.add_argument("--fps", type=float)
    pcomp.add_argument("--n-per", type=int)
    pcomp.add_argument("--normalization", default="raw",
                       choices=[n.value for n in Normalization])
    pcomp.add_argument("--single-period", action="store_true")
    pcomp.add_argument("-o", "--output", required=True)
    pcomp.set_defaults(func=_cmd_puct_compress)
    pdec = puct_cmds.add_parser("decimate", help="drop to one frame per bit")
    pdec.add_argument("--stack", required=True)
    pdec.add_argument("--t-bit", type=float)
    pdec.add_argument("--fps", type=float)
    pdec.add_argument("--n-per", type=int)
    pdec.add_argument("--average", action="store_true",
                      help="bin-average the K frames of each bit")
    pdec.add_argument("-o", "--output", required=True)
    pdec.set_defaults(func=_cmd_puct_decimate)

    report = groups.add_parser("report", help="exports for plotting")
    report_cmds = report.add_subparsers(dest="command", required=True)
    rslice = report_cmds.add_parser("slice", help="one frame as PGM + CSV")
    rslice.add_argument("--stack", required=True)
    idx = rslice.add_mutually_exclusive_group(required=True)
    idx.add_argument("--index", type=int)
    idx.add_argument("--time", type=float, help="seconds from the start")
    rslice.add_argument("-o", "--output", required=True)
    rslice.set_defaults(func=_cmd_report_slice)
    rpixel = report_cmds.add_parser("pixel", help="one pixel trace as CSV")
    rpixel.add_argument("--stack", required=True)
    rpixel.add_argument("--x", type=int, required=True)
    rpixel.add_argument("--y", type=int, required=True)
    rpixel.add_argument("-o", "--output", required=True)
    rpixel.set_defaults(func=_cmd_report_pixel)

    metrics = groups.add_parser("metrics", help="quality metrics")
    metrics_cmds = metrics.add_subparsers(dest="command", required=True)
    msnr = metrics_cmds.add_parser("snr", help="contrast-to-noise in dB")
    msnr.add_argument("--stack", required=True)
    msnr.add_argument("--signal", required=True,
                      help="region as x0,y0,width,height")
    msnr.add_argument("--reference", required=True,
                      help="region as x0,y0,width,height")
    msnr.set_defaults(func=_cmd_metrics_snr)

    pipe = groups.add_parser("pipeline", help="full run orchestration")
    pipe_cmds = pipe.add_subparsers(dest="command", required=True)
    prun = pipe_cmds.add_parser("run", help="execute a run config")
    prun.add_argument("--config", required=True)
    prun.add_argument("--out-dir", help="override the config output directory")
    prun.add_argument("--seed", type=int, help="override the scene rng seed")
    prun.set_defaults(func=_cmd_pipeline_run)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PnPuctError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
