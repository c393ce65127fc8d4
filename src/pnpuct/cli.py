"""Command-line interface.

Subcommand groups: seq, wave, sim, dc, puct, report, metrics, pipeline.
Every command exits nonzero on error and prints the failure to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__
from .codes import CODE_TABLE_VERSION, load_code, make_codes, pacf, save_code
from .compression import (Normalization, compress_stack, decimate_to_bit_rate,
                          snr_metric)
from .dc_removal import export_fit_map_csv, remove_dc_stack
from .errors import PnPuctError
from .pipeline import run_pipeline
from .stack import (FORMAT_VERSION, check_not_input, check_unchanged,
                    export_pixel_trace, export_slice, file_version,
                    frame_at, open_stack, slice_paths, write_stack)
from .thermal import Region, load_scene_config, simulate_stack
from .waveform import (build_bipolar, build_matched_filter, build_unipolar,
                       filter_to_csv, timing_of, waveform_to_csv,
                       waveform_to_stack)


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
    timing = timing_of(None, args.t_bit, args.fps, args.n_per)
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
    timing = timing_of(None, args.t_bit, args.fps, args.n_per)
    unipolar = build_unipolar(build_bipolar(code, timing), args.amplitude)
    # written band by band: the stack is never resident
    stack = simulate_stack(scene, unipolar, args.output)
    print(f"wrote {stack.n_frames}x{stack.ny}x{stack.nx} stack to {args.output}")
    return 0


@contextmanager
def _mapped_stack(args, *outputs):
    """The ``--stack`` of a command, opened with :func:`open_stack`.

    Each of ``outputs`` (None for one not asked for) that is the stack
    file is refused before it is opened, so nothing is written over the
    mapping. The file is checked to be unchanged when the block
    ends without error: a command that writes a stack does so after the
    block, so a changed input leaves no output.
    """
    version = file_version(args.stack)
    for path in filter(None, outputs):
        check_not_input(path, args.stack)
    yield open_stack(args.stack)
    check_unchanged(args.stack, version)


def _cmd_dc_remove(args):
    with _mapped_stack(args, args.output, args.fit_map) as stack:
        code = load_code(args.code)
        timing = timing_of(stack, args.t_bit, args.fps, args.n_per)
        removed, fit_map = remove_dc_stack(stack, code, timing)
    write_stack(removed, args.output)
    print(f"wrote DC-removed stack to {args.output}")
    if args.fit_map:
        export_fit_map_csv(fit_map, args.fit_map)
        print(f"wrote fit map to {args.fit_map}")
    return 0


def _cmd_puct_compress(args):
    if args.fit_map and not args.remove_dc:
        raise PnPuctError("--fit-map needs --remove-dc")
    with _mapped_stack(args, args.output, args.fit_map) as stack:
        code = load_code(args.code)
        timing = timing_of(stack, args.t_bit, args.fps, args.n_per)
        compressed = compress_stack(
            stack, code, timing,
            normalization=Normalization(args.normalization),
            single_period=args.single_period, remove_dc=args.remove_dc)
    if args.remove_dc:
        compressed, fit_map = compressed
    write_stack(compressed, args.output)
    print(f"wrote compressed stack ({compressed.n_frames} frames) "
          f"to {args.output}")
    if args.fit_map:
        export_fit_map_csv(fit_map, args.fit_map)
        print(f"wrote fit map to {args.fit_map}")
    return 0


def _cmd_puct_decimate(args):
    with _mapped_stack(args, args.output) as stack:
        timing = timing_of(stack, args.t_bit, args.fps, args.n_per)
        decimated, _ = decimate_to_bit_rate(stack, timing,
                                            average=args.average)
    write_stack(decimated, args.output)
    print(f"wrote decimated stack ({decimated.n_frames} frames) "
          f"to {args.output}")
    return 0


def _cmd_report_slice(args):
    with _mapped_stack(args, *slice_paths(args.output)) as stack:
        index = args.index if args.time is None else frame_at(stack, args.time)
        paths = export_slice(stack, index, args.output)
    print("wrote " + ", ".join(paths))
    return 0


def _cmd_report_pixel(args):
    with _mapped_stack(args, args.output) as stack:
        export_pixel_trace(stack, args.x, args.y, args.output)
    print(f"wrote pixel ({args.x}, {args.y}) trace to {args.output}")
    return 0


def _parse_region(token):
    parts = [int(p) for p in token.split(",")]
    if len(parts) != 4:
        raise PnPuctError(f"region must be x0,y0,width,height, got {token!r}")
    return Region(*parts)


def _cmd_metrics_snr(args):
    with _mapped_stack(args) as stack:
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
    group_cmds = {
        name: groups.add_parser(name, help=text).add_subparsers(
            dest="command", required=True)
        for name, text in (("seq", "pseudo-noise code tools"),
                           ("wave", "excitation waveform tools"),
                           ("sim", "synthetic measurement"),
                           ("dc", "DC component removal"),
                           ("puct", "pulse compression"),
                           ("report", "exports for plotting"),
                           ("metrics", "quality metrics"),
                           ("pipeline", "full run orchestration"))}

    def command(group, name, func, text, *parents):
        cmd = group_cmds[group].add_parser(name, parents=parents, help=text)
        cmd.set_defaults(func=func)
        return cmd

    # parsed by timing_of: a given value wins, a read stack fills the rest
    timing = argparse.ArgumentParser(add_help=False)
    timing.add_argument("--t-bit", help="bit duration in s; default: a "
                                        "read stack's metadata")
    timing.add_argument("--fps", help="frame rate; default: a read stack's")
    timing.add_argument("--n-per", help="excitation periods; default: a "
                                        "read stack's metadata, else 2")
    # the arguments that several commands take alike
    stack, code, output = (argparse.ArgumentParser(add_help=False)
                           for _ in range(3))
    stack.add_argument("--stack", required=True)
    code.add_argument("--code", required=True)
    output.add_argument("-o", "--output", required=True)

    gen = command("seq", "gen", _cmd_seq_gen, "generate a code descriptor",
                  output)
    gen.add_argument("--kind", required=True,
                     choices=["mls", "ls", "mls-plus", "ls-plus", "ls4-plus"])
    gen.add_argument("--n-bit", type=int, help="length for LS kinds")
    gen.add_argument("--order", type=int, help="register order for MLS kinds")
    gen.add_argument("--taps", help="comma list of polynomial coefficients, "
                                    "constant term first")
    gen.add_argument("--lfsr-seed", help="comma list of +1/-1 register values")
    gen.add_argument("--sign", type=int, default=1, choices=[-1, 1],
                     help="zero replacement sign for ls4-plus")
    ver = command("seq", "verify", _cmd_seq_verify,
                  "check a code's autocorrelation")
    ver.add_argument("code")
    ver.add_argument("--tolerance", type=float, default=1e-9)

    wgen = command("wave", "gen", _cmd_wave_gen,
                   "waveform and filter CSV exports", timing, code)
    wgen.add_argument("--amplitude", type=float, default=1.0)
    wgen.add_argument("--out-dir", required=True)

    srun = command("sim", "run", _cmd_sim_run, "simulate a thermogram stack",
                   timing, code, output)
    srun.add_argument("--scene", required=True)
    srun.add_argument("--amplitude", type=float, default=1.0)
    srun.add_argument("--seed", type=int, help="override the scene rng seed")

    drem = command("dc", "remove", _cmd_dc_remove,
                   "fit and remove step heating", timing, stack, code, output)
    drem.add_argument("--fit-map", help="CSV path for per-pixel coefficients")

    pcomp = command("puct", "compress", _cmd_puct_compress,
                    "matched-filter compression", timing, stack, code, output)
    pcomp.add_argument("--normalization", default="raw",
                       choices=[n.value for n in Normalization])
    pcomp.add_argument("--single-period", action="store_true")
    pcomp.add_argument("--remove-dc", action="store_true",
                       help="the stack is raw: remove the DC trend in the "
                            "same pass")
    pcomp.add_argument("--fit-map", help="with --remove-dc: CSV path for "
                                         "per-pixel coefficients")
    pdec = command("puct", "decimate", _cmd_puct_decimate,
                   "drop to one frame per bit", timing, stack, output)
    pdec.add_argument("--average", action="store_true",
                      help="bin-average the K frames of each bit")

    rslice = command("report", "slice", _cmd_report_slice,
                     "one frame as PGM + CSV", stack, output)
    idx = rslice.add_mutually_exclusive_group(required=True)
    idx.add_argument("--index", type=int)
    idx.add_argument("--time", type=float, help="seconds from the start")
    rpixel = command("report", "pixel", _cmd_report_pixel,
                     "one pixel trace as CSV", stack, output)
    rpixel.add_argument("--x", type=int, required=True)
    rpixel.add_argument("--y", type=int, required=True)

    msnr = command("metrics", "snr", _cmd_metrics_snr,
                   "contrast-to-noise in dB", stack)
    msnr.add_argument("--signal", required=True,
                      help="region as x0,y0,width,height")
    msnr.add_argument("--reference", required=True,
                      help="region as x0,y0,width,height")

    prun = command("pipeline", "run", _cmd_pipeline_run,
                   "execute a run config")
    prun.add_argument("--config", required=True)
    prun.add_argument("--out-dir", help="override the config output directory")
    prun.add_argument("--seed", type=int,
                      help="override the scene rng seed (no [input] stack)")

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
