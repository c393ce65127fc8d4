"""End-to-end run orchestration: generate, simulate, remove DC, compress.

A run is described by an INI config (see README for the schema) and
produces a fixed artifact set in the output directory plus a manifest
recording every parameter, the SHA-256 of every artifact and, for an
``[input]`` stack, the input's path, size and SHA-256, so identical
configs yield identical manifests.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import os

from . import codes as codes_mod
from .codes import CodeKind, check_code, save_code
from .compression import Normalization, compress_stack, decimate_to_bit_rate
from .dc_removal import export_fit_map_csv, remove_dc_stack
from .errors import InvalidConfig, PipelineStageError
from .stack import export_pixel_trace, export_slice, read_stack, write_stack
from .thermal import read_ini, scene_from_parser, simulate_stack
from .waveform import (build_bipolar, build_matched_filter, build_unipolar,
                       filter_to_csv, timing_of, waveform_to_csv)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


# stacks written only when [output] intermediates names them
INTERMEDIATES = ("dc_removed",)


def _parse_config(source):
    if isinstance(source, configparser.ConfigParser):
        return source
    return read_ini(source)


def _read_input(path):
    """The [input] stack and its manifest record, hashed as it is read."""
    digest = hashlib.sha256()
    stack = read_stack(path, digest=digest)
    return stack, {"path": path, "bytes": os.path.getsize(path),
                   "sha256": digest.hexdigest()}


def generate_codes(section):
    """Standard excitation code and modified compression code from [code]."""
    kind = section.get("kind", "ls").lower()
    modified_name = section.get("modified", "auto").lower()
    if modified_name == "auto":
        modified_name = "ls_plus" if kind == "ls" else "mls_plus"
    standard, modified = codes_mod.make_codes(
        kind, modified_name, n_bit=section.get("n_bit"),
        order=section.get("order"), taps=section.get("taps"),
        sign=section.get("sign", "1"))
    # DC removal and compression take the bias and gain as given
    check_code(modified)
    # a binarized code is also the physical drive sequence
    excitation_code = modified if modified.kind is CodeKind.LS_4PLUS else standard
    return excitation_code, modified


def run_pipeline(config, out_dir=None, seed=None):
    """Execute the full pipeline described by an INI config.

    Returns the manifest dictionary; raises PipelineStageError with the
    failing stage name on any error, in which case no manifest file is
    written.
    """
    parser = _stage("config", _parse_config, config)
    # read before the timing: its metadata fills the [timing] keys left out
    raw = source = None
    if parser.has_option("input", "stack"):
        raw, source = _stage("simulate", _read_input, parser["input"]["stack"])

    def parse_all():
        section = parser["timing"] if parser.has_section("timing") else {}
        timing = timing_of(raw, *map(section.get, ("t_bit", "fps", "n_per")))
        amplitude = float(parser.get("excitation", "amplitude", fallback="1.0"))
        normalization = Normalization((parser.get(
            "compression", "normalization", fallback="raw") or "raw").lower())
        options = {key: parser.getboolean("compression", key, fallback=False)
                   for key in ("single_period", "decimate", "decimate_average")}
        directory = out_dir or parser.get("output", "directory", fallback="out")
        intermediates = _tokens(parser.get(
            "output", "intermediates", fallback="").lower())
        unknown = sorted(set(intermediates) - set(INTERMEDIATES))
        if unknown:
            raise InvalidConfig(
                f"[output] intermediates: unknown {', '.join(unknown)}; "
                f"known: {', '.join(INTERMEDIATES)}")
        return (timing, amplitude, normalization, options, directory,
                intermediates)

    timing, amplitude, normalization, options, directory, intermediates = (
        _stage("config", parse_all))
    os.makedirs(directory, exist_ok=True)
    # name -> (path, SHA-256 of the bytes written)
    artifacts = {}

    def emit(name, filename, writer, *args):
        # every writer returns the digest of what it wrote
        path = os.path.join(directory, filename)
        artifacts[name] = path, writer(*args, path)

    excitation_code, modified_code = _stage(
        "codes", generate_codes, parser["code"])
    emit("excitation_code", "excitation_code.txt", save_code, excitation_code)
    emit("modified_code", "modified_code.txt", save_code, modified_code)

    def make_waveforms():
        bipolar = build_bipolar(excitation_code, timing)
        unipolar = build_unipolar(bipolar, amplitude)
        filt = build_matched_filter(modified_code, timing)
        return bipolar, unipolar, filt

    bipolar, unipolar, filt = _stage("waveform", make_waveforms)
    emit("bipolar_csv", "bipolar.csv", waveform_to_csv, bipolar)
    emit("unipolar_csv", "unipolar.csv", waveform_to_csv, unipolar)
    emit("filter_csv", "matched_filter.csv", filter_to_csv, filt)

    def simulate():
        scene = scene_from_parser(parser)
        if seed is not None:
            scene = dataclasses.replace(scene, rng_seed=int(seed))
        return simulate_stack(scene, unipolar)

    if source is None:
        raw = _stage("simulate", simulate)
        emit("raw_stack", "raw_stack.tgs", write_stack, raw)

    comp_timing = timing
    if options["decimate"]:
        raw, comp_timing = _stage(
            "decimate", decimate_to_bit_rate, raw, timing,
            options["decimate_average"])
        emit("decimated_stack", "decimated_stack.tgs", write_stack, raw)

    # one pass removes the DC trend and compresses; compress_stack takes
    # its arguments positionally, so a stand-in taking (stack, code,
    # *args) can replace it. It writes the period into the first frames
    # of the stack it reads, which is on disk by then (the input file,
    # or the stack written above), unless DC removal still needs that
    # stack: then it allocates one period, and DC removal runs in place
    keep_raw = "dc_removed" in intermediates
    compressed, fit_map = _stage(
        "compress", compress_stack, raw, modified_code, comp_timing,
        normalization, options["single_period"], not keep_raw, True)
    if keep_raw:
        removed, _ = _stage("dc_removal", remove_dc_stack, raw, modified_code,
                            comp_timing, overwrite_input=True)
        emit("dc_removed_stack", "dc_removed.tgs", write_stack, removed)
        del removed
    del raw
    emit("fit_map", "fit_map.csv", export_fit_map_csv, fit_map)
    emit("compressed_stack", "compressed.tgs", write_stack, compressed)

    def reports():
        out = parser["output"] if parser.has_section("output") else {}
        for token in _tokens(out.get("slices", "")):
            index = int(round(float(token) * compressed.fps))
            base = os.path.join(directory, f"slice_t{token}")
            written = export_slice(compressed, index, base)
            for kind, path in zip(("pgm", "csv", "bounds"), written):
                artifacts[f"slice_{token}_{kind}"] = path, written[path]
        for token in _tokens(out.get("pixels", "")):
            jx, _, jy = token.partition("x")
            emit(f"pixel_{token}", f"pixel_{jx}_{jy}.csv", export_pixel_trace,
                 compressed, int(jx), int(jy))

    _stage("report", reports)

    manifest = {
        "parameters": {
            section: dict(parser[section]) for section in parser.sections()
        },
        "overrides": {"out_dir": out_dir, "seed": seed},
        "artifacts": {
            name: {
                "path": os.path.basename(path),
                "sha256": digest,
            }
            for name, (path, digest) in sorted(artifacts.items())
        },
    }
    if source is not None:
        manifest["input"] = source
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest["manifest_path"] = manifest_path
    return manifest


def _tokens(text):
    """Non-empty, stripped items of a comma-separated config value."""
    return [t for t in (s.strip() for s in text.split(",")) if t]
