"""End-to-end run orchestration: generate, simulate, remove DC, compress.

A run is described by an INI config (see README for the schema) and
produces a fixed artifact set in the output directory plus a manifest
recording every parameter and the SHA-256 of every artifact, so
identical configs yield identical manifests.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import json
import os

from . import codes as codes_mod
from .codes import CodeKind, save_code
from .compression import Normalization, compress_stack, decimate_to_bit_rate
from .dc_removal import export_fit_map_csv, remove_dc_stack
from .errors import PipelineStageError
from .stack import export_pixel_trace, export_slice, read_stack, write_stack
from .thermal import read_ini, scene_from_parser, simulate_stack
from .waveform import (Timing, build_bipolar, build_matched_filter,
                       build_unipolar, filter_to_csv, waveform_to_csv)


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


def _parse_config(source):
    if isinstance(source, configparser.ConfigParser):
        return source
    return read_ini(source)


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
    # a binarized code is also the physical drive sequence
    excitation_code = modified if modified.kind is CodeKind.LS_4PLUS else standard
    return excitation_code, modified


def run_pipeline(config, out_dir=None, seed=None):
    """Execute the full pipeline described by an INI config.

    Returns the manifest dictionary; raises PipelineStageError with the
    failing stage name on any error, in which case no manifest file is
    written.
    """
    parser = _parse_config(config)

    def parse_all():
        section = parser["timing"]
        n_per = {"n_per": int(section["n_per"])} if "n_per" in section else {}
        timing = Timing(t_bit=float(section["t_bit"]),
                        fps=float(section["fps"]), **n_per)
        amplitude = float(parser.get("excitation", "amplitude", fallback="1.0"))
        normalization = Normalization((parser.get(
            "compression", "normalization", fallback="raw") or "raw").lower())
        options = {key: parser.getboolean("compression", key, fallback=False)
                   for key in ("single_period", "decimate", "decimate_average")}
        directory = out_dir or parser.get("output", "directory", fallback="out")
        return timing, amplitude, normalization, options, directory

    timing, amplitude, normalization, options, directory = _stage(
        "config", parse_all)
    os.makedirs(directory, exist_ok=True)
    artifacts = {}

    def emit(name, filename, writer, *args):
        path = os.path.join(directory, filename)
        writer(*args, path)
        artifacts[name] = path
        return path

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

    def acquire():
        if parser.has_option("input", "stack"):
            return read_stack(parser["input"]["stack"])
        scene = scene_from_parser(parser)
        if seed is not None:
            scene = dataclasses.replace(scene, rng_seed=int(seed))
        return simulate_stack(scene, unipolar)

    raw = _stage("simulate", acquire)
    emit("raw_stack", "raw_stack.tgs", write_stack, raw)

    comp_timing = timing
    if options["decimate"]:
        raw, comp_timing = _stage(
            "decimate", decimate_to_bit_rate, raw, timing,
            options["decimate_average"])
        emit("decimated_stack", "decimated_stack.tgs", write_stack, raw)

    # DC removal and compression write into the stack they read, which
    # is on disk by then; compress_stack takes the flag positionally, so
    # a stand-in taking (stack, code, *args) can replace it
    removed, fit_map = _stage(
        "dc_removal", remove_dc_stack, raw, modified_code, comp_timing,
        overwrite_input=True)
    emit("dc_removed_stack", "dc_removed.tgs", write_stack, removed)
    emit("fit_map", "fit_map.csv", export_fit_map_csv, fit_map)
    # removed, and compressed after it, share raw's buffer: of these
    # only the fit map's memory is freed
    del raw, fit_map

    compressed = _stage(
        "compress", compress_stack, removed, modified_code, comp_timing,
        normalization, options["single_period"], True)
    emit("compressed_stack", "compressed.tgs", write_stack, compressed)

    def reports():
        out = parser["output"] if parser.has_section("output") else {}
        slices = out.get("slices", "")
        for token in filter(None, (s.strip() for s in slices.split(","))):
            index = int(round(float(token) * compressed.fps))
            index = min(max(index, 0), compressed.n_frames - 1)
            base = os.path.join(directory, f"slice_t{token}")
            pgm, csvp, side = export_slice(compressed, index, base)
            artifacts[f"slice_{token}_pgm"] = pgm
            artifacts[f"slice_{token}_csv"] = csvp
            artifacts[f"slice_{token}_bounds"] = side
        pixels = out.get("pixels", "")
        for token in filter(None, (s.strip() for s in pixels.split(","))):
            jx, _, jy = token.partition("x")
            path = os.path.join(directory, f"pixel_{jx}_{jy}.csv")
            export_pixel_trace(compressed, int(jx), int(jy), path)
            artifacts[f"pixel_{token}"] = path

    _stage("report", reports)

    manifest = {
        "parameters": {
            section: dict(parser[section]) for section in parser.sections()
        },
        "overrides": {"out_dir": out_dir, "seed": seed},
        "artifacts": {
            name: {
                "path": os.path.basename(path),
                "sha256": _sha256(path),
            }
            for name, path in sorted(artifacts.items())
        },
    }
    manifest_path = os.path.join(directory, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest["manifest_path"] = manifest_path
    return manifest


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()
