"""End-to-end run orchestration: generate, simulate, remove DC, compress.

A run is described by an INI config (see README for the schema) and
produces a fixed artifact set in the output directory plus a manifest
recording every parameter, the SHA-256 of every artifact and, for an
``[input]`` stack, the input's path, size and SHA-256, so identical
configs yield identical manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from contextlib import contextmanager
from functools import partial

from . import codes as codes_mod
from .codes import CodeKind, check_code, save_code
from .compression import Normalization, compress_stack, decimate_to_bit_rate
from .dc_removal import export_fit_map_csv, remove_dc_stack
from .errors import InvalidConfig, PipelineStageError
from .stack import (check_not_input, check_unchanged, export_pixel_trace,
                    export_slice, frame_at, open_stack, slice_paths,
                    write_stack)
from .thermal import (SimulatedStack, config_value, read_ini,
                      scene_from_parser, simulate_stack)
from .waveform import (build_bipolar, build_matched_filter, build_unipolar,
                       filter_to_csv, timing_of, waveform_to_csv)


@contextmanager
def _stage(name):
    """Run a block as stage ``name``: its errors become PipelineStageError."""
    try:
        yield
    except PipelineStageError:
        raise
    except Exception as exc:
        raise PipelineStageError(name, exc) from exc


# stacks written only when [output] intermediates names them
INTERMEDIATES = ("dc_removed",)


class _SimulatedScene(SimulatedStack):
    """A scene simulated as it is compressed; its errors name stage
    ``simulate``, not the stage that reads it."""

    def bands(self, width):
        with _stage("simulate"):
            yield from super().bands(width)


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
    """Execute the full pipeline described by the INI file ``config``.

    Returns the manifest dictionary. Any error, the failed write of an
    artifact included, raises PipelineStageError with the name of the
    stage that made that artifact, and no manifest file is written.
    ``seed`` replaces the scene's ``rng_seed``; with an ``[input]``
    stack it raises InvalidConfig at stage ``config``.

    A simulated scene is compressed straight from its bands as they are
    simulated (:class:`~pnpuct.thermal.SimulatedStack`): no raw stack
    is stored, and an error in its samples stops the run at stage
    ``simulate``. Only when a later stage reads the raw stack again,
    to decimate it or to write its DC-removed stack, is it written to
    ``raw_stack.tgs`` by :func:`~pnpuct.thermal.simulate_stack`,
    recorded in the manifest and read back through its mapping.

    A raw stack read through a file mapping, an ``[input]`` stack or
    ``raw_stack.tgs``, may be no other file the run writes: such a
    write is refused with OverwritesInput, at the stage of that file,
    before it is made. A change to it after :func:`stack.open_stack`
    took its size and mtime, before its hash pass, stops the run with
    StackChanged at the last stage, ``output``. A file truncated by
    another process while the run reads it kills the process with
    SIGBUS (see :func:`stack.open_stack`).
    """
    with _stage("config"):
        parser = read_ini(config)
        if not parser.has_section("code"):
            raise InvalidConfig("run config has no [code] section")
        option = partial(config_value, parser, error=InvalidConfig)
        amplitude = option("excitation", "amplitude", float, 1.0)
        normalization = option("compression", "normalization",
                               lambda t: Normalization(t.lower() or "raw"),
                               Normalization.RAW)
        options = {key: option("compression", key,
                               lambda t: parser.BOOLEAN_STATES[t.lower()], False)
                   for key in ("single_period", "decimate", "decimate_average")}
        # times and pixels out of the stack's range stop the run at report
        slices = option("output", "slices", lambda text: [
            (t, float(t)) for t in _tokens(text)], [])
        pixels = option("output", "pixels", lambda text: [
            (t, *map(int, t.partition("x")[::2])) for t in _tokens(text)], [])
        if options["decimate_average"] and not options["decimate"]:
            raise InvalidConfig(
                "[compression] decimate_average = true needs decimate = true")
        directory = out_dir or option("output", "directory", str, "out")
        intermediates = option("output", "intermediates",
                               lambda text: _tokens(text.lower()), [])
        unknown = sorted(set(intermediates) - set(INTERMEDIATES))
        if unknown:
            raise InvalidConfig(
                f"[output] intermediates: unknown {', '.join(unknown)}; "
                f"known: {', '.join(INTERMEDIATES)}")
        if seed is not None and parser.has_option("input", "stack"):
            raise InvalidConfig(
                "a seed sets the noise of a simulated scene; an [input] "
                "stack has none")
    # read before the timing: its metadata fills the [timing] keys left out
    raw = source = mapped = None
    if parser.has_option("input", "stack"):
        with _stage("simulate"):
            path = parser["input"]["stack"]
            digest = hashlib.sha256()
            raw = open_stack(path, digest)
            # its size and mtime from before the hash pass: any change
            # since shows when the run ends
            mapped = raw.file
            source = {"path": path, "bytes": mapped.size,
                      "sha256": digest.hexdigest()}
    with _stage("config"):
        section = parser["timing"] if parser.has_section("timing") else {}
        timing = timing_of(raw, *map(section.get, ("t_bit", "fps", "n_per")))
        # a time of no finite frame is no frame of any stack
        if not all(math.isfinite(t * timing.fps) for _, t in slices):
            raise InvalidConfig(f"[output] slices = "
                                f"{parser.get('output', 'slices')!r} is invalid")

    # name -> (path, SHA-256 of the bytes written)
    artifacts = {}

    def writable(path):
        # the one check of every path the run writes or removes
        if mapped is not None:
            check_not_input(path, mapped.path)
        return path

    def emit(name, filename, writer, *args):
        # every writer returns the digest of what it wrote
        path = writable(os.path.join(directory, filename))
        artifacts[name] = path, writer(*args, path)

    manifest_path = os.path.join(directory, "manifest.json")
    with _stage("output"):
        os.makedirs(directory, exist_ok=True)
        writable(manifest_path)
        # a run that fails leaves no manifest of an earlier run behind
        if os.path.isfile(manifest_path):
            os.remove(manifest_path)
    with _stage("codes"):
        excitation_code, modified_code = generate_codes(parser["code"])
        emit("excitation_code", "excitation_code.txt", save_code,
             excitation_code)
        emit("modified_code", "modified_code.txt", save_code, modified_code)
    with _stage("waveform"):
        bipolar = build_bipolar(excitation_code, timing)
        unipolar = build_unipolar(bipolar, amplitude)
        emit("bipolar_csv", "bipolar.csv", waveform_to_csv, bipolar)
        emit("unipolar_csv", "unipolar.csv", waveform_to_csv, unipolar)
    if source is None:
        with _stage("simulate"):
            scene = scene_from_parser(parser)
            if seed is not None:
                scene = dataclasses.replace(scene, rng_seed=int(seed))
            if options["decimate"] or "dc_removed" in intermediates:
                path = writable(os.path.join(directory, "raw_stack.tgs"))
                digest = hashlib.sha256()
                # written band by band and mapped: never resident
                raw = simulate_stack(scene, unipolar, path, digest)
                mapped = raw.file
                artifacts["raw_stack"] = path, digest.hexdigest()
            else:
                raw = _SimulatedScene(scene, unipolar)
    comp_timing = timing
    if options["decimate"]:
        with _stage("decimate"):
            raw, comp_timing = decimate_to_bit_rate(
                raw, timing, options["decimate_average"])
            emit("decimated_stack", "decimated_stack.tgs", write_stack, raw)
    with _stage("waveform"):
        # the filter that compression runs: one tap per bit when decimated
        emit("filter_csv", "matched_filter.csv", filter_to_csv,
             build_matched_filter(modified_code), comp_timing.k)

    # one pass removes the DC trend and compresses (remove_dc True);
    # compress_stack takes its arguments positionally, so a stand-in
    # taking (stack, code, *args) can replace it
    with _stage("compress"):
        compressed, fit_map = compress_stack(
            raw, modified_code, comp_timing, normalization,
            options["single_period"], True)
        emit("fit_map", "fit_map.csv", export_fit_map_csv, fit_map)
        emit("compressed_stack", "compressed.tgs", write_stack, compressed)
    if "dc_removed" in intermediates:
        with _stage("dc_removal"):
            removed, _ = remove_dc_stack(raw, modified_code, comp_timing)
            emit("dc_removed_stack", "dc_removed.tgs", write_stack, removed)
        del removed
    del raw
    with _stage("report"):
        for token, time in slices:
            index = frame_at(compressed, time)
            base = os.path.join(directory, f"slice_t{token}")
            for path in slice_paths(base):
                writable(path)
            written = export_slice(compressed, index, base)
            for kind, path in zip(("pgm", "csv", "bounds"), written):
                artifacts[f"slice_{token}_{kind}"] = path, written[path]
        for token, jx, jy in pixels:
            emit(f"pixel_{token}", f"pixel_{token.replace('x', '_')}.csv",
                 export_pixel_trace, compressed, jx, jy)
    with _stage("output"):
        manifest = {
            "parameters": {section: dict(parser[section])
                           for section in parser.sections()},
            "overrides": {"out_dir": out_dir, "seed": seed},
            "artifacts": {
                name: {"path": os.path.basename(path), "sha256": digest}
                for name, (path, digest) in sorted(artifacts.items())},
        }
        if mapped is not None:
            check_unchanged(mapped)
        if source is not None:
            manifest["input"] = source
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    manifest["manifest_path"] = manifest_path
    return manifest


def _tokens(text):
    """Non-empty, stripped items of a comma-separated config value."""
    return [t for t in (s.strip() for s in text.split(",")) if t]
