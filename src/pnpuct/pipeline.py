"""End-to-end run orchestration: generate, simulate, remove DC, compress.

A run is described by an INI config (see README for the schema).
:func:`plan` reads it once through the key tables, :data:`RUN_KEYS` and
:data:`~pnpuct.thermal.SCENE_KEYS`, and :func:`execute` runs the plan:
a fixed artifact set in the output directory plus a manifest recording
every parameter, the SHA-256 of every artifact and, for an ``[input]``
stack, the input's path, size and SHA-256, so identical configs yield
identical manifests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
from configparser import ConfigParser
from contextlib import contextmanager

from .codes import CodeKind, check_code, make_codes, save_code
from .compression import Normalization, compress_stack, decimate_to_bit_rate
from .dc_removal import export_fit_map_csv, remove_dc_stack
from .errors import InvalidConfig, PipelineStageError
from .stack import (MAX_EXTENT, StackHeader, check_not_input, check_unchanged,
                    export_pixel_trace, export_slice, frame_at, is_integer,
                    open_stack, read_header, slice_paths, write_stack)
from .thermal import (SCENE_KEYS, SceneConfig, SimulatedStack, check_names,
                      read_ini, read_section, scene_from_parser,
                      simulate_stack)
from .waveform import (Timing, build_bipolar, build_matched_filter,
                       build_unipolar, filter_to_csv, timing_of,
                       waveform_to_csv)


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


def _items(parse):
    """The parse of a comma list: ``parse`` of each non-empty item."""
    return lambda text: tuple(
        parse(item) for item in map(str.strip, text.split(",")) if item)


def _intermediate(name):
    """``name`` in lower case; ValueError where INTERMEDIATES lacks it."""
    return INTERMEDIATES[INTERMEDIATES.index(name.lower())]


_BOOLEAN = (lambda text: ConfigParser.BOOLEAN_STATES[text.lower()], False)
# Every section and key of a run config but the scene's (SCENE_KEYS),
# each key with its parse and default. The [code] keys are the
# arguments of codes.make_codes and the [timing] keys those of
# waveform.timing_of, which parses them.
RUN_KEYS = {
    "code": {"kind": (str.lower, "ls"), "modified": (str.lower, "auto"),
             "n_bit": (int, None), "order": (int, None), "taps": (str, None),
             "sign": (int, 1)},
    "timing": dict.fromkeys(("t_bit", "fps", "n_per"), (str, None)),
    "excitation": {"amplitude": (float, 1.0)},
    "compression": {
        "normalization": (lambda text: Normalization(text.lower() or "raw"),
                          Normalization.RAW),
        "single_period": _BOOLEAN, "decimate": _BOOLEAN,
        "decimate_average": _BOOLEAN},
    "input": {"stack": (str, None)},
    "output": {
        "directory": (str, "out"),
        # times and pixels out of the stack's range stop the run at report
        "slices": (_items(lambda item: (item, float(item))), ()),
        "pixels": (_items(lambda item: (
            item, *map(int, item.partition("x")[::2]))), ()),
        "intermediates": (_items(_intermediate), ())},
}


@dataclasses.dataclass(frozen=True)
class Plan:
    """A run config as :func:`plan` read it: the (excitation, modified)
    codes, the timing, the amplitude, the [compression] and [output]
    values by key, the scene with the seed applied or else the header of
    the [input] stack, and for the manifest the INI text as written and
    :func:`plan`'s ``out_dir`` and ``seed``."""

    codes: tuple
    timing: Timing
    amplitude: float
    compression: dict
    output: dict
    scene: SceneConfig
    input: StackHeader
    parameters: dict
    overrides: dict


def plan(config, out_dir=None, seed=None) -> Plan:
    """Read the INI file ``config`` once, through the key tables, into a
    :class:`Plan`; ``out_dir`` replaces ``[output] directory`` and
    ``seed`` the scene's ``rng_seed``.

    Every value is parsed and checked here, and of an ``[input]`` stack
    only the header is read. Each fault stops the run at stage
    ``config``, before anything is written: an unknown section or key, a
    value that does not parse, no ``[code]`` section, ``decimate_average``
    without ``decimate``, a seed that is no integer or is given beside an
    ``[input]`` stack, a header that :func:`~pnpuct.stack.read_header`
    refuses, a bad timing, more frames than a TGS1 stack holds (before a
    code or scene is made), a slice time of no finite frame, and a code
    or scene that cannot be made.
    """
    with _stage("config"):
        parser = read_ini(config)
        # the one read of the text: the manifest's parameters
        sections = {name: dict(parser[name]) for name in parser.sections()}
        check_names(sections, {**RUN_KEYS, **SCENE_KEYS})
        if "code" not in sections:
            raise InvalidConfig("run config has no [code] section")
        run = {name: read_section(sections, name, keys, InvalidConfig)
               for name, keys in RUN_KEYS.items()}
        code, output = run["code"], run["output"]
        compression = run["compression"]
        if compression["decimate_average"] and not compression["decimate"]:
            raise InvalidConfig(
                "[compression] decimate_average = true needs decimate = true")
        if seed is not None:
            if not is_integer(seed):
                raise InvalidConfig(f"seed {seed!r} is not an integer")
            seed = int(seed)
        header = None
        if run["input"]["stack"] is not None:
            if seed is not None:
                raise InvalidConfig("a seed sets the noise of a simulated "
                                    "scene; an [input] stack has none")
            header = read_header(run["input"]["stack"])
        timing = timing_of(header, **run["timing"])
        # an order past 32 is too long whatever the timing; a missing
        # length is left to make_codes
        n_bit = (2 ** min(code["order"] or 0, 33) - 1 if code["kind"] == "mls"
                 else code["n_bit"] or 0)
        frames = timing.total_frames(n_bit)
        if frames > MAX_EXTENT:
            raise InvalidConfig(f"n_per * K * N = {frames} is above 2^32 - 1, "
                                "the most a TGS1 stack holds")
        # a time of no finite frame is no frame of any stack
        if not all(math.isfinite(t * timing.fps) for _, t in output["slices"]):
            raise InvalidConfig(f"[output] slices = "
                                f"{sections['output']['slices']!r} is invalid")
        codes = generate_codes(code)
        scene = None
        if header is None:
            scene = scene_from_parser(sections)
            if seed is not None:
                scene = dataclasses.replace(scene, rng_seed=seed)
        if out_dir:
            # recorded as text: the manifest is JSON
            out_dir = output["directory"] = os.fspath(out_dir)
        return Plan(codes, timing, run["excitation"]["amplitude"],
                    compression, output, scene, header, parameters=sections,
                    overrides={"out_dir": out_dir, "seed": seed})


class _SimulatedScene(SimulatedStack):
    """A scene simulated as it is compressed; its errors name stage
    ``simulate``, not the stage that reads it."""

    def bands(self, width):
        with _stage("simulate"):
            yield from super().bands(width)


def generate_codes(code):
    """Standard excitation code and modified compression code of the
    ``[code]`` values ``code`` of a :class:`Plan`."""
    modified = code["modified"]
    if modified == "auto":
        modified = "ls_plus" if code["kind"] == "ls" else "mls_plus"
    # the [code] keys are make_codes' arguments
    standard, modified = make_codes(**dict(code, modified=modified))
    # DC removal and compression take the bias and gain as given
    check_code(modified)
    # a binarized code is also the physical drive sequence
    excitation_code = modified if modified.kind is CodeKind.LS_4PLUS else standard
    return excitation_code, modified


def run_pipeline(config, out_dir=None, seed=None):
    """Run the INI file ``config``: ``execute(plan(config, out_dir, seed))``.

    Returns the manifest dictionary; :func:`plan` and :func:`execute`
    hold the stages and their errors.
    """
    return execute(plan(config, out_dir, seed))


def execute(plan):
    """Run the stages of the :class:`Plan` ``plan``; return the manifest.

    Any error, the failed write of an artifact included, raises
    PipelineStageError with the name of the stage that made that
    artifact, and no manifest file is written. An ``[input]`` stack is
    opened and hashed first, in stage ``simulate``: a non-finite sample
    stops the run there, and so does a change since :func:`plan` read
    its header (StackChanged).

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
    compression, output, timing = plan.compression, plan.output, plan.timing
    directory, intermediates = output["directory"], output["intermediates"]
    excitation_code, modified_code = plan.codes
    raw = source = mapped = None
    if plan.input is not None:
        with _stage("simulate"):
            path = plan.input.file.path
            digest = hashlib.sha256()
            raw = open_stack(path, digest)
            # still the file whose header plan read
            check_unchanged(plan.input.file)
            # its size and mtime from before the hash pass: any change
            # since shows when the run ends
            mapped = raw.file
            source = {"path": path, "bytes": mapped.size,
                      "sha256": digest.hexdigest()}

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
        emit("excitation_code", "excitation_code.txt", save_code,
             excitation_code)
        emit("modified_code", "modified_code.txt", save_code, modified_code)
    with _stage("waveform"):
        bipolar = build_bipolar(excitation_code, timing)
        unipolar = build_unipolar(bipolar, plan.amplitude)
        emit("bipolar_csv", "bipolar.csv", waveform_to_csv, bipolar)
        emit("unipolar_csv", "unipolar.csv", waveform_to_csv, unipolar)
    if source is None:
        with _stage("simulate"):
            if compression["decimate"] or "dc_removed" in intermediates:
                path = writable(os.path.join(directory, "raw_stack.tgs"))
                digest = hashlib.sha256()
                # written band by band and mapped: never resident
                raw = simulate_stack(plan.scene, unipolar, path, digest)
                mapped = raw.file
                artifacts["raw_stack"] = path, digest.hexdigest()
            else:
                raw = _SimulatedScene(plan.scene, unipolar)
    comp_timing = timing
    if compression["decimate"]:
        with _stage("decimate"):
            raw, comp_timing = decimate_to_bit_rate(
                raw, timing, compression["decimate_average"])
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
            raw, modified_code, comp_timing, compression["normalization"],
            compression["single_period"], True)
        emit("fit_map", "fit_map.csv", export_fit_map_csv, fit_map)
        emit("compressed_stack", "compressed.tgs", write_stack, compressed)
    if "dc_removed" in intermediates:
        with _stage("dc_removal"):
            removed, _ = remove_dc_stack(raw, modified_code, comp_timing)
            emit("dc_removed_stack", "dc_removed.tgs", write_stack, removed)
        del removed
    del raw
    with _stage("report"):
        for token, time in output["slices"]:
            index = frame_at(compressed, time)
            base = os.path.join(directory, f"slice_t{token}")
            for path in slice_paths(base):
                writable(path)
            written = export_slice(compressed, index, base)
            for kind, path in zip(("pgm", "csv", "bounds"), written):
                artifacts[f"slice_{token}_{kind}"] = path, written[path]
        for token, jx, jy in output["pixels"]:
            emit(f"pixel_{token}", f"pixel_{token.replace('x', '_')}.csv",
                 export_pixel_trace, compressed, jx, jy)
    with _stage("output"):
        manifest = {
            "parameters": plan.parameters,
            "overrides": plan.overrides,
            "artifacts": {
                name: {"path": os.path.basename(path), "sha256": digest}
                for name, (path, digest) in sorted(artifacts.items())},
        }
        if mapped is not None:
            check_unchanged(mapped)
        if source is not None:
            manifest["input"] = source
        # encoded before the file is opened: a value that JSON cannot
        # hold leaves no manifest
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    manifest["manifest_path"] = manifest_path
    return manifest
