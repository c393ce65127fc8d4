import dataclasses
import errno
import json
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pnpuct
import pnpuct.cli
from pnpuct import (BadMagic, IndexOutOfRange, InvalidCode, InvalidConfig,
                    InvalidScene, NonFiniteData, NonPositiveAmplitude,
                    Normalization, NotLs4Compatible, NotPrime,
                    PipelineStageError, PixelModel, PnPuctError, Region,
                    StackChanged, TruncatedFile,
                    ThermogramStack, TimingMismatch, binarize_ls4,
                    build_matched_filter, compress_stack,
                    code_to_text, generate_ls, generate_mls,
                    load_code, load_scene_config, modify_for_perfect_pacf,
                    read_stack, run_pipeline, simulate_stack, write_stack)
from pnpuct.cli import main
from pnpuct.dc_removal import export_fit_map_csv
from pnpuct.pipeline import RUN_KEYS, Plan, execute, generate_codes, plan
from pnpuct.thermal import SCENE_KEYS, read_ini, read_section
from pnpuct.waveform import (build_bipolar, build_unipolar, filter_to_csv,
                             timing_of)
from pipeline_helpers import file_sha256, fusion_bound

README = Path(__file__).resolve().parents[1] / "README.md"

SCENE_SECTIONS = """
[scene]
nx = 4
ny = 3
noise_sigma = 0.0
rng_seed = 7

[background]
diffusivity = 1e-6
amplitude_scale = 1.0

[defect.one]
x0 = 0
y0 = 0
width = 2
height = 2
depth = 0.001
reflection = 0.9
"""


def write_run_config(path, out_dir, t_bit="1.0", fps="2.0", extra="",
                     output_extra=""):
    path.write_text(f"""
[code]
kind = ls
n_bit = 31
modified = ls_plus

[timing]
t_bit = {t_bit}
fps = {fps}
n_per = 2

[excitation]
amplitude = 1.0

[compression]
normalization = per_length
{extra}
{SCENE_SECTIONS}

[output]
directory = {out_dir}
slices = 3.0
pixels = 0x0, 3x2
{output_extra}
""")
    return path


def simulate_raw(cfg, path):
    """Write to ``path`` the raw stack that a run of ``cfg`` simulates."""
    run = plan(cfg)
    wave = build_unipolar(build_bipolar(run.codes[0], run.timing),
                          run.amplitude)
    return simulate_stack(run.scene, wave, path)


def code_keys(section):
    """The values of a [code] section of text keys, as a plan reads them."""
    return read_section({"code": section}, "code", RUN_KEYS["code"],
                        InvalidConfig)


def touch_file(path, change):
    """Change a file in place, later mtime, or append a byte to it."""
    if change == "appended":
        with open(path, "ab") as fh:
            fh.write(b"\0")
        return
    with open(path, "r+b") as fh:
        fh.seek(-4, os.SEEK_END)
        fh.write(np.float32(1.5).tobytes())
    # a rewrite within the clock tick of the last one keeps the mtime
    stat = os.stat(path)
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10 ** 9))


# argv of each command that reads a --stack, given the stack, a
# modified code and an output path
STACK_COMMANDS = {
    "dc-remove": lambda stack, code, out: [
        "dc", "remove", "--stack", stack, "--code", code, "-o", out],
    "puct-compress": lambda stack, code, out: [
        "puct", "compress", "--stack", stack, "--code", code, "--remove-dc",
        "-o", out],
    "puct-decimate": lambda stack, code, out: [
        "puct", "decimate", "--stack", stack, "-o", out],
    "report-slice": lambda stack, code, out: [
        "report", "slice", "--stack", stack, "--index", "3", "-o", out],
    "report-pixel": lambda stack, code, out: [
        "report", "pixel", "--stack", stack, "--x", "1", "--y", "2",
        "-o", out],
    "metrics-snr": lambda stack, code, out: [
        "metrics", "snr", "--stack", stack, "--signal", "0,0,2,2",
        "--reference", "2,0,2,2"],
}


class TestRunPipeline:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out",
                               output_extra="intermediates = dc_removed")
        manifest = run_pipeline(cfg)
        out = tmp_path / "out"
        for name in ["excitation_code.txt", "modified_code.txt", "bipolar.csv",
                     "unipolar.csv", "matched_filter.csv", "raw_stack.tgs",
                     "dc_removed.tgs", "fit_map.csv", "compressed.tgs",
                     "manifest.json", "pixel_0_0.csv", "slice_t3.0.pgm"]:
            assert (out / name).exists(), name
        compressed = read_stack(out / "compressed.tgs")
        assert compressed.n_frames == 62
        assert compressed.metadata["normalization"] == "per_length"
        assert set(manifest["artifacts"]) >= {"raw_stack", "dc_removed_stack",
                                              "compressed_stack"}
        # digests taken while writing match the files as written
        for artifact in manifest["artifacts"].values():
            assert artifact["sha256"] == file_sha256(out / artifact["path"])
        assert "input" not in manifest

    def test_default_simulated_run_writes_no_raw_stack(self, tmp_path):
        manifest = run_pipeline(write_run_config(tmp_path / "run.cfg",
                                                 tmp_path / "out"))
        assert not (tmp_path / "out" / "raw_stack.tgs").exists()
        assert "raw_stack" not in manifest["artifacts"]
        # a decimated run reads the raw stack again, from its file
        decimated = run_pipeline(write_run_config(
            tmp_path / "dec.cfg", tmp_path / "dec", extra="decimate = true"))
        assert decimated["artifacts"]["raw_stack"]["sha256"] == file_sha256(
            tmp_path / "dec" / "raw_stack.tgs")

    @settings(max_examples=30, deadline=None)
    @given(nx=st.integers(2, 40), ny=st.integers(2, 16),
           sigma=st.sampled_from(["0.0", "0.3"]), k=st.integers(1, 3),
           n_per=st.integers(2, 3), one_block_bands=st.booleans())
    # 255, 256 and 258 px: a pixel short of one block, one block, and a
    # block and two pixels, in bands of one block
    @example(nx=15, ny=17, sigma="0.3", k=2, n_per=3, one_block_bands=True)
    @example(nx=16, ny=16, sigma="0.0", k=1, n_per=2, one_block_bands=True)
    @example(nx=2, ny=129, sigma="0.3", k=3, n_per=2, one_block_bands=True)
    def test_fused_run_equals_compressing_the_written_stack(
            self, tmp_path_factory, nx, ny, sigma, k, n_per,
            one_block_bands):
        work = tmp_path_factory.mktemp("fused")
        text = write_run_config(work / "run.cfg", work / "out",
                                fps=str(k)).read_text()
        for old, new in [("n_bit = 31", "n_bit = 7"),
                         ("n_per = 2", f"n_per = {n_per}"),
                         ("nx = 4\nny = 3", f"nx = {nx}\nny = {ny}"),
                         ("noise_sigma = 0.0", f"noise_sigma = {sigma}"),
                         ("slices = 3.0\npixels = 0x0, 3x2\n", "")]:
            assert old in text
            text = text.replace(old, new)
        cfg = work / "run.cfg"
        cfg.write_text(text)
        budget = 1 if one_block_bands else pnpuct.stack._BAND_BYTES
        with mock.patch.object(pnpuct.stack, "_BAND_BYTES", budget):
            run_pipeline(cfg)
            raw = simulate_raw(cfg, work / "raw.tgs")
            _, modified = plan(cfg).codes
            timing = timing_of(raw, None, None, None)
            compressed, fits = compress_stack(
                raw, modified, timing, Normalization.PER_LENGTH, False, True)
        assert not (work / "out" / "raw_stack.tgs").exists()
        write_stack(compressed, work / "compressed.tgs")
        export_fit_map_csv(fits, work / "fit_map.csv")
        for name in ("compressed.tgs", "fit_map.csv"):
            assert ((work / "out" / name).read_bytes()
                    == (work / name).read_bytes())

    @pytest.mark.parametrize("output_extra", ["", "intermediates = dc_removed"],
                             ids=["fused", "written"])
    def test_non_finite_simulated_samples_stop_at_simulate(
            self, tmp_path, output_extra):
        # noise of 1e39 overflows float32
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out,
                               output_extra=output_extra)
        cfg.write_text(cfg.read_text().replace("noise_sigma = 0.0",
                                               "noise_sigma = 1e39"))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "simulate"
        assert isinstance(info.value.cause, NonFiniteData)
        assert not (out / "compressed.tgs").exists()
        assert not (out / "manifest.json").exists()

    def test_intermediate_stack_only_on_request(self, tmp_path):
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out")
        manifest = run_pipeline(cfg)
        assert not (tmp_path / "out" / "dc_removed.tgs").exists()
        assert "dc_removed_stack" not in manifest["artifacts"]
        assert (tmp_path / "out" / "compressed.tgs").exists()

    def test_compressed_stack_does_not_depend_on_intermediates(self,
                                                               tmp_path):
        plain = run_pipeline(write_run_config(tmp_path / "a.cfg",
                                              tmp_path / "a"))
        asked = run_pipeline(write_run_config(
            tmp_path / "b.cfg", tmp_path / "b",
            output_extra="intermediates = dc_removed"))
        assert ((tmp_path / "a" / "compressed.tgs").read_bytes()
                == (tmp_path / "b" / "compressed.tgs").read_bytes())
        extra = set(asked["artifacts"]) - set(plain["artifacts"])
        assert extra == {"dc_removed_stack", "raw_stack"}
        for name, artifact in plain["artifacts"].items():
            assert asked["artifacts"][name]["sha256"] == artifact["sha256"]

    @pytest.mark.parametrize("value", ["bogus", "dc_removed, raw"])
    def test_unknown_intermediate_rejected(self, tmp_path, value):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out,
                               output_extra=f"intermediates = {value}")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidConfig)
        assert "intermediates" in str(info.value)
        assert not out.exists()

    def test_input_stack_recorded_not_copied(self, tmp_path):
        raw = tmp_path / "raw.tgs"
        simulate_raw(write_run_config(tmp_path / "sim.cfg", tmp_path / "sim"),
                     raw)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 31\n\n"
                       f"[input]\nstack = {raw}\n\n"
                       f"[output]\ndirectory = {out}\n")
        manifest = run_pipeline(cfg)
        assert not (out / "raw_stack.tgs").exists()
        assert "raw_stack" not in manifest["artifacts"]
        assert manifest["input"] == {"path": str(raw),
                                     "bytes": raw.stat().st_size,
                                     "sha256": file_sha256(raw)}
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["input"] == manifest["input"]
        for artifact in manifest["artifacts"].values():
            assert artifact["sha256"] == file_sha256(out / artifact["path"])

    def test_input_path_with_a_percent_sign_is_read_as_written(self,
                                                              tmp_path):
        # the default interpolation refused the '%', with a bare
        # InterpolationSyntaxError
        raw = tmp_path / "raw.tgs"
        simulate_raw(write_run_config(tmp_path / "sim.cfg", tmp_path / "sim"),
                     raw)
        percent = tmp_path / "raw 100%.tgs"
        percent.write_bytes(raw.read_bytes())
        for name, path in (("plain", raw), ("percent", percent)):
            (tmp_path / f"{name}.cfg").write_text(
                f"[code]\nkind = ls\nn_bit = 31\n\n[input]\nstack = {path}\n\n"
                f"[output]\ndirectory = {tmp_path / name}\n")
        run_pipeline(tmp_path / "plain.cfg")
        manifest = run_pipeline(tmp_path / "percent.cfg")
        assert manifest["input"]["path"] == str(percent)
        assert ((tmp_path / "percent" / "compressed.tgs").read_bytes()
                == (tmp_path / "plain" / "compressed.tgs").read_bytes())

    def test_seed_sets_the_scenes_rng_seed(self, tmp_path):
        noisy = "noise_sigma = 0.5"
        runs = {}
        for name, rng_seed, seed in (("override", 7, 3), ("config", 3, None)):
            cfg = write_run_config(tmp_path / f"{name}.cfg", tmp_path / name)
            cfg.write_text(cfg.read_text()
                           .replace("noise_sigma = 0.0", noisy)
                           .replace("rng_seed = 7", f"rng_seed = {rng_seed}"))
            runs[name] = run_pipeline(cfg, seed=seed)
        assert runs["override"]["overrides"]["seed"] == 3
        digests = {name: {k: v["sha256"] for k, v in run["artifacts"].items()}
                   for name, run in runs.items()}
        assert digests["override"] == digests["config"]
        unseeded = write_run_config(tmp_path / "unseeded.cfg",
                                    tmp_path / "unseeded")
        unseeded.write_text(unseeded.read_text().replace("noise_sigma = 0.0",
                                                         noisy))
        run_pipeline(unseeded)
        assert ((tmp_path / "unseeded" / "compressed.tgs").read_bytes()
                != (tmp_path / "override" / "compressed.tgs").read_bytes())

    def test_seed_with_an_input_stack_is_a_config_error(self, tmp_path):
        # a measured stack has no scene whose noise a seed could pick
        raw = tmp_path / "raw.tgs"
        simulate_raw(write_run_config(tmp_path / "sim.cfg", tmp_path / "sim"),
                     raw)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 31\n\n"
                       f"[input]\nstack = {raw}\n\n"
                       f"[output]\ndirectory = {out}\n")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg, seed=5)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidConfig)
        assert "seed" in str(info.value)
        assert not out.exists()

    @pytest.mark.parametrize("seed", [3.7, True], ids=["float", "bool"])
    def test_seed_that_is_no_integer_stops_at_config(self, tmp_path, seed):
        # 3.7 ran as rng_seed 3 under a manifest that recorded 3.7, and
        # True ran as 1
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg, seed=seed)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidConfig)
        assert not out.exists()

    def test_numpy_integer_seed_is_recorded_as_an_int(self, tmp_path):
        # numpy.int64(3) left a truncated manifest.json at stage output
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        manifests = []
        for seed in (np.int64(3), 3):
            manifest = run_pipeline(cfg, seed=seed)
            assert type(manifest["overrides"]["seed"]) is int
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["overrides"]["seed"] == 3

    def test_unencodable_manifest_leaves_no_manifest(self, tmp_path):
        # json.dump wrote into the open file as it encoded
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        with pytest.raises(PipelineStageError) as info:
            execute(dataclasses.replace(plan(cfg),
                                        overrides={"seed": object()}))
        assert info.value.stage == "output"
        assert isinstance(info.value.cause, TypeError)
        assert (out / "compressed.tgs").is_file()
        assert not (out / "manifest.json").exists()

    def test_out_dir_may_be_a_path(self, tmp_path):
        # a Path failed the manifest's JSON encoding at the last stage
        manifest = run_pipeline(write_run_config(tmp_path / "run.cfg", "out"),
                                out_dir=tmp_path / "out")
        assert manifest["overrides"]["out_dir"] == str(tmp_path / "out")
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())[
            "overrides"] == {"out_dir": str(tmp_path / "out"), "seed": None}

    def test_determinism(self, tmp_path):
        cfg_a = write_run_config(tmp_path / "a.cfg", tmp_path / "out_a")
        cfg_b = write_run_config(tmp_path / "b.cfg", tmp_path / "out_b")
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        manifest_a = json.loads((tmp_path / "out_a" / "manifest.json").read_text())
        manifest_b = json.loads((tmp_path / "out_b" / "manifest.json").read_text())
        a_hashes = {k: v["sha256"] for k, v in manifest_a["artifacts"].items()}
        b_hashes = {k: v["sha256"] for k, v in manifest_b["artifacts"].items()}
        assert a_hashes == b_hashes

    def test_manifest_independent_of_blas_threads(self, tmp_path):
        # 1524 frames: OpenBLAS's q^T a summed this fit's projection in
        # another order at 2 threads than at 1, so fit_map.csv differed
        text = write_run_config(tmp_path / "run.cfg", "out", fps="3.0",
                                output_extra="intermediates = dc_removed"
                                ).read_text()
        text = (text.replace("n_bit = 31", "n_bit = 127")
                .replace("n_per = 2", "n_per = 4")
                .replace("noise_sigma = 0.0", "noise_sigma = 0.05"))
        src = str(Path(pnpuct.__file__).resolve().parents[1])
        manifests = []
        for threads in ("1", "2"):
            work = tmp_path / f"threads{threads}"
            work.mkdir()
            (work / "run.cfg").write_text(text)
            # the variable is read when the library loads
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=src)
            subprocess.run([sys.executable, "-c",
                            "import pnpuct; pnpuct.run_pipeline('run.cfg')"],
                           cwd=work, env=env, check=True)
            manifests.append((work / "out" / "manifest.json").read_bytes())
        assert "fit_map" in json.loads(manifests[0])["artifacts"]
        assert manifests[0] == manifests[1]

    def test_timing_mismatch_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "bad.cfg", out, t_bit="0.3333333")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert not out.exists()

    @pytest.mark.parametrize("time", ["31.0", "-1.0"])
    def test_slice_outside_period_rejected(self, tmp_path, time):
        # 62 compressed frames at 2 fps: frame round(t * 2) must be 0..61
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out")
        cfg.write_text(cfg.read_text().replace("slices = 3.0",
                                               f"slices = {time}"))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "report"
        assert isinstance(info.value.cause, IndexOutOfRange)
        assert not (tmp_path / "out" / f"slice_t{time}.pgm").exists()

    def test_compressed_output_shape_matches_paper_protocol(self, tmp_path):
        # 31-bit code, 1 s bits, 40 fps, 2 periods on a small sound scene
        cfg = (tmp_path / "run.cfg")
        cfg.write_text(f"""
[code]
kind = ls
n_bit = 31

[timing]
t_bit = 1.0
fps = 40
n_per = 2

[scene]
nx = 2
ny = 2
noise_sigma = 0.0
rng_seed = 1

[background]
diffusivity = 1e-6

[output]
directory = {tmp_path / "out"}
""")
        run_pipeline(cfg)
        compressed = read_stack(tmp_path / "out" / "compressed.tgs")
        assert compressed.n_frames == 1240
        trace = compressed.pixel_trace(0, 0)
        k = 40
        # heats while the virtual pulse is on, then cools monotonically
        assert trace[:k].argmax() == k - 1
        cooling = np.diff(trace[k:])
        assert np.all(cooling <= 1e-6 * trace.max())

    def test_decimated_variant(self, tmp_path):
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out",
                               extra="decimate = true")
        run_pipeline(cfg)
        compressed = read_stack(tmp_path / "out" / "compressed.tgs")
        assert compressed.n_frames == 31
        assert (tmp_path / "out" / "decimated_stack.tgs").exists()

    def test_decimated_input_stack_equals_the_simulated_run(self, tmp_path):
        # the mapped [input] stack is decimated as the one in memory is
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "sim",
                               extra="decimate = true")
        run_pipeline(cfg)
        raw = tmp_path / "raw.tgs"
        (tmp_path / "sim" / "raw_stack.tgs").rename(raw)
        text = cfg.read_text().replace(
            f"directory = {tmp_path / 'sim'}", f"directory = {tmp_path / 'in'}")
        text = text[:text.index("[scene]")] + text[text.index("[output]"):]
        cfg.write_text(text + f"\n[input]\nstack = {raw}\n")
        run_pipeline(cfg)
        for name in ("decimated_stack.tgs", "compressed.tgs", "fit_map.csv"):
            assert ((tmp_path / "in" / name).read_bytes()
                    == (tmp_path / "sim" / name).read_bytes())

    def test_decimated_run_exports_the_bit_rate_filter(self, tmp_path):
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out",
                               extra="decimate = true")
        run_pipeline(cfg)
        # compression of the decimated stack runs one tap per bit
        code = modify_for_perfect_pacf(generate_ls(31))
        expected = tmp_path / "expected.csv"
        filter_to_csv(build_matched_filter(code), 1, expected)
        exported = (tmp_path / "out" / "matched_filter.csv").read_bytes()
        assert exported == expected.read_bytes()
        assert len(exported.splitlines()) == 1 + 31

    @pytest.mark.parametrize("artifact, stage, extra, output_extra", [
        ("excitation_code.txt", "codes", "", ""),
        ("bipolar.csv", "waveform", "", ""),
        ("matched_filter.csv", "waveform", "", ""),
        ("raw_stack.tgs", "simulate", "", "intermediates = dc_removed"),
        ("decimated_stack.tgs", "decimate", "decimate = true", ""),
        ("fit_map.csv", "compress", "", ""),
        ("compressed.tgs", "compress", "", ""),
        ("dc_removed.tgs", "dc_removal", "", "intermediates = dc_removed"),
        ("pixel_3_2.csv", "report", "", ""),
        ("manifest.json", "output", "", ""),
    ])
    def test_failed_write_stops_the_run_at_its_stage(
            self, tmp_path, artifact, stage, extra, output_extra):
        out = tmp_path / "out"
        (out / artifact).mkdir(parents=True)
        cfg = write_run_config(tmp_path / "run.cfg", out, extra=extra,
                               output_extra=output_extra)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == stage
        assert isinstance(info.value.cause, OSError)
        assert not (out / "manifest.json").is_file()

    def test_failed_rerun_leaves_no_stale_manifest(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(write_run_config(tmp_path / "run.cfg", out))
        assert (out / "manifest.json").is_file()
        cfg = write_run_config(tmp_path / "bad.cfg", out)
        cfg.write_text(cfg.read_text().replace("slices = 3.0", "slices = 99"))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "report"
        assert not (out / "manifest.json").exists()
        # the artifacts the failed run rewrote are still there
        assert (out / "compressed.tgs").is_file()

    def test_output_directory_that_is_a_file(self, tmp_path):
        out = tmp_path / "out"
        out.write_text("")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(write_run_config(tmp_path / "run.cfg", out))
        assert info.value.stage == "output"
        assert out.read_text() == ""

    def test_boolean_word_forms(self, tmp_path):
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out",
                               extra="decimate = on\ndecimate_average = On")
        run_pipeline(cfg)
        decimated = read_stack(tmp_path / "out" / "decimated_stack.tgs")
        assert decimated.metadata["decimated"] == "mean"

    @pytest.mark.parametrize("key",
                             ["single_period", "decimate", "decimate_average"])
    def test_boolean_typo_rejected(self, tmp_path, key):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out,
                               extra=f"{key} = ture")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert not out.exists()

    @pytest.mark.parametrize("section, key, value", [
        ("output", "pixels", "0x0, 1x"),
        ("output", "pixels", "3"),
        ("output", "slices", "3.0, abc"),
        # no finite time: these passed config and stopped the run at
        # report, cannot convert float infinity to integer
        ("output", "slices", "3.0, inf"),
        ("output", "slices", "nan"),
        ("output", "slices", "1e400"),
        # finite, but its frame 1e308 * fps is not: this passed config,
        # wrote seven artifacts and stopped the run at report
        ("output", "slices", "1e308"),
        ("excitation", "amplitude", "one"),
        # a '%' raised InterpolationSyntaxError
        ("excitation", "amplitude", "1%"),
        ("compression", "normalization", "per_bit"),
        ("compression", "single_period", "ture"),
        ("compression", "decimate", "2"),
        ("compression", "decimate_average", "maybe"),
    ])
    def test_unparsable_value_names_its_key_before_any_write(
            self, tmp_path, section, key, value):
        # pixels and slices used to fail at report, after compressed.tgs
        # and fit_map.csv were written, with a bare ValueError
        out = tmp_path / "out"
        text = write_run_config(tmp_path / "run.cfg", out).read_text()
        text = re.sub(rf"(?m)^{key} = .*$", "", text).replace(
            f"[{section}]", f"[{section}]\n{key} = {value}")
        (tmp_path / "run.cfg").write_text(text)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(tmp_path / "run.cfg")
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidConfig)
        assert f"[{section}] {key} = {value!r}" in str(info.value.cause)
        assert not out.exists()

    def test_modified_kind_of_the_other_family_stops_at_config(self,
                                                                tmp_path):
        # an LS+ code under an MLS excitation, recorded as ls_plus, was run
        # as MLS+; it stopped the run at stage codes, after stage output
        # had made the directory
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        cfg.write_text(cfg.read_text().replace(
            "kind = ls\nn_bit = 31", "kind = mls\norder = 5"))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidCode)
        assert re.search("'mls'.*'ls_plus'", str(info.value.cause))
        assert not out.exists()

    def test_missing_code_section_is_a_config_error(self, tmp_path):
        # it stopped the run at stage codes with a bare KeyError: 'code'
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        cfg.write_text(cfg.read_text().replace("[code]", "[codes]"))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidConfig)
        assert "[code]" in str(info.value.cause)
        assert not out.exists()

    def test_config_without_code_section_is_a_config_error(self, tmp_path):
        # every [code] key has a default but n_bit or order
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        cfg.write_text(cfg.read_text().replace(
            "[code]\nkind = ls\nn_bit = 31\nmodified = ls_plus\n", ""))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert str(info.value.cause) == "run config has no [code] section"
        assert not out.exists()

    def test_decimate_average_needs_decimate(self, tmp_path, capsys):
        # alone it would compress at full rate under a manifest that
        # records decimate_average = true
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out,
                               extra="decimate_average = true")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidConfig)
        assert re.search(r"decimate_average.*\bdecimate = true",
                         str(info.value.cause))
        assert not out.exists()
        capsys.readouterr()
        assert main(["pipeline", "run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: [config]")
        assert not out.exists()

    @pytest.mark.parametrize("old, new, named", [
        # each ran as the plain config, and its manifest recorded the key
        ("n_bit = 31", "n_bit = 31\nseed = 1,-1,1,1,1", "[code] seed"),
        ("n_bit = 31", "n_bit = 31\nsead = 3", "[code] sead"),
        ("n_per = 2", "n_per = 2\nn_pre = 3", "[timing] n_pre"),
        ("[output]", "[outptu]", "[outptu]"),
        ("depth = 0.001", "depht = 0.001", "[defect.one] depht"),
        ("[background]", "[ground]", "[ground]"),
        ("[defect.one]", "[defect]", "[defect]"),
    ], ids=["code-seed", "code-sead", "timing-n_pre", "outptu", "depht",
            "ground", "defect"])
    def test_unknown_section_or_key_stops_at_config(self, tmp_path, old, new,
                                                    named):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        assert old in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(old, new, 1))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg, out_dir=out)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidConfig)
        assert str(info.value.cause).startswith(named)
        assert not out.exists()

    @pytest.mark.parametrize("old, new, error", [
        # a bare OverflowError at stage waveform
        ("n_per = 2", "n_per = 1e308", InvalidConfig),
        # a bare ValueError at stage simulate; the scene's grid is
        # bounded where it is made (SceneConfig)
        ("ny = 3", "ny = 10000000000000000000000", InvalidScene),
        ("nx = 4", "nx = 4294967296", InvalidScene),
        # 104 GiB and 52 GiB asked at stage waveform
        ("n_per = 2", "n_per = 1e9", InvalidConfig),
        ("fps = 2.0", "fps = 1e9", InvalidConfig),
        # 2^40 - 1 bits: the code alone is too long
        ("kind = ls\nn_bit = 31\nmodified = ls_plus",
         "kind = mls\norder = 40\ntaps = " + ",".join(["1"] + ["0"] * 39),
         InvalidConfig),
    ], ids=["n_per-1e308", "ny-1e22", "nx-2^32", "n_per-1e9", "fps-1e9",
            "order-40"])
    def test_run_beyond_tgs1_stops_at_config(self, tmp_path, monkeypatch,
                                             old, new, error):
        # the size is checked before any code or array is made
        def never(*args):
            raise AssertionError("the waveform was built")
        monkeypatch.setattr(pnpuct.pipeline, "build_bipolar", never)
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        assert old in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(old, new, 1))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, error)
        assert "2^32 - 1" in str(info.value.cause)
        assert not out.exists()

    def test_input_run_beyond_tgs1_stops_at_config(self, tmp_path):
        # the stack fills t_bit and fps, the config's n_per overrides its
        raw = tmp_path / "raw.tgs"
        simulate_raw(write_run_config(tmp_path / "sim.cfg", tmp_path / "sim"),
                     raw)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 31\n\n"
                       f"[timing]\nn_per = 1e308\n\n"
                       f"[input]\nstack = {raw}\n")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg, out_dir=out)
        assert info.value.stage == "config"
        assert "n_per * K * N" in str(info.value.cause)
        assert not out.exists()

    @pytest.mark.parametrize("old, new, stage, error", [
        # each stopped the run at the stage named here in parentheses,
        # after stage output had made the directory: [code] (codes),
        # the scene (simulate)
        ("n_bit = 31", "n_bit = thirty", "config", InvalidConfig),
        ("nx = 4", "nx = four", "config", InvalidScene),
    ])
    def test_size_check_leaves_a_value_to_its_stage(self, tmp_path, old, new,
                                                    stage, error):
        # a value is parsed before the size check reads it
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        cfg.write_text(cfg.read_text().replace(old, new, 1))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == stage
        assert isinstance(info.value.cause, error)
        assert not out.exists()

    @pytest.mark.parametrize("old, new, stage, error", [
        # an overflow in respond's FFT product
        ("amplitude = 1.0", "amplitude = 1e308", "waveform",
         NonPositiveAmplitude),
        # an overflow in the image series' tail bound
        ("diffusivity = 1e-6", "diffusivity = 1e308", "config",
         InvalidScene),
        # an invalid value in the antiderivative
        ("amplitude_scale = 1.0", "amplitude_scale = 1e308", "config",
         InvalidScene),
    ], ids=["amplitude", "diffusivity", "amplitude_scale"])
    def test_physical_input_beyond_its_bound(self, tmp_path, old, new, stage,
                                             error):
        # each passed its check, finite and positive, and the math
        # overflowed; the bound is float32's largest value (README)
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out")
        cfg.write_text(cfg.read_text().replace(old, new, 1))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == stage
        assert isinstance(info.value.cause, error)
        assert "at most 3.4028235e+38" in str(info.value.cause)
        assert not (tmp_path / "out" / "manifest.json").exists()
        # a value checked at config leaves no directory behind
        assert (tmp_path / "out").exists() == (stage != "config")

    def test_mls_route(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"""
[code]
kind = mls
order = 4

[timing]
t_bit = 1.0
fps = 2

[scene]
nx = 2
ny = 1
noise_sigma = 0
rng_seed = 0

[background]
diffusivity = 1e-6

[output]
directory = {tmp_path / "out"}
""")
        run_pipeline(cfg)
        code = load_code(tmp_path / "out" / "modified_code.txt")
        assert code.kind.value == "MLS_PLUS"
        assert code.n_bit == 15


    @pytest.mark.parametrize("text", [
        "kind = ls\n", "[code]\nkind = ls\nkind = mls\n",
    ], ids=["no-section-header", "duplicate-key"])
    def test_malformed_config_is_a_config_error(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg, out_dir=tmp_path / "out")
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidConfig)
        assert not (tmp_path / "out").exists()

    def test_missing_scene_section_named(self, tmp_path):
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out")
        cfg.write_text(cfg.read_text().replace(
            "[background]\ndiffusivity = 1e-6\namplitude_scale = 1.0\n", ""))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg, out_dir=tmp_path / "out")
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidScene)
        assert "[background]" in str(info.value)
        assert not (tmp_path / "out").exists()

    def test_negative_rng_seed_is_a_scene_error(self, tmp_path):
        # it stopped the run at stage simulate, after the code
        # descriptors and waveform CSVs were written
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out)
        cfg.write_text(cfg.read_text().replace("rng_seed = 7",
                                               "rng_seed = -3"))
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, InvalidScene)
        assert "rng_seed must be a non-negative integer" in str(info.value)
        assert not out.exists()

    def test_non_finite_input_stack(self, tmp_path):
        raw = tmp_path / "raw.tgs"
        simulate_raw(write_run_config(tmp_path / "sim.cfg", tmp_path / "sim"),
                     raw)
        blob = bytearray(raw.read_bytes())
        blob[-4:] = np.float32(np.nan).tobytes()
        raw.write_bytes(bytes(blob))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 31\n\n"
                       f"[input]\nstack = {raw}\n")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg, out_dir=tmp_path / "out")
        assert info.value.stage == "simulate"
        assert isinstance(info.value.cause, NonFiniteData)
        assert not (tmp_path / "out").exists()
        assert main(["pipeline", "run", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("change", ["rewritten", "appended"])
    def test_input_changed_during_the_run(self, tmp_path, monkeypatch,
                                          change):
        raw = tmp_path / "raw.tgs"
        sim = write_run_config(tmp_path / "sim.cfg", tmp_path / "sim")
        sim.write_text(sim.read_text().replace("nx = 4\nny = 3",
                                               "nx = 20\nny = 15"))
        simulate_raw(sim, raw)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 31\n\n"
                       f"[input]\nstack = {raw}\n\n"
                       f"[output]\ndirectory = {out}\n")
        # 300 px in bands of one block, and the file changes between them
        monkeypatch.setattr(pnpuct.stack, "_BAND_BYTES", 1)
        bands = ThermogramStack.bands

        def changing(stack, width):
            for i, band in enumerate(bands(stack, width)):
                if i == 1:
                    touch_file(raw, change)
                yield band
        monkeypatch.setattr(ThermogramStack, "bands", changing)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "output"
        assert isinstance(info.value.cause, StackChanged)
        assert str(raw) in str(info.value)
        assert (out / "compressed.tgs").is_file()
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("change", ["rewritten", "appended"])
    def test_raw_stack_changed_during_the_run(self, tmp_path, monkeypatch,
                                              change):
        # a simulated stack that is written is read back through its
        # mapping as an [input] stack is, and checked the same way
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out,
                               output_extra="intermediates = dc_removed")
        cfg.write_text(cfg.read_text().replace("nx = 4\nny = 3",
                                               "nx = 20\nny = 15"))
        monkeypatch.setattr(pnpuct.stack, "_BAND_BYTES", 1)
        bands = ThermogramStack.bands

        def changing(stack, width):
            for i, band in enumerate(bands(stack, width)):
                if i == 1:
                    touch_file(out / "raw_stack.tgs", change)
                yield band
        monkeypatch.setattr(ThermogramStack, "bands", changing)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "output"
        assert isinstance(info.value.cause, StackChanged)
        assert "raw_stack.tgs" in str(info.value)
        assert not (out / "manifest.json").exists()

    def test_raw_stack_changed_right_after_its_hash_pass(self, tmp_path,
                                                         monkeypatch):
        # the size and mtime checked at the end of the run are those
        # from before the hash pass, so the manifest's raw_stack digest
        # is never that of another file
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "run.cfg", out,
                               output_extra="intermediates = dc_removed")
        opened = pnpuct.thermal.open_stack

        def changing(path, digest=None):
            stack = opened(path, digest)
            touch_file(path, "rewritten")
            return stack
        monkeypatch.setattr(pnpuct.thermal, "open_stack", changing)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "output"
        assert isinstance(info.value.cause, StackChanged)
        assert "raw_stack.tgs" in str(info.value)
        assert not (out / "manifest.json").exists()

    def test_full_disk_stops_the_run_at_simulate(self, tmp_path,
                                                 monkeypatch, capsys):
        out = tmp_path / "out"
        # a run that writes raw_stack.tgs
        cfg = write_run_config(tmp_path / "run.cfg", out,
                               output_extra="intermediates = dc_removed")
        run_pipeline(cfg)

        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        monkeypatch.setattr(os, "posix_fallocate", full, raising=False)
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "simulate"
        assert info.value.cause.errno == errno.ENOSPC
        # the rerun removed the manifest of the first run
        assert not (out / "manifest.json").exists()
        capsys.readouterr()
        assert main(["pipeline", "run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: [simulate]")
        code_std = str(tmp_path / "std.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", code_std])
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE_SECTIONS)
        capsys.readouterr()
        assert main(["sim", "run", "--scene", str(scene), "--code", code_std,
                     "--t-bit", "1", "--fps", "2",
                     "-o", str(tmp_path / "raw.tgs")]) == 2
        assert "No space left on device" in capsys.readouterr().err

    def test_simulated_run_peak_stays_below_the_stack(self, tmp_path):
        # 64 x 64 px, LS31 at K = 40, n_per = 2: a 40.6 MB raw stack. It
        # is compressed as it is simulated, a band at a time, so the peak
        # is that of compressing a mapped stack: the 20.3 MB period, a
        # 10.2 MB band and a 5.1 MB block (36.0 MB, 0.89 of the stack).
        # Holding the simulated stack in memory took 46.2 MB (1.14)
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out",
                               fps="40.0")
        cfg.write_text(cfg.read_text().replace("nx = 4\nny = 3",
                                               "nx = 64\nny = 64"))
        tracemalloc.start()
        try:
            run_pipeline(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        raw_bytes = 4 * 64 * 64 * 2480
        assert not (tmp_path / "out" / "raw_stack.tgs").exists()
        assert peak < 0.9 * raw_bytes

    @pytest.mark.parametrize("artifact, stage, compression", [
        # K = 1: the decimated stack is the mapped input itself
        ("decimated_stack.tgs", "decimate", "decimate = true"),
        ("compressed.tgs", "compress", ""),
        ("manifest.json", "output", ""),
    ])
    def test_run_never_writes_over_its_input(self, tmp_path, artifact, stage,
                                             compression):
        out = tmp_path / "out"
        out.mkdir()
        stack = out / artifact
        simulate_raw(write_run_config(tmp_path / "sim.cfg", tmp_path / "sim",
                                      fps="1.0"), stack)
        digest = file_sha256(stack)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 31\n\n"
                       f"[input]\nstack = {stack}\n\n"
                       f"[compression]\n{compression}\n\n"
                       f"[output]\ndirectory = {out}\n")
        # in a child process: a write over the mapped input would kill it
        # with SIGBUS
        src = str(Path(pnpuct.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "pnpuct.cli", "pipeline", "run",
             "--config", str(cfg)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"error: [{stage}] {stack}: ")
        assert "being read" in result.stderr
        assert file_sha256(stack) == digest

    @pytest.mark.parametrize("damage, error", [
        ("magic", BadMagic), ("truncated", TruncatedFile),
        ("missing", FileNotFoundError)])
    def test_bad_input_header_stops_at_config(self, tmp_path, damage, error):
        # the input was opened at stage simulate
        raw = tmp_path / "raw.tgs"
        simulate_raw(write_run_config(tmp_path / "sim.cfg", tmp_path / "sim"),
                     raw)
        if damage == "magic":
            raw.write_bytes(b"TGS2" + raw.read_bytes()[4:])
        elif damage == "truncated":
            raw.write_bytes(raw.read_bytes()[:-4])
        else:
            raw.unlink()
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 31\n\n"
                       f"[input]\nstack = {raw}\n\n"
                       f"[output]\ndirectory = {out}\n")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, error)
        assert not out.exists()

    def test_input_changed_after_it_was_planned(self, tmp_path):
        # the plan's timing came from the header of the file as it was
        raw = tmp_path / "raw.tgs"
        simulate_raw(write_run_config(tmp_path / "sim.cfg", tmp_path / "sim"),
                     raw)
        out = tmp_path / "out"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 31\n\n"
                       f"[input]\nstack = {raw}\n\n"
                       f"[output]\ndirectory = {out}\n")
        planned = plan(cfg)
        assert planned.input.file.size == raw.stat().st_size
        touch_file(raw, "rewritten")
        with pytest.raises(PipelineStageError) as info:
            execute(planned)
        assert info.value.stage == "simulate"
        assert isinstance(info.value.cause, StackChanged)
        assert not out.exists()
        # planned again, it runs
        execute(plan(cfg))
        assert (out / "manifest.json").is_file()

    def test_input_stack_without_timing_metadata(self, tmp_path):
        # neither [timing] nor the stack's metadata gives t_bit
        stack = tmp_path / "bare.tgs"
        write_stack(ThermogramStack(data=np.ones((28, 1, 1), np.float32),
                                    fps=2.0), stack)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 7\n\n"
                       f"[input]\nstack = {stack}\n")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg, out_dir=tmp_path / "out")
        assert info.value.stage == "config"
        assert isinstance(info.value.cause, TimingMismatch)
        assert not (tmp_path / "out").exists()


# An LS7 run config small enough to plan in a millisecond, by section
PLAN_BASE = {
    "code": {"kind": "ls", "n_bit": "7", "modified": "ls_plus"},
    "timing": {"t_bit": "1", "fps": "2", "n_per": "2"},
    "excitation": {"amplitude": "1.0"},
    "compression": {"normalization": "per_length", "single_period": "false",
                    "decimate": "false"},
    "scene": {"nx": "4", "ny": "4", "noise_sigma": "0.1", "rng_seed": "7"},
    "background": {"diffusivity": "1e-6", "amplitude_scale": "1.0"},
    "defect.one": {"x0": "0", "y0": "0", "width": "1", "height": "1",
                   "depth": "0.001", "reflection": "0.9"},
    "output": {"slices": "1.0", "pixels": "0x0"},
}
PLAN_KEYS = [(name, key) for name, keys in PLAN_BASE.items() for key in keys]
# Text that parses to no value, to one out of range or to a valid one;
# none spells a size large enough to be slow to plan
BAD_TOKENS = ["", " ", "-3", "-1", "0", "1", "1.5", "nan", "inf", "-inf",
              "1e308", "-1e308", "1e-320", "1e400", "1e9", "thirty", "4%",
              "true", "mls", "ls4_plus", "mls_plus", "0x10", "1,2", "9x9"]


class TestPlan:
    @settings(max_examples=200, deadline=None)
    @given(fps=st.integers(1, 4), nx=st.integers(1, 4), ny=st.integers(1, 4),
           bad=st.lists(st.tuples(st.sampled_from(PLAN_KEYS),
                                  st.sampled_from(BAD_TOKENS)), max_size=2))
    # values that a stage after config refused, after writing artifacts
    @example(fps=2, nx=4, ny=4, bad=[(("scene", "rng_seed"), "-3")])
    @example(fps=2, nx=4, ny=4, bad=[(("code", "n_bit"), "thirty"),
                                     (("code", "kind"), "mls")])
    @example(fps=1, nx=1, ny=1, bad=[(("background", "diffusivity"),
                                      "1e-320")])
    def test_a_plan_is_made_or_stops_at_config(self, tmp_path_factory, fps,
                                               nx, ny, bad):
        # a run config with up to two values replaced: plan returns, or
        # raises a typed error at stage config, and writes nothing
        sections = {name: dict(keys) for name, keys in PLAN_BASE.items()}
        sections["timing"]["fps"] = str(fps)
        sections["scene"].update(nx=str(nx), ny=str(ny))
        for (name, key), token in bad:
            sections[name][key] = token
        work = tmp_path_factory.mktemp("plan")
        out = work / "out"
        sections["output"]["directory"] = str(out)
        (work / "run.cfg").write_text("".join(
            f"[{name}]\n" + "".join(f"{key} = {value}\n"
                                    for key, value in keys.items()) + "\n"
            for name, keys in sections.items()))
        try:
            planned = plan(work / "run.cfg")
        except PipelineStageError as exc:
            assert exc.stage == "config"
            assert isinstance(exc.cause, PnPuctError), repr(exc.cause)
        else:
            assert isinstance(planned, Plan)
            assert planned.scene.nx == int(sections["scene"]["nx"])
        assert os.listdir(work) == ["run.cfg"]


class TestCli:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "pnpuct" in out and "TGS1" in out

    def test_seq_gen_and_verify(self, tmp_path, capsys):
        code_path = str(tmp_path / "code.txt")
        assert main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "31",
                     "-o", code_path]) == 0
        code = load_code(code_path)
        assert code.kind.value == "LS_PLUS"
        assert main(["seq", "verify", code_path]) == 0
        out = capsys.readouterr().out
        assert "ok" in out

    def test_seq_verify_standard_law(self, tmp_path):
        code_path = str(tmp_path / "std.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "31", "-o", code_path])
        assert main(["seq", "verify", code_path]) == 0

    @pytest.mark.parametrize("flags, lines", [
        ("--kind ls --n-bit 31", [
            "kind=LS n_bit=31",
            "pacf_peak=30.0 gain=30.0 rel_err=0.000e+00",
            "max_sidelobe=1.0000000000000016 rel=3.333e-02"]),
        ("--kind ls-plus --n-bit 31", [
            "kind=LS_PLUS n_bit=31",
            "pacf_peak=30.999999999999996 gain=31.0 rel_err=1.146e-16",
            "max_sidelobe=3.896524679974743e-15 rel=1.257e-16"]),
        ("--kind mls --order 5", [
            "kind=MLS n_bit=31",
            "pacf_peak=31.0 gain=31.0 rel_err=0.000e+00",
            "max_sidelobe=1.0000000000000024 rel=3.226e-02"]),
        ("--kind mls-plus --order 7", [
            "kind=MLS_PLUS n_bit=127",
            "pacf_peak=128.00000000000003 gain=128.0 rel_err=2.220e-16",
            "max_sidelobe=1.471696810487866e-14 rel=1.150e-16"]),
        ("--kind ls4-plus --n-bit 11", [
            "kind=LS_4PLUS n_bit=11",
            "pacf_peak=12.0 gain=12.0 rel_err=0.000e+00",
            "max_sidelobe=1.0248532933113163e-15 rel=8.540e-17"]),
    ], ids=["LS31", "LS31+", "MLS31", "MLS127+", "LS4+11"])
    def test_seq_verify_output(self, tmp_path, capsys, flags, lines):
        code_path = str(tmp_path / "code.txt")
        assert main(["seq", "gen", *flags.split(), "-o", code_path]) == 0
        capsys.readouterr()
        assert main(["seq", "verify", code_path]) == 0
        assert capsys.readouterr().out == "\n".join([*lines, "ok", ""])

    def test_seq_verify_fails_a_standard_ls_off_the_residues(self, tmp_path,
                                                             capsys):
        # three +1 and three -1 after the zero pass PnCode's LS checks,
        # but 1, 2 and 3 are not the quadratic residues 1, 2 and 4 mod 7
        code_path = tmp_path / "ls7.txt"
        code_path.write_text(
            "pncode v1\nkind: LS\nn_bit: 7\nbias: 0.0\ngain: 6.0\n"
            "values: 0.0 1.0 1.0 1.0 -1.0 -1.0 -1.0\n", encoding="utf-8")
        assert main(["seq", "verify", str(code_path)]) == 1
        assert capsys.readouterr().out == (
            "kind=LS n_bit=7\n"
            "pacf_peak=6.0 gain=6.0 rel_err=0.000e+00\n"
            "max_sidelobe=5.0 rel=8.333e-01\n"
            "FAILED\n")

    def test_seq_verify_forged_gain_exits_2(self, tmp_path, capsys):
        code_path = tmp_path / "code.txt"
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "31",
              "-o", str(code_path)])
        text = code_path.read_text(encoding="utf-8")
        code_path.write_text(text.replace("gain: 31.0", "gain: 32.0"),
                             encoding="utf-8")
        assert main(["seq", "verify", str(code_path)]) == 2
        assert "its PACF peak is 31.0" in capsys.readouterr().err

    def test_seq_gen_ls4(self, tmp_path):
        code_path = str(tmp_path / "ls4.txt")
        assert main(["seq", "gen", "--kind", "ls4-plus", "--n-bit", "11",
                     "--sign", "-1", "-o", code_path]) == 0
        code = load_code(code_path)
        assert code.kind.value == "LS_4PLUS"
        assert code.sign_choice == -1

    def test_seq_gen_error_exit(self, tmp_path, capsys):
        assert main(["seq", "gen", "--kind", "ls", "--n-bit", "9",
                     "-o", str(tmp_path / "x.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wave_gen(self, tmp_path):
        code_path = str(tmp_path / "code.txt")
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "7",
              "-o", code_path])
        out_dir = tmp_path / "waves"
        assert main(["wave", "gen", "--code", code_path, "--t-bit", "0.5",
                     "--fps", "4", "--amplitude", "2.0",
                     "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "bipolar.csv").exists()
        assert (out_dir / "unipolar.csv").exists()
        assert (out_dir / "unipolar_trace.tgs").exists()
        assert (out_dir / "matched_filter.csv").exists()

    def _scene(self, tmp_path):
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE_SECTIONS)
        return str(scene)

    def test_sim_dc_compress_report_chain(self, tmp_path):
        code_std = str(tmp_path / "std.txt")
        code_plus = str(tmp_path / "plus.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "31", "-o", code_std])
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "31",
              "-o", code_plus])
        raw = str(tmp_path / "raw.tgs")
        assert main(["sim", "run", "--scene", self._scene(tmp_path),
                     "--code", code_std, "--t-bit", "1", "--fps", "2",
                     "-o", raw]) == 0
        removed = str(tmp_path / "dc.tgs")
        fits = str(tmp_path / "fits.csv")
        assert main(["dc", "remove", "--stack", raw, "--code", code_plus,
                     "--fit-map", fits, "-o", removed]) == 0
        assert os.path.exists(fits)
        compressed = str(tmp_path / "comp.tgs")
        assert main(["puct", "compress", "--stack", removed,
                     "--code", code_plus, "--normalization", "per_length",
                     "-o", compressed]) == 0
        assert read_stack(compressed).n_frames == 62
        assert main(["report", "slice", "--stack", compressed, "--time", "3",
                     "-o", str(tmp_path / "slice.pgm")]) == 0
        assert main(["report", "pixel", "--stack", compressed,
                     "--x", "0", "--y", "0",
                     "-o", str(tmp_path / "pix.csv")]) == 0
        assert main(["metrics", "snr", "--stack", compressed,
                     "--signal", "0,0,2,2", "--reference", "2,0,2,3"]) == 0

    def test_sim_run_refuses_an_unknown_scene_key(self, tmp_path, capsys):
        # the misspelled depth was ignored and the defect simulated sound
        code_std = str(tmp_path / "std.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", code_std])
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE_SECTIONS.replace("depth = ", "depht = "))
        raw = tmp_path / "raw.tgs"
        capsys.readouterr()
        assert main(["sim", "run", "--scene", str(scene), "--code", code_std,
                     "--t-bit", "1", "--fps", "2", "-o", str(raw)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: [defect.one] depht is not a known key")
        assert not raw.exists()

    @pytest.mark.parametrize("time", ["inf", "-inf", "nan", "1e308"])
    def test_report_slice_at_no_finite_frame_exits_2(self, tmp_path, capsys,
                                                     time):
        # inf raised an uncaught OverflowError, and nan printed "cannot
        # convert float NaN to integer"
        stack = tmp_path / "s.tgs"
        write_stack(ThermogramStack(data=np.zeros((4, 2, 2), np.float32),
                                    fps=2.0), stack)
        capsys.readouterr()
        assert main(["report", "slice", "--stack", str(stack),
                     f"--time={time}", "-o", str(tmp_path / "slice")]) == 2
        assert capsys.readouterr().err.startswith(f"error: time {float(time)!r} s")
        assert not list(tmp_path.glob("slice*"))

    def test_non_utf8_metadata_exits_2(self, tmp_path, capsys):
        code, stack = str(tmp_path / "c.txt"), tmp_path / "latin.tgs"
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "7", "-o", code])
        meta = b"\xff\xfe = 1"
        stack.write_bytes(b"TGS1" + struct.pack("<IIIfI", 1, 1, 2, 1.0,
                                                len(meta))
                          + meta + np.zeros(2, "<f4").tobytes())
        capsys.readouterr()
        assert main(["puct", "compress", "--stack", str(stack), "--code", code,
                     "-o", str(tmp_path / "out.tgs")]) == 2
        assert "latin.tgs: metadata is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out.tgs").exists()

    def test_snr_of_a_zero_frame_stack_exits_2(self, tmp_path, capsys):
        stack = str(tmp_path / "empty.tgs")
        write_stack(ThermogramStack(data=np.empty((0, 4, 4), np.float32),
                                    fps=2.0), stack)
        assert main(["metrics", "snr", "--stack", stack, "--signal",
                     "0,0,2,2", "--reference", "2,0,2,2"]) == 2
        assert "no frames" in capsys.readouterr().err

    @pytest.mark.parametrize("signal, reference", [
        ("0,0,2", "2,0,2,2"), ("0,0,2,2", "2,0,2,2,1")])
    def test_snr_region_of_other_than_four_numbers_exits_2(
            self, tmp_path, capsys, signal, reference):
        stack = str(tmp_path / "s.tgs")
        write_stack(ThermogramStack(data=np.ones((3, 4, 4), np.float32),
                                    fps=2.0), stack)
        assert main(["metrics", "snr", "--stack", stack, "--signal", signal,
                     "--reference", reference]) == 2
        assert capsys.readouterr().err.startswith(
            "error: region must be x0,y0,width,height")

    def test_fit_map_needs_remove_dc(self, tmp_path, capsys):
        code, stack = str(tmp_path / "c.txt"), str(tmp_path / "s.tgs")
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "7", "-o", code])
        write_stack(ThermogramStack(data=np.ones((28, 1, 1), np.float32),
                                    fps=2.0, metadata={"t_bit": "1"}), stack)
        assert main(["puct", "compress", "--stack", stack, "--code", code,
                     "--fit-map", str(tmp_path / "f.csv"),
                     "-o", str(tmp_path / "out.tgs")]) == 2
        assert "--remove-dc" in capsys.readouterr().err
        assert not (tmp_path / "out.tgs").exists()

    def test_slow_frame_rate_round_trip(self, tmp_path):
        # fps = 0.1 is stored as float32; the chain must still find K = 1
        code_std = str(tmp_path / "std.txt")
        code_plus = str(tmp_path / "plus.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", code_std])
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "7",
              "-o", code_plus])
        raw = str(tmp_path / "raw.tgs")
        assert main(["sim", "run", "--scene", self._scene(tmp_path),
                     "--code", code_std, "--t-bit", "10", "--fps", "0.1",
                     "-o", raw]) == 0
        removed = str(tmp_path / "dc.tgs")
        assert main(["dc", "remove", "--stack", raw, "--code", code_plus,
                     "-o", removed]) == 0
        compressed = str(tmp_path / "comp.tgs")
        assert main(["puct", "compress", "--stack", removed,
                     "--code", code_plus, "-o", compressed]) == 0
        assert read_stack(compressed).n_frames == 7

    @pytest.mark.parametrize("command",
                             ["wave", "sim", "dc", "compress", "decimate"])
    @pytest.mark.parametrize("flag", ["--n-per", "--fps"])
    def test_zero_timing_flag_rejected(self, tmp_path, capsys, command, flag):
        code_std = str(tmp_path / "std.txt")
        code_plus = str(tmp_path / "plus.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", code_std])
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "7",
              "-o", code_plus])
        raw = str(tmp_path / "raw.tgs")
        assert main(["sim", "run", "--scene", self._scene(tmp_path),
                     "--code", code_std, "--t-bit", "1", "--fps", "2",
                     "-o", raw]) == 0
        out = tmp_path / "out"
        timing = ["--t-bit", "1", "--fps", "2", "--n-per", "2"]
        timing[timing.index(flag) + 1] = "0"
        argv = {
            "wave": ["wave", "gen", "--code", code_std, "--out-dir", str(out)],
            "sim": ["sim", "run", "--scene", self._scene(tmp_path),
                    "--code", code_std, "-o", str(out)],
            "dc": ["dc", "remove", "--stack", raw, "--code", code_plus,
                   "-o", str(out)],
            "compress": ["puct", "compress", "--stack", raw,
                         "--code", code_plus, "-o", str(out)],
            "decimate": ["puct", "decimate", "--stack", raw, "-o", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv + timing) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["wave", "sim"])
    def test_missing_t_bit_without_stack(self, tmp_path, capsys, command):
        code_std = str(tmp_path / "std.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", code_std])
        out = tmp_path / "out"
        argv = {
            "wave": ["wave", "gen", "--code", code_std, "--out-dir", str(out)],
            "sim": ["sim", "run", "--scene", self._scene(tmp_path),
                    "--code", code_std, "-o", str(out)],
        }[command]
        capsys.readouterr()
        assert main(argv + ["--fps", "2"]) == 2
        assert "error: t_bit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        SCENE_SECTIONS.replace("[scene]", ""),
        SCENE_SECTIONS.replace("ny = 3", "ny = 3\nny = 4"),
        SCENE_SECTIONS.replace("ny = 3", ""),
        # a '%' raised InterpolationSyntaxError, with a traceback
        SCENE_SECTIONS.replace("nx = 4", "nx = 4%"),
    ], ids=["no-section-header", "duplicate-key", "missing-key", "percent"])
    def test_malformed_scene_exits_2(self, tmp_path, capsys, text):
        code_std = str(tmp_path / "std.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", code_std])
        scene = tmp_path / "scene.cfg"
        scene.write_text(text)
        out = tmp_path / "raw.tgs"
        capsys.readouterr()
        assert main(["sim", "run", "--scene", str(scene), "--code", code_std,
                     "--t-bit", "1", "--fps", "2", "-o", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_decimate_command(self, tmp_path):
        code_std = str(tmp_path / "std.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", code_std])
        raw = str(tmp_path / "raw.tgs")
        main(["sim", "run", "--scene", self._scene(tmp_path),
              "--code", code_std, "--t-bit", "1", "--fps", "4", "-o", raw])
        out = str(tmp_path / "dec.tgs")
        assert main(["puct", "decimate", "--stack", raw, "-o", out]) == 0
        assert read_stack(out).n_frames == 14

    def test_sim_seed_override(self, tmp_path):
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE_SECTIONS.replace("noise_sigma = 0.0",
                                                "noise_sigma = 0.5"))
        code_std = str(tmp_path / "std.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", code_std])
        a, b, c = (str(tmp_path / f"{n}.tgs") for n in "abc")
        base = ["sim", "run", "--scene", str(scene), "--code", code_std,
                "--t-bit", "1", "--fps", "2"]
        main(base + ["--seed", "1", "-o", a])
        main(base + ["--seed", "1", "-o", b])
        main(base + ["--seed", "2", "-o", c])
        assert open(a, "rb").read() == open(b, "rb").read()
        assert open(a, "rb").read() != open(c, "rb").read()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        code_std = str(tmp_path / "std.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", code_std])
        out = tmp_path / "raw.tgs"
        capsys.readouterr()
        assert main(["sim", "run", "--scene", self._scene(tmp_path),
                     "--code", code_std, "--t-bit", "1", "--fps", "2",
                     "--seed", "-3", "-o", str(out)]) == 2
        assert ("error: rng_seed must be a non-negative integer"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_pipeline_run_and_failure_exit(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out")
        assert main(["pipeline", "run", "--config", str(cfg)]) == 0
        bad = write_run_config(tmp_path / "bad.cfg", tmp_path / "out_bad",
                               t_bit="0.3333333")
        assert main(["pipeline", "run", "--config", str(bad)]) == 2
        assert "[config]" in capsys.readouterr().err
        assert not (tmp_path / "out_bad").exists()

    def test_pipeline_seed_with_an_input_stack_exits_2(self, tmp_path,
                                                       capsys):
        raw = tmp_path / "raw.tgs"
        simulate_raw(write_run_config(tmp_path / "sim.cfg", tmp_path / "sim"),
                     raw)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 31\n\n"
                       f"[input]\nstack = {raw}\n\n"
                       f"[output]\ndirectory = {tmp_path / 'out'}\n")
        assert main(["pipeline", "run", "--config", str(cfg),
                     "--seed", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: [config]")
        assert not (tmp_path / "out").exists()

    def test_pipeline_write_failure_exit(self, tmp_path, capsys):
        (tmp_path / "out" / "excitation_code.txt").mkdir(parents=True)
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out")
        assert main(["pipeline", "run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: [codes]")

    def test_compress_input_changed_exit(self, tmp_path, capsys,
                                         monkeypatch):
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE_SECTIONS)
        std, plus = str(tmp_path / "std.txt"), str(tmp_path / "plus.txt")
        raw, out = tmp_path / "raw.tgs", tmp_path / "hhat.tgs"
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", std])
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "7", "-o", plus])
        main(["sim", "run", "--scene", str(scene), "--code", std,
              "--t-bit", "1", "--fps", "2", "-o", str(raw)])
        compress = pnpuct.cli.compress_stack

        def changing(stack, *args, **kwargs):
            touch_file(raw, "rewritten")
            return compress(stack, *args, **kwargs)
        monkeypatch.setattr(pnpuct.cli, "compress_stack", changing)
        assert main(["puct", "compress", "--stack", str(raw), "--code", plus,
                     "--remove-dc", "-o", str(out)]) == 2
        assert "changed after it was opened" in capsys.readouterr().err
        assert not out.exists()

    def _stack_and_code(self, tmp_path):
        std, plus = str(tmp_path / "std.txt"), str(tmp_path / "plus.txt")
        raw = tmp_path / "raw.tgs"
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", std])
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "7", "-o", plus])
        main(["sim", "run", "--scene", self._scene(tmp_path), "--code", std,
              "--t-bit", "1", "--fps", "2", "-o", str(raw)])
        return raw, plus

    @pytest.mark.parametrize("command", STACK_COMMANDS)
    def test_stack_changed_mid_command_exits_2(self, tmp_path, capsys,
                                               monkeypatch, command):
        raw, plus = self._stack_and_code(tmp_path)
        out = tmp_path / "out.tgs"
        opened = pnpuct.cli.open_stack

        def changing(path):
            stack = opened(path)
            touch_file(path, "rewritten")
            return stack
        monkeypatch.setattr(pnpuct.cli, "open_stack", changing)
        capsys.readouterr()
        assert main(STACK_COMMANDS[command](str(raw), plus, str(out))) == 2
        assert "changed after it was opened" in capsys.readouterr().err
        # the commands that write a stack check before they write
        if command in ("dc-remove", "puct-compress", "puct-decimate"):
            assert not out.exists()

    @pytest.mark.parametrize("command, stack_name, flag, output", [
        ("dc-remove", "raw.tgs", "-o", "raw.tgs"),
        ("dc-remove", "raw.tgs", "--fit-map", "raw.tgs"),
        ("puct-compress", "raw.tgs", "-o", "raw.tgs"),
        ("puct-compress", "raw.tgs", "--fit-map", "raw.tgs"),
        ("puct-decimate", "raw.tgs", "-o", "raw.tgs"),
        ("puct-decimate", "raw.tgs", "-o", "link.tgs"),
        # -o s writes s.pgm, s.csv and s.txt
        ("report-slice", "s.csv", "-o", "s"),
        ("report-pixel", "raw.tgs", "-o", "raw.tgs"),
    ], ids=["dc-remove", "dc-remove-fit-map", "puct-compress",
            "puct-compress-fit-map", "puct-decimate", "puct-decimate-link",
            "report-slice", "report-pixel"])
    def test_output_naming_the_stack_exits_2(self, tmp_path, capsys, command,
                                             stack_name, flag, output):
        raw, plus = self._stack_and_code(tmp_path)
        stack = raw.rename(tmp_path / stack_name)
        if output == "link.tgs":
            os.link(stack, tmp_path / output)
        digest = file_sha256(stack)
        out = tmp_path / "out.tgs"
        argv = STACK_COMMANDS[command](str(stack), plus, str(out))
        if flag == "-o":
            argv[argv.index("-o") + 1] = str(tmp_path / output)
        else:
            argv += [flag, str(tmp_path / output)]
        capsys.readouterr()
        assert main(argv) == 2
        assert "being read" in capsys.readouterr().err
        assert file_sha256(stack) == digest
        assert not out.exists()

    def test_cli_missing_file_error(self, tmp_path, capsys):
        assert main(["seq", "verify", str(tmp_path / "missing.txt")]) == 2
        assert "error:" in capsys.readouterr().err



class TestCliMatchesPipeline:
    """The CLI chain and ``pipeline run`` share one timing rule."""

    @pytest.mark.parametrize("source, timing", [
        ("scene", "t_bit = 1\nfps = 2\n"),
        ("input", "t_bit = 1\nfps = 2\n"),  # n_per from the stack
        ("input", None),                    # every value from the stack
    ], ids=["scene", "input-without-n_per", "input-without-timing"])
    def test_same_stacks_and_fit_map(self, tmp_path, source, timing):
        scene = tmp_path / "scene.cfg"
        scene.write_text(SCENE_SECTIONS)
        std, plus = str(tmp_path / "std.txt"), str(tmp_path / "plus.txt")
        main(["seq", "gen", "--kind", "ls", "--n-bit", "7", "-o", std])
        main(["seq", "gen", "--kind", "ls-plus", "--n-bit", "7", "-o", plus])
        raw, dc, fits, hhat, fused, fused_fits = (
            str(tmp_path / name) for name in
            ("raw.tgs", "dc.tgs", "fit.csv", "hhat.tgs", "fused.tgs",
             "fused_fit.csv"))
        n_per = "2" if source == "scene" else "3"
        assert main(["sim", "run", "--scene", str(scene), "--code", std,
                     "--t-bit", "1", "--fps", "2", "--n-per", n_per,
                     "-o", raw]) == 0
        assert main(["dc", "remove", "--stack", raw, "--code", plus,
                     "--fit-map", fits, "-o", dc]) == 0
        assert main(["puct", "compress", "--stack", dc, "--code", plus,
                     "-o", hhat]) == 0
        assert main(["puct", "compress", "--stack", raw, "--code", plus,
                     "--remove-dc", "--fit-map", fused_fits,
                     "-o", fused]) == 0
        sections = (SCENE_SECTIONS if source == "scene"
                    else f"[input]\nstack = {raw}\n")
        if timing is not None:
            sections += f"\n[timing]\n{timing}"
        out = tmp_path / "run"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[code]\nkind = ls\nn_bit = 7\n\n{sections}\n"
                       f"[output]\ndirectory = {out}\n"
                       f"intermediates = dc_removed\n")
        run_pipeline(cfg)
        assert read_stack(out / "compressed.tgs").n_frames == 14
        for ours, theirs in [("dc_removed.tgs", dc), ("compressed.tgs", fused),
                             ("fit_map.csv", fits),
                             ("fit_map.csv", fused_fits)]:
            assert (out / ours).read_bytes() == Path(theirs).read_bytes()
        # the two-step chain rounds the DC-removed stack to float32 first
        ours, theirs = read_stack(out / "compressed.tgs"), read_stack(hhat)
        assert ours.metadata == theirs.metadata
        bound = fusion_bound(load_code(plus), 1.0, theirs.data,
                             read_stack(dc).data)
        assert (np.abs(ours.data.astype(float) - theirs.data).max()
                <= bound)


LS31 = generate_ls(31)
MLS5 = generate_mls(5)
MLS4_TAPS = generate_mls(4, tap_coefficients=(1, 0, 0, 1),
                         seed=(1, -1, 1, 1))


class TestCodeFactory:
    @pytest.mark.parametrize("argv, expected", [
        ("--kind ls --n-bit 31", LS31),
        ("--kind ls-plus --n-bit 31", modify_for_perfect_pacf(LS31)),
        ("--kind ls4-plus --n-bit 31", binarize_ls4(LS31, 1)),
        ("--kind ls4-plus --n-bit 31 --sign 1", binarize_ls4(LS31, 1)),
        ("--kind ls4-plus --n-bit 31 --sign -1", binarize_ls4(LS31, -1)),
        ("--kind ls-plus --n-bit 31 --sign -1", modify_for_perfect_pacf(LS31)),
        ("--kind mls --order 5", MLS5),
        ("--kind mls-plus --order 5", modify_for_perfect_pacf(MLS5)),
        ("--kind mls --order 4 --taps 1,0,0,1 --lfsr-seed 1,-1,1,1", MLS4_TAPS),
        ("--kind mls-plus --order 4 --taps 1,0,0,1 --lfsr-seed 1,-1,1,1",
         modify_for_perfect_pacf(MLS4_TAPS)),
    ])
    def test_seq_gen_matches_generators(self, tmp_path, argv, expected):
        path = tmp_path / "code.txt"
        assert main(["seq", "gen", *argv.split(), "-o", str(path)]) == 0
        assert path.read_text() == code_to_text(expected)

    @pytest.mark.parametrize("argv", [
        "--kind ls4-plus --n-bit 13",
        "--kind ls-plus --n-bit 9",
        "--kind ls",
        "--kind mls-plus",
        "--kind mls --order 4 --taps 1,0,0,0",
    ])
    def test_seq_gen_rejections(self, tmp_path, capsys, argv):
        path = tmp_path / "code.txt"
        assert main(["seq", "gen", *argv.split(), "-o", str(path)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not path.exists()

    @pytest.mark.parametrize("section, excitation, modified", [
        ({"kind": "ls", "n_bit": "31"}, LS31, modify_for_perfect_pacf(LS31)),
        ({"n_bit": "31", "modified": "auto"}, LS31,
         modify_for_perfect_pacf(LS31)),
        ({"kind": "LS", "n_bit": "31", "modified": "ls_plus"}, LS31,
         modify_for_perfect_pacf(LS31)),
        ({"kind": "ls", "n_bit": "31", "modified": "LS_PLUS"}, LS31,
         modify_for_perfect_pacf(LS31)),
        ({"kind": "ls", "n_bit": "31", "modified": "ls4_plus"},
         binarize_ls4(LS31, 1), binarize_ls4(LS31, 1)),
        ({"kind": "ls", "n_bit": "31", "modified": "ls4_plus", "sign": "-1"},
         binarize_ls4(LS31, -1), binarize_ls4(LS31, -1)),
        ({"kind": "mls", "order": "5"}, MLS5, modify_for_perfect_pacf(MLS5)),
        ({"kind": "MLS", "order": "5", "modified": "auto"}, MLS5,
         modify_for_perfect_pacf(MLS5)),
        ({"kind": "mls", "order": "5", "modified": "mls_plus"}, MLS5,
         modify_for_perfect_pacf(MLS5)),
        ({"kind": "mls", "order": "4", "taps": "1,0,0,1",
          "modified": "auto"},
         generate_mls(4, tap_coefficients=(1, 0, 0, 1)),
         modify_for_perfect_pacf(
             generate_mls(4, tap_coefficients=(1, 0, 0, 1)))),
    ])
    def test_config_matches_generators(self, section, excitation, modified):
        got_excitation, got_modified = generate_codes(code_keys(section))
        assert code_to_text(got_excitation) == code_to_text(excitation)
        assert code_to_text(got_modified) == code_to_text(modified)

    @pytest.mark.parametrize("section, error", [
        ({"kind": "mls", "order": "5", "modified": "ls4_plus"},
         NotLs4Compatible),
        ({"kind": "ls", "n_bit": "13", "modified": "ls4_plus"},
         NotLs4Compatible),
        ({"kind": "ls", "n_bit": "33"}, NotPrime),
        ({"kind": "ls_plus", "n_bit": "31"}, ValueError),
        ({"kind": "golay", "n_bit": "32"}, ValueError),
        ({"kind": "ls", "n_bit": "31", "modified": "plus"}, ValueError),
        ({"kind": "ls", "n_bit": "31", "modified": "ls4-plus"}, ValueError),
        # a modified kind of the other code family
        ({"kind": "ls", "n_bit": "31", "modified": "mls_plus"}, InvalidCode),
        ({"kind": "mls", "order": "5", "modified": "ls_plus"}, InvalidCode),
    ])
    def test_config_rejections(self, section, error):
        with pytest.raises(error):
            generate_codes(code_keys(section))


class TestReadmeConfigs:
    """The README's INI examples, with their inline comments, as documented."""

    @pytest.fixture
    def blocks(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        scene, run = re.findall(r"```ini\n(.*?)```", text, flags=re.S)
        (tmp_path / "scene.cfg").write_text(scene, encoding="utf-8")
        (tmp_path / "run.cfg").write_text(run, encoding="utf-8")
        return tmp_path / "scene.cfg", tmp_path / "run.cfg"

    def test_python_block(self):
        (block,) = re.findall(r"```python\n(.*?)```",
                              README.read_text(encoding="utf-8"), flags=re.S)
        names = {}
        exec(compile(block, str(README), "exec"), names)
        # one period of a uniform sound scene: every pixel the same trace
        data = names["compressed"].data
        assert data.shape == (31 * 40, 16, 16)
        assert (data == data[:, :1, :1]).all()
        assert np.isfinite([names[k] for k in ("a1", "a2", "a3", "rms")]).all()

    def test_scene_block(self, blocks):
        scene = load_scene_config(blocks[0])
        assert (scene.nx, scene.ny, scene.noise_sigma, scene.rng_seed) == (
            64, 64, 0.05, 7)
        assert scene.background == PixelModel(diffusivity=1e-6)
        assert scene.defects == ((
            Region(x0=8, y0=8, width=8, height=8),
            PixelModel(diffusivity=1e-6, defect_depth=0.0005,
                       reflection_coeff=0.9)),)

    @staticmethod
    def _keys(path):
        """Section -> keys of an INI block, commented ``; key =`` lines and
        ``; [section]`` headers included; [defect.<name>] is defect.*."""
        keys = {}
        for line in path.read_text(encoding="utf-8").splitlines():
            line = re.sub(r"^;\s*(?=\[|\w+\s*=)", "", line)
            header = re.match(r"\[([\w.]+)\]", line)
            if header:
                name = header[1]
                name = "defect.*" if name.startswith("defect.") else name
                section = keys.setdefault(name, set())
            elif re.match(r"\w+\s*=", line):
                section.add(line.partition("=")[0].strip())
        return keys

    def test_blocks_list_every_key_of_the_tables(self, blocks):
        # [background] depth and reflection were accepted, not listed
        tables = {"scene": SCENE_KEYS, "run": RUN_KEYS}
        for block, name in zip(blocks, tables):
            assert self._keys(block) == {
                section: set(keys) for section, keys in tables[name].items()}

    def test_run_block(self, blocks):
        parser = read_ini(blocks[1])
        assert parser.sections() == ["code", "timing", "excitation",
                                     "compression", "output"]
        assert dict(parser["code"]) == {"kind": "ls", "n_bit": "31",
                                        "modified": "ls_plus"}
        assert dict(parser["timing"]) == {"t_bit": "1.0", "fps": "40",
                                          "n_per": "2"}
        assert parser["compression"]["normalization"] == "per_length"
        assert not any(parser.getboolean("compression", key) for key in (
            "single_period", "decimate", "decimate_average"))
        assert dict(parser["output"]) == {
            "directory": "out", "slices": "0.5, 6.0", "pixels": "8x8, 2x3"}
        # the run block plans with the scene block as its scene
        both = blocks[1].with_name("both.cfg")
        both.write_text(blocks[1].read_text(encoding="utf-8")
                        + blocks[0].read_text(encoding="utf-8"),
                        encoding="utf-8")
        run = plan(both)
        excitation, modified = run.codes
        assert excitation.n_bit == modified.n_bit == 31
        assert modified.is_modified
        assert run.timing.k == 40
        assert run.scene == load_scene_config(blocks[0])
