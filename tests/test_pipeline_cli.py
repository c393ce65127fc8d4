import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from pnpuct import (MlsSpec, NotLs4Compatible, NotPrime, PipelineStageError,
                    PixelModel, Region, binarize_ls4, code_to_text,
                    generate_ls, generate_mls, load_code, load_scene_config,
                    modify_for_perfect_pacf, read_stack, run_pipeline)
from pnpuct.cli import main
from pnpuct.pipeline import _parse_config, generate_codes

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


def write_run_config(path, out_dir, t_bit="1.0", fps="2.0", extra=""):
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
""")
    return path


class TestRunPipeline:
    def test_artifacts_and_manifest(self, tmp_path):
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out")
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
        assert set(manifest["artifacts"]) >= {"raw_stack", "compressed_stack"}

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

    def test_timing_mismatch_writes_nothing(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_run_config(tmp_path / "bad.cfg", out, t_bit="0.3333333")
        with pytest.raises(PipelineStageError) as info:
            run_pipeline(cfg)
        assert info.value.stage == "config"
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["wave", "sim", "dc", "compress"])
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
        }[command]
        capsys.readouterr()
        assert main(argv + timing) == 2
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

    def test_pipeline_run_and_failure_exit(self, tmp_path, capsys):
        cfg = write_run_config(tmp_path / "run.cfg", tmp_path / "out")
        assert main(["pipeline", "run", "--config", str(cfg)]) == 0
        bad = write_run_config(tmp_path / "bad.cfg", tmp_path / "out_bad",
                               t_bit="0.3333333")
        assert main(["pipeline", "run", "--config", str(bad)]) == 2
        assert "[config]" in capsys.readouterr().err
        assert not (tmp_path / "out_bad").exists()

    def test_cli_missing_file_error(self, tmp_path, capsys):
        assert main(["seq", "verify", str(tmp_path / "missing.txt")]) == 2
        assert "error:" in capsys.readouterr().err


LS31 = generate_ls(31)
MLS5 = generate_mls(MlsSpec(order=5))
MLS4_TAPS = generate_mls(MlsSpec(order=4, tap_coefficients=(1, 0, 0, 1),
                                 seed=(1, -1, 1, 1)))


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
        ({"kind": "ls", "n_bit": "31", "modified": "mls_plus"}, LS31,
         modify_for_perfect_pacf(LS31)),
        ({"kind": "ls", "n_bit": "31", "modified": "ls4_plus"},
         binarize_ls4(LS31, 1), binarize_ls4(LS31, 1)),
        ({"kind": "ls", "n_bit": "31", "modified": "ls4_plus", "sign": "-1"},
         binarize_ls4(LS31, -1), binarize_ls4(LS31, -1)),
        ({"kind": "mls", "order": "5"}, MLS5, modify_for_perfect_pacf(MLS5)),
        ({"kind": "mls", "order": "5", "modified": "ls_plus"}, MLS5,
         modify_for_perfect_pacf(MLS5)),
        ({"kind": "mls", "order": "5", "modified": "mls_plus"}, MLS5,
         modify_for_perfect_pacf(MLS5)),
        ({"kind": "mls", "order": "4", "taps": "1,0,0,1",
          "modified": "auto"},
         generate_mls(MlsSpec(order=4, tap_coefficients=(1, 0, 0, 1))),
         modify_for_perfect_pacf(
             generate_mls(MlsSpec(order=4, tap_coefficients=(1, 0, 0, 1))))),
    ])
    def test_config_matches_generators(self, section, excitation, modified):
        got_excitation, got_modified = generate_codes(section)
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
    ])
    def test_config_rejections(self, section, error):
        with pytest.raises(error):
            generate_codes(section)


class TestReadmeConfigs:
    """The README's INI examples, with their inline comments, as documented."""

    @pytest.fixture
    def blocks(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        scene, run = re.findall(r"```ini\n(.*?)```", text, flags=re.S)
        (tmp_path / "scene.cfg").write_text(scene, encoding="utf-8")
        (tmp_path / "run.cfg").write_text(run, encoding="utf-8")
        return tmp_path / "scene.cfg", tmp_path / "run.cfg"

    def test_scene_block(self, blocks):
        scene = load_scene_config(blocks[0])
        assert (scene.nx, scene.ny, scene.noise_sigma, scene.rng_seed) == (
            64, 64, 0.05, 7)
        assert scene.background == PixelModel(diffusivity=1e-6)
        assert scene.defects == ((
            Region(x0=8, y0=8, width=8, height=8),
            PixelModel(diffusivity=1e-6, defect_depth=0.0005,
                       reflection_coeff=0.9)),)

    def test_run_block(self, blocks):
        parser = _parse_config(blocks[1])
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
        excitation, modified = generate_codes(parser["code"])
        assert excitation.n_bit == modified.n_bit == 31
        assert modified.is_modified
