"""Workload specifications for the pipeline benchmark, generated from a seed.

A spec is a plain JSON-serialisable dict. The seed moves the defect
patches inside their slots and picks the noise stream; it never changes
the grid, the code, the timing or the defect depths, so the work done by
a run is the same for every seed and only the data differ.

Grid layout: defects sit in the upper half, one per column slot; the
lower half is sound background and serves as the reference region for
the transparency and SNR checks. Why each workload exists is recorded
in BENCHMARK.json.
"""

from __future__ import annotations

import random


def make_spec(name, seed, *, n_bit, t_bit, fps, n_per, nx, ny, defects,
              defect_size, input_stack):
    """Spec of a scene whose defect layout and noise stream follow ``seed``.

    ``defects`` lists (depth, reflection) pairs, one square patch of
    ``defect_size`` pixels each; the last one is the SNR signal region.
    """
    rng = random.Random(f"{name}:{seed}")
    slot = nx // len(defects)
    half = ny // 2
    placed = []
    for i, (depth, reflection) in enumerate(defects):
        placed.append({
            "x0": i * slot + rng.randrange(slot - defect_size + 1),
            "y0": rng.randrange(half - defect_size + 1),
            "width": defect_size,
            "height": defect_size,
            "depth": depth,
            "reflection": reflection,
        })
    snr_defect = placed[-1]
    return {
        "name": name,
        "seed": seed,
        "n_bit": n_bit,
        "t_bit": t_bit,
        "fps": fps,
        "n_per": n_per,
        "amplitude": 1.0,
        "nx": nx,
        "ny": ny,
        "noise_sigma": 0.05,
        "rng_seed": rng.randrange(2 ** 31),
        "background": {"diffusivity": 1e-6, "amplitude_scale": 1.0},
        "defects": placed,
        "reference_region": {"x0": 0, "y0": half, "width": nx,
                             "height": ny - half},
        "signal_region": {k: snr_defect[k]
                          for k in ("x0", "y0", "width", "height")},
        "input_stack": input_stack,
        "slices": [1.0, 5.0],
        "pixels": [[snr_defect["x0"], snr_defect["y0"]], [0, ny - 1]],
    }


def measured_ls31(seed):
    """Camera path: a TGS1 stack written in set-up is read by the pipeline."""
    return make_spec("measured_ls31", seed, n_bit=31, t_bit=1.0, fps=40.0,
                     n_per=2, nx=64, ny=64,
                     defects=[(5e-4, 0.9), (2e-3, 0.9)], defect_size=8,
                     input_stack=True)


def sim_ls127(seed):
    """Long code: simulated scene, 1270-tap filter over three periods."""
    return make_spec("sim_ls127", seed, n_bit=127, t_bit=1.0, fps=10.0,
                     n_per=3, nx=48, ny=48,
                     defects=[(1e-3, 0.9), (3e-3, 0.9)], defect_size=8,
                     input_stack=False)


def thin_defects(seed):
    """Thin R=1 layers, whose image-source series dominate the run."""
    return make_spec("thin_defects", seed, n_bit=31, t_bit=1.0, fps=40.0,
                     n_per=2, nx=32, ny=32,
                     defects=[(1e-5, 1.0), (2e-5, 1.0), (5e-5, 1.0),
                              (1e-4, 1.0)],
                     defect_size=4, input_stack=False)


WORKLOADS = {
    "measured_ls31": measured_ls31,
    "sim_ls127": sim_ls127,
    "thin_defects": thin_defects,
}


def raw_voxels(spec):
    """Pixels times frames of the raw stack the pipeline processes."""
    frames = spec["n_per"] * round(spec["t_bit"] * spec["fps"]) * spec["n_bit"]
    return spec["nx"] * spec["ny"] * frames


def raw_stack_bytes(spec):
    """Bytes of the raw stack as float32."""
    return 4 * raw_voxels(spec)


def _scene_lines(spec):
    bg = spec["background"]
    lines = [
        "[scene]",
        f"nx = {spec['nx']}",
        f"ny = {spec['ny']}",
        f"noise_sigma = {spec['noise_sigma']!r}",
        f"rng_seed = {spec['rng_seed']}",
        "",
        "[background]",
        f"diffusivity = {bg['diffusivity']!r}",
        f"amplitude_scale = {bg['amplitude_scale']!r}",
    ]
    for i, d in enumerate(spec["defects"]):
        lines += [
            "",
            f"[defect.{i}]",
            f"x0 = {d['x0']}",
            f"y0 = {d['y0']}",
            f"width = {d['width']}",
            f"height = {d['height']}",
            f"depth = {d['depth']!r}",
            f"reflection = {d['reflection']!r}",
        ]
    return lines


def config_text(spec, out_dir, input_path=None):
    """INI text of the pipeline config for ``pnpuct.run_pipeline``."""
    lines = [
        "[code]",
        "kind = ls",
        f"n_bit = {spec['n_bit']}",
        "modified = ls_plus",
        "",
        "[timing]",
        f"t_bit = {spec['t_bit']!r}",
        f"fps = {spec['fps']!r}",
        f"n_per = {spec['n_per']}",
        "",
        "[excitation]",
        f"amplitude = {spec['amplitude']!r}",
        "",
        "[compression]",
        "normalization = raw",
        "",
    ]
    if input_path is not None:
        lines += ["[input]", f"stack = {input_path}", ""]
    else:
        lines += _scene_lines(spec) + [""]
    lines += [
        "[output]",
        f"directory = {out_dir}",
        "slices = " + ", ".join(repr(t) for t in spec["slices"]),
        "pixels = " + ", ".join(f"{x}x{y}" for x, y in spec["pixels"]),
    ]
    return "\n".join(lines) + "\n"
