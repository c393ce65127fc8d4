"""Correctness gate applied to the output of every benchmark run.

A run passes when
- the compressed background-region mean, scaled by gain * 0.5 * amplitude,
  matches ``lpt_reference`` of a one-bit pulse within 2% rel. RMS of its
  peak (the paper's transparency claim),
- ``snr_metric`` between the signal defect and the background is finite,
- every artifact SHA-256 equals that of the first run of the same inputs
  (the manifest determinism contract).
"""

from __future__ import annotations

import math
import os

import numpy as np

import pnpuct as pn

TRANSPARENCY_LIMIT = 0.02


class Gate:
    """Reference values computed once per workload, checked after each run."""

    def __init__(self, spec):
        timing = pn.Timing(t_bit=spec["t_bit"], fps=spec["fps"],
                           n_per=spec["n_per"])
        code = pn.modify_for_perfect_pacf(pn.generate_ls(spec["n_bit"]))
        self.scale = code.gain * 0.5 * spec["amplitude"]
        background = pn.PixelModel(**spec["background"])
        self.reference = pn.lpt_reference(
            background, pn.RectPulse(duration=spec["t_bit"], amplitude=1.0),
            timing, timing.t_meas(spec["n_bit"]))
        self.background = pn.Region(**spec["reference_region"])
        self.signal = pn.Region(**spec["signal_region"])
        self.hashes = None

    def check(self, out_dir, manifest):
        """Return ({transparency_rel_rms, snr_db}, [failure messages])."""
        artifacts = manifest["artifacts"]
        compressed = pn.read_stack(
            os.path.join(out_dir, artifacts["compressed_stack"]["path"]))
        r = self.background
        block = compressed.data[:, r.y0:r.y0 + r.height, r.x0:r.x0 + r.width]
        mean = block.astype(np.float64).mean(axis=(1, 2))
        if mean.shape != self.reference.shape:
            return {}, [f"compressed period has {mean.size} frames, "
                        f"expected {self.reference.size}"]
        rel_rms = float(np.sqrt(np.mean((mean / self.scale - self.reference) ** 2))
                        / self.reference.max())
        snr = pn.snr_metric(compressed, self.signal, self.background)
        hashes = {name: a["sha256"] for name, a in artifacts.items()}
        if self.hashes is None:
            self.hashes = hashes
        failures = []
        if not rel_rms < TRANSPARENCY_LIMIT:
            failures.append(f"transparency rel. RMS {rel_rms:.4g} "
                            f"not below {TRANSPARENCY_LIMIT}")
        if not math.isfinite(snr):
            failures.append(f"snr_db {snr} is not finite")
        changed = sorted(k for k in hashes.keys() | self.hashes.keys()
                         if hashes.get(k) != self.hashes.get(k))
        if changed:
            failures.append("artifacts differ from the first run: "
                            + ", ".join(changed))
        return {"transparency_rel_rms": rel_rms, "snr_db": snr}, failures
