"""Single-pixel pipeline runner and checks shared by the test modules."""

import hashlib
import os
from pathlib import Path

import numpy as np

from pnpuct import (
    Normalization,
    build_bipolar,
    build_unipolar,
    compress_trace,
    impulse_response,
    remove_dc,
    respond,
)


def fusion_bound(code, scale, compressed, removed):
    """Largest voxel difference between fused and two-stage compression.

    The two-stage chain rounds each DC-removed sample to float32 first,
    by at most 2^-24 of the largest one, and the filter weighs those
    errors by at most sum(|c'|) / scale in all (the 1 / n_avg of the
    mean cancels the n_avg windows summed). Each chain then rounds its
    output once, by at most 2^-24 of the largest output value.
    """
    return 2.0 ** -24 * (2.0 * np.abs(compressed).max()
                         + np.abs(code.values).sum() / scale
                         * np.abs(removed).max())


def run_pixel(model, standard_code, modified_code, timing, amplitude=1.0,
              noise=None, normalization=Normalization.RAW,
              single_period=False):
    """Simulate one pixel and run DC removal plus compression.

    Returns (compressed period, raw trace), both float64 arrays.
    ``noise`` is an optional array added to the simulated trace before
    processing.
    """
    unipolar = build_unipolar(build_bipolar(standard_code, timing), amplitude)
    h = impulse_response(model, timing, unipolar.duration)
    y = respond(h, unipolar)
    if noise is not None:
        y = y + noise
    y_ac = remove_dc(y, modified_code, timing)
    compressed = compress_trace(y_ac, modified_code, timing,
                                normalization=normalization,
                                single_period=single_period)
    return compressed, y


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def resident_kib(array):
    """Resident KiB of the file mapping under an open_stack array."""
    start = f"{array.base.__array_interface__['data'][0]:x}-"
    lines = Path("/proc/self/smaps").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(start))
    return next(int(line.split()[1]) for line in lines[at + 1:]
                if line.startswith("Rss:"))


def file_resident_kib(path):
    """Resident KiB of the mappings of a file, which must be mapped."""
    name = " " + os.path.realpath(path)
    lines = Path("/proc/self/smaps").read_text().splitlines()
    starts = [at for at, line in enumerate(lines) if line.endswith(name)]
    assert starts, f"{path} is not mapped"
    return sum(next(int(line.split()[1]) for line in lines[at + 1:]
                    if line.startswith("Rss:")) for at in starts)
