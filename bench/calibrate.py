"""Machine-speed calibration for the benchmark's timings.

On the shared virtual machine the baseline was taken on, the CPU ran
fast and slow in phases lasting from seconds to minutes: the same
pipeline run took 1.5 s of CPU in one phase and 2.8 s in another. A
fixed kernel timed next to each run sees the same phase, so every time
the benchmark reports is the measured CPU time scaled by
``REFERENCE_S / kernel CPU time``: seconds at the speed of the machine
on which the kernel took ``REFERENCE_S``. Over seven minutes of
alternating kernel and pipeline runs, the spread of nine-run medians was
19% for raw CPU time and 4% for scaled time.

The kernel mixes the kinds of work the pipeline does: interpreter
loops, vector math with transcendental functions, FFT convolution, and
passes over arrays larger than the L2 cache. It does not use pnpuct, so
changes to the package cannot change it.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.15


def kernel():
    """CPU seconds of one pass of the fixed calibration work."""
    import numpy as np
    from scipy.signal import fftconvolve
    from scipy.special import erfc

    x = np.linspace(0.1, 10.0, 2480)
    block = np.cos(np.arange(64 * 2480) * 0.01).reshape(64, 2480)
    taps = np.sin(np.arange(1240) * 0.1)[None, :]
    big = np.ones(2_500_000, dtype=np.float32)
    start = time.process_time()
    total = 0
    for i in range(400_000):
        total += i * i % 7
    for _ in range(560):
        erfc(np.sqrt(x / 3.0)) * np.exp(-x)
    for _ in range(11):
        fftconvolve(block, taps, axes=1)
    for _ in range(11):
        big.astype(np.float64).sum()
    return time.process_time() - start


def scaled(cpu_s, kernel_s):
    """CPU seconds at the reference speed."""
    return cpu_s * REFERENCE_S / kernel_s
