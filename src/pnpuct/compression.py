"""Cyclic matched filtering of DC-removed traces.

The trace over N_per excitation periods is linearly convolved with the
matched filter; the first period of the output is transient and is
discarded, the remaining complete periods are the steady state and are
averaged into the compressed trace. Because the code's cyclic
autocorrelation is a spike, the result is the pixel's response to a
virtual rectangular pulse of one bit duration, amplified by the code
gain.

The filter is nonzero only on every K-th tap, so the averaged steady
period needs only the sum of the two-period windows that the steady
periods read. That sum, seen as 2N bit rows of K frames per pixel, is
filtered by one fixed N x 2N Toeplitz matrix of the code taps
(polyphase decomposition; P. P. Vaidyanathan, *Multirate Systems and
Filter Banks*, 1993). Half of that matrix is zero: it is a strictly
upper triangle next to a lower one, so the product runs as two
in-place triangular BLAS products (dtrmm; Dongarra et al., *ACM TOMS*
16, 1990) on the two halves of the sum, and lands in its first period
with no buffer beyond the block's.

The filter is the op of the one core of :mod:`pnpuct.dc_removal`,
whose DC removal is the same core with the identity op. With
``remove_dc`` each raw block also gets its DC trend fitted there, and
the kept trend term is one in-place GEMM update of the filtered
residual, C(r) <- C(r) + bias C(B) c, before the block's one float32
store.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
# Unused here. The bench's calibration kernel imports scipy.signal after
# the bench reads its RSS baseline, so a package without this import
# shows a false rise in rss_per_stack; drop it once the bench imports
# the kernel's modules first (ROADMAP item 1).
import scipy.signal

from . import dc_removal
from .errors import EmptyRegion, RegionOverlap, ShapeMismatch
from .stack import (CHUNK_BYTES, check_finite, check_stored, chunks,
                    derived_stack)
from .waveform import Timing, build_matched_filter


class Normalization(Enum):
    RAW = "raw"
    PER_GAIN = "per_gain"
    PER_LENGTH = "per_length"


@dataclass(frozen=True, eq=False)
class CompressedTrace:
    """One steady-state period of the compression output for a pixel."""

    values: np.ndarray
    normalization: Normalization
    periods_averaged: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


class _MatchedFilter:
    """The matched filter of a modified code, applied a block at a time.

    The filter is :func:`~pnpuct.waveform.build_matched_filter`'s,
    nonzero only on every K-th tap, c'[b] = taps[bK]. Its steady periods
    therefore need only the fold ybar, the sum of the n_avg two-period
    windows y[(i - 1)P : (i + 1)P]: output frame jK + p is
    sum_b c'[b] ybar[(N + j - b)K + p]. Seen as a (2N, K * w) array,
    ybar is filtered by an N x 2N Toeplitz matrix T whose row j holds
    c'[::-1], divided by n_avg and the normalization scale, on columns
    j + 1 ... j + N. Its first N columns are the strictly upper triangle
    U, its last N the lower triangle L, diagonal included, so the
    product U ybar[:N] + L ybar[N:] takes two triangular products of N^2
    multiply-adds per column where T takes 2N^2. The input must span
    the timing's n_per periods (:func:`pnpuct.dc_removal._check_frames`).
    """

    def __init__(self, code, timing, normalization, single_period):
        filt = build_matched_filter(code, timing)
        n_bit = code.n_bit
        self.n_avg = 1 if single_period else timing.n_per - 1
        self.period = timing.frames_per_period(n_bit)
        scale = {Normalization.RAW: 1.0, Normalization.PER_GAIN: filt.gain,
                 Normalization.PER_LENGTH: n_bit}[normalization]
        row = filt.taps[::timing.k][::-1] / (self.n_avg * scale)
        # T[j] = padded[N - j: 3N - j], so T[j, j + 1 + i] = row[i]
        padded = np.concatenate([np.zeros(n_bit + 1), row,
                                 np.zeros(n_bit - 1)])
        toeplitz = sliding_window_view(padded, 2 * n_bit)[n_bit:0:-1]
        self._upper = np.ascontiguousarray(toeplitz[:, :n_bit])
        self._lower = np.ascontiguousarray(toeplitz[:, n_bit:])

    def __call__(self, a):
        """The (period, w) filtered steady period of the columns of ``a``.

        ``a`` is a C-contiguous (n_frames, w) float64 array. Its n_avg
        windows are summed in place into a[:2P], the first period of
        every window before the second. The two triangular products then
        overwrite a[:P] and a[P:2P], and their sum lands in a[:P], which
        is returned: the filter needs no buffer beyond ``a``.
        """
        period, n_avg = self.period, self.n_avg
        for i in range(1, n_avg):
            a[:period] += a[i * period: (i + 1) * period]
        for i in range(1, n_avg):
            a[period: 2 * period] += a[(i + 1) * period: (i + 2) * period]
        n_bit = len(self._upper)
        lo = a[:period].reshape(n_bit, -1)
        hi = a[period: 2 * period].reshape(n_bit, -1)
        dc_removal._trmm(self._upper, lo, upper=True)
        dc_removal._trmm(self._lower, hi, upper=False)
        lo += hi
        return a[:period]


def compress_trace(y_plus_ac, code, timing, normalization=Normalization.RAW,
                   single_period=False) -> CompressedTrace:
    """Compress one DC-removed trace with the matched filter of a code.

    This is one pixel of :func:`compress_stack`: the same arguments, the
    same frame rule (exactly ``timing.total_frames(code.n_bit)``
    samples, else ``ShapeMismatch``), ``UnmodifiedCode`` for a code with
    sidelobes, ``NonFiniteData`` for a NaN or inf sample, and the same
    bits as that pixel of a compressed stack, here as float64. To get
    them, the column is zero-padded to a full block of ``_BLOCK``
    columns, so one call costs about as much as 256 pixels of a stack:
    a median of 1.0-1.1 ms of CPU at LS31 K=40, 1.7 ms at LS127 K=10 and
    11.5 ms at LS1031 K=1 on a 2-vCPU Xeon VM with 1 BLAS thread.
    Compress many pixels with :func:`compress_stack`.
    """
    filt = _MatchedFilter(code, timing, normalization, single_period)
    y = np.asarray(y_plus_ac, dtype=float)
    dc_removal._check_frames(len(y), code, timing)
    check_finite(y, "trace samples must be finite")
    values, _ = dc_removal._trace(y, filt, filt.period)
    return CompressedTrace(values=values, normalization=normalization,
                           periods_averaged=filt.n_avg)


def compress_stack(stack, code, timing, normalization=Normalization.RAW,
                   single_period=False, remove_dc=False):
    """Pixelwise compression of a DC-removed stack.

    Returns a new stack of one period (K * N_bit frames) whose metadata
    records the compression parameters; the input is left untouched,
    and may be a :class:`pnpuct.thermal.SimulatedStack`, simulated a
    band at a time. By default every steady period is averaged;
    ``single_period`` keeps only the first.

    With ``remove_dc`` the stack is raw: DC removal runs in the same
    pass, and the result is (compressed, fit map), the fit map that of
    :func:`remove_dc_stack`, bit for bit. The compressed stack is the
    float64 chain of :func:`remove_dc_stack` and compression rounded
    once to float32, so it can differ from compressing the float32
    DC-removed stack in the last bits. Unlike :func:`remove_dc_stack`,
    this call does not pass the code through :func:`check_code`; the
    pipeline checks its codes when it makes them.
    """
    keep = dc_removal._validate_bias(code) if remove_dc else None
    filt = _MatchedFilter(code, timing, normalization, single_period)
    compressed, fits = dc_removal._transform(
        stack, code, timing, filt, filt.period, keep,
        {"stage": "compressed", "k": str(timing.k),
         "normalization": normalization.value,
         "periods_averaged": str(filt.n_avg)})
    return (compressed, fits) if remove_dc else compressed


def decimate_to_bit_rate(stack, timing, average=False):
    """Keep one frame per bit, dropping the rate to the bit rate.

    By default the first frame of each bit interval is kept; ``average``
    bins all K frames of a bit instead. Returns the decimated stack and
    the matching timing with K = 1. A K = 1 input passes through
    unchanged. The input is read through :func:`pnpuct.stack.chunks`, a
    chunk of whole bits at a time, so a stack mapped from its file is
    never resident.
    """
    k = timing.k
    if k == 1:
        return stack, timing
    check_stored(stack)
    if stack.n_frames % k != 0:
        raise ShapeMismatch(
            f"{stack.n_frames} frames do not divide into bits of {k} frames")
    bits = stack.data.reshape(-1, k, stack.ny, stack.nx)
    data = np.empty((len(bits), stack.ny, stack.nx), np.float32)
    for rows, chunk in chunks(bits):
        data[rows] = chunk.mean(axis=1) if average else chunk[:, 0]
    new_timing = Timing(t_bit=timing.t_bit, fps=timing.fps / k,
                        n_per=timing.n_per)
    return derived_stack(stack, data, new_timing.fps, {
        "decimated": "mean" if average else "first_frame", "k": "1",
    }), new_timing


def _region_block(frames, region):
    """(n, n_pix) float64 copy of the pixels of a region in some frames."""
    block = frames[(slice(None),) + region.slices].astype(np.float64)
    return block.reshape(block.shape[0], -1)


def snr_metric(stack, region_signal, region_reference) -> float:
    """Contrast-to-noise of a compressed stack, in decibels.

    Documented convention: 20*log10(peak over time of |mean(signal
    region) - mean(reference region)| / noise of the reference mean).
    The smooth trend of each reference pixel is taken to be the shared
    region-mean trace; the temporal standard deviation of the per-pixel
    residuals around it estimates the pixel noise, and dividing by
    sqrt(n_pixels) gives the noise of the mean. Constant offsets cancel
    in both numerator and denominator. A noiseless uniform reference has
    exactly zero residual and returns +inf (saturated); zero contrast
    (e.g. identical regions) returns -inf. The reference region should
    be thermally uniform and hold at least two pixels. A stack of no
    frames raises EmptyRegion. The regions are read a chunk of frames
    at a time, so no copy of a whole region is made, and the pages of a
    stack mapped from its file are dropped behind each chunk.
    """
    check_stored(stack)
    if region_signal != region_reference and all(
            max(a.start, b.start) < min(a.stop, b.stop)
            for a, b in zip(region_signal.slices, region_reference.slices)):
        raise RegionOverlap("signal and reference regions overlap")
    regions = (region_signal, region_reference)
    for region in regions:
        if (region.x0 + region.width > stack.nx
                or region.y0 + region.height > stack.ny):
            raise EmptyRegion(f"region {region} does not fit the stack")
    if not stack.n_frames:
        raise EmptyRegion("the stack has no frames")
    n_pix = region_reference.width * region_reference.height
    # each region's float64 block over a chunk of frames fits CHUNK_BYTES
    step = max(1, CHUNK_BYTES // max(8 * r.width * r.height for r in regions))
    m_sig, m_ref = np.empty((2, stack.n_frames))
    square_sum = 0.0
    for rows, frames in chunks(stack.data, step):
        m_sig[rows] = _region_block(frames, region_signal).mean(axis=1)
        block = _region_block(frames, region_reference)
        m_ref[rows] = block.mean(axis=1)
        block -= m_ref[rows, None]
        square_sum += np.sum(np.square(block, out=block))
    contrast = float(np.abs(m_sig - m_ref).max())
    if n_pix < 2:
        noise_of_mean = 0.0
    else:
        pixel_std = np.sqrt(square_sum / (stack.n_frames * (n_pix - 1)))
        noise_of_mean = float(pixel_std / np.sqrt(n_pix))
    if contrast == 0.0:
        return float("-inf")
    if noise_of_mean == 0.0:
        return float("inf")
    return 20.0 * float(np.log10(contrast / noise_of_mean))
