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
Filter Banks*, 1993).

The filter runs on the blocks of columns of the one block loop of
:mod:`pnpuct.dc_removal`; with ``remove_dc`` each raw block also gets
its DC trend fitted there and removed in the same pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
# Unused here. The bench's calibration kernel imports scipy.signal after
# the bench reads its RSS baseline, so a package without this import
# shows a false rise in rss_per_stack; drop it once the bench imports
# the kernel's modules first (ROADMAP item 1).
import scipy.signal

from . import dc_removal
from .errors import (EmptyRegion, RegionOverlap, ShapeMismatch,
                     UnmodifiedCode)
from .stack import ThermogramStack
from .waveform import Timing


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

    The matched filter is the time-reversed modified code on every K-th
    tap, c'[b] = values[-b mod N]. Its steady periods therefore need
    only the fold ybar, the sum of the n_avg two-period windows
    y[(i - 1)P : (i + 1)P]: output frame jK + p is
    sum_b c'[b] ybar[(N + j - b)K + p]. Seen as a (2N, K * w) array,
    ybar is filtered by one N x 2N Toeplitz matrix whose rows hold
    c'[::-1] = roll(values, -1), divided by n_avg and the normalization
    scale. The input must span the timing's n_per periods.
    """

    def __init__(self, code, timing, normalization, single_period,
                 n_frames):
        if not code.is_modified:
            raise UnmodifiedCode(
                f"{code.kind.value} has sidelobes; modify the code first")
        n_bit = code.n_bit
        if n_frames != timing.total_frames(n_bit):
            raise ShapeMismatch(
                f"{n_frames} frames given, timing implies "
                f"{timing.total_frames(n_bit)}")
        self.n_avg = 1 if single_period else timing.n_per - 1
        self.period = timing.frames_per_period(n_bit)
        scale = {Normalization.RAW: 1.0, Normalization.PER_GAIN: code.gain,
                 Normalization.PER_LENGTH: n_bit}[normalization]
        row = np.roll(code.values, -1) / (self.n_avg * scale)
        self._toeplitz = np.zeros((n_bit, 2 * n_bit))
        for j in range(n_bit):
            self._toeplitz[j, j + 1: j + 1 + n_bit] = row
        self._spare = None

    def __call__(self, a):
        """The (period, w) filtered steady period of the columns of ``a``.

        ``a`` is an (n_frames, w) float64 array. Its n_avg windows are
        summed in place into a[:2P], the first period of every window
        before the second. From n_per = 3 on, the product lands in
        a[2P:3P], which the fold has read; for n_per = 2 it lands in one
        more buffer, allocated once per width.
        """
        period, n_avg = self.period, self.n_avg
        for i in range(1, n_avg):
            a[:period] += a[i * period: (i + 1) * period]
        for i in range(1, n_avg):
            a[period: 2 * period] += a[(i + 1) * period: (i + 2) * period]
        if len(a) >= 3 * period:
            product = a[2 * period: 3 * period]
        else:
            if self._spare is None or self._spare.shape[1] != a.shape[1]:
                self._spare = np.empty((period, a.shape[1]))
            product = self._spare
        n_bit = len(self._toeplitz)
        np.matmul(self._toeplitz, a[:2 * period].reshape(2 * n_bit, -1),
                  out=product.reshape(n_bit, -1))
        return product


def _compress_columns(traces, code, timing, normalization, single_period,
                      dtype, overwrite=False):
    """Matched filtering of every column of an (n_frames, n_pix) array.

    Returns the normalized mean of the steady periods as a
    (period, n_pix) array of ``dtype``, and the number of periods
    averaged. With ``overwrite`` the result is the first ``period``
    rows of ``traces``, which must then be of ``dtype``.
    """
    filt = _MatchedFilter(code, timing, normalization, single_period,
                          len(traces))
    out = (traces[:filt.period] if overwrite
           else np.empty((filt.period, traces.shape[1]), dtype))
    for cols, src, a in dc_removal._blocks(traces):
        out[:, cols] = filt(a)[:, :src.shape[1]]
    return out, filt.n_avg


def _remove_dc_and_compress(traces, code, timing, normalization,
                            single_period, overwrite, keep):
    """:func:`_compress_columns` of raw float32 columns, DC removal fused.

    Each column's trend is fitted as in :func:`remove_dc_stack`, and the
    filtered DC-removed column is C(r) + keep * C(B) c: the filtered
    residual r = y - B c plus the filtered trend basis, formed once per
    call, times the coefficients. Both are float64; the sum is rounded
    once. Invalid columns give zero. Returns the (period, n_pix) output,
    the number of periods averaged and the (n_pix, 4) fit-map rows.
    """
    filt = _MatchedFilter(code, timing, normalization, single_period,
                          len(traces))
    period = filt.period
    out = (traces[:period] if overwrite
           else np.empty((period, traces.shape[1]), np.float32))
    trend = dc_removal._Trend(len(traces), timing.dt)
    kept = keep * filt(trend.basis.copy())
    fits = np.empty((traces.shape[1], 4))
    for cols, src, a in dc_removal._blocks(traces):
        coefs, valid = trend.residual(a, src, fits[cols])
        a[:, ~valid] = 0.0
        product = filt(a)
        np.matmul(kept, coefs, out=a[:period])
        m = src.shape[1]
        block = out[:, cols]
        np.add(product[:, :m], a[:period, :m], out=block, casting="unsafe")
        block[:, ~valid[:m]] = 0.0
    return out, filt.n_avg, fits


def compress_trace(y_plus_ac, code, timing, normalization=Normalization.RAW,
                   single_period=False) -> CompressedTrace:
    """Compress one DC-removed trace with the matched filter of a code.

    This is one pixel of :func:`compress_stack`: the same arguments, the
    same frame rule (exactly ``timing.total_frames(code.n_bit)``
    samples, else ``ShapeMismatch``), ``UnmodifiedCode`` for a code with
    sidelobes, and the same bits as that pixel of a compressed stack,
    here as float64. To get them, the column is zero-padded to a full
    block of ``_BLOCK`` columns, so one call costs about as much as 256
    pixels of a stack: 1.7 ms at LS31 K=40 and 27 ms at LS1031 K=1 on a
    2-vCPU VM with 1 BLAS thread. Compress many pixels with
    :func:`compress_stack`.
    """
    y = np.asarray(y_plus_ac, dtype=float)
    values, n_avg = _compress_columns(
        y[:, None], code, timing, normalization, single_period, np.float64)
    return CompressedTrace(values=values[:, 0], normalization=normalization,
                           periods_averaged=n_avg)


def compress_stack(stack, code, timing, normalization=Normalization.RAW,
                   single_period=False, overwrite_input=False,
                   remove_dc=False):
    """Pixelwise compression of a DC-removed stack.

    Returns a stack of one period (K * N_bit frames) whose metadata
    records the compression parameters. By default every steady period
    is averaged; ``single_period`` keeps only the first. The input
    stack is left untouched unless ``overwrite_input`` is true: then
    the period is written into the input's first frames, which the
    returned stack shares, and no stack-sized array is allocated. The
    returned stack then keeps the whole input buffer alive.

    With ``remove_dc`` the stack is raw: DC removal runs in the same
    pass, and the result is (compressed, fit map), the fit map that of
    :func:`remove_dc_stack`, bit for bit. The compressed stack is the
    float64 chain of :func:`remove_dc_stack` and compression rounded
    once to float32, so it can differ from compressing the float32
    DC-removed stack in the last bits. Unlike :func:`remove_dc_stack`,
    this call does not pass the code through :func:`check_code`; the
    pipeline checks its codes when it makes them.
    """
    traces = stack.data.reshape(stack.n_frames, -1)
    if remove_dc:
        keep = dc_removal._validate_bias(code)
        out, n_avg, fits = _remove_dc_and_compress(
            traces, code, timing, normalization, single_period,
            overwrite_input, keep)
    else:
        out, n_avg = _compress_columns(
            traces, code, timing, normalization, single_period, np.float32,
            overwrite_input)
    metadata = dict(stack.metadata)
    metadata.update({
        "stage": "compressed",
        "code_kind": code.kind.value,
        "code_n_bit": str(code.n_bit),
        "k": str(timing.k),
        "normalization": normalization.value,
        "periods_averaged": str(n_avg),
    })
    if remove_dc:
        metadata["bias"] = repr(keep)
    compressed = ThermogramStack(data=out.reshape(-1, stack.ny, stack.nx),
                                 fps=stack.fps, metadata=metadata)
    if not remove_dc:
        return compressed
    return compressed, fits.reshape(stack.ny, stack.nx, 4)


def decimate_to_bit_rate(stack, timing, average=False):
    """Keep one frame per bit, dropping the rate to the bit rate.

    By default the first frame of each bit interval is kept; ``average``
    bins all K frames of a bit instead. Returns the decimated stack and
    the matching timing with K = 1. A K = 1 input passes through
    unchanged.
    """
    k = timing.k
    if k == 1:
        return stack, timing
    if stack.n_frames % k != 0:
        raise ShapeMismatch(
            f"{stack.n_frames} frames do not divide into bits of {k} frames")
    if average:
        data = stack.data.reshape(-1, k, stack.ny, stack.nx).mean(axis=1)
        data = data.astype(np.float32)
    else:
        data = stack.data[::k]
    new_timing = Timing(t_bit=timing.t_bit, fps=timing.fps / k,
                        n_per=timing.n_per)
    metadata = dict(stack.metadata)
    metadata.update({
        "decimated": "mean" if average else "first_frame",
        "k": "1",
    })
    return (ThermogramStack(data=data, fps=new_timing.fps, metadata=metadata),
            new_timing)


def _region_block(stack, region):
    """(n_frames, n_pix) float64 copy of the pixels of a region."""
    if (region.x0 + region.width > stack.nx
            or region.y0 + region.height > stack.ny):
        raise EmptyRegion(f"region {region} does not fit the stack")
    block = stack.data[(slice(None),) + region.slices].astype(np.float64)
    return block.reshape(stack.n_frames, -1)


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
    be thermally uniform and hold at least two pixels.
    """
    if region_signal != region_reference and all(
            max(a.start, b.start) < min(a.stop, b.stop)
            for a, b in zip(region_signal.slices, region_reference.slices)):
        raise RegionOverlap("signal and reference regions overlap")
    m_sig = _region_block(stack, region_signal).mean(axis=1)
    block = _region_block(stack, region_reference)
    m_ref = block.mean(axis=1)
    contrast = float(np.abs(m_sig - m_ref).max())
    n_pix = block.shape[1]
    if n_pix < 2:
        noise_of_mean = 0.0
    else:
        block -= m_ref[:, None]
        pixel_std = np.sqrt(np.sum(np.square(block, out=block))
                            / (stack.n_frames * (n_pix - 1)))
        noise_of_mean = float(pixel_std / np.sqrt(n_pix))
    if contrast == 0.0:
        return float("-inf")
    if noise_of_mean == 0.0:
        return float("inf")
    return 20.0 * float(np.log10(contrast / noise_of_mean))
