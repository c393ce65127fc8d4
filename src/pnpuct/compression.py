"""Cyclic matched filtering of DC-removed traces.

The trace over N_per excitation periods is linearly convolved with the
matched filter; the first period of the output is transient and is
discarded, the remaining complete periods are the steady state and are
averaged into the compressed trace. Because the code's cyclic
autocorrelation is a spike, the result is the pixel's response to a
virtual rectangular pulse of one bit duration, amplified by the code
gain.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.signal import fftconvolve

from .errors import EmptyRegion, ShapeMismatch, TooFewPeriods
from .stack import ThermogramStack
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


# Pixel columns per convolution, each block the only float64 copy of its
# data. 256 ran as fast as a whole-stack float64 copy at a third of its
# peak allocation; 128 was slower, from page faults of the fresh blocks.
_BLOCK = 256


def _compress_columns(traces, filt, n_bit, normalization, single_period,
                      dtype):
    """Matched filtering of every column of an (n_per * period, n_pix) array.

    Returns the normalized mean of the steady periods as a (period,
    n_pix) array of ``dtype``, and the number of periods averaged.
    """
    period = len(filt.taps)
    n_avg = 1 if single_period else traces.shape[0] // period - 1
    scale = {Normalization.RAW: 1.0, Normalization.PER_GAIN: filt.gain,
             Normalization.PER_LENGTH: n_bit}[normalization]
    out = np.empty((period, traces.shape[1]), dtype=dtype)
    for start in range(0, traces.shape[1], _BLOCK):
        # pixels as rows: measured faster than convolving along axis 0
        block = traces[:, start: start + _BLOCK].T.astype(np.float64)
        conv = fftconvolve(block, filt.taps[None, :], axes=1)
        steady = np.mean([conv[:, period * i: period * (i + 1)]
                          for i in range(1, n_avg + 1)], axis=0)
        out[:, start: start + _BLOCK] = (steady / scale).T
    return out, n_avg


def compress_trace(y_plus_ac, filt, timing, normalization=Normalization.RAW,
                   single_period=False) -> CompressedTrace:
    """Compress one DC-removed trace with a matched filter.

    The input must cover an integer number (>= 2) of excitation periods
    of ``len(filt.taps)`` samples. Convolution runs in the Fourier
    domain with full zero padding, which matches direct summation to
    rounding error. By default every steady period is averaged;
    ``single_period`` keeps only the first. This is a one-column call of
    the core of :func:`compress_stack`.
    """
    y = np.asarray(y_plus_ac, dtype=float)
    period = len(filt.taps)
    if len(y) % period != 0:
        raise ShapeMismatch(
            f"trace length {len(y)} is not a multiple of the period {period}")
    if len(y) // period < 2:
        raise TooFewPeriods("need at least 2 excitation periods")
    values, n_avg = _compress_columns(
        y[:, None], filt, int(round(period / timing.k)), normalization,
        single_period, np.float64)
    return CompressedTrace(values=values[:, 0], normalization=normalization,
                           periods_averaged=n_avg)


def compress_stack(stack, code, timing, normalization=Normalization.RAW,
                   single_period=False) -> ThermogramStack:
    """Pixelwise compression of a DC-removed stack.

    Returns a stack of one period (K * N_bit frames) whose metadata
    records the compression parameters.
    """
    filt = build_matched_filter(code, timing)
    n_frames = stack.n_frames
    if n_frames != timing.total_frames(code.n_bit):
        raise ShapeMismatch(
            f"stack has {n_frames} frames, timing implies "
            f"{timing.total_frames(code.n_bit)}")
    out, n_avg = _compress_columns(
        stack.data.reshape(n_frames, -1), filt, code.n_bit, normalization,
        single_period, np.float32)
    metadata = dict(stack.metadata)
    metadata.update({
        "stage": "compressed",
        "code_kind": code.kind.value,
        "code_n_bit": str(code.n_bit),
        "k": str(timing.k),
        "normalization": normalization.value,
        "periods_averaged": str(n_avg),
    })
    return ThermogramStack(data=out.reshape(-1, stack.ny, stack.nx),
                           fps=stack.fps, metadata=metadata)


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
    block = stack.data[(slice(None),) + region.slices]
    return block.reshape(stack.n_frames, -1).astype(np.float64)


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
        raise ValueError("signal and reference regions overlap")
    m_sig = _region_block(stack, region_signal).mean(axis=1)
    block = _region_block(stack, region_reference)
    m_ref = block.mean(axis=1)
    contrast = float(np.abs(m_sig - m_ref).max())
    n_pix = block.shape[1]
    if n_pix < 2:
        noise_of_mean = 0.0
    else:
        resid = block - m_ref[:, None]
        pixel_std = np.sqrt(np.sum(resid ** 2)
                            / (stack.n_frames * (n_pix - 1)))
        noise_of_mean = float(pixel_std / np.sqrt(n_pix))
    if contrast == 0.0:
        return float("-inf")
    if noise_of_mean == 0.0:
        return float("inf")
    return 20.0 * float(np.log10(contrast / noise_of_mean))
