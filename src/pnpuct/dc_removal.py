"""Step-heating (DC) trend estimation and bias-aware removal.

Each pixel trace under unipolar coded heating splits into a smooth
step-heating trend and a zero-mean coded ripple. The trend is fitted by
a1*t + a2*t^0.75 + a3*t^0.5 with non-negative coefficients, then a
scaled copy is subtracted: scaling by (1 - bias) keeps exactly the DC
share that the bias of a modified sequence accounts for, so the output
equals the response to the modified-sequence excitation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .codes import check_code
from .errors import DegenerateTrace, ShapeMismatch
from .stack import ThermogramStack

_EXPONENTS = (1.0, 0.75, 0.5)


def design_matrix(times) -> np.ndarray:
    """Columns t, t^0.75, t^0.5 evaluated at the given times."""
    t = np.asarray(times, dtype=float)
    return np.stack([t ** e for e in _EXPONENTS], axis=1)


@dataclass(frozen=True)
class DcFit:
    """Non-negative coefficients of the trend fit plus its residual."""

    a1: float
    a2: float
    a3: float
    rms_residual: float

    @property
    def coefficients(self):
        return np.array([self.a1, self.a2, self.a3])


# Pixel columns per solve. Every block, the last one and a single trace
# included, is zero-padded to this width, so each column goes through
# the same BLAS calls and its fit does not depend on its neighbours.
_BLOCK = 256


def _fit_and_remove(traces, dt, keep, dtype, overwrite=False):
    """Trend fit and removal for every column of an (n, n_pix) array.

    Exact 3-variable NNLS: with B = QR and z = Q^T y, the subset S of
    columns leaves the residual |y|^2 - |z|^2 + |z - R_S c_S|^2, so all
    seven active sets are solved on the 3-vectors z. From the zero fit, a
    set replaces the best one only if it is feasible and better, in mask
    order 1..7, by more than the rounding of z: (n * eps * |z|)^2, which
    keeps exact the zero coefficients of a trace in the trend family.
    Each trace loses (1 - keep) times its trend. Returns the ``dtype``
    result and (n_pix, 4) rows of a1, a2, a3, rms; all-zero or
    non-finite columns give zero output and a NaN row. With
    ``overwrite`` a ``dtype`` ``traces`` is the result: each block is
    written back into the columns it was copied from.

    One float64 (n, _BLOCK) buffer holds, in turn, the block's traces,
    the trend, the residual and the scaled trend; y is re-read from
    ``traces`` where it is needed, which is exact because float32 to
    float64 is exact and mixed float32/float64 ufuncs compute in
    float64, so float32 output is the float64 one rounded. Both trends
    come from the same BLAS call, so they have the same bits.
    """
    n, n_pix = traces.shape
    basis = design_matrix(np.arange(n) * dt)
    q, r = np.linalg.qr(basis)
    subsets = []
    for mask in range(1, 8):
        idx = [i for i in range(3) if mask >> i & 1]
        subsets.append((np.linalg.pinv(r[:, idx]), r[:, idx], np.eye(3)[:, idx]))
    out = traces if overwrite else np.empty((n, n_pix), dtype)
    fits = np.empty((n_pix, 4))
    a = np.empty((n, _BLOCK))
    for start in range(0, n_pix, _BLOCK):
        m = min(_BLOCK, n_pix - start)
        src = traces[:, start: start + m]
        a[:, :m] = src
        a[:, m:] = 0.0
        # the basis is zero at t = 0, so is q's first row, and a +-inf in
        # frame 0 meets 0 * inf inside the product, which samples near
        # the float64 maximum overflow: valid below flags the NaN or inf
        # this gives, so numpy's warning would be noise
        with np.errstate(invalid="ignore", over="ignore"):
            z = q.T @ a
        valid = np.isfinite(z).all(axis=0) & a.any(axis=0)
        z[:, ~valid] = 0.0
        best = np.einsum("ij,ij->j", z, z)
        margin = (n * np.finfo(float).eps) ** 2 * best
        coefs = np.zeros((3, _BLOCK))
        for pinv, cols, lift in subsets:
            sol = pinv @ z
            gap = z - cols @ sol
            sq = np.einsum("ij,ij->j", gap, gap)
            better = (sol >= 0).all(axis=0) & (sq < best - margin)
            best = np.where(better, sq, best)
            coefs = np.where(better, lift @ sol, coefs)
        # invalid columns have zero coefficients, so a zero trend; their
        # residual may be non-finite, but their rms becomes NaN below
        np.matmul(basis, coefs, out=a)
        np.subtract(src, a[:, :m], out=a[:, :m])
        rms = np.sqrt(np.einsum("ij,ij->j", a, a) / n)
        np.matmul(basis, coefs, out=a)
        a *= 1.0 - keep
        block = out[:, start: start + m]
        np.subtract(src, a[:, :m], out=block, casting="unsafe")
        # an invalid column may hold non-finite values or -0.0
        block[:, ~valid[:m]] = 0.0
        fits[start: start + m] = np.where(valid, np.vstack([coefs, rms]),
                                          np.nan)[:, :m].T
    return out, fits


def _fit_trace(trace, timing, keep):
    """One column of :func:`_fit_and_remove` in float64; a NaN fit raises."""
    trace = np.asarray(trace, dtype=float)
    out, fits = _fit_and_remove(trace[:, None], timing.dt, keep, np.float64)
    if np.isnan(fits[0]).any():
        raise DegenerateTrace("trace is all zero or has no finite fit")
    return out[:, 0], DcFit(*fits[0].tolist())


def fit_dc(trace, timing) -> DcFit:
    """Non-negative least-squares trend fit of a pixel trace.

    Times are n * dt from the timing. The solution is the global
    optimum of the constrained problem, and equals the fit the same
    trace gets inside :func:`remove_dc_stack`.
    """
    return _fit_trace(trace, timing, 0.0)[1]


def _validate_bias(code):
    """The bias DC removal keeps, once :func:`check_code` passed the code."""
    return check_code(code).bias


def remove_dc(trace, code, timing) -> np.ndarray:
    """Subtract the scaled trend: trace - (1 - bias) * fitted trend.

    Standard codes have zero bias (plain subtraction); modified codes
    keep the bias share of the trend so the result matches the response
    to the biased sequence. One pixel of :func:`remove_dc_stack`, zero
    padded to a block: rounded to float32, the same bits.
    """
    return _fit_trace(trace, timing, _validate_bias(code))[0]


def remove_dc_stack(stack, code, timing, overwrite_input=False):
    """Pixelwise fit and removal over a whole stack.

    Returns the DC-removed stack and a (ny, nx, 4) float64 fit map of
    a1, a2, a3 and rms residual per pixel; pixels rejected as degenerate
    hold NaN rows and pass through as zero traces. The input stack is
    left untouched unless ``overwrite_input`` is true: then the result
    is written into the input's buffer, which the returned stack shares,
    and no stack-sized array is allocated.
    """
    bias = _validate_bias(code)
    n_frames = stack.n_frames
    expected = timing.total_frames(code.n_bit)
    if n_frames != expected:
        raise ShapeMismatch(
            f"stack has {n_frames} frames, timing implies {expected}")
    out, fits = _fit_and_remove(stack.data.reshape(n_frames, -1), timing.dt,
                                bias, np.float32, overwrite_input)
    metadata = dict(stack.metadata)
    metadata.update({
        "stage": "dc_removed",
        "code_kind": code.kind.value,
        "code_n_bit": str(code.n_bit),
        "bias": repr(bias),
    })
    removed = ThermogramStack(data=out.reshape(stack.data.shape),
                              fps=stack.fps, metadata=metadata)
    return removed, fits.reshape(stack.ny, stack.nx, 4)


def export_fit_map_csv(fits, path):
    """Diagnostic CSV of a (ny, nx, 4) fit map (j_x, j_y, a1, a2, a3, rms).

    Degenerate pixels, NaN rows in the map, print as nan.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j_x", "j_y", "a1", "a2", "a3", "rms"])
        for jy, row in enumerate(np.asarray(fits, dtype=float).tolist()):
            for jx, fit in enumerate(row):
                writer.writerow([jx, jy, *map(repr, fit)])
