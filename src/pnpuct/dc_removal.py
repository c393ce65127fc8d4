"""Step-heating (DC) trend estimation and bias-aware removal.

Each pixel trace under unipolar coded heating splits into a smooth
step-heating trend and a zero-mean coded ripple. The trend is fitted by
a1*t + a2*t^0.75 + a3*t^0.5 with non-negative coefficients, then a
scaled copy is subtracted: scaling by (1 - bias) keeps exactly the DC
share that the bias of a modified sequence accounts for, so the output
equals the response to the modified-sequence excitation.

:func:`_columns` is the one core that transforms traces, a block of
columns at a time (:func:`_blocks`) out of bands of whole blocks; a
stack enters it through :func:`_transform`, a trace through
:func:`_trace`. It applies a linear op to each block, fused, when
asked, with the fit of :class:`_Trend`: the op of the DC-removed trace
is then op(y - (1 - bias) B c) = op(r) + bias op(B) c, with r the fit
residual, and no trend or DC-removed trace is formed. DC removal is
that core with the identity op, and :mod:`pnpuct.compression` the same
core with the matched filter, alone or fused with the fit.

Every trend product of the core, B c in the residual r = y - B c and
the kept term bias op(B) c, is one BLAS GEMM update
C <- alpha A B + beta C (:func:`_gemm`), written into the block's
buffer in the same pass that computes it. The matched filter's two
products are in-place triangular BLAS updates of the same buffer
(:func:`_trmm`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dtrmm

from .codes import check_code
from .errors import DegenerateTrace, ShapeMismatch
from .stack import derived_stack, write_hashed

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


# Pixel columns per block. Every block, the last one and a single trace
# included, is zero-padded to this width, so each column goes through
# the same BLAS calls and its result does not depend on its neighbours.
# Removing the DC trend of 64x64x2480 LS31 K=40 frames and compressing
# them in one pass (1 BLAS thread, 2-vCPU Xeon VM) took 0.07, 0.06, 0.06
# and 0.06 s of CPU at widths 128, 256, 512 and 1024, with traced peaks
# of 23.2, 25.8, 30.9 and 41.2 MB, the 20.3 MB output included.
_BLOCK = 256

# Bytes of a band of a stack's columns (the width of its bands(width)):
# the widest whole number of _BLOCK columns of n_frames float32 samples
# within it, one block at least. For 64x64x2480 frames that is 4 bands
# of 1024 columns (10.2 MB): with the 20.3 MB period and a 5.1 MB block,
# a pipeline run from the file peaked 41.9 MB above its start (48.1 MB
# reading the stack whole). A mapped stack is copied out of its file
# (stack.ThermogramStack.bands) and a simulated scene is made
# (thermal.SimulatedStack.bands) in bands of this width.
_BAND_BYTES = 10 << 20


def _gemm(alpha, x, y, beta, c):
    """c <- alpha * x @ y + beta * c, in place, for float64 arrays.

    BLAS dgemm runs on the transposed views, which are F-contiguous for
    a C-contiguous ``c``: c.T <- alpha * y.T @ x.T + beta * c.T. With
    beta = 0 the old contents of ``c`` are not read. dgemm copies a
    target it cannot write in place and returns the copy, which would
    leave ``c`` unchanged, so that raises instead.
    """
    target = c.T
    if dgemm(alpha, y.T, x.T, beta, target, overwrite_c=True) is not target:
        raise RuntimeError(
            "dgemm copied its target; pass a C-contiguous float64 array")


def _trmm(t, b, upper):
    """b <- t @ b, in place, for float64 arrays and a triangular ``t``.

    ``t`` is upper triangular if ``upper``, else lower; only that
    triangle and the diagonal are read. BLAS dtrmm runs on the
    transposed views, as in :func:`_gemm`: b.T <- b.T @ t.T, with t.T
    of the other triangle. A target that dtrmm copied raises.
    """
    target = b.T
    if dtrmm(1.0, t.T, target, side=1, lower=int(upper),
             overwrite_b=1) is not target:
        raise RuntimeError(
            "dtrmm copied its target; pass a C-contiguous float64 array")


def _band_width(n, n_pix):
    """Columns of a band of n-sample float32 columns: the most whole
    blocks within _BAND_BYTES, one block at least, or all n_pix (1 if none)."""
    return min(max(1, _BAND_BYTES // (4 * n * _BLOCK)) * _BLOCK, n_pix) or 1


def _blocks(bands):
    """The one loop over blocks of the columns of an (n, n_pix) array.

    ``bands`` yields (cols, band) pairs, in order, that cover the
    columns: ``cols`` a slice starting at a multiple of _BLOCK, ``band``
    the (n, w) array of those columns, read before the next pair is
    drawn. Yields (cols, src, a) per block: the column slice, the
    block's columns in its band and one float64 (n, _BLOCK) buffer,
    allocated once per call, that holds the block's columns zero-padded
    to _BLOCK. The caller may overwrite ``a``; the next block refills
    it.
    """
    a = None
    for band_cols, band in bands:
        if a is None:
            a = np.empty((len(band), _BLOCK))
        for start in range(band_cols.start, band_cols.stop, _BLOCK):
            cols = slice(start, min(start + _BLOCK, band_cols.stop))
            src = band[:, cols.start - band_cols.start:
                       cols.stop - band_cols.start]
            m = src.shape[1]
            a[:, :m] = src
            a[:, m:] = 0.0
            yield cols, src, a


class _Trend:
    """Exact non-negative least-squares trend fit of blocks of traces.

    With B = QR and z = Q^T y, the subset S of columns leaves the
    residual |y|^2 - |z|^2 + |z - R_S c_S|^2, so all seven active sets
    are solved on the 3-vectors z. From the zero fit, a set replaces the
    best one only if it is feasible and better, in mask order 1..7, by
    more than the rounding of z: (n * eps * |z|)^2, which keeps exact
    the zero coefficients of a trace in the trend family.
    """

    def __init__(self, n, dt):
        self.basis = design_matrix(np.arange(n) * dt)
        self._q, r = np.linalg.qr(self.basis)
        self._subsets = []
        for mask in range(1, 8):
            idx = [i for i in range(3) if mask >> i & 1]
            self._subsets.append((np.linalg.pinv(r[:, idx]), r[:, idx],
                                  np.eye(3)[:, idx]))

    def residual(self, a, rows):
        """Fit the block ``a`` of :func:`_blocks` and leave r = y - trend.

        ``rows``, the block's (m, 4) rows of the fit map, gets a1, a2,
        a3 and the rms of r. Returns the (3, _BLOCK) coefficients and
        the mask of valid columns. All-zero or non-finite real columns,
        and those whose |z|^2 overflows, are invalid: they get zero
        coefficients, so a zero trend, and a NaN row; their residual may
        be non-finite. The padding is not invalid: it is zero, fits to
        zero and is never stored. ``a`` holds y exactly, float32 to
        float64 being exact, and the trend is subtracted from it in the
        GEMM update that computes it.
        """
        n = len(a)
        m = rows.shape[0]
        # the basis is zero at t = 0, so is q's first row, and a +-inf in
        # frame 0 meets 0 * inf inside the product, which samples near
        # the float64 maximum overflow: valid below flags the NaN or inf
        # this gives, so numpy's warning would be noise; a finite z whose
        # squares overflow makes |z|^2 inf, and its column invalid too;
        # einsum sums in a fixed order, where a BLAS product of q^T and a
        # sums in an order set by the thread count, so the fit's bits
        # would follow the number of BLAS threads
        with np.errstate(invalid="ignore", over="ignore"):
            z = np.einsum("ni,nj->ij", self._q, a)
            best = np.einsum("ij,ij->j", z, z)
        # a zero column has z = 0, so only the columns with |z| = 0 can
        # be all zero
        valid = np.isfinite(best)
        flat = np.flatnonzero(best[:m] == 0.0)
        if flat.size:
            valid[flat] = a[:, flat].any(axis=0)
        z[:, ~valid] = 0.0
        best[~valid] = 0.0
        margin = (n * np.finfo(float).eps) ** 2 * best
        coefs = np.zeros((3, _BLOCK))
        for pinv, r_s, lift in self._subsets:
            sol = pinv @ z
            gap = z - r_s @ sol
            sq = np.einsum("ij,ij->j", gap, gap)
            better = (sol >= 0).all(axis=0) & (sq < best - margin)
            best = np.where(better, sq, best)
            coefs = np.where(better, lift @ sol, coefs)
        _gemm(-1.0, self.basis, coefs, 1.0, a)
        rms = np.sqrt(np.einsum("ij,ij->j", a, a) / n)
        rows[...] = np.where(valid, np.vstack([coefs, rms]),
                             np.nan)[:, :m].T
        return coefs, valid


def _columns(bands, shape, op, rows, dtype, keep=None, dt=None):
    """The one loop that transforms every column of an (n, n_pix) array.

    ``bands`` are the (cols, band) pairs of the array, as :func:`_blocks`
    reads them, and ``shape`` its (n, n_pix) shape. ``op`` is a linear
    map of the columns of a C-contiguous float64 (n, w) array, computed
    in place: it returns a (rows, w) view of its input. Returns a new
    (rows, n_pix) array of ``dtype`` and the (n_pix, 4) fit-map rows.

    Without ``keep`` each column y gives op(y) and there is no fit map.
    With ``keep`` (a share of the trend, and ``dt`` the frame interval)
    each column is fitted by :class:`_Trend` and gives op(y - (1 - keep)
    B c) as op(r) + keep op(B) c: the residual r = y - B c through
    ``op``, plus op(B), formed once per call, times the coefficients,
    added by one GEMM update. Both are float64; the sum is rounded once.
    Invalid columns give zero; the padding is not invalid, so the two
    masked zeroings touch only real columns.
    """
    n, n_pix = shape
    out = np.empty((rows, n_pix), dtype)
    fits = None
    if keep is not None:
        trend = _Trend(n, dt)
        kept = keep * op(trend.basis.copy())
        fits = np.empty((n_pix, 4))
    for cols, src, a in _blocks(bands):
        if fits is not None:
            coefs, valid = trend.residual(a, fits[cols])
            # an invalid column's residual may hold non-finite values
            a[:, ~valid] = 0.0
        product = op(a)
        if fits is not None:
            _gemm(1.0, kept, coefs, 1.0, product)
            # op of a zero column may hold -0.0
            product[:, ~valid] = 0.0
        out[:, cols] = product[:, :src.shape[1]]
    return out, fits


def _check_frames(n_frames, code, timing):
    """The frame rule: n_per periods of the code exactly, or ShapeMismatch."""
    expected = timing.total_frames(code.n_bit)
    if n_frames != expected:
        raise ShapeMismatch(
            f"{n_frames} frames given, timing implies {expected}")


def _transform(stack, code, timing, op, rows, keep, metadata):
    """The one way from a stack through :func:`_columns` to a new stack.

    Reads the stack's ``bands`` of :func:`_band_width` columns, whatever
    the stack: a :class:`pnpuct.stack.ThermogramStack` in memory or
    mapped, or a :class:`pnpuct.thermal.SimulatedStack` simulated as it
    is read. Returns the float32 (rows, ny, nx) stack, its metadata the
    source's plus the code's, ``metadata`` and the bias kept, if any;
    and the (ny, nx, 4) fit map, or None without ``keep``.
    """
    _check_frames(stack.n_frames, code, timing)
    shape = stack.n_frames, stack.ny * stack.nx
    out, fits = _columns(stack.bands(_band_width(*shape)), shape, op, rows,
                         np.float32, keep, timing.dt)
    metadata = {"code_kind": code.kind.value, "code_n_bit": str(code.n_bit),
                **metadata}
    if keep is not None:
        metadata["bias"] = repr(keep)
        fits = fits.reshape(stack.ny, stack.nx, 4)
    return derived_stack(stack, out.reshape(rows, stack.ny, stack.nx),
                         stack.fps, metadata), fits


def _trace(trace, op, rows, keep=None, dt=None):
    """:func:`_columns` of one trace, in float64: its (rows,) result and
    its (1, 4) fit-map rows, or None without ``keep``."""
    column = np.asarray(trace, dtype=float)[:, None]
    out, fits = _columns([(slice(0, 1), column)], column.shape, op, rows,
                         np.float64, keep, dt)
    return out[:, 0], fits


def _identity(a):
    """The op of :func:`_columns` that DC removal runs: ``a`` itself."""
    return a


def _fit_trace(trace, timing, keep):
    """One column of :func:`remove_dc_stack` in float64, and its fit."""
    values, (row,) = _trace(trace, _identity, len(trace), keep, timing.dt)
    if np.isnan(row).any():
        raise DegenerateTrace("trace is all zero or has no finite fit")
    return values, DcFit(*row.tolist())


def fit_dc(trace, timing) -> DcFit:
    """Non-negative least-squares trend fit of a pixel trace.

    Times are n * dt from the timing. The solution is the global
    optimum of the constrained problem, and equals the fit the same
    trace gets inside :func:`remove_dc_stack`, at :func:`remove_dc`'s cost.
    """
    return _fit_trace(trace, timing, 0.0)[1]


def _validate_bias(code):
    """The share of the fitted trend that DC removal keeps: the bias.

    Every DC path looks it up here when it runs. The callers that
    return a DC-removed trace first pass the code through
    :func:`check_code`.
    """
    return code.bias


def remove_dc(trace, code, timing) -> np.ndarray:
    """Subtract the scaled trend: trace - (1 - bias) * fitted trend.

    Standard codes have zero bias (plain subtraction); modified codes
    keep the bias share of the trend so the result matches the response
    to the biased sequence. One pixel of :func:`remove_dc_stack`, zero
    padded to a block: rounded to float32, the same bits, for a median of
    2.1 ms of CPU at 2480 samples (2-vCPU Xeon VM, 1 BLAS thread).
    """
    return _fit_trace(trace, timing, _validate_bias(check_code(code)))[0]


def remove_dc_stack(stack, code, timing):
    """Pixelwise fit and removal over a whole stack.

    Returns a new DC-removed stack and a (ny, nx, 4) float64 fit map of
    a1, a2, a3 and rms residual per pixel; pixels rejected as degenerate
    hold NaN rows and pass through as zero traces. The input stack is
    left untouched. It may also be a
    :class:`pnpuct.thermal.SimulatedStack`, simulated a band at a time.
    """
    return _transform(stack, code, timing, _identity, stack.n_frames,
                      _validate_bias(check_code(code)),
                      {"stage": "dc_removed"})


def export_fit_map_csv(fits, path):
    """Diagnostic CSV of a (ny, nx, 4) fit map (j_x, j_y, a1, a2, a3, rms).

    Degenerate pixels, NaN rows in the map, print as nan. The bytes are
    those of ``csv.writer`` on the ``repr`` of each value, CRLF line ends
    included; each pixel row is formatted, hashed and written as one
    chunk. Returns the SHA-256 hex digest of the bytes written.
    """
    return write_hashed(path, _fit_map_rows(np.asarray(fits, dtype=float)))


def _fit_map_rows(fits):
    yield b"j_x,j_y,a1,a2,a3,rms\r\n"
    for jy, row in enumerate(fits):
        yield "".join([f"{jx},{jy},{a!r},{b!r},{c!r},{r!r}\r\n"
                       for jx, (a, b, c, r) in enumerate(row.tolist())]
                      ).encode("utf-8")
