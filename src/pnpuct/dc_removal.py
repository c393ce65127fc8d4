"""Step-heating (DC) trend estimation and bias-aware removal.

Each pixel trace under unipolar coded heating splits into a smooth
step-heating trend and a zero-mean coded ripple. The trend is fitted by
a1*t + a2*t^0.75 + a3*t^0.5 with non-negative coefficients, then a
scaled copy is subtracted: scaling by (1 - bias) keeps exactly the DC
share that the bias of a modified sequence accounts for, so the output
equals the response to the modified-sequence excitation.

:func:`_blocks` is the one loop that reads raw or DC-removed traces,
a block of columns at a time, out of bands of whole blocks: of a stack
in memory, of a stack mapped from its file, copied out of the file a
band at a time (:func:`_bands`), or of a scene simulated a band at a
time (:class:`pnpuct.thermal.SimulatedStack`). The fit and removal here
run in it, and
so does the matched filter of :mod:`pnpuct.compression`, alone or fused
with the fit of :class:`_Trend`: both steps are linear, so the
compressed DC-removed trace is C(y - (1 - bias) B c) = C(r) + bias C(B) c,
with r the fit residual, and no trend or DC-removed trace is formed.

Every trend product of the loop, B c in the residual r = y - B c, the
DC output's (1 - bias) B c and the filtered kept term bias C(B) c, is
one BLAS GEMM update C <- alpha A B + beta C (:func:`_gemm`), written
into the block's buffer in the same pass that computes it. The matched
filter's two products are in-place triangular BLAS updates of the same
buffer (:func:`_trmm`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dtrmm

from .codes import check_code
from .errors import DegenerateTrace, ShapeMismatch
from .stack import (_CHUNK_FRAMES, CHUNK_BYTES, ThermogramStack, chunks,
                    drops_pages, write_hashed)

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

# Bytes of a band of a file-mapped stack (stack.open_stack): the widest
# whole number of _BLOCK columns of n_frames float32 samples within it,
# one block at least, is copied out of the file at a time, in chunks of
# stack.CHUNK_BYTES of frames and of stack._CHUNK_FRAMES frames at
# least. For 64x64x2480 frames that is 4 bands of 1024 columns (10.2
# MB) in chunks of 64 frames: with the 20.3 MB period and a 5.1 MB
# block, a pipeline run peaked 41.9 MB above its start (48.1 MB reading
# the stack whole).
# At 320x256x2480 frames each of 80 bands maps all 812 MB of the file
# once more, 2 MiB at a time, and drops it: gathering them took 0.39 s
# of CPU, 0.15 s without the drops and 0.64 s in chunks of 3 frames
# (1 MiB), against 3.7-4.1 s for a pipeline run. A simulated scene is
# made in the same bands (thermal.SimulatedStack).
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
    blocks within _BAND_BYTES, one block at least, or all n_pix."""
    return min(max(1, _BAND_BYTES // (4 * n * _BLOCK)) * _BLOCK, n_pix)


def _bands(traces):
    """(cols, band) pairs that cover the columns of an (n, n_pix) array.

    An array in memory is one band, the array itself. A view of a
    mapped file (:func:`pnpuct.stack.drops_pages`) is copied a band of
    :func:`_band_width` columns at a time into one reused float32
    buffer, a chunk of frames at a time through
    :func:`pnpuct.stack.chunks`, which drops the file pages behind each
    chunk: the file is never resident.
    """
    n, n_pix = traces.shape
    if not traces.size or not drops_pages(traces):
        yield slice(0, n_pix), traces
        return
    width = _band_width(n, n_pix)
    buffer = np.empty((n, width), np.float32)
    step = max(_CHUNK_FRAMES, CHUNK_BYTES // (4 * n_pix))
    for start in range(0, n_pix, width):
        cols = slice(start, min(start + width, n_pix))
        band = buffer[:, :cols.stop - start]
        # each band reads the file from its first frame on
        for chunk, gathered in zip(chunks(traces, step), chunks(band, step),
                                   strict=True):
            gathered[...] = chunk[:, cols]
        yield cols, band


def _stack_bands(stack):
    """(cols, band) pairs of the pixel columns of a stack's frames.

    A :class:`pnpuct.thermal.SimulatedStack` simulates them (its
    ``bands``); any other stack gives :func:`_bands` of its data.
    """
    if hasattr(stack, "bands"):
        return stack.bands()
    return _bands(stack.data.reshape(stack.n_frames, -1))


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
        the mask of valid columns. All-zero or non-finite columns, those
        whose |z|^2 overflows, and the padding are invalid: they get
        zero coefficients, so a zero trend, and a NaN row; their
        residual may be non-finite. ``a`` holds y exactly, float32 to
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
        # a zero column has z = 0, so only the padding and the columns
        # with |z| = 0 can be all zero
        valid = np.isfinite(best)
        valid[m:] = False
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


def _fit_and_remove(bands, shape, dt, keep, dtype):
    """Each column of an array minus (1 - keep) times its fitted trend.

    ``bands`` are the (cols, band) pairs of the array, as
    :func:`_blocks` reads them, and ``shape`` its (n, n_pix) shape.
    Returns a new array of ``dtype`` and that shape, and the (n_pix, 4)
    fit-map rows. The scaled trend is formed in float64 and subtracted
    from the re-read trace, so float32 output is the float64 result
    rounded once; invalid columns give zero.
    """
    out = np.empty(shape, dtype)
    trend = _Trend(shape[0], dt)
    fits = np.empty((shape[1], 4))
    for cols, src, a in _blocks(bands):
        coefs, valid = trend.residual(a, fits[cols])
        _gemm(1.0 - keep, trend.basis, coefs, 0.0, a)
        m = src.shape[1]
        block = out[:, cols]
        np.subtract(src, a[:, :m], out=block, casting="unsafe")
        # an invalid column may hold non-finite values or -0.0
        block[:, ~valid[:m]] = 0.0
    return out, fits


def _fit_trace(trace, timing, keep):
    """One column of :func:`_fit_and_remove` in float64, and its fit."""
    trace = np.asarray(trace, dtype=float)[:, None]
    out, (row,) = _fit_and_remove(_bands(trace), trace.shape, timing.dt,
                                  keep, np.float64)
    if np.isnan(row).any():
        raise DegenerateTrace("trace is all zero or has no finite fit")
    return out[:, 0], DcFit(*row.tolist())


def fit_dc(trace, timing) -> DcFit:
    """Non-negative least-squares trend fit of a pixel trace.

    Times are n * dt from the timing. The solution is the global
    optimum of the constrained problem, and equals the fit the same
    trace gets inside :func:`remove_dc_stack`.
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
    padded to a block: rounded to float32, the same bits.
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
    bias = _validate_bias(check_code(code))
    n_frames = stack.n_frames
    expected = timing.total_frames(code.n_bit)
    if n_frames != expected:
        raise ShapeMismatch(
            f"stack has {n_frames} frames, timing implies {expected}")
    out, fits = _fit_and_remove(_stack_bands(stack),
                                (n_frames, stack.ny * stack.nx),
                                timing.dt, bias, np.float32)
    metadata = dict(stack.metadata)
    metadata.update({
        "stage": "dc_removed",
        "code_kind": code.kind.value,
        "code_n_bit": str(code.n_bit),
        "bias": repr(bias),
    })
    removed = ThermogramStack(data=out.reshape(n_frames, stack.ny, stack.nx),
                              fps=stack.fps, metadata=metadata)
    return removed, fits.reshape(stack.ny, stack.nx, 4)


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
