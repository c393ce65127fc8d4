"""Thermogram stack container and the TGS1 binary file format.

Layout of a TGS1 file, all integers little-endian:

    bytes 0..3    magic "TGS1"
    bytes 4..15   uint32 nx, ny, n_frames
    bytes 16..19  float32 fps (exact k / t_bit when the metadata holds both)
    bytes 20..23  uint32 metadata byte length
    ...           UTF-8 metadata, "key = value" lines joined by LF (0x0A)
    ...           frames, time-major then row-major, float32

Stacks hold 32-bit intensities (camera realistic); pipeline math runs in
64-bit and narrows only when a new stack is built.

:func:`open_stack` is the one reader of a file's frames. It maps them
read-only: its stack's data is a view of the file. Every reader of a
stack walks it a chunk of frames at a time with :func:`chunks`, which
drops the file pages behind each chunk of a mapped stack, so a stack
larger than memory is read with memory bounded by the chunk, not by
the stack. :func:`read_stack` is :func:`open_stack` plus one copy into
memory. :func:`write_stack` writes a stack a chunk of frames at a
time; :func:`write_bands` stores a new file's frames a band of pixels
at a time. This module is the only one that drops pages.
"""

from __future__ import annotations

import hashlib
import itertools
import mmap
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadHeader, BadMagic, IndexOutOfRange, InvalidStack,
                     NonFiniteData, OverwritesInput, StackChanged,
                     TrailingBytes, TruncatedFile, UnencodableMetadata)

MAGIC = b"TGS1"
FORMAT_VERSION = "TGS1"
# bytes of a mapped file that a reader touches between page drops
CHUNK_BYTES = 1 << 20
# frames of a chunk of a band of pixel columns, at least: a band of few
# columns reads or stores whole 2 MiB blocks of the file between drops
_CHUNK_FRAMES = 16
# A read of a mapped file maps the whole folio of page cache that holds
# it, up to 2 MiB, as one huge page where it can (x86-64 and arm64), so
# pages are dropped in whole aligned 2 MiB blocks: dropping part of one
# splits it into 512 pages first. Gathering the bands of 320x256x2480
# frames with a drop every 1 MiB took 1.41 s of CPU at page bounds and
# 1.12 s at 2 MiB bounds.
_FOLIO = 2 << 20


class _FileMap(mmap.mmap):
    """A file mapped here: dropping pages of any other mapping can lose data."""


@dataclass(eq=False)
class ThermogramStack:
    """Frames over time for a pixel grid, with self-describing metadata."""

    data: np.ndarray
    fps: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise InvalidStack("data must be (n_frames, ny, nx)")
        check_finite(data, "stack data must be finite")
        if not 0 < self.fps < np.inf:
            raise InvalidStack("fps must be positive and finite")
        self.data = data
        self.fps = float(self.fps)
        self.metadata = {str(k): str(v) for k, v in self.metadata.items()}

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def ny(self) -> int:
        return self.data.shape[1]

    @property
    def nx(self) -> int:
        return self.data.shape[2]

    def pixel_trace(self, jx, jy) -> np.ndarray:
        """Time trend of one pixel as float64, read through :func:`chunks`."""
        if not (0 <= jx < self.nx and 0 <= jy < self.ny):
            raise IndexOutOfRange(
                f"pixel ({jx}, {jy}) outside {self.nx} x {self.ny} grid")
        trace = np.empty(self.n_frames)
        for rows, frames in chunks(self.data):
            trace[rows] = frames[:, jy, jx]
        return trace

    def bands(self, width):
        """(cols, band) pairs, in order, of the flattened pixel columns:
        ``band`` the (n_frames, w) samples of columns ``cols``, read
        before the next pair is drawn; ``width`` must be a positive
        integer (InvalidStack). A stack in memory is one band, its
        (n_frames, ny * nx) data in place. A mapped stack is copied
        ``width`` columns at a time into one reused buffer, in chunks of
        frames through :func:`chunks`, so the file is never resident. At
        320x256x2480 frames each of 80 bands of 1024 columns maps all
        812 MB once more, 2 MiB at a time: gathering them took 0.39 s of
        CPU, 0.15 s without the drops and 0.64 s in chunks of 3 frames
        (1 MiB), against 3.7-4.1 s for a pipeline run.
        """
        check_width(width)
        n_pix = self.ny * self.nx
        traces = self.data.reshape(self.n_frames, n_pix)
        if not traces.size or not drops_pages(traces):
            yield slice(0, n_pix), traces
            return
        buffer = np.empty((self.n_frames, width), np.float32)
        step = _frame_step(n_pix)
        for start in range(0, n_pix, width):
            cols = slice(start, min(start + width, n_pix))
            band = buffer[:, :cols.stop - start]
            # each band reads the file from its first frame on
            for rows, chunk in chunks(traces, step):
                band[rows] = chunk[:, cols]
            yield cols, band


def _frame_step(n_pix):
    """Frames of a chunk of a band of n_pix columns (see _CHUNK_FRAMES)."""
    return max(_CHUNK_FRAMES, CHUNK_BYTES // max(4 * n_pix, 1))


def check_finite(array, message, update=None):
    """The one finiteness rule: NonFiniteData(message) at the first NaN
    or inf of ``array``, read through :func:`chunks`, each chunk fed to
    ``update`` first if given. One mask serves every chunk: a new one
    per chunk would be mapped and faulted in afresh each time under a
    small mmap threshold."""
    finite = None
    for _, chunk in chunks(array):
        if update is not None:
            update(chunk)
        if finite is None:
            finite = np.empty(chunk.shape, bool)
        if not np.isfinite(chunk, out=finite[:len(chunk)]).all():
            raise NonFiniteData(message)


def derived_stack(source, data, fps, metadata):
    """A new stack from ``source``: its metadata updated by ``metadata``."""
    return ThermogramStack(data=data, fps=fps,
                           metadata={**source.metadata, **metadata})


def check_stored(stack):
    """Raise InvalidStack for a stack that stores no samples: any but a
    ThermogramStack, such as a :class:`pnpuct.thermal.SimulatedStack`."""
    if not isinstance(stack, ThermogramStack):
        raise InvalidStack(
            "the stack holds no samples: read it through its bands(), or "
            "store it with simulate_stack")


def check_width(width):
    """Raise InvalidStack unless a band's ``width`` is a positive integer."""
    if not isinstance(width, (int, np.integer)) or width < 1:
        raise InvalidStack(f"band width {width!r} is not a positive integer")


def _encode_metadata(metadata) -> bytes:
    lines = []
    for key in sorted(metadata):
        value = metadata[key]
        if "\n" in key or "\n" in value or "=" in key:
            raise UnencodableMetadata(
                f"metadata key/value not encodable: {key!r}")
        lines.append(f"{key} = {value}")
    return "\n".join(lines).encode("utf-8")


def _decode_metadata(blob) -> dict:
    metadata = {}
    # lines end at "\n" alone: keys and values may hold any other break
    for line in blob.decode("utf-8").split("\n"):
        if not line.strip():
            continue
        key, _, value = line.partition(" = ")
        metadata[key] = value
    return metadata


def write_hashed(path, chunks):
    """Write byte chunks to a file; return the SHA-256 hex digest of them.

    Each chunk is hashed as it is written, so the file is not read back.
    Every pnpuct writer goes through here, and the digest it returns is
    the one a run manifest records.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            digest.update(chunk)
            fh.write(chunk)
    return digest.hexdigest()


def crlf_text(*parts):
    """UTF-8 bytes of the lines of each part, each ended by CRLF.

    For rows of numbers, fields that need no quoting, these are the
    bytes that ``csv.writer`` writes, joined into one chunk.
    """
    return "".join([f"{line}\r\n" for lines in parts
                    for line in lines]).encode("utf-8")


def time_series_csv(samples, fps):
    """CSV bytes of a trace: a ``time_s,value`` header, sample n at n / fps."""
    return crlf_text(["time_s,value"], (
        f"{n / fps!r},{v!r}" for n, v in enumerate(samples.tolist())))


def _header(shape, fps, metadata):
    """Header and metadata bytes of a TGS1 file of (n_frames, ny, nx) frames."""
    n_frames, ny, nx = shape
    meta = _encode_metadata(metadata)
    return MAGIC + struct.pack("<IIIfI", nx, ny, n_frames, fps,
                               len(meta)) + meta


def write_stack(stack, path):
    """Write a stack and return the SHA-256 hex digest of the bytes written.

    :func:`check_stored` comes first; the frames are then read through
    :func:`chunks`. The round trip through :func:`read_stack` is bit-exact.
    """
    check_stored(stack)
    head = _header(stack.data.shape, stack.fps, stack.metadata)
    # no copy on a little-endian host
    frames = chunks(stack.data.astype("<f4", copy=False))
    return write_hashed(path, itertools.chain([head], (c for _, c in frames)))


def write_bands(path, shape, fps, metadata, bands):
    """Write a TGS1 file of ``shape`` frames from bands of pixel columns.

    ``bands`` yields (cols, band) pairs, in order, that cover the
    flattened pixel columns of the (n_frames, ny * nx) frames: ``cols``
    a slice and ``band`` the (n_frames, w) samples of those columns,
    read before the next pair is drawn. The file holds the bytes
    :func:`write_stack` writes of the same stack.

    The frames' bytes are preallocated with ``os.posix_fallocate``, so a
    disk too full for them raises OSError (ENOSPC) before any band is
    drawn. Where that call is missing (macOS, Windows) the file is
    extended sparse instead: a store into the mapping that finds the
    disk full then kills the process with SIGBUS, which Python cannot
    catch. A band is stored into a shared mapping of the frames, a
    chunk of frames at a time (at least _CHUNK_FRAMES), and
    :func:`chunks` drops the pages behind each chunk, so the file is
    never resident; it must not be truncated meanwhile, or a store past
    its end kills the process with SIGBUS too.
    """
    head = _header(shape, fps, metadata)
    n_frames, n_pix = shape[0], shape[1] * shape[2]
    size = len(head) + 4 * n_frames * n_pix
    step = _frame_step(n_pix)
    with open(path, "wb+") as fh:
        fh.write(head)
        fh.flush()
        allocate = getattr(os, "posix_fallocate", None)
        if allocate is None:
            fh.truncate(size)
        else:
            allocate(fh.fileno(), 0, size)
        whole = np.frombuffer(_FileMap(fh.fileno(), size), np.uint8)
        frames = whole[len(head):].view("<f4").reshape(n_frames, n_pix)
        for cols, band in bands:
            # each band writes the file from its first frame on
            for rows, stored in chunks(frames, step):
                stored[:, cols] = band[rows]


def _read_header(fh, path, update):
    """Shape, frame rate and metadata of an open TGS1 file, checked.

    Reads the header and metadata, feeding their bytes to ``update``,
    and checks the file's size against them, so ``fh`` is left at the
    first frame with exactly the frames' bytes after it.
    """
    size = os.fstat(fh.fileno()).st_size
    header = fh.read(24)
    update(header)
    if header[:4] != MAGIC:
        raise BadMagic(f"{path}: expected {MAGIC!r} header")
    if len(header) < 24:
        raise TruncatedFile(f"{path}: header incomplete")
    nx, ny, n_frames, fps, meta_len = struct.unpack("<4xIIIfI", header)
    if not 0 < fps < np.inf:
        raise BadHeader(
            f"{path}: frame rate {fps} is not positive and finite")
    blob = fh.read(meta_len)
    update(blob)
    if len(blob) < meta_len:
        raise TruncatedFile(f"{path}: metadata incomplete")
    try:
        metadata = _decode_metadata(blob)
    except UnicodeDecodeError as exc:
        raise BadHeader(f"{path}: metadata is not UTF-8: {exc}") from exc
    expected = 24 + meta_len + 4 * n_frames * ny * nx
    if size < expected:
        raise TruncatedFile(
            f"{path}: expected {expected} bytes, found {size}")
    if size > expected:
        raise TrailingBytes(
            f"{path}: {size - expected} trailing bytes after the frames")
    return (n_frames, ny, nx), _exact_fps(fps, metadata), metadata


def read_stack(path) -> ThermogramStack:
    """Read a TGS1 file into a writeable stack in memory.

    The file is opened and checked by :func:`open_stack`, with its
    errors. The frames are then copied out through :func:`chunks`, so
    the file is not resident next to the copy. As for :func:`open_stack`,
    the file must not be truncated meanwhile.
    """
    stack = open_stack(path)
    # the stack's samples were checked: it takes the copy as they are
    copy = np.empty(stack.data.size, np.float32)
    for rows, chunk in chunks(stack.data.reshape(-1)):
        copy[rows] = chunk
    stack.data = copy.reshape(stack.data.shape)
    return stack


def open_stack(path, digest=None) -> ThermogramStack:
    """Open a TGS1 file as a stack whose data is a read-only file mapping.

    The header, metadata and file size are checked before anything is
    mapped. The frames are then read once by :func:`check_finite`,
    CHUNK_BYTES at a time: each chunk is fed to ``digest``, a ``hashlib``
    object, when one is given, checked, and its pages are dropped, so
    the file is hashed and checked without being held in memory. For a
    file that opens without error ``digest`` then holds the hash of the
    whole file. Later reads of the data fault the pages they need back
    in from the page cache.
    The file must not change while the stack is in use: a read of a
    page past the end of a file truncated meanwhile is not an error
    that Python can catch, it kills the process with SIGBUS. Where
    ``mmap`` has no ``madvise`` (Windows), no pages are dropped: the
    results are the same, but the file stays resident once read.
    """
    update = digest.update if digest is not None else (lambda _: None)
    with open(path, "rb") as fh:
        shape, fps, metadata = _read_header(fh, path, update)
        start = fh.tell()
        # the header check leaves a file of at least 24 bytes to map
        size = start + 4 * int(np.prod(shape))
        whole = np.frombuffer(_FileMap(fh.fileno(), size,
                                       access=mmap.ACCESS_READ), np.uint8)
    samples = whole[start:].view("<f4")
    check_finite(samples, f"{path}: non-finite samples", update)
    # checked above: the stack is built on an empty view, so that its
    # constructor does not scan the samples a second time
    stack = ThermogramStack(data=samples[:0].reshape((0,) + shape[1:]),
                            fps=fps, metadata=metadata)
    stack.data = samples.reshape(shape)
    return stack


def drops_pages(array):
    """Whether :func:`chunks` drops the file pages under ``array``.

    True, where ``mmap`` has ``madvise``, for a C-contiguous view of a
    file mapped here: the data of an :func:`open_stack` stack or the
    frames that :func:`write_bands` stores. False for any other array,
    an anonymous mapping's too: dropping its private pages zeroes them.
    """
    whole = array.base
    return (hasattr(mmap, "MADV_DONTNEED") and array.flags.c_contiguous
            and isinstance(whole, np.ndarray)
            and isinstance(whole.base, memoryview)
            and isinstance(whole.base.obj, _FileMap))


def chunks(array, step=None):
    """(rows, chunk) pairs over axis 0 of ``array``, in order: ``chunk``
    is the view ``array[rows]`` of ``step`` rows, by default CHUNK_BYTES
    of rows (one at least). A reader indexes its outputs with ``rows``.

    Where :func:`drops_pages` of ``array`` holds, the file pages before
    the end of each slice leave the process's resident set when the
    next slice is drawn, in whole 2 MiB blocks, and all of them once the
    slices reach the end of the file. A later read faults them back in
    from the page cache. Any other array drops nothing.
    """
    if step is None:
        step = max(1, CHUNK_BYTES // max(array[:1].nbytes, 1))
    mapping = None
    if drops_pages(array):
        mapping = array.base.base.obj
        offset = array.ctypes.data - array.base.ctypes.data
    dropped = 0
    for first in range(0, len(array), step):
        rows = slice(first, min(first + step, len(array)))
        yield rows, array[rows]
        if mapping is None:
            continue
        stop = min(offset + array.strides[0] * (first + step), len(mapping))
        if stop < len(mapping):
            stop -= stop % _FOLIO
        if stop > dropped:
            mapping.madvise(mmap.MADV_DONTNEED, dropped, stop - dropped)
            dropped = stop


def file_version(path):
    """Size and modification time in ns of a file: a rewrite changes one."""
    st = os.stat(path)
    return st.st_size, st.st_mtime_ns


def check_unchanged(path, version):
    """Raise StackChanged unless ``path`` is still at ``version``."""
    if file_version(path) != version:
        raise StackChanged(f"{path}: changed after it was opened")


def check_not_input(path, stack_path):
    """Raise OverwritesInput if writing ``path`` would write ``stack_path``.

    A stack file that is read through its mapping must not be written
    over: truncating it under its readers kills the process with SIGBUS.
    """
    if os.path.exists(path) and os.path.samefile(path, stack_path):
        raise OverwritesInput(
            f"{path}: is the stack {stack_path} being read")


def _exact_fps(stored, metadata):
    """Frame rate without the float32 rounding of the header.

    A rate such as 0.1 fps is not a float32, so the header alone breaks
    the integer t_bit * fps of the timing. When the metadata records k
    and t_bit and k / t_bit rounds to the stored value, that is the rate.
    """
    try:
        exact = int(metadata["k"]) / float(metadata["t_bit"])
    except (KeyError, ValueError, ZeroDivisionError):
        return float(stored)
    return exact if np.float32(exact) == np.float32(stored) else float(stored)


def frame_at(stack, seconds):
    """round(seconds * fps) of ``stack``; IndexOutOfRange if not finite."""
    frame = seconds * stack.fps
    if not np.isfinite(frame):
        raise IndexOutOfRange(f"time {seconds!r} s is no frame of the stack")
    return int(round(frame))


def export_slice(stack, time_index, path):
    """Write one frame as 16-bit PGM plus a raw CSV matrix and a sidecar.

    The PGM is min-max scaled to [0, 65535]; the scaling bounds go to
    ``<path>.txt`` and the unscaled values to ``<path>.csv``. Returns
    ``{path: SHA-256 hex digest}`` of the three files, in that order.
    """
    check_stored(stack)
    if not (0 <= time_index < stack.n_frames):
        raise IndexOutOfRange(
            f"frame {time_index} outside 0..{stack.n_frames - 1}")
    frame = stack.data[time_index].astype(np.float64)
    lo, hi = float(frame.min()), float(frame.max())
    if hi > lo:
        scaled = np.round((frame - lo) / (hi - lo) * 65535.0)
    else:
        scaled = np.zeros_like(frame)
    pgm_path, csv_path, txt_path = slice_paths(path)
    pgm_head = f"P5\n{stack.nx} {stack.ny}\n65535\n".encode("ascii")
    bounds = (f"frame_index = {time_index}\n"
              f"time_s = {time_index / stack.fps!r}\n"
              f"scale_min = {lo!r}\n"
              f"scale_max = {hi!r}\n")
    return {
        pgm_path: write_hashed(pgm_path, [pgm_head, scaled.astype(">u2")]),
        csv_path: write_hashed(csv_path, [crlf_text(
            ",".join([f"{v:.9g}" for v in row]) for row in frame.tolist())]),
        txt_path: write_hashed(txt_path, [bounds.encode("utf-8")]),
    }


def slice_paths(path):
    """The PGM, CSV and sidecar paths that :func:`export_slice` writes."""
    pgm_path = str(path)
    if not pgm_path.endswith(".pgm"):
        pgm_path += ".pgm"
    base = pgm_path[:-4]
    return pgm_path, base + ".csv", base + ".txt"


def export_pixel_trace(stack, jx, jy, path):
    """Two-column CSV (time_s, value) of one pixel's time trend.

    Returns the SHA-256 hex digest of the bytes written.
    """
    check_stored(stack)
    return write_hashed(path, [time_series_csv(stack.pixel_trace(jx, jy),
                                               stack.fps)])
