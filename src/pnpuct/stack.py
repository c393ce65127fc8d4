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
read-only: its stack's data is a view of the file, and its readers drop
the file pages they are done with (:func:`page_dropper`), so a stack
larger than memory can be processed a band at a time.
:func:`read_stack` is :func:`open_stack` plus one copy into memory.
:func:`create_stack` is the writer's side of the same mapping: a new
file whose frames are stored in place, a band at a time.
"""

from __future__ import annotations

import hashlib
import mmap
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadHeader, BadMagic, IndexOutOfRange, InvalidStack,
                     NonFiniteData, OverwritesInput, StackChanged,
                     TrailingBytes, TruncatedFile, UnencodableMetadata)

MAGIC = b"TGS1"
FORMAT_VERSION = "TGS1"
# bytes of a mapped file that a reader touches between page drops
CHUNK_BYTES = 1 << 20
# A read of a mapped file maps the whole folio of page cache that holds
# it, up to 2 MiB, as one huge page where it can (x86-64 and arm64), so
# pages are dropped in whole aligned 2 MiB blocks: dropping part of one
# splits it into 512 pages first. Gathering the bands of 320x256x2480
# frames with a drop every 1 MiB took 1.41 s of CPU at page bounds and
# 1.12 s at 2 MiB bounds.
_FOLIO = 2 << 20


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
        # min and max reduce without a stack-sized mask; NaN propagates
        if data.size and not np.isfinite([data.min(), data.max()]).all():
            raise NonFiniteData("stack data must be finite")
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
        """Time trend of one pixel as float64."""
        self._check_pixel(jx, jy)
        return self.data[:, jy, jx].astype(np.float64)

    def _check_pixel(self, jx, jy):
        if not (0 <= jx < self.nx and 0 <= jy < self.ny):
            raise IndexOutOfRange(
                f"pixel ({jx}, {jy}) outside {self.nx} x {self.ny} grid")


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

    The round trip through :func:`read_stack` is bit-exact.
    """
    head = _header(stack.data.shape, stack.fps, stack.metadata)
    # no copy on a little-endian host
    return write_hashed(path, [head, stack.data.astype("<f4", copy=False)])


@contextmanager
def create_stack(path, shape, fps, metadata):
    """Create a TGS1 file of ``shape`` frames, to be filled in place.

    The header bytes are those :func:`write_stack` writes for the same
    shape, frame rate and metadata. The frames' bytes are preallocated
    with ``os.posix_fallocate``, so a disk too full for them raises
    OSError (ENOSPC) here. Where that call is missing (macOS, Windows)
    the file is extended sparse instead: a store into the mapping that
    finds the disk full then kills the process with SIGBUS, which
    Python cannot catch.

    Yields (frames, write). ``frames`` is the (n_frames, ny, nx)
    float32 array over a shared mapping of the frames, all zero at
    first: what is stored into it goes to the file, and
    :func:`page_dropper` of it drops the pages stored. The file must
    not be truncated while it is in use: a store past its end kills
    the process with SIGBUS too. ``write(chunk)`` writes a C-contiguous
    (m, ny, nx) little-endian float32 chunk of whole frames through the
    file instead, after those that the calls before it wrote, from the
    first frame on.
    """
    head = _header(shape, fps, metadata)
    size = len(head) + 4 * int(np.prod(shape))
    with open(path, "wb+") as fh:
        fh.write(head)
        fh.flush()
        allocate = getattr(os, "posix_fallocate", None)
        if allocate is None:
            fh.truncate(size)
        else:
            allocate(fh.fileno(), 0, size)
        whole = np.frombuffer(mmap.mmap(fh.fileno(), size), np.uint8)
        yield whole[len(head):].view("<f4").reshape(shape), fh.write


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
    errors. The frames are then copied out of the mapping CHUNK_BYTES
    at a time, dropping the file pages behind each chunk, so the file
    is not resident next to the copy. As for :func:`open_stack`, the
    file must not be truncated meanwhile.
    """
    stack = open_stack(path)
    mapped = stack.data.reshape(-1)
    drop = page_dropper(stack.data) or (lambda stop: None)
    # the stack's samples were checked: it takes the copy as they are
    stack.data = np.empty(stack.data.shape, np.float32)
    copy = stack.data.reshape(-1)
    step = CHUNK_BYTES // 4
    for first in range(0, copy.size, step):
        copy[first: first + step] = mapped[first: first + step]
        drop(4 * (first + step))
    return stack


def open_stack(path, digest=None) -> ThermogramStack:
    """Open a TGS1 file as a stack whose data is a read-only file mapping.

    The header, metadata and file size are checked before anything is
    mapped. The frames are then read once, CHUNK_BYTES at a time: each
    chunk is fed to ``digest``, a ``hashlib`` object, when one is given,
    checked to be finite, and its pages are dropped, so the file is
    hashed and checked without being held in memory. For a file that
    opens without error ``digest`` then holds the hash of the whole
    file. Later reads of the data fault the pages they need back in
    from the page cache.
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
        whole = np.frombuffer(mmap.mmap(fh.fileno(), size,
                                        access=mmap.ACCESS_READ), np.uint8)
    samples = whole[start:].view("<f4")
    drop = page_dropper(samples) or (lambda stop: None)
    step = CHUNK_BYTES // 4
    # one mask for every chunk: a new one per chunk would be mapped and
    # faulted in afresh each time under a small mmap threshold
    finite = np.empty(min(step, samples.size), bool)
    for first in range(0, samples.size, step):
        chunk = samples[first: first + step]
        update(chunk)
        if not np.isfinite(chunk, out=finite[:chunk.size]).all():
            raise NonFiniteData(f"{path}: non-finite samples")
        drop(4 * (first + step))
    # checked above: the stack is built on an empty view, so that its
    # constructor does not scan the samples a second time
    stack = ThermogramStack(data=samples[:0].reshape((0,) + shape[1:]),
                            fps=fps, metadata=metadata)
    stack.data = samples.reshape(shape)
    return stack


def page_dropper(array):
    """A function that drops the file pages under a mapped array, or None.

    ``array`` is a C-contiguous view of the data of an
    :func:`open_stack` stack; for any other array, or where ``mmap``
    has no ``madvise``, the result is None.
    Else it is drop(stop): the file pages before byte ``stop`` of
    ``array`` leave the process's resident set, in whole 2 MiB blocks
    or, once ``stop`` reaches the end of the file, all of them. A later
    read faults them back in from the page cache. Each call must pass a
    ``stop`` no lower than the last one.
    """
    whole = array.base
    if not (hasattr(mmap, "MADV_DONTNEED")
            and isinstance(whole, np.ndarray)
            and isinstance(whole.base, memoryview)
            and isinstance(whole.base.obj, mmap.mmap)):
        return None
    mapping = whole.base.obj
    offset = (array.__array_interface__["data"][0]
              - whole.__array_interface__["data"][0])
    dropped = 0

    def drop(stop):
        nonlocal dropped
        stop = min(offset + stop, len(mapping))
        if stop < len(mapping):
            stop -= stop % _FOLIO
        if stop > dropped:
            mapping.madvise(mmap.MADV_DONTNEED, dropped, stop - dropped)
            dropped = stop
    return drop


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


def export_slice(stack, time_index, path):
    """Write one frame as 16-bit PGM plus a raw CSV matrix and a sidecar.

    The PGM is min-max scaled to [0, 65535]; the scaling bounds go to
    ``<path>.txt`` and the unscaled values to ``<path>.csv``. Returns
    ``{path: SHA-256 hex digest}`` of the three files, in that order.
    """
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
    return write_hashed(path, [time_series_csv(stack.pixel_trace(jx, jy),
                                               stack.fps)])
