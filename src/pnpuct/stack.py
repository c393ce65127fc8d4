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
"""

from __future__ import annotations

import hashlib
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (BadHeader, BadMagic, IndexOutOfRange, InvalidStack,
                     NonFiniteData, TrailingBytes, TruncatedFile,
                     UnencodableMetadata)

MAGIC = b"TGS1"
FORMAT_VERSION = "TGS1"


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


def write_stack(stack, path):
    """Write a stack and return the SHA-256 hex digest of the bytes written.

    The round trip through :func:`read_stack` is bit-exact.
    """
    meta = _encode_metadata(stack.metadata)
    head = MAGIC + struct.pack("<IIIfI", stack.nx, stack.ny, stack.n_frames,
                               stack.fps, len(meta)) + meta
    # no copy on a little-endian host
    return write_hashed(path, [head, stack.data.astype("<f4", copy=False)])


def read_stack(path, digest=None) -> ThermogramStack:
    """Read a TGS1 file, checking its header, length and samples.

    Every byte read is fed to ``digest``, a ``hashlib`` object, when one
    is given: for a file that reads without error it then holds the hash
    of the whole file.
    """
    update = digest.update if digest is not None else (lambda _: None)
    with open(path, "rb") as fh:
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
        metadata = _decode_metadata(blob)
        expected = 24 + meta_len + 4 * n_frames * ny * nx
        if size < expected:
            raise TruncatedFile(
                f"{path}: expected {expected} bytes, found {size}")
        if size > expected:
            raise TrailingBytes(
                f"{path}: {size - expected} trailing bytes after the frames")
        data = np.empty((n_frames, ny, nx), dtype="<f4")
        if fh.readinto(data.reshape(-1).view(np.uint8)) != data.nbytes:
            raise TruncatedFile(f"{path}: frames incomplete")
        update(data)
    try:
        return ThermogramStack(data=data, fps=_exact_fps(fps, metadata),
                               metadata=metadata)
    except NonFiniteData as exc:
        raise NonFiniteData(f"{path}: non-finite samples") from exc


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
    pgm_path = str(path)
    if not pgm_path.endswith(".pgm"):
        pgm_path += ".pgm"
    base = pgm_path[:-4]
    pgm_head = f"P5\n{stack.nx} {stack.ny}\n65535\n".encode("ascii")
    bounds = (f"frame_index = {time_index}\n"
              f"time_s = {time_index / stack.fps!r}\n"
              f"scale_min = {lo!r}\n"
              f"scale_max = {hi!r}\n")
    return {
        pgm_path: write_hashed(pgm_path, [pgm_head, scaled.astype(">u2")]),
        base + ".csv": write_hashed(base + ".csv", [crlf_text(
            ",".join([f"{v:.9g}" for v in row]) for row in frame.tolist())]),
        base + ".txt": write_hashed(base + ".txt", [bounds.encode("utf-8")]),
    }


def export_pixel_trace(stack, jx, jy, path):
    """Two-column CSV (time_s, value) of one pixel's time trend.

    Returns the SHA-256 hex digest of the bytes written.
    """
    trace = stack.pixel_trace(jx, jy)
    return write_hashed(path, [crlf_text(["time_s,value"], (
        f"{n / stack.fps!r},{v!r}" for n, v in enumerate(trace.tolist())))])
