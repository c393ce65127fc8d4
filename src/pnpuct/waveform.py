"""Excitation waveforms and matched filters built from a pseudo-noise code.

A code plus a bit duration and a frame rate yields three sampled objects:
the bipolar coded waveform (one period, each bit held for K frames), the
unipolar heat-source modulation (several periods, shifted into [0, A]),
and the zero-padded matched filter used by the compression stage. Sample
n represents time n/FPS; bit b occupies samples [b*K, (b+1)*K).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .codes import PnCode
from .errors import (InvalidWaveform, NonPositiveAmplitude, TimingMismatch,
                     UnmodifiedCode)
from .stack import ThermogramStack, crlf_text, time_series_csv, write_hashed


@dataclass(frozen=True)
class Timing:
    """Bit duration, frame rate and period count of a measurement.

    The product t_bit * fps must be a positive integer K: each bit of
    the sequence spans exactly K frames.
    """

    t_bit: float
    fps: float
    n_per: int = 2

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not (self.t_bit > 0 and self.fps > 0):
            raise TimingMismatch("t_bit and fps must be positive")
        product = self.t_bit * self.fps
        k = int(round(product)) if np.isfinite(product) else 0
        if k < 1 or abs(product - k) > 1e-9 * max(1.0, product):
            raise TimingMismatch(
                f"t_bit * fps = {product!r} is not a positive integer")
        if not (self.n_per >= 2 and float(self.n_per).is_integer()):
            raise TimingMismatch(
                f"n_per = {self.n_per!r} is not an integer of at least 2")
        object.__setattr__(self, "n_per", int(self.n_per))

    @property
    def k(self) -> int:
        """Oversampling factor: frames per bit."""
        return int(round(self.t_bit * self.fps))

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    def t_meas(self, n_bit) -> float:
        """Duration of one excitation period."""
        return n_bit * self.t_bit

    def frames_per_period(self, n_bit) -> int:
        return self.k * n_bit

    def total_frames(self, n_bit) -> int:
        return self.n_per * self.k * n_bit


@dataclass(frozen=True)
class RectPulse:
    """Rectangular heat pulse of a given duration and flux amplitude."""

    duration: float
    amplitude: float

    def __post_init__(self):
        if not 0 < self.duration < np.inf:
            raise InvalidWaveform("duration must be positive and finite")
        if not 0 < self.amplitude < np.inf:
            raise NonPositiveAmplitude("amplitude must be positive and finite")


class WaveformKind(Enum):
    BIPOLAR_XPN = "BIPOLAR_XPN"
    UNIPOLAR_XTH = "UNIPOLAR_XTH"


@dataclass(frozen=True, eq=False)
class ExcitationWaveform:
    samples: np.ndarray
    kind: WaveformKind
    timing: Timing
    source_code: PnCode = None
    amplitude: float = None

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        if self.source_code is not None:
            per = self.timing.frames_per_period(self.source_code.n_bit)
            if self.kind is WaveformKind.BIPOLAR_XPN and len(samples) != per:
                raise InvalidWaveform("bipolar waveform must span one period")
            if (self.kind is WaveformKind.UNIPOLAR_XTH
                    and len(samples) != self.timing.n_per * per):
                raise InvalidWaveform(
                    "unipolar waveform must span n_per periods")
        if self.kind is WaveformKind.UNIPOLAR_XTH and self.amplitude is not None:
            if samples.min() < -1e-12 or samples.max() > self.amplitude + 1e-12:
                raise InvalidWaveform(
                    "unipolar samples must lie in [0, amplitude]")

    @property
    def duration(self) -> float:
        return len(self.samples) * self.timing.dt


@dataclass(frozen=True, eq=False)
class MatchedFilter:
    """Time-reversed copy of a modified code, one tap per bit.

    ``bit_taps[b]`` is c[-b mod N]. At the frame rate the filter has
    K * N taps: tap bK is ``bit_taps[b]`` and the K - 1 taps after it
    are zero, the form that :func:`filter_to_csv` writes.
    """

    bit_taps: np.ndarray
    k: int
    gain: float

    def __post_init__(self):
        bit_taps = np.asarray(self.bit_taps, dtype=float)
        bit_taps.flags.writeable = False
        object.__setattr__(self, "bit_taps", bit_taps)


def build_bipolar(code, timing) -> ExcitationWaveform:
    """One period of the coded waveform: bit b held for K frames.

    The physically drivable base sequence is used, i.e. any perfect-PACF
    bias is stripped first; for a binarized Legendre code the result is
    fully bipolar, for a standard LS the single zero bit is kept.
    """
    samples = np.repeat(code.base_values, timing.k)
    return ExcitationWaveform(samples=samples, kind=WaveformKind.BIPOLAR_XPN,
                              timing=timing, source_code=code)


def build_unipolar(bipolar, amplitude) -> ExcitationWaveform:
    """Heat-source modulation: (A/2) * (x + 1) over the timing's n_per periods.

    The output decomposes exactly into a constant A/2 step plus the
    bipolar ripple scaled by A/2.
    """
    if bipolar.kind is not WaveformKind.BIPOLAR_XPN:
        raise InvalidWaveform("input must be a bipolar coded waveform")
    if not 0 < amplitude < np.inf:
        raise NonPositiveAmplitude(f"amplitude {amplitude} is not in (0, inf)")
    timing = bipolar.timing
    samples = 0.5 * amplitude * (np.tile(bipolar.samples, timing.n_per) + 1.0)
    return ExcitationWaveform(samples=samples, kind=WaveformKind.UNIPOLAR_XTH,
                              timing=timing, source_code=bipolar.source_code,
                              amplitude=float(amplitude))


def build_matched_filter(code, timing) -> MatchedFilter:
    """The matched filter of a modified code at the timing's K.

    Compression must use the perfect-PACF sequence even when the
    physical excitation used the standard or binary one.
    """
    if not code.is_modified:
        raise UnmodifiedCode(
            f"{code.kind.value} has sidelobes; modify the code first")
    n = code.n_bit
    return MatchedFilter(bit_taps=code.values[(-np.arange(n)) % n],
                         k=timing.k, gain=code.gain)


def waveform_to_csv(wave, path):
    """Two-column CSV (time_s, value) for driving external generators.

    Frame n is at n / fps, the time rule of the pixel-trace and slice
    exports. Returns the SHA-256 hex digest of the bytes written.
    """
    return write_hashed(path, [time_series_csv(wave.samples, wave.timing.fps)])


def excitation_metadata(wave) -> dict:
    """Stack metadata of the excitation: timing, code and amplitude if known."""
    metadata = {
        "t_bit": repr(wave.timing.t_bit),
        "n_per": str(wave.timing.n_per),
        "k": str(wave.timing.k),
    }
    if wave.source_code is not None:
        metadata["code_kind"] = wave.source_code.kind.value
        metadata["code_n_bit"] = str(wave.source_code.n_bit)
    if wave.amplitude is not None:
        metadata["amplitude"] = repr(wave.amplitude)
    return metadata


def timing_of(stack=None, t_bit=None, fps=None, n_per=None) -> Timing:
    """The timing of a measurement: a given value wins, the stack fills the rest.

    A t_bit or n_per that is not given is read from the stack metadata
    that :func:`excitation_metadata` writes, an fps from the stack's
    frame rate; n_per found in neither is :class:`Timing`'s default.
    Values may be numbers or strings, each parsed with ``float``, so a
    fractional n_per is a ``TimingMismatch`` as any other bad timing.
    """
    known = {} if stack is None else {**stack.metadata, "fps": stack.fps}
    values = {}
    for key, value in (("t_bit", t_bit), ("fps", fps), ("n_per", n_per)):
        value = known.get(key) if value is None else value
        if value is None:
            continue
        try:
            values[key] = float(value)
        except (TypeError, ValueError):
            raise TimingMismatch(f"{key} = {value!r} is not a number") from None
    for key in ("t_bit", "fps"):
        if key not in values:
            raise TimingMismatch(
                f"{key} is not given and no stack metadata supplies it")
    return Timing(**values)


def waveform_to_stack(wave):
    """Pack a waveform as a 1 x 1 trace in the binary stack container."""
    metadata = {"stage": "waveform", "waveform_kind": wave.kind.value,
                **excitation_metadata(wave)}
    data = np.asarray(wave.samples, dtype=np.float32).reshape(-1, 1, 1)
    return ThermogramStack(data=data, fps=wave.timing.fps, metadata=metadata)


def filter_to_csv(filt, path):
    """Two-column CSV (tap_index, value) of a matched filter's K * N taps.

    Returns the SHA-256 hex digest of the bytes written.
    """
    taps = np.zeros((len(filt.bit_taps), filt.k))
    taps[:, 0] = filt.bit_taps
    return write_hashed(path, [crlf_text(["tap_index,value"], (
        f"{n},{v!r}" for n, v in enumerate(taps.ravel().tolist())))])
