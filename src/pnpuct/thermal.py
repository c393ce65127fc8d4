"""Synthetic per-pixel thermal responses from 1-D heat diffusion.

Stand-in for the physical experiment: each pixel is a semi-infinite
medium, optionally with a single reflecting interface at depth d whose
thermal mismatch is summarized by a reflection coefficient R. The
surface response to an impulsive heat flux is

    h(t) = a / sqrt(pi t) * [1 + 2 * sum_{m>=1} R^m exp(-(m d)^2 / (alpha t))]

with a an arbitrary intensity scale folding in effusivity, emissivity
and camera gain. Discrete responses are frame averaged, which tames the
t^(-1/2) singularity and makes the step response exact by telescoping.

For an insulated layer (R = 1) the image sum has a Poisson dual, the
mode (Fourier cosine) series of the slab (Carslaw & Jaeger, Conduction
of Heat in Solids):

    h(t) = a sqrt(alpha) / d * [1 + 2 * sum_{n>=1} exp(-(n pi / d)^2 alpha t)]

which converges fast exactly where the image sum is slow.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from .errors import (IndexOutOfRange, InvalidScene, RateMismatch,
                     SeriesNotConverged)
from .stack import ThermogramStack
from .waveform import ExcitationWaveform, WaveformKind, excitation_metadata

_SQRT_PI = np.sqrt(np.pi)
# Term cap of every series: an image series with |R| near 1 needs about
# sqrt(30 * alpha * t) / d terms, 4300 for 10 um over a 62 s run.
_MAX_TERMS = 100000


@dataclass(frozen=True)
class PixelModel:
    """1-D thermal description of a pixel.

    A sound pixel leaves ``defect_depth`` unset. ``reflection_coeff``
    lies in (-1, 1]: positive for a less effusive backing (air gap,
    void), negative for a more effusive one, 1 for a perfectly
    insulated back face.
    """

    diffusivity: float
    defect_depth: float = None
    reflection_coeff: float = 0.0
    amplitude_scale: float = 1.0

    def __post_init__(self):
        if self.diffusivity <= 0:
            raise InvalidScene("diffusivity must be positive")
        if self.defect_depth is not None and self.defect_depth <= 0:
            raise InvalidScene("defect_depth must be positive when present")
        if not (-1.0 < self.reflection_coeff <= 1.0):
            raise InvalidScene("reflection_coeff must lie in (-1, 1]")


@dataclass(frozen=True)
class Region:
    """Rectangle of pixels: x0 <= jx < x0 + width, y0 <= jy < y0 + height."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise InvalidScene("region must span at least one pixel")
        if self.x0 < 0 or self.y0 < 0:
            raise InvalidScene("region origin must be non-negative")

    @property
    def slices(self):
        """(rows, cols) slices of the rectangle in a (ny, nx) array."""
        return (slice(self.y0, self.y0 + self.height),
                slice(self.x0, self.x0 + self.width))


@dataclass(frozen=True)
class SceneConfig:
    """Pixel grid with a background model and rectangular defect patches.

    Defects are painted in order, later ones winning, into the (ny, nx)
    ``labels`` map of indices into ``models``, the distinct visible
    models. Noise is additive white Gaussian per pixel per frame; the
    stream for pixel (jx, jy) derives from (rng_seed, jx, jy).
    """

    nx: int
    ny: int
    background: PixelModel
    defects: tuple = field(default_factory=tuple)
    noise_sigma: float = 0.0
    rng_seed: int = 0
    models: tuple = field(init=False, repr=False, compare=False)
    labels: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise InvalidScene("grid must be at least 1 x 1")
        if self.noise_sigma < 0:
            raise InvalidScene("noise_sigma must be non-negative")
        defects = tuple(self.defects)
        index = {self.background: 0}
        labels = np.zeros((self.ny, self.nx), dtype=np.intp)
        for region, model in defects:
            if (region.x0 + region.width > self.nx
                    or region.y0 + region.height > self.ny):
                raise InvalidScene(f"defect region {region} outside the grid")
            if not isinstance(model, PixelModel):
                raise TypeError("defect entries are (Region, PixelModel)")
            labels[region.slices] = index.setdefault(model, len(index))
        # no trace for a model that later defects cover completely
        visible, labels = np.unique(labels, return_inverse=True)
        labels = labels.reshape(self.ny, self.nx)
        labels.flags.writeable = False
        models = tuple(index)
        object.__setattr__(self, "defects", defects)
        object.__setattr__(self, "models", tuple(models[i] for i in visible))
        object.__setattr__(self, "labels", labels)

    def model_at(self, jx, jy) -> PixelModel:
        if not (0 <= jx < self.nx and 0 <= jy < self.ny):
            raise IndexOutOfRange(
                f"pixel ({jx}, {jy}) outside {self.nx} x {self.ny} grid")
        return self.models[self.labels[jy, jx]]


def _series_integral(t, c):
    """Integral of exp(-c/tau)/sqrt(pi*tau) dtau from 0 to t, elementwise."""
    out = np.zeros_like(t)
    pos = t > 0
    tp = t[pos]
    out[pos] = (2.0 / _SQRT_PI) * (
        np.sqrt(tp) * np.exp(-c / tp)
        - np.sqrt(np.pi * c) * erfc(np.sqrt(c / tp)))
    return out


def _terms(term, tail, name, model):
    """term(m) for m = 1, 2, ... until tail(m + 1), the size of the next
    term against the leading part, falls below 1e-13; raises
    :class:`SeriesNotConverged` after ``_MAX_TERMS`` terms."""
    for m in range(1, _MAX_TERMS + 1):
        yield term(m)
        if tail(m + 1) < 1e-13:
            return
    raise SeriesNotConverged(
        f"{name} series of {model} above 1e-13 after {_MAX_TERMS} terms")


def _antiderivative(edges, model):
    """Integral of h over [0, t] at each frame edge t, for every model.

    The sqrt(t) part of the semi-infinite medium, plus, behind an
    interface, the image series (via :func:`_series_integral`, tail taken
    at the last edge it covers). An insulated layer (R = 1) keeps the
    image series on the edges before d^2 / (pi alpha) and takes the mode
    series on the later ones; at that split the terms of each fall as
    exp(-pi m^2), so either needs a few terms whatever the depth. Both
    stop or raise as :func:`_terms` says.
    """
    a, d, r = model.amplitude_scale, model.defect_depth, model.reflection_coeff
    alpha = model.diffusivity
    f = 2.0 * a * np.sqrt(edges) / _SQRT_PI
    if d is None or r == 0.0:
        return f
    n_image = (np.searchsorted(edges, d * d / (np.pi * alpha)) if r == 1.0
               else edges.size)
    image, late = edges[:n_image], edges[n_image:]
    if n_image > 1:  # F(0) = 0 needs no series
        t_last = image[-1]
        for term in _terms(
                lambda m: r ** m * _series_integral(image, (m * d) ** 2 / alpha),
                lambda m: abs(r) ** m * np.exp(-(m * d) ** 2 / (alpha * t_last)),
                "image", model):
            f[:n_image] += 2.0 * a * term
    if late.size:
        k = (np.pi / d) ** 2 * alpha
        modes = sum(_terms(lambda n: np.exp(-n * n * k * late) / (n * n),
                           lambda n: np.exp(-n * n * k * late[0]),
                           "mode", model))
        # the n-th mode integrates to (1 - exp(-n^2 k t)) / (n^2 k), and
        # sum 1 / n^2 = pi^2 / 6 gives the constant d^2 / (3 alpha)
        f[n_image:] = a * np.sqrt(alpha) / d * (
            late + d * d / (3.0 * alpha) - 2.0 / k * modes)
    return f


def impulse_response(model, timing, duration) -> np.ndarray:
    """Frame-averaged discrete impulse response h[n] over ``duration`` seconds.

    h[n] averages the continuous kernel over [n*dt, (n+1)*dt): the
    difference of :func:`_antiderivative` at the frame edges over dt.
    """
    dt = timing.dt
    n_frames = int(round(duration * timing.fps))
    if n_frames < 1:
        raise InvalidScene("duration shorter than one frame")
    edges = np.arange(n_frames + 1, dtype=float) * dt
    return np.diff(_antiderivative(edges, model)) / dt


def respond(h, excitation, h_fps=None) -> np.ndarray:
    """Linear response of a pixel to an excitation waveform.

    Discrete convolution truncated to the excitation length and scaled
    by the frame interval. ``h_fps``, when given, must match the
    excitation frame rate.
    """
    fps = excitation.timing.fps
    if h_fps is not None and abs(h_fps - fps) > 1e-9 * fps:
        raise RateMismatch(f"h sampled at {h_fps} fps, excitation at {fps} fps")
    x = excitation.samples
    return np.convolve(x, np.asarray(h, dtype=float))[: len(x)] / fps


def lpt_reference(model, pulse, timing, duration) -> np.ndarray:
    """Direct (non-compressed) response to a rectangular heat pulse.

    This is the ground truth that the compression pipeline is expected
    to reproduce, up to its gain factor.
    """
    n_frames = int(round(duration * timing.fps))
    n_on = int(round(pulse.duration * timing.fps))
    samples = np.zeros(n_frames)
    samples[:n_on] = pulse.amplitude
    wave = ExcitationWaveform(samples=samples, kind=WaveformKind.BIPOLAR_XPN,
                              timing=timing)
    h = impulse_response(model, timing, duration)
    return respond(h, wave)


def simulate_stack(scene, excitation) -> ThermogramStack:
    """Per-pixel responses plus seeded Gaussian noise, as a thermogram stack.

    Each distinct model of the scene gets one convolution, gathered to
    its pixels through the label map one row at a time, so no float64
    copy of the whole stack exists; the per-pixel noise stream is
    seeded by (rng_seed, jx, jy), so serial and parallel evaluations are
    bit-identical.
    """
    timing = excitation.timing
    n_frames = len(excitation.samples)
    duration = n_frames * timing.dt
    traces = np.array([respond(impulse_response(model, timing, duration),
                               excitation) for model in scene.models])
    data = np.empty((n_frames, scene.ny, scene.nx), dtype=np.float32)
    for jy in range(scene.ny):
        row = traces[scene.labels[jy]]
        if scene.noise_sigma > 0:
            for jx in range(scene.nx):
                rng = np.random.default_rng([scene.rng_seed, jx, jy])
                row[jx] += rng.normal(0.0, scene.noise_sigma, n_frames)
        data[:, jy, :] = row.T
    metadata = {
        "stage": "simulated",
        "rng_seed": str(scene.rng_seed),
        "noise_sigma": repr(scene.noise_sigma),
        **excitation_metadata(excitation),
    }
    return ThermogramStack(data=data, fps=timing.fps, metadata=metadata)


# --- scene configuration files ---


def _model_from_section(section, fallback=None):
    base = fallback or PixelModel(diffusivity=1e-6)
    return PixelModel(
        diffusivity=section.getfloat("diffusivity", base.diffusivity),
        defect_depth=section.getfloat("depth", base.defect_depth),
        reflection_coeff=section.getfloat("reflection", base.reflection_coeff),
        amplitude_scale=section.getfloat("amplitude_scale",
                                         base.amplitude_scale),
    )


def scene_from_parser(parser) -> SceneConfig:
    scene = parser["scene"]
    background = _model_from_section(parser["background"])
    defects = []
    for name in parser.sections():
        if not name.startswith("defect"):
            continue
        sec = parser[name]
        region = Region(x0=int(sec["x0"]), y0=int(sec["y0"]),
                        width=int(sec["width"]), height=int(sec["height"]))
        defects.append((region, _model_from_section(sec, fallback=background)))
    return SceneConfig(
        nx=int(scene["nx"]),
        ny=int(scene["ny"]),
        background=background,
        defects=tuple(defects),
        noise_sigma=float(scene.get("noise_sigma", "0")),
        rng_seed=int(scene.get("rng_seed", "0")),
    )


def load_scene_config(path) -> SceneConfig:
    """Read a scene description from an INI-style text file.

    Sections: ``[scene]`` with nx, ny, noise_sigma, rng_seed;
    ``[background]`` with diffusivity, amplitude_scale and optionally
    depth/reflection; any number of ``[defect.<name>]`` sections with
    x0, y0, width, height plus model fields (unset fields inherit from
    the background).
    """
    return scene_from_parser(read_ini(path))


def read_ini(path) -> configparser.ConfigParser:
    """Parse an INI file; ``;`` after whitespace starts a comment anywhere."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser
