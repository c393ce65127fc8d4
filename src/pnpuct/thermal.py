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
from scipy.fft import irfft, next_fast_len, rfft
from scipy.special import erfc

from .errors import (IndexOutOfRange, InvalidConfig, InvalidScene,
                     InvalidWaveform, SeriesNotConverged)
from .stack import (MAX_EXTENT, ThermogramStack, band_width, check_finite,
                    check_width, derived_stack, is_integer, open_stack, real,
                    write_bands)
from .waveform import MAX_SCALE, excitation_metadata

_SQRT_PI = np.sqrt(np.pi)
# The smallest diffusivity and defect depth, float32's smallest normal
# value: up to MAX_SCALE every diffusion time d^2 / alpha and mode rate
# (pi / d)^2 alpha of the series is a finite float64 (README, "Bounds")
MIN_SCALE = float(np.finfo(np.float32).tiny)
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
        bounds = (f"finite, at least {MIN_SCALE:.8g} and at most "
                  f"{MAX_SCALE:.8g}")
        if not MIN_SCALE <= real(self.diffusivity) <= MAX_SCALE:
            raise InvalidScene(f"diffusivity must be {bounds}")
        if (self.defect_depth is not None
                and not MIN_SCALE <= real(self.defect_depth) <= MAX_SCALE):
            raise InvalidScene(f"defect_depth must be {bounds}")
        if not (-1.0 < real(self.reflection_coeff) <= 1.0):
            raise InvalidScene("reflection_coeff must lie in (-1, 1]")
        if not abs(real(self.amplitude_scale)) <= MAX_SCALE:
            raise InvalidScene(f"amplitude_scale must be finite and at most "
                               f"{MAX_SCALE:.8g} in size")


@dataclass(frozen=True)
class Region:
    """Rectangle of pixels: x0 <= jx < x0 + width, y0 <= jy < y0 + height."""

    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self):
        if not all(map(is_integer,
                       (self.x0, self.y0, self.width, self.height))):
            raise InvalidScene(f"region fields must be integers: {self}")
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
    models, of at most 2^32 - 1 pixels a side (a TGS1 stack's most).
    Noise is additive white Gaussian per pixel per frame; the stream for
    pixel (jx, jy) derives from (rng_seed, jx, jy), and ``rng_seed``
    must be a non-negative integer. ``noise_sigma`` is stored as a
    float, so equal scenes write equal bytes.
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
        if not (is_integer(self.nx) and is_integer(self.ny)
                and 1 <= self.nx <= MAX_EXTENT and 1 <= self.ny <= MAX_EXTENT):
            raise InvalidScene(f"grid must be at least 1 x 1 integer pixels, "
                               "at most 2^32 - 1 a side (the most a TGS1 "
                               f"stack holds), not {self.nx!r} x {self.ny!r}")
        if not 0 <= real(self.noise_sigma) < np.inf:
            raise InvalidScene("noise_sigma must be non-negative and finite")
        object.__setattr__(self, "noise_sigma", float(self.noise_sigma))
        if not is_integer(self.rng_seed) or self.rng_seed < 0:
            raise InvalidScene(
                f"rng_seed must be a non-negative integer, not {self.rng_seed!r}")
        object.__setattr__(self, "rng_seed", int(self.rng_seed))
        defects = tuple(self.defects)
        index = {self.background: 0}
        labels = np.zeros((self.ny, self.nx), dtype=np.intp)
        for entry in defects:
            if not (isinstance(entry, tuple) and len(entry) == 2
                    and isinstance(entry[0], Region)
                    and isinstance(entry[1], PixelModel)):
                raise InvalidScene(f"defect entry {entry!r} is not a "
                                   "(Region, PixelModel) pair")
            region, model = entry
            if (region.x0 + region.width > self.nx
                    or region.y0 + region.height > self.ny):
                raise InvalidScene(f"defect region {region} outside the grid")
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
        if not (is_integer(jx) and is_integer(jy)
                and 0 <= jx < self.nx and 0 <= jy < self.ny):
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


def _frames(seconds, fps, error, what):
    """round(seconds * fps), the frames of a span; ``error`` naming
    ``what`` and the frame rate if that is none or not finite."""
    frames = real(seconds) * fps
    n = int(round(frames)) if np.isfinite(frames) else 0
    if n < 1:
        raise error(f"{what} rounds to no finite frame at {fps} fps")
    return n


def _edges(timing, duration):
    """The frame edges 0, dt, ..., n dt of ``duration`` seconds, n >= 1
    (InvalidScene)."""
    n_frames = _frames(duration, timing.fps, InvalidScene,
                       f"duration {duration!r} s")
    return np.arange(n_frames + 1, dtype=float) * timing.dt


def impulse_response(model, timing, duration) -> np.ndarray:
    """Frame-averaged discrete impulse response h[n] over ``duration`` seconds.

    h[n] averages the continuous kernel over [n*dt, (n+1)*dt): the
    difference of :func:`_antiderivative` at the frame edges over dt.
    """
    edges = _edges(timing, duration)
    return np.diff(_antiderivative(edges, model)) / timing.dt


def respond(h, excitation) -> np.ndarray:
    """Linear response of a pixel, or of a stack of them, to an excitation.

    The discrete convolution of the excitation x with each response in
    ``h`` (shape ``(..., m)``), truncated to the n = len(x) samples of
    x and scaled by the frame interval, row by row:
    y[t] = sum_{j <= t} x[j] h[t - j] / fps for t < n. ``h`` is cut to
    n samples first, and the sum runs through one real FFT of x and one
    of each row at ``next_fast_len(n + m - 1)``: O(n log n) a row, and
    x is transformed once for all rows. The error against the direct
    sum is a few ulp of the row's largest output (up to 1e-15 of it at
    n = 20,620 for the package's models), so the response is causal
    only to that rounding: a later sample of x can move an earlier
    output by an ulp. An empty ``h`` raises InvalidWaveform.
    """
    x = excitation.samples
    h = np.atleast_1d(np.asarray(h, dtype=float))[..., :len(x)]
    if not h.shape[-1]:
        raise InvalidWaveform("the response may not be empty")
    size = next_fast_len(len(x) + h.shape[-1] - 1, real=True)
    y = irfft(rfft(x, size) * rfft(h, size), size)
    return y[..., :len(x)] / excitation.timing.fps


def lpt_reference(model, pulse, timing, duration) -> np.ndarray:
    """Direct (non-compressed) response to a rectangular heat pulse.

    This is the ground truth that the compression pipeline is expected
    to reproduce, up to its gain factor. A pulse of n_on frames is a
    step on at 0 and a step off at n_on, and the step response is the
    antiderivative F of h at the frame edges, so the response at frame
    t telescopes to ``A * (F[t + 1] - F[max(t + 1 - n_on, 0)])``: O(n),
    no convolution, and exactly causal, as every frame t < n_on is
    ``A * F[t + 1]`` bit for bit whatever n_on. It equals :func:`respond`
    of the pulse and :func:`impulse_response` to rounding, a few ulp of
    the largest output. A ``duration`` that rounds to no finite frame raises
    InvalidScene, a pulse that does InvalidWaveform.
    """
    f = _antiderivative(_edges(timing, duration), model)
    n_on = _frames(pulse.duration, timing.fps, InvalidWaveform, repr(pulse))
    t = np.arange(1, len(f))
    return pulse.amplitude * (f[1:] - f[np.maximum(t - n_on, 0)])


# NumPy's SeedSequence (O'Neill's seed_seq design) and the PCG64 seeding
# step, pcg_setseq_128_srandom_r (O'Neill, HMC-CS-2014-0905)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _seed_states(seed, jx, jy):
    """``SeedSequence([seed, jx, jy]).generate_state(4, np.uint64)`` per pixel.

    ``jx`` and ``jy`` are equal-length arrays of pixel indices below
    2^32, ``seed`` a non-negative int. SeedSequence's mixing runs on
    uint32 arrays, one element per pixel; its hash constants do not
    depend on the data, so they advance as masked Python ints. Returns
    a ``(len(jx), 4)`` uint64 array.
    """
    zero = np.zeros(len(jx), dtype=np.uint32)
    # SeedSequence's split of each int into little-endian 32-bit words
    entropy = ([zero + (seed >> shift & _MASK32)
                for shift in range(0, max(seed.bit_length(), 1), 32)]
               + [np.asarray(jx, dtype=np.uint32),
                  np.asarray(jy, dtype=np.uint32)])
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a
        return value ^ value >> 16

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(extra))
    # eight words cycling over the pool, paired little-endian
    hash_b = _INIT_B
    state = np.empty((len(jx), 8), dtype=np.uint32)
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b
        state[:, i] = value ^ value >> 16
    return state.view(np.uint64)


def _pcg64_state(words):
    """``PCG64(seed_seq).state`` for the four words of ``_seed_states``.

    The words give initstate = (hi, lo) and initseq = (inc_hi, inc_lo);
    srandom sets inc = 2 initseq + 1 and steps state = state * M + inc
    from 0, adding initstate between its two steps.
    """
    hi, lo, inc_hi, inc_lo = words.tolist()
    inc = ((inc_hi << 65) | (inc_lo << 1) | 1) & _MASK128
    state = ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


class SimulatedStack:
    """The stack of a simulated scene, made a band at a time as it is read.

    Construction computes every distinct model's response in one
    :func:`respond` call, so the excitation is transformed once a scene
    and the traces cost one real FFT of the excitation and two per
    model, each O(n log n). They are the direct sums to a few float64
    ulp, far below the float32 rounding of the stored samples, though
    a rare sample may round the other way. Errors of the series raise
    here; no sample is stored. ``fps``, ``metadata``, ``n_frames``,
    ``ny`` and ``nx`` are those of the stack :func:`simulate_stack`
    returns. ``data`` holds no sample: it is NaN broadcast to the
    stack's shape, read-only, and no code of the package reads it.
    :meth:`bands`, a stored stack's band protocol, is its only reader;
    readers of frames raise InvalidStack. Each call of :meth:`bands`
    simulates the scene anew, bit for bit.
    """

    def __init__(self, scene, excitation):
        timing = excitation.timing
        n_frames = len(excitation.samples)
        duration = n_frames * timing.dt
        self.scene = scene
        self._traces = respond(
            [impulse_response(model, timing, duration)
             for model in scene.models], excitation)
        self.fps = timing.fps
        self.metadata = {
            "stage": "simulated",
            "rng_seed": str(scene.rng_seed),
            "noise_sigma": repr(scene.noise_sigma),
            **excitation_metadata(excitation),
        }
        self.n_frames, self.ny, self.nx = n_frames, scene.ny, scene.nx
        self.data = np.broadcast_to(np.float32(np.nan),
                                    (n_frames, scene.ny, scene.nx))

    def bands(self, width):
        """(cols, band) pairs of the stack's flattened pixel columns.

        As :meth:`pnpuct.stack.ThermogramStack.bands`: ``width`` columns
        a band, in order, each an (n_frames, w) float32 view of one
        reused buffer, valid until the next pair is drawn; the samples
        do not depend on ``width``, a positive integer (InvalidStack).
        A band with a non-finite sample raises NonFiniteData first.

        Each distinct model has one convolution, gathered to its pixels
        through the label map, so no float64 copy of the stack exists.
        Pixel (jx, jy) adds the noise stream of ``default_rng([rng_seed,
        jx, jy])``, so serial and parallel evaluations are bit-identical.
        One vectorized SeedSequence pass seeds all pixels
        (:func:`_seed_states`), and one Generator, set in turn to each
        pixel's PCG64 state (:func:`_pcg64_state`), draws its noise into
        one reused float64 trace: no Generator is built per pixel. Each
        finished trace is cast to float32 into its column of the band,
        which is stored pixel-major and read through its transpose.
        """
        check_width(width)
        scene, traces = self.scene, self._traces
        n_frames = traces.shape[1]
        n_pix = scene.ny * scene.nx
        labels = scene.labels.reshape(-1)
        buffer = np.empty((width, n_frames), np.float32)
        sigma = scene.noise_sigma
        if sigma > 0:
            jy, jx = np.divmod(np.arange(n_pix), scene.nx)
            states = _seed_states(scene.rng_seed, jx, jy)
            bitgen = np.random.PCG64(0)
            gen = np.random.Generator(bitgen)
            trace = np.empty(n_frames)
        for start in range(0, n_pix, len(buffer)):
            cols = slice(start, min(start + len(buffer), n_pix))
            band = buffer[:cols.stop - start]
            # a sample beyond float32 casts to inf, which the check finds
            with np.errstate(over="ignore"):
                if sigma == 0:
                    for pixel, label in zip(band, labels[cols]):
                        pixel[...] = traces[label]
                else:
                    for pixel, label, words in zip(band, labels[cols],
                                                   states[cols]):
                        bitgen.state = _pcg64_state(words)
                        # the bits of trace + gen.normal(0.0, sigma,
                        # n_frames), drawn in place: normal is loc + scale * z
                        gen.standard_normal(out=trace)
                        trace *= sigma
                        trace += 0.0
                        trace += traces[label]
                        pixel[...] = trace
            check_finite(band, f"simulated pixels {cols.start}-{cols.stop - 1}"
                         " (flattened) have non-finite samples")
            yield cols, band.T


def simulate_stack(scene, excitation, path=None,
                   digest=None) -> ThermogramStack:
    """Per-pixel responses plus seeded Gaussian noise, as a thermogram stack.

    The bands of :meth:`SimulatedStack.bands` are stored. Without
    ``path`` they go into a new float32 array, one assignment a band.
    With ``path`` they are written straight into a new TGS1 file there by
    :func:`~pnpuct.stack.write_bands`, the bytes
    :func:`~pnpuct.stack.write_stack` would write of the stack built in
    memory, and the file is then opened with
    :func:`~pnpuct.stack.open_stack`, which feeds ``digest`` and checks
    the samples in one pass: the stack returned is a read-only view of
    the file, and no simulated stack is ever resident. Errors of the
    series raise before the file is created; a full disk raises OSError
    when the file is created; a non-finite sample raises NonFiniteData.
    """
    simulated = SimulatedStack(scene, excitation)
    shape = simulated.n_frames, simulated.ny, simulated.nx
    bands = simulated.bands(band_width(shape[0], shape[1] * shape[2]))
    if path is None:
        data = np.empty(shape, dtype=np.float32)
        for cols, band in bands:
            data.reshape(len(data), -1)[:, cols] = band
        return derived_stack(simulated, data, simulated.fps, {})
    write_bands(path, shape, simulated.fps, simulated.metadata, bands)
    return open_stack(path, digest)


# --- scene configuration files ---


# The keys of a pixel model, in PixelModel's field order: each key maps
# to its parse and its default. In a [defect.<name>] section an unset
# model key takes the background's value instead.
_MODEL = {"diffusivity": (float, 1e-6), "depth": (float, None),
          "reflection": (float, 0.0), "amplitude_scale": (float, 1.0)}
_REGION = dict.fromkeys(("x0", "y0", "width", "height"), (int,))
# Every section and key a scene file may hold, each key with its parse
# and default; a key without a default must be given.
SCENE_KEYS = {
    "scene": {"nx": (int,), "ny": (int,), "noise_sigma": (float, 0.0),
              "rng_seed": (int, 0)},
    "background": _MODEL,
    "defect.*": {**_REGION, **_MODEL},
}


def scene_from_parser(parser) -> SceneConfig:
    """The scene of the ``[scene]``, ``[background]`` and ``[defect.*]``
    sections of ``parser``, a ConfigParser or a dict of sections, read
    through :data:`SCENE_KEYS` by :func:`read_section`; other sections
    are not read."""
    for name in ("scene", "background"):
        if name not in parser:
            raise InvalidScene(f"scene config has no [{name}] section")
    scene = read_section(parser, "scene", SCENE_KEYS["scene"])
    background = read_section(parser, "background", _MODEL)
    defects = []
    for name in parser:
        if name.startswith("defect."):
            values = read_section(parser, name, SCENE_KEYS["defect.*"])
            model = (values[key] if key in parser[name] else background[key]
                     for key in _MODEL)
            defects.append((Region(*(values[key] for key in _REGION)),
                            PixelModel(*model)))
    return SceneConfig(background=PixelModel(*background.values()),
                       defects=tuple(defects), **scene)


def load_scene_config(path) -> SceneConfig:
    """The scene of an INI file, which may hold only the sections and
    keys of :data:`SCENE_KEYS` (:func:`check_names`)."""
    parser = read_ini(path)
    check_names({name: parser[name] for name in parser.sections()},
                SCENE_KEYS)
    return scene_from_parser(parser)


def read_ini(path) -> configparser.ConfigParser:
    """Parse an INI file; ``;`` after whitespace starts a comment anywhere.
    A value is its text as written: ``%`` is not interpolated."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",),
                                       interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise InvalidConfig(str(exc)) from exc
        except UnicodeDecodeError as exc:
            raise InvalidConfig(f"{path}: not UTF-8 text: {exc}") from exc
    return parser


def check_names(sections, tables):
    """InvalidConfig naming the first of the ``sections`` (name -> keys)
    that ``tables`` does not hold, or the section and key of the first
    key that its table does not. A ``[defect.<name>]`` section has the
    keys of ``tables["defect.*"]``."""
    for name, section in sections.items():
        keys = tables.get("defect.*" if name.startswith("defect.") else name)
        if keys is None:
            raise InvalidConfig(f"[{name}] is not a known section; known: "
                                + ", ".join(f"[{known}]" for known in tables))
        for key in section:
            if key not in keys:
                raise InvalidConfig(f"[{name}] {key} is not a known key; "
                                    f"known: {', '.join(keys)}")


def read_section(parser, name, keys, error=InvalidScene):
    """The value of each key of the table ``keys`` in section ``name``:
    ``parse`` of its text, the one parse rule of every scene and run key,
    or its default, not parsed, where it or the section is unset.
    ``error`` names the section and key of an unset key without a
    default, and also the text where ``parse`` raises ValueError or
    KeyError."""
    section = parser[name] if name in parser else {}
    values = {}
    for key, (parse, *default) in keys.items():
        if key in section:
            text = section[key]
            try:
                values[key] = parse(text)
            except (KeyError, ValueError):
                raise error(f"[{name}] {key} = {text!r} is invalid") from None
        elif default:
            values[key] = default[0]
        else:
            raise error(f"[{name}] has no {key!r} key")
    return values
