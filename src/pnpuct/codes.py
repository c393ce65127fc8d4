"""Pseudo-noise sequence generation and periodic-autocorrelation tools.

Two sequence families are provided: maximum-length sequences (MLS) built
from a linear-feedback shift register, and Legendre sequences (LS) built
from quadratic residues of a prime. Both have a two-valued periodic
autocorrelation (PACF); adding the proper constant bias turns it into a
single spike, which is what the pulse-compression pipeline relies on.
Barker and Golay reference codes are included for sidelobe comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    AlreadyModified,
    BiasMismatch,
    GainMismatch,
    InvalidCode,
    InvalidSeed,
    NonPrimitivePolynomial,
    NotLs4Compatible,
    NotPrime,
    UnsupportedLength,
)
from .stack import write_hashed

CODE_TABLE_VERSION = "1"

# Exponents of the non-leading, non-constant terms of one known primitive
# polynomial per register order (constant and leading terms are implicit).
# Entries follow the standard maximal-LFSR tap tables.
_PRIMITIVE_EXPONENTS = {
    2: (1,),
    3: (1,),            # x^3 + x + 1
    4: (1,),
    5: (2,),
    6: (1,),
    7: (1,),
    8: (6, 5, 4),
    9: (4,),
    10: (3,),
    11: (2,),
    12: (6, 4, 1),
    13: (4, 3, 1),
    14: (5, 3, 1),
    15: (1,),
    16: (15, 13, 4),
}


def _int_field(value, field):
    """``int(value)``, or an InvalidCode naming the field it came from.

    A number must be integral (5.0 is 5, 4.9 is rejected, not
    truncated) and not a bool; a string must spell an integer.
    """
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if (number is None or isinstance(value, (bool, np.bool_))
            or not isinstance(value, str) and number != value):
        raise InvalidCode(f"{field} = {value!r} is not an integer")
    return number


def primitive_taps(order):
    """Built-in tap coefficients (constant term first) for 2 <= order <= 16."""
    if order not in _PRIMITIVE_EXPONENTS:
        raise InvalidCode(
            f"no built-in polynomial for order {order}; supply taps")
    coeffs = [0] * order
    coeffs[0] = 1
    for e in _PRIMITIVE_EXPONENTS[order]:
        coeffs[e] = 1
    return tuple(coeffs)


class CodeKind(Enum):
    MLS = "MLS"
    LS = "LS"
    MLS_PLUS = "MLS_PLUS"
    LS_PLUS = "LS_PLUS"
    LS_4PLUS = "LS_4PLUS"


MODIFIED_KINDS = frozenset({CodeKind.MLS_PLUS, CodeKind.LS_PLUS, CodeKind.LS_4PLUS})


def is_prime(n):
    """Deterministic trial division, adequate for desk-scale code lengths."""
    return n >= 2 and all(n % f for f in range(2, int(n ** 0.5) + 1))


@dataclass(frozen=True, eq=False)
class PnCode:
    """A pseudo-noise sequence with its bias and compression gain.

    ``values`` holds the sequence actually used by the matched filter:
    bipolar for standard kinds (with the single Legendre zero), bias
    shifted for modified kinds. ``gain`` is the PACF value at lag zero.
    """

    kind: CodeKind
    n_bit: int
    values: np.ndarray
    gain: float
    bias: float = 0.0
    sign_choice: int = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        if len(vals) != self.n_bit:
            raise InvalidCode("values length must equal n_bit")
        base = vals - self.bias
        if self.kind in (CodeKind.MLS, CodeKind.MLS_PLUS):
            m = (self.n_bit + 1).bit_length() - 1
            if m < 2 or (1 << m) - 1 != self.n_bit:
                raise InvalidCode("MLS length must be 2**M - 1 with M >= 2")
            if not np.all(np.abs(np.abs(base) - 1.0) < 1e-9):
                raise InvalidCode("MLS values must be bipolar")
            if abs(abs(float(np.sum(base))) - 1.0) > 1e-6:
                raise InvalidCode("MLS element sum must be +1 or -1")
        elif self.kind in (CodeKind.LS, CodeKind.LS_PLUS):
            if not is_prime(self.n_bit):
                raise InvalidCode("LS length must be prime")
            if abs(base[0]) > 1e-9:
                raise InvalidCode("LS first element must be 0")
            if not np.all(np.abs(np.abs(base[1:]) - 1.0) < 1e-9):
                raise InvalidCode("LS values past the first must be bipolar")
            if int(np.sum(base[1:] > 0)) != (self.n_bit - 1) // 2:
                raise InvalidCode("LS must have (n_bit-1)/2 entries equal +1")
        elif self.kind is CodeKind.LS_4PLUS:
            if not is_prime(self.n_bit) or self.n_bit % 4 != 3:
                raise InvalidCode(
                    "LS_4PLUS length must be prime with n_bit % 4 == 3")
            if self.sign_choice not in (-1, 1):
                raise InvalidCode("LS_4PLUS requires sign_choice of +1 or -1")
            if abs(base[0] - self.sign_choice) > 1e-9:
                raise InvalidCode(
                    "LS_4PLUS first element must equal sign_choice")
            if not np.all(np.abs(np.abs(base) - 1.0) < 1e-9):
                raise InvalidCode("LS_4PLUS base values must be bipolar")
        if self.kind not in MODIFIED_KINDS and self.bias != 0.0:
            raise InvalidCode("standard kinds carry zero bias")

    @property
    def base_values(self):
        """Sequence with the bias stripped: the physically drivable levels."""
        return self.values - self.bias

    @property
    def is_modified(self):
        return self.kind in MODIFIED_KINDS


def generate_mls(order, tap_coefficients=None, seed=None) -> PnCode:
    """Generate the maximum-length sequence of a shift register.

    Parameters
    ----------
    order : int
        Number of register taps M; the sequence length is 2**M - 1.
    tap_coefficients : sequence of int, optional
        Binary coefficients of the feedback polynomial, constant term
        first (length M, excluding the implicit leading term). Defaults
        to a built-in primitive polynomial for 2 <= M <= 16.
    seed : sequence of int, optional
        Bipolar register state of length M; defaults to all +1. The all
        -1 state maps to the register fixed point and is rejected.

    The register bits follow the linear recurrence in GF(2) implied by
    the feedback polynomial; bit 1 maps to +1 and bit 0 to -1, matching
    the usual tabulated bipolar form. The state cycle is measured while
    generating, and any cycle shorter than 2**M - 1 rejects the
    polynomial, which validates primitivity constructively.

    Raises
    ------
    InvalidCode, InvalidSeed
        If the order and taps, or the seed, are malformed.
    NonPrimitivePolynomial
        If the constant coefficient is 0, or the state cycle length is a
        proper divisor of 2**M - 1.
    """
    m = _int_field(order, "order")
    if m < 2:
        raise InvalidCode("order must be at least 2")
    if tap_coefficients is None:
        tap_coefficients = primitive_taps(m)
    taps = tuple(_int_field(t, "tap_coefficients") for t in tap_coefficients)
    if len(taps) != m or any(t not in (0, 1) for t in taps):
        raise InvalidCode("tap_coefficients must be %d binary values" % m)
    if taps[0] != 1:
        raise NonPrimitivePolynomial("constant coefficient must be 1")
    if seed is None:
        seed = (1,) * m
    seed = tuple(_int_field(s, "seed") for s in seed)
    if len(seed) == 0:
        raise InvalidSeed("seed must not be empty")
    if len(seed) != m or any(s not in (-1, 1) for s in seed):
        raise InvalidSeed("seed must be %d values of +1 or -1" % m)
    if all(s == -1 for s in seed):
        raise InvalidSeed("all -1 seed is the trivial register state")
    n_bit = (1 << m) - 1
    # recurrence coefficient for lag i is the polynomial coefficient of x^(M-i)
    lag_taps = [taps[m - i] for i in range(1, m + 1)]
    bits = [(1 + s) // 2 for s in seed]
    state0 = tuple(bits)
    # the constant tap is 1, so the step is invertible and the seed state
    # recurs within 2**M - 1 steps: only an earlier return can reject it
    for n in range(m, n_bit + m - 1):
        acc = 0
        for i in range(1, m + 1):
            if lag_taps[i - 1]:
                acc ^= bits[n - i]
        bits.append(acc)
        if tuple(bits[n - m + 1:]) == state0:
            raise NonPrimitivePolynomial(
                f"state cycle of length {n - m + 1} < {n_bit}; "
                "feedback polynomial is not primitive")
    values = 2.0 * np.array(bits[:n_bit], dtype=float) - 1.0
    return PnCode(kind=CodeKind.MLS, n_bit=n_bit, values=values, gain=float(n_bit))


def generate_ls(n_bit) -> PnCode:
    """Generate the Legendre sequence of prime length ``n_bit``.

    Element 0 is zero; element n is +1 when n is a quadratic residue
    modulo ``n_bit`` and -1 otherwise. The construction is deterministic
    with no phase freedom.
    """
    n_bit = _int_field(n_bit, "n_bit")
    if n_bit < 3 or not is_prime(n_bit):
        raise NotPrime(f"{n_bit} is not a prime >= 3")
    residues = np.zeros(n_bit, dtype=bool)
    for k in range(1, n_bit):
        residues[(k * k) % n_bit] = True
    values = np.where(residues, 1.0, -1.0)
    values[0] = 0.0
    return PnCode(kind=CodeKind.LS, n_bit=n_bit, values=values,
                  gain=float(n_bit - 1))


def perfect_bias(kind, n_bit, *, element_sum=0, sign_choice=None):
    """Constant shift that zeroes every off-peak PACF lag.

    For a bipolar sequence of length N with two-valued PACF (off-peak
    value -1) and element sum S, the shift solves N*c**2 + 2*S*c - 1 = 0,
    giving c = (-S + sqrt(N + 1)) / N. A Legendre sequence has S = 0 and
    the root reduces to 1/sqrt(N).
    """
    if kind is CodeKind.LS_PLUS:
        return 1.0 / math.sqrt(n_bit)
    if kind is CodeKind.MLS_PLUS:
        return (-element_sum + math.sqrt(n_bit + 1.0)) / n_bit
    if kind is CodeKind.LS_4PLUS:
        return (-sign_choice + math.sqrt(n_bit + 1.0)) / n_bit
    return 0.0


def check_code(code):
    """Return ``code`` if it carries the bias and gain its values imply.

    The bias must be the kind's :func:`perfect_bias` (:class:`BiasMismatch`)
    and the gain the sum of the squared values, the PACF peak of every
    kind (:class:`GainMismatch`), both within 1e-9 relative.
    """
    s = int(round(float(np.sum(code.base_values))))
    expected = perfect_bias(code.kind, code.n_bit, element_sum=s,
                            sign_choice=code.sign_choice)
    if abs(code.bias - expected) > 1e-9 * max(1.0, abs(expected)):
        raise BiasMismatch(f"{code.kind.value} code carries bias "
                           f"{code.bias!r}, expected {expected!r}")
    peak = float(code.values @ code.values)
    if abs(code.gain - peak) > 1e-9 * peak:
        raise GainMismatch(f"{code.kind.value} code carries gain "
                           f"{code.gain!r}, its PACF peak is {peak!r}")
    return code


def modify_for_perfect_pacf(code) -> PnCode:
    """Shift a standard MLS or LS by the bias that makes its PACF a spike.

    The returned gain is the new PACF peak: n_bit + 1 for an MLS, n_bit
    for an LS.
    """
    if code.kind in MODIFIED_KINDS:
        raise AlreadyModified(f"{code.kind.value} already carries a bias")
    if code.kind is CodeKind.MLS:
        s = int(round(float(np.sum(code.values))))
        bias = perfect_bias(CodeKind.MLS_PLUS, code.n_bit, element_sum=s)
        return PnCode(kind=CodeKind.MLS_PLUS, n_bit=code.n_bit,
                      values=code.values + bias, gain=float(code.n_bit + 1),
                      bias=bias)
    bias = perfect_bias(CodeKind.LS_PLUS, code.n_bit)
    return PnCode(kind=CodeKind.LS_PLUS, n_bit=code.n_bit,
                  values=code.values + bias, gain=float(code.n_bit),
                  bias=bias)


def binarize_ls4(code, sign) -> PnCode:
    """Replace the Legendre zero with ``sign`` and add the matching bias.

    Only lengths with n_bit % 4 == 3 keep a perfect PACF under this
    substitution. The underlying unshifted sequence is then fully
    binary, so the physical excitation reduces to switching a constant
    heat flux on and off. The bias numerator couples to the sign:
    sign = +1 pairs with (-1 + sqrt(n_bit + 1)).
    """
    if code.kind is not CodeKind.LS:
        raise NotLs4Compatible("binarization starts from a standard LS")
    sign = _int_field(sign, "sign")
    if sign not in (-1, 1):
        raise InvalidCode("sign must be +1 or -1")
    if code.n_bit % 4 != 3:
        raise NotLs4Compatible(
            f"n_bit = {code.n_bit} has n_bit % 4 == {code.n_bit % 4}, need 3")
    bias = perfect_bias(CodeKind.LS_4PLUS, code.n_bit, sign_choice=sign)
    values = code.values.copy()
    values[0] = float(sign)
    return PnCode(kind=CodeKind.LS_4PLUS, n_bit=code.n_bit,
                  values=values + bias, gain=float(code.n_bit + 1),
                  bias=bias, sign_choice=sign)


def make_codes(kind, modified=None, *, n_bit=None, order=None, taps=None,
               seed=None, sign=1):
    """(standard, code) from code-kind names; code is the one to use.

    ``kind`` is ``ls`` (needs ``n_bit``) or ``mls`` (needs ``order``; comma
    lists ``taps`` and ``seed`` as in :func:`generate_mls`). ``modified`` is
    None (code is the standard one), ``<kind>_plus`` (add the perfect-PACF
    bias) or ``ls4_plus`` (zero replaced by ``sign``). A
    modified name passed as ``kind`` implies its standard kind.
    """
    if modified is None and kind in ("ls_plus", "mls_plus", "ls4_plus"):
        kind, modified = ("mls" if kind == "mls_plus" else "ls"), kind
    if kind == "ls":
        if n_bit is None:
            raise InvalidCode("an LS code needs n_bit")
        standard = generate_ls(n_bit)
    elif kind == "mls":
        if order is None:
            raise InvalidCode("an MLS code needs an order")
        standard = generate_mls(order, taps.split(",") if taps else None,
                                seed.split(",") if seed else None)
    else:
        raise InvalidCode(f"unknown code kind {kind!r}")
    if modified is None:
        return standard, standard
    if modified == f"{kind}_plus":
        return standard, modify_for_perfect_pacf(standard)
    if modified == "ls4_plus":
        return standard, binarize_ls4(standard, sign)
    raise InvalidCode(f"code kind {kind!r} has no modified kind {modified!r}")


def pacf(values) -> np.ndarray:
    """Periodic (cyclic) autocorrelation of a sequence, lag 0 first.

    Of a code, pass ``code.values``: lag 0 is its peak, the gain, and
    the rest its sidelobes. The spectrum magnitude squared is inverted
    back to lag domain (the convolution theorem). X conj(X) is real up
    to one rounding, so the imaginary part of its inverse is rounding
    alone, and only the real float64 part is returned.
    """
    spectrum = np.fft.fft(np.asarray(values, dtype=float))
    return np.fft.ifft(spectrum * np.conj(spectrum)).real


# --- reference codes for sidelobe comparison ---


# the longest Barker code: acyclic sidelobes of magnitude 1 at most
BARKER13 = np.array([1, 1, 1, 1, 1, -1, -1, 1, 1, -1, 1, -1, 1], dtype=float)
BARKER13.flags.writeable = False


def acyclic_autocorrelation(values) -> np.ndarray:
    """Aperiodic autocorrelation on non-negative lags (lag 0 first)."""
    values = np.asarray(values, dtype=float)
    full = np.correlate(values, values, mode="full")
    return full[len(values) - 1:]


def golay_pair(length):
    """Complementary pair of the given power-of-2 length by recursive doubling."""
    length = _int_field(length, "length")
    if length < 1 or length & (length - 1):
        raise UnsupportedLength(f"Golay length must be a power of 2, got {length}")
    a = np.array([1.0])
    b = np.array([1.0])
    while len(a) < length:
        a, b = np.concatenate([a, b]), np.concatenate([a, -b])
    return a, b


# --- text descriptor serialization ---

_KIND_FIELD = "kind"


def code_to_text(code) -> str:
    """Serialize a code to its text descriptor.

    Floats are written with ``repr`` so the decimal form round-trips
    exactly (at most 17 significant digits).
    """
    lines = [
        "pncode v1",
        f"kind: {code.kind.value}",
        f"n_bit: {code.n_bit}",
        f"bias: {code.bias!r}",
        f"gain: {code.gain!r}",
    ]
    if code.sign_choice is not None:
        lines.append(f"sign_choice: {code.sign_choice}")
    lines.append("values: " + " ".join(repr(float(v)) for v in code.values))
    return "\n".join(lines) + "\n"


def code_from_text(text) -> PnCode:
    """Parse a text descriptor of :func:`code_to_text`, then :func:`check_code` it."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != "pncode v1":
        raise InvalidCode("not a pncode v1 descriptor")
    fields = {}
    for ln in lines[1:]:
        key, _, val = ln.partition(":")
        fields[key.strip()] = val.strip()
    try:
        kind = CodeKind(fields[_KIND_FIELD])
        sign = int(fields["sign_choice"]) if "sign_choice" in fields else None
        parsed = dict(
            n_bit=int(fields["n_bit"]),
            values=np.array([float(v) for v in fields["values"].split()]),
            gain=float(fields["gain"]),
            bias=float(fields["bias"]),
        )
    except KeyError as exc:
        raise InvalidCode(f"descriptor has no {exc.args[0]!r} field") from None
    except ValueError as exc:
        raise InvalidCode(f"malformed descriptor: {exc}") from None
    return check_code(PnCode(kind=kind, sign_choice=sign, **parsed))


def save_code(code, path):
    """Write a code's descriptor; return the SHA-256 hex digest of it."""
    return write_hashed(path, [code_to_text(code).encode("utf-8")])


def load_code(path) -> PnCode:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidCode(f"{path}: not UTF-8 text: {exc}") from exc
    return code_from_text(text)
