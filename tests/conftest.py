import numpy as np
import pytest

from pnpuct import (Normalization, Timing, generate_ls, generate_mls,
                    modify_for_perfect_pacf)
from pnpuct.compression import _MatchedFilter

# Tabulated sequences used for byte-equality checks (quadratic-residue
# construction, first element zero; MLS in the bit-1 -> +1 convention).
LS7 = np.array([0, 1, 1, -1, 1, -1, -1], dtype=float)
LS11 = np.array([0, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1], dtype=float)
LS31 = np.array([0, 1, 1, -1, 1, 1, -1, 1, 1, 1, 1, -1, -1, -1, 1, -1,
                 1, -1, 1, 1, 1, -1, -1, -1, -1, 1, -1, -1, 1, -1, -1],
                dtype=float)
MLS7 = np.array([1, -1, -1, 1, -1, 1, 1], dtype=float)


def is_cyclic_shift(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) != len(b):
        return False
    return any(np.array_equal(np.roll(a, k), b) for k in range(len(a)))


def pacf_direct(values):
    """Direct O(N^2) cyclic autocorrelation; integer exact for int input."""
    values = np.asarray(values)
    n = len(values)
    return np.array([np.sum(values * np.roll(values, -lag)) for lag in range(n)])


def dense_taps(code, k):
    """The K * N taps of a modified code's matched filter at the frame
    rate, built tap by tap: tap bK is c[-b mod N], every other tap zero."""
    n = code.n_bit
    taps = np.zeros(k * n)
    for b in range(n):
        taps[b * k] = code.values[-b % n]
    return taps


def resolution_function(code, timing):
    """The compression core's filter op on the code itself, upsampled and
    tiled over the timing's n_per periods: for a perfect-PACF code the
    gain on the first K samples and zero elsewhere."""
    op = _MatchedFilter(code, timing, Normalization.RAW, False)
    upsampled = np.repeat(code.values, timing.k)
    return op(np.tile(upsampled, timing.n_per).reshape(-1, 1))[:, 0]


@pytest.fixture(scope="session")
def ls31():
    return generate_ls(31)


@pytest.fixture(scope="session")
def ls31_plus(ls31):
    return modify_for_perfect_pacf(ls31)


@pytest.fixture(scope="session")
def mls7():
    return generate_mls(3)


@pytest.fixture(scope="session")
def timing_1s_40fps():
    return Timing(t_bit=1.0, fps=40.0, n_per=2)
