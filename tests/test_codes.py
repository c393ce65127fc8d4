import re
from types import SimpleNamespace

import numpy as np
import pytest

from pnpuct import (
    AlreadyModified,
    BiasMismatch,
    CodeKind,
    GainMismatch,
    InvalidCode,
    InvalidSeed,
    MlsSpec,
    NonPrimitivePolynomial,
    NotLs4Compatible,
    NotPrime,
    PnCode,
    ReferenceKind,
    UnsupportedLength,
    acyclic_autocorrelation,
    binarize_ls4,
    code_from_text,
    code_to_text,
    generate_ls,
    generate_mls,
    golay_pair,
    load_code,
    make_codes,
    modify_for_perfect_pacf,
    pacf,
    pacf_direct,
    pacf_values,
    primitive_taps,
    reference_autocorrelation,
    reference_code,
)
from conftest import LS7, LS11, LS31, MLS7, is_cyclic_shift


class TestGenerateMls:
    def test_m3_is_cyclic_shift_of_tabulated(self):
        code = generate_mls(MlsSpec(order=3, tap_coefficients=(1, 1, 0)))
        assert code.n_bit == 7
        assert code.kind is CodeKind.MLS
        assert is_cyclic_shift(code.values, MLS7)

    def test_m3_default_taps_match_x3_x_1(self):
        assert primitive_taps(3) == (1, 1, 0)
        code = generate_mls(MlsSpec(order=3))
        assert is_cyclic_shift(code.values, MLS7)

    def test_m2_pacf(self):
        code = generate_mls(MlsSpec(order=2))
        assert code.n_bit == 3
        np.testing.assert_array_equal(
            pacf_direct(code.values.astype(int)), [3, -1, -1])

    def test_m4_pacf_by_direct_summation(self):
        # x^4 + x + 1
        code = generate_mls(MlsSpec(order=4, tap_coefficients=(1, 1, 0, 0)))
        assert code.n_bit == 15
        direct = pacf_direct(code.values.astype(int))
        assert direct[0] == 15
        np.testing.assert_array_equal(direct[1:], -np.ones(14))

    def test_non_primitive_rejected(self):
        # x^4 + x^2 + 1 = (x^2 + x + 1)^2
        with pytest.raises(NonPrimitivePolynomial):
            generate_mls(MlsSpec(order=4, tap_coefficients=(1, 0, 1, 0)))

    def test_even_constant_term_rejected(self):
        with pytest.raises(NonPrimitivePolynomial):
            MlsSpec(order=3, tap_coefficients=(0, 1, 1))

    @pytest.mark.parametrize("build, match", [
        (lambda: primitive_taps(17), "no built-in polynomial for order 17"),
        (lambda: MlsSpec(order=1), "order must be at least 2"),
        (lambda: MlsSpec(order=3, tap_coefficients=(1, 1)),
         "tap_coefficients must be 3 binary values"),
        (lambda: MlsSpec(order=3, tap_coefficients=(1, 2, 0)),
         "tap_coefficients must be 3 binary values"),
    ], ids=["no-table-entry", "order-1", "taps-short", "taps-not-binary"])
    def test_malformed_spec_rejected(self, build, match):
        with pytest.raises(InvalidCode, match=match):
            build()

    def test_trivial_seed_rejected(self):
        with pytest.raises(InvalidSeed):
            MlsSpec(order=3, seed=(-1, -1, -1))

    def test_malformed_seed_rejected(self):
        with pytest.raises(InvalidSeed):
            MlsSpec(order=3, seed=(1, 1))
        with pytest.raises(InvalidSeed):
            MlsSpec(order=3, seed=(1, 0, 1))
        with pytest.raises(InvalidSeed):
            MlsSpec(order=3, seed=())

    def test_any_seed_gives_shift_of_same_sequence(self):
        reference = generate_mls(MlsSpec(order=4)).values
        for seed in [(1, -1, 1, -1), (-1, -1, -1, 1), (1, 1, -1, 1)]:
            code = generate_mls(MlsSpec(order=4, seed=seed))
            assert is_cyclic_shift(code.values, reference)

    @pytest.mark.parametrize("order", range(2, 17))
    def test_builtin_table_period(self, order):
        code = generate_mls(MlsSpec(order=order))
        assert code.n_bit == 2 ** order - 1

    def test_balance(self):
        for order in range(2, 11):
            code = generate_mls(MlsSpec(order=order))
            assert abs(code.values.sum()) == 1.0


class TestGenerateLs:
    def test_tabulated_ls7(self):
        np.testing.assert_array_equal(generate_ls(7).values, LS7)

    def test_tabulated_ls11(self):
        np.testing.assert_array_equal(generate_ls(11).values, LS11)

    def test_tabulated_ls31(self):
        np.testing.assert_array_equal(generate_ls(31).values, LS31)

    @pytest.mark.parametrize("n", [1, 2, 4, 9, 15, 91, 100])
    def test_not_prime(self, n):
        with pytest.raises(NotPrime):
            generate_ls(n)

    def test_balance(self):
        for p in (3, 5, 7, 11, 13, 31, 61, 127, 199):
            values = generate_ls(p).values
            assert values[0] == 0.0
            assert np.sum(values > 0) == (p - 1) // 2
            assert np.sum(values < 0) == (p - 1) // 2


class TestModify:
    def test_ls31_plus_bias_and_gain(self, ls31_plus):
        assert ls31_plus.kind is CodeKind.LS_PLUS
        assert ls31_plus.bias == pytest.approx(0.17961, abs=5e-6)
        assert ls31_plus.bias == pytest.approx(1 / np.sqrt(31), rel=1e-15)
        assert ls31_plus.gain == 31.0

    def test_mls7_plus_pacf_spike(self, mls7):
        plus = modify_for_perfect_pacf(mls7)
        # bias computed from the element sum; verified by the direct oracle
        assert plus.bias == pytest.approx((np.sqrt(8) - 1) / 7, rel=1e-15)
        direct = pacf_direct(plus.values)
        assert direct[0] == pytest.approx(8.0, rel=1e-12)
        np.testing.assert_allclose(direct[1:], 0.0, atol=1e-12)

    def test_ls3_plus_values_and_pacf(self):
        plus = modify_for_perfect_pacf(generate_ls(3))
        b = 1 / np.sqrt(3)
        np.testing.assert_allclose(plus.values, [b, 1 + b, -1 + b], rtol=1e-15)
        direct = pacf_direct(plus.values)
        np.testing.assert_allclose(direct, [3, 0, 0], atol=1e-12)

    @pytest.mark.parametrize("kind, modified, size", [
        ("mls", "ls_plus", {"order": 3}),
        ("ls", "mls_plus", {"n_bit": 31}),
    ])
    def test_modified_kind_of_the_other_family_rejected(self, kind,
                                                        modified, size):
        # make_codes("mls", "ls_plus") returned an MLS+ code
        with pytest.raises(InvalidCode, match=f"{kind!r}.*{modified!r}"):
            make_codes(kind, modified, **size)
        _, code = make_codes(kind, f"{kind}_plus", **size)
        assert code.kind is CodeKind[f"{kind.upper()}_PLUS"]

    def test_already_modified(self, ls31_plus):
        with pytest.raises(AlreadyModified):
            modify_for_perfect_pacf(ls31_plus)


class TestBinarizeLs4:
    def test_ls7_sign_plus(self):
        code = binarize_ls4(generate_ls(7), +1)
        assert code.kind is CodeKind.LS_4PLUS
        assert code.sign_choice == 1
        assert code.bias == pytest.approx((-1 + np.sqrt(8)) / 7, rel=1e-15)
        direct = pacf_direct(code.values)
        assert direct[0] == pytest.approx(8.0, rel=1e-12)
        np.testing.assert_allclose(direct[1:], 0.0, atol=1e-12)

    def test_ls11_sign_minus(self):
        code = binarize_ls4(generate_ls(11), -1)
        assert code.bias == pytest.approx((1 + np.sqrt(12)) / 11, rel=1e-15)
        assert code.gain == 12.0
        direct = pacf_direct(code.values)
        assert direct[0] == pytest.approx(12.0, rel=1e-12)
        np.testing.assert_allclose(direct[1:], 0.0, atol=1e-12)

    def test_base_is_fully_binary(self):
        code = binarize_ls4(generate_ls(11), +1)
        np.testing.assert_allclose(np.abs(code.base_values), 1.0, rtol=1e-12)

    @pytest.mark.parametrize("sign", [0, 2, -3])
    def test_sign_must_be_plus_or_minus_one(self, sign):
        with pytest.raises(InvalidCode, match="sign must be"):
            binarize_ls4(generate_ls(7), sign)

    @pytest.mark.parametrize("n", [5, 13, 17, 29])
    def test_incompatible_length(self, n):
        with pytest.raises(NotLs4Compatible):
            binarize_ls4(generate_ls(n), +1)


class TestPacf:
    def test_ls7_standard(self):
        result = pacf(generate_ls(7))
        np.testing.assert_allclose(result.values, [6, -1, -1, -1, -1, -1, -1],
                                   atol=1e-12)
        assert result.peak == pytest.approx(6.0)

    def test_mls7_standard(self, mls7):
        result = pacf(mls7)
        assert result.values[0] == pytest.approx(7.0)
        np.testing.assert_allclose(result.values[1:], -1.0, atol=1e-12)

    def test_all_zero_sequence(self):
        np.testing.assert_array_equal(pacf_values(np.zeros(9)), np.zeros(9))

    def test_peak_is_energy(self, ls31_plus):
        result = pacf(ls31_plus)
        assert result.peak == pytest.approx(
            float(np.sum(ls31_plus.values ** 2)), rel=1e-12)

    def test_fft_matches_direct_on_random_codes(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 200))
            values = rng.choice([-1.0, 1.0], size=n)
            fft_result = pacf_values(values)
            direct = pacf_direct(values)
            np.testing.assert_allclose(fft_result, direct,
                                       rtol=1e-10, atol=1e-10)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        for p in (7, 31, 61):
            values = generate_ls(p).values
            base = pacf_values(values)
            for _ in range(3):
                shift = int(rng.integers(1, p))
                np.testing.assert_allclose(
                    pacf_values(np.roll(values, shift)), base, atol=1e-10)


def _perfect_code_family(max_mls_order=10, max_prime=199):
    primes = [p for p in range(3, max_prime + 1)
              if all(p % q for q in range(2, int(p ** 0.5) + 1))]
    for order in range(2, max_mls_order + 1):
        yield modify_for_perfect_pacf(generate_mls(MlsSpec(order=order)))
    for p in primes:
        yield modify_for_perfect_pacf(generate_ls(p))
    for p in primes:
        if p % 4 == 3:
            yield binarize_ls4(generate_ls(p), +1)
            yield binarize_ls4(generate_ls(p), -1)


class TestPerfectPacfSweep:
    def test_sweep_small(self):
        # every built-in MLS order and every prime below 1000
        for code in _perfect_code_family(max_mls_order=16, max_prime=1000):
            result = pacf(code)
            assert result.max_sidelobe < 1e-9 * result.peak
            assert abs(result.peak - code.gain) < 1e-9 * code.gain

    def test_standard_law_exact_integer(self):
        for order in range(2, 11):
            values = generate_mls(MlsSpec(order=order)).values.astype(np.int64)
            direct = pacf_direct(values)
            assert direct[0] == len(values)
            assert np.all(direct[1:] == -1)
        for p in (3, 7, 31, 61, 199):
            values = generate_ls(p).values.astype(np.int64)
            direct = pacf_direct(values)
            assert direct[0] == p - 1
            assert np.all(direct[1:] == -1)


class TestReferenceCodes:
    def test_barker13_sidelobes(self):
        acf = reference_autocorrelation(ReferenceKind.BARKER13)
        assert acf[0] == 13.0
        assert np.abs(acf[1:]).max() <= 1.0

    def test_barker13_code_object(self):
        code = reference_code(ReferenceKind.BARKER13)
        assert len(code.values) == 13
        np.testing.assert_array_equal(code.acyclic_autocorrelation(),
                                      reference_autocorrelation("BARKER13"))

    def test_golay_16_sum_is_spike(self):
        acf_a, acf_b, total = reference_autocorrelation(ReferenceKind.GOLAY_A, 16)
        assert total[0] == 32.0
        np.testing.assert_array_equal(total[1:], np.zeros(15))
        # individual members do have sidelobes; they cancel pairwise
        assert np.abs(acf_a[1:]).max() > 0
        np.testing.assert_array_equal(acf_a[1:], -acf_b[1:])

    def test_golay_2_by_hand(self):
        a, b = golay_pair(2)
        np.testing.assert_array_equal(a, [1, 1])
        np.testing.assert_array_equal(b, [1, -1])
        _, _, total = reference_autocorrelation(ReferenceKind.GOLAY_B, 2)
        np.testing.assert_array_equal(total, [4, 0])

    def test_unsupported_lengths(self):
        for make in (reference_code, reference_autocorrelation):
            with pytest.raises(UnsupportedLength):
                make(ReferenceKind.GOLAY_A, 12)
            with pytest.raises(UnsupportedLength):
                make(ReferenceKind.BARKER13, 7)
        with pytest.raises(UnsupportedLength):
            golay_pair(0)

    @pytest.mark.parametrize("kind", ["GOLAY_A", "GOLAY_B"])
    def test_golay_needs_explicit_length(self, kind):
        for make in (reference_code, reference_autocorrelation):
            with pytest.raises(UnsupportedLength, match="explicit length"):
                make(kind)

    def test_golay_codes_match_pair_autocorrelation(self):
        acf_a, acf_b, _ = reference_autocorrelation("GOLAY_A", 8)
        np.testing.assert_array_equal(
            reference_code("GOLAY_A", 8).acyclic_autocorrelation(), acf_a)
        np.testing.assert_array_equal(
            reference_code("GOLAY_B", 8).acyclic_autocorrelation(), acf_b)

    def test_acyclic_autocorrelation_lag0(self):
        v = np.array([1.0, -1.0, 1.0])
        np.testing.assert_array_equal(acyclic_autocorrelation(v), [3, -2, 1])


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda: generate_ls(31),
        lambda: generate_mls(MlsSpec(order=5)),
        lambda: modify_for_perfect_pacf(generate_ls(61)),
        lambda: modify_for_perfect_pacf(generate_mls(MlsSpec(order=4))),
        lambda: binarize_ls4(generate_ls(19), -1),
    ])
    def test_round_trip_exact(self, make):
        code = make()
        back = code_from_text(code_to_text(code))
        assert back.kind is code.kind
        assert back.n_bit == code.n_bit
        assert back.bias == code.bias
        assert back.gain == code.gain
        assert back.sign_choice == code.sign_choice
        np.testing.assert_array_equal(back.values, code.values)

    def test_rejects_garbage(self):
        with pytest.raises(InvalidCode, match="^not a pncode v1 descriptor$"):
            code_from_text("not a descriptor")

    @pytest.mark.parametrize("old, new, match", [
        ("values: ", "samples: ", "'values'"),
        ("kind: LS_PLUS", "kind: GOLAY", "'GOLAY'"),
        ("n_bit: 31", "n_bit: thirty-one", "thirty-one"),
    ])
    def test_malformed_descriptor_names_the_fault(self, old, new, match):
        text = code_to_text(modify_for_perfect_pacf(generate_ls(31)))
        with pytest.raises(InvalidCode, match=match):
            code_from_text(text.replace(old, new))


class TestIntegerFields:
    @pytest.mark.parametrize("build, field", [
        (lambda: MlsSpec(order=3, tap_coefficients=("x", "1", "0")),
         "tap_coefficients"),
        (lambda: MlsSpec(order=3, seed=("a", "1", "1")), "seed"),
        (lambda: make_codes("mls", order="x"), "order"),
        (lambda: make_codes("ls", n_bit="x"), "n_bit"),
        (lambda: make_codes("ls4_plus", n_bit="11", sign="x"), "sign"),
    ])
    def test_unparsable_integer_names_the_field(self, build, field):
        with pytest.raises(InvalidCode, match=f"^{field} = '"):
            build()

    def test_spec_order_not_an_integer(self):
        with pytest.raises(InvalidCode, match="^order = 'x' "):
            MlsSpec(order="x")
        assert MlsSpec(order="5") == MlsSpec(order=5)

    @pytest.mark.parametrize("build, field", [
        (lambda: MlsSpec(order=4.9), "order"),
        (lambda: MlsSpec(order=np.float64(4.5)), "order"),
        (lambda: MlsSpec(order=float("inf")), "order"),
        (lambda: MlsSpec(order=float("nan")), "order"),
        (lambda: MlsSpec(order=3, tap_coefficients=(1, 0.5, 1)),
         "tap_coefficients"),
        (lambda: MlsSpec(order=3, seed=(1, 1, -0.9)), "seed"),
        (lambda: generate_ls(31.7), "n_bit"),
        (lambda: make_codes("ls", n_bit=31.7), "n_bit"),
        (lambda: make_codes("ls4_plus", n_bit=11, sign=0.5), "sign"),
    ])
    def test_fractional_number_rejected_not_truncated(self, build, field):
        with pytest.raises(InvalidCode, match=f"^{field} = "):
            build()

    def test_integral_number_accepted(self):
        assert MlsSpec(order=5.0) == MlsSpec(order=5)
        assert MlsSpec(order=np.int64(5)) == MlsSpec(order=5)
        assert (generate_ls(31.0).values.tobytes()
                == generate_ls(31).values.tobytes())


class TestPnCodeValidation:
    def test_length_must_match(self):
        with pytest.raises(InvalidCode,
                           match="^values length must equal n_bit$"):
            PnCode(kind=CodeKind.MLS, n_bit=7, values=np.ones(6), gain=7.0)

    def test_mls_must_be_bipolar(self):
        with pytest.raises(InvalidCode, match="^MLS values must be bipolar$"):
            PnCode(kind=CodeKind.MLS, n_bit=7,
                   values=np.array([1, 2, -1, 1, -1, 1, -1.0]), gain=7.0)

    def test_ls_balance_checked(self):
        bad = np.array([0, 1, 1, 1, 1, -1, -1.0])
        with pytest.raises(InvalidCode, match=re.escape(
                "LS must have (n_bit-1)/2 entries equal +1")):
            PnCode(kind=CodeKind.LS, n_bit=7, values=bad, gain=6.0)

    def test_standard_kind_rejects_bias(self):
        # LS7 + 0.1 leaves the bipolar LS7 once the bias is taken off, so
        # every LS rule passes and the bias rule is the one that fires
        with pytest.raises(InvalidCode,
                           match="^standard kinds carry zero bias$"):
            PnCode(kind=CodeKind.LS, n_bit=7, values=LS7 + 0.1, gain=6.0,
                   bias=0.1)

    @pytest.mark.parametrize("fields, match", [
        ({"kind": CodeKind.MLS, "n_bit": 6, "values": np.ones(6)},
         r"MLS length must be 2\*\*M - 1"),
        ({"kind": CodeKind.MLS, "n_bit": 7,
          "values": np.array([1, 1, 1, 1, 1, -1, -1.0])},
         "MLS element sum must be"),
        ({"kind": CodeKind.LS, "n_bit": 9, "values": np.ones(9)},
         "LS length must be prime"),
        ({"kind": CodeKind.LS, "n_bit": 7, "values": LS7 + 0.1},
         "LS first element must be 0"),
        ({"kind": CodeKind.LS, "n_bit": 7,
          "values": np.array([0, 1, 1, -1, 1, -1, -0.5])},
         "LS values past the first must be bipolar"),
        ({"kind": CodeKind.LS_4PLUS, "n_bit": 13, "values": np.ones(13),
          "sign_choice": 1},
         "LS_4PLUS length must be prime with n_bit % 4 == 3"),
        ({"kind": CodeKind.LS_4PLUS, "n_bit": 7, "values": np.ones(7)},
         "LS_4PLUS requires sign_choice"),
        ({"kind": CodeKind.LS_4PLUS, "n_bit": 7, "values": LS7.copy(),
          "sign_choice": 1},
         "LS_4PLUS first element must equal sign_choice"),
        ({"kind": CodeKind.LS_4PLUS, "n_bit": 7, "sign_choice": -1,
          "values": np.array([-1, 1, 1, -1, 1, -1, 0.5])},
         "LS_4PLUS base values must be bipolar"),
        ({"kind": CodeKind.MLS, "n_bit": 7, "values": MLS7 + 0.5,
          "bias": 0.5},
         "standard kinds carry zero bias"),
    ], ids=["mls-length", "mls-sum", "ls-length", "ls-first", "ls-bipolar",
            "ls4-length", "ls4-sign", "ls4-first", "ls4-bipolar",
            "standard-bias"])
    def test_each_kind_rule_named(self, fields, match):
        with pytest.raises(InvalidCode, match=match):
            PnCode(gain=7.0, **fields)

    def test_values_immutable(self, ls31):
        with pytest.raises(ValueError, match="read-only"):
            ls31.values[0] = 5.0


MODIFIED_CODES = {
    "mls_plus": lambda: modify_for_perfect_pacf(generate_mls(MlsSpec(order=5))),
    "ls_plus": lambda: modify_for_perfect_pacf(generate_ls(31)),
    "ls4_plus+1": lambda: binarize_ls4(generate_ls(31), +1),
    "ls4_plus-1": lambda: binarize_ls4(generate_ls(31), -1),
}


def write_descriptor(path, code, bias=None, gain=None):
    """Descriptor of ``code`` with its bias and gain lines replaced.

    The values move with the bias, so the sequence under the bias still
    passes every structural check: only the bias rule can reject it.
    """
    bias = code.bias if bias is None else bias
    path.write_text(code_to_text(SimpleNamespace(
        kind=code.kind, n_bit=code.n_bit, bias=bias,
        gain=code.gain if gain is None else gain,
        sign_choice=code.sign_choice, values=code.base_values + bias)))
    return path


@pytest.mark.parametrize("name", sorted(MODIFIED_CODES))
class TestLoadChecksDescriptor:
    def test_forged_bias_rejected(self, tmp_path, name):
        path = write_descriptor(tmp_path / "c.txt", MODIFIED_CODES[name](),
                                bias=0.3)
        with pytest.raises(BiasMismatch):
            load_code(path)

    def test_forged_gain_rejected(self, tmp_path, name):
        code = MODIFIED_CODES[name]()
        path = write_descriptor(tmp_path / "c.txt", code, gain=code.gain + 1)
        with pytest.raises(GainMismatch):
            load_code(path)
