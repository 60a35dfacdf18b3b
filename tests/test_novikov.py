"""Scalar arithmetic over the universal Novikov field."""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_scalar_close,
    random_scalar,
    reference_product,
    reference_sum,
)
from toriclg import (
    INF,
    NovikovScalar,
    ZeroLeadingCoefficient,
    configured,
    novikov_exp,
    render_scalar,
)
from toriclg.novikov import format_fraction

T = NovikovScalar.monomial


class TestConstruction:
    def test_terms_merge_and_sort(self):
        s = NovikovScalar([(Fraction(1, 2), 1.0), (0, 2.0), (Fraction(1, 2), 3.0)])
        assert s.terms == ((Fraction(0), 2 + 0j), (Fraction(1, 2), 4 + 0j))

    def test_cancellation_gives_zero(self):
        s = NovikovScalar([(1, 1.0), (1, -1.0)])
        assert s.is_zero()
        assert s.valuation() == INF

    def test_tiny_coefficients_are_dropped(self):
        s = NovikovScalar([(0, 1.0), (1, 1e-15)])
        assert s.terms == ((Fraction(0), 1 + 0j),)

    def test_a_nan_coefficient_is_not_read_as_zero(self):
        s = NovikovScalar([(0, 1.0), (1, complex(0, math.nan))])
        assert len(s.terms) == 2 and cmath.isnan(s.terms[1][1])
        assert len(NovikovScalar.from_number(math.nan).terms) == 1

    def test_terms_at_or_past_truncation_are_dropped(self):
        s = NovikovScalar([(0, 1.0), (2, 5.0), (3, 7.0)], trunc=Fraction(2))
        assert s.terms == ((Fraction(0), 1 + 0j),)
        assert s.trunc == Fraction(2)

    def test_float_exponents_are_rejected(self):
        with pytest.raises(TypeError):
            NovikovScalar([(0.5, 1.0)])

    def test_from_number_and_one(self):
        assert NovikovScalar.from_number(3).terms == ((Fraction(0), 3 + 0j),)
        assert NovikovScalar.one().terms == ((Fraction(0), 1 + 0j),)
        assert NovikovScalar.zero().is_zero()


class TestValuation:
    def test_monomial_valuation(self):
        assert T(Fraction(2, 3), 5.0).valuation() == Fraction(2, 3)

    def test_zero_valuation_is_inf(self):
        assert NovikovScalar.zero().valuation() == INF
        assert NovikovScalar.zero().valuation() > Fraction(10**9)

    def test_leading_of_zero_raises(self):
        with pytest.raises(ZeroLeadingCoefficient):
            NovikovScalar.zero().leading()

    def test_lambda_zero_and_plus(self):
        assert T(0, 1.0).in_lambda_zero()
        assert not T(0, 1.0).in_lambda_plus()
        assert T(Fraction(1, 7), 1.0).in_lambda_plus()
        assert not T(Fraction(-1, 7), 1.0).in_lambda_zero()
        assert NovikovScalar.zero().in_lambda_plus()


class TestArithmetic:
    def test_add_is_termwise(self):
        s = T(0, 1.0) + T(Fraction(1, 2), 2.0) + 3
        assert s.terms == ((Fraction(0), 4 + 0j), (Fraction(1, 2), 2 + 0j))

    def test_sub_and_neg(self):
        a = T(1, 2.0)
        assert (a - a).is_zero()
        assert (-a).terms == ((Fraction(1), -2 + 0j),)

    def test_mul_of_exact_scalars_is_exact(self):
        a = NovikovScalar([(0, 1.0), (1, 1.0)])
        b = NovikovScalar([(0, 1.0), (1, -1.0)])
        p = a * b
        assert p.trunc is None
        assert p.terms == ((Fraction(0), 1 + 0j), (Fraction(2), -1 + 0j))

    def test_mul_truncation_window(self):
        # (a + O(T^s)) (b + O(T^t)) is known modulo T^min(s+v(b), t+v(a))
        a = NovikovScalar([(1, 1.0)], trunc=Fraction(3))
        b = NovikovScalar([(2, 1.0)], trunc=Fraction(10))
        assert (a * b).trunc == Fraction(5)
        assert (b * a).trunc == Fraction(5)

    def test_mul_by_plain_number(self):
        assert (T(1, 2.0) * 3).terms == ((Fraction(1), 6 + 0j),)
        assert (3 * T(1, 2.0)).terms == ((Fraction(1), 6 + 0j),)

    def test_large_products_match_naive(self):
        # long operands (over 64 term pairs) agree with the naive sum of
        # products to the coefficient tolerance
        rng = random.Random(11)
        a = random_scalar(rng, nterms=15, den=8)
        b = random_scalar(rng, nterms=15, den=8)
        assert len(a.terms) * len(b.terms) > 64
        acc: dict[Fraction, complex] = {}
        for ea, ca in a.terms:
            for eb, cb in b.terms:
                acc[ea + eb] = acc.get(ea + eb, 0j) + ca * cb
        naive = NovikovScalar(acc.items())
        assert_scalar_close(a * b, naive, tol=1e-12)

    def test_shift(self):
        s = T(1, 2.0, trunc=Fraction(3)).shift(Fraction(-1, 2))
        assert s.terms == ((Fraction(1, 2), 2 + 0j),)
        assert s.trunc == Fraction(5, 2)

    def test_truncate(self):
        s = NovikovScalar([(0, 1.0), (1, 1.0), (2, 1.0)])
        t = s.truncate(Fraction(3, 2))
        assert t.terms == ((Fraction(0), 1 + 0j), (Fraction(1), 1 + 0j))
        assert t.trunc == Fraction(3, 2)

    def test_large_products_commute_bit_for_bit(self):
        rng = random.Random(5)
        a = random_scalar(rng, nterms=15, den=8)
        b = random_scalar(rng, nterms=15, den=8)
        assert len(a.terms) * len(b.terms) > 64
        assert a * b == b * a


# mixed denominators, so operands sit on different lattices
_mixed_exponents = st.fractions(min_value=-3, max_value=6, max_denominator=12)


def _mixed_scalars(min_size: int, max_size: int, exponents=_mixed_exponents):
    return st.builds(
        NovikovScalar,
        st.lists(
            st.tuples(
                exponents,
                st.complex_numbers(
                    min_magnitude=0.1, max_magnitude=10.0,
                    allow_nan=False, allow_infinity=False,
                ),
            ),
            min_size=min_size,
            max_size=max_size,
        ),
        st.one_of(st.none(), _mixed_exponents),
    )


_mixed = _mixed_scalars(0, 6)
# long scalars, for products of many term pairs: sparse on a fine lattice,
# or dense on the lattice (1/4)Z
_long = st.one_of(
    _mixed_scalars(9, 16),
    _mixed_scalars(9, 16, st.integers(-4, 24).map(lambda k: Fraction(k, 4))),
)


@st.composite
def _units(draw):
    """c0 (1 + r) with |c0| = 1 modulo T^t, t <= 5 with denominator <= 60,
    and r of one to three terms of exponent in [t/10, t) over denominators
    up to 60 with |coefficient| <= 1/4, so the inverse stays O(1) and has
    at most a few hundred terms."""
    td = draw(st.integers(1, 60))
    t = Fraction(draw(st.integers(1, 5 * td)), td)
    terms = [(0, cmath.exp(1j * draw(st.floats(0, 2 * math.pi))))]
    for _ in range(draw(st.integers(1, 3))):
        q = draw(st.integers(1, 60))
        lo, hi = max(math.ceil(t * q / 10), 1), math.ceil(t * q) - 1
        if lo <= hi:
            c = draw(st.complex_numbers(min_magnitude=0.01, max_magnitude=0.25))
            terms.append((Fraction(draw(st.integers(lo, hi)), q), c))
    return NovikovScalar(terms, trunc=t)


def _assert_matches(s: NovikovScalar, reference):
    terms, trunc = reference
    assert s.trunc == trunc
    assert [e for e, _ in s.terms] == list(terms)
    scale = max((abs(c) for c in terms.values()), default=1.0)
    for (_, c), r in zip(s.terms, terms.values()):
        assert abs(c - r) <= 1e-12 * scale


class TestAgainstFractionReference:
    @settings(max_examples=100, deadline=None)
    @given(st.one_of(_mixed, _long), st.one_of(_mixed, _long))
    def test_product(self, a, b):
        _assert_matches(a * b, reference_product(a, b))

    @settings(max_examples=100, deadline=None)
    @given(_mixed, _mixed)
    def test_sum(self, a, b):
        _assert_matches(a + b, reference_sum(a, b))


class TestCanonicalForm:
    """Equal scalars built by different routes compare and hash equal."""

    def _same(self, x, y):
        assert x == y
        assert hash(x) == hash(y)

    def test_product_of_half_powers(self):
        self._same(T(Fraction(1, 2)) * T(Fraction(1, 2)), T(1))

    def test_shift_there_and_back(self):
        s = NovikovScalar(
            [(Fraction(1, 4), 2.0), (Fraction(2, 3), -1j)], trunc=Fraction(7, 2)
        )
        self._same(s.shift(Fraction(1, 3)).shift(Fraction(-1, 3)), s)

    def test_shifted_sum_equals_direct_construction(self):
        built = (T(Fraction(1, 3)) + T(Fraction(1, 2))).shift(Fraction(1, 6))
        self._same(built, NovikovScalar([(Fraction(1, 2), 1.0), (Fraction(2, 3), 1.0)]))

    @settings(max_examples=100, deadline=None)
    @given(_mixed, _mixed_exponents)
    def test_shift_round_trip(self, s, e):
        self._same(s.shift(e).shift(-e), s)


class TestSignedZero:
    """Results never store a negative zero; the JSON output prints its sign."""

    @staticmethod
    def _imag_parts(s):
        return [t["im"] for t in s.to_json_dict()["terms"]]

    def test_operations_keep_positive_zero(self):
        s = NovikovScalar([(0, 1.0), (Fraction(1, 2), -2.5), (2, 3.0)], trunc=4)
        results = [
            -s,
            s.shift(Fraction(2, 3)),
            s.truncate(Fraction(3, 2)),
            T(Fraction(1, 3), 2.0).invert(),
            T(Fraction(1, 3), -2.0).invert(),
        ]
        for r in results:
            ims = self._imag_parts(r)
            assert ims
            assert all(math.copysign(1.0, im) == 1.0 for im in ims), (r, ims)


class TestInvert:
    def test_single_term_inverts_exactly(self):
        s = T(Fraction(2, 3), 4.0)
        inv = s.invert()
        assert inv.trunc is None
        assert inv.terms == ((Fraction(-2, 3), 0.25 + 0j),)

    def test_series_inverse_under_default_window(self):
        s = NovikovScalar([(0, 1.0), (Fraction(1, 2), -1.0)], trunc=Fraction(5))
        prod = s * s.invert()
        assert prod.coeff_at(0) == pytest.approx(1.0)
        assert all(abs(c) < 1e-12 for e, c in prod.terms if e > 0)

    def test_exact_multiterm_needs_configured_window(self):
        s = NovikovScalar([(0, 1.0), (1, -1.0)])
        with configured(truncation_order=Fraction(4)):
            inv = s.invert()
        # geometric series 1 + T + T^2 + T^3 modulo T^4
        for k in range(4):
            assert inv.coeff_at(k) == pytest.approx(1.0)
        assert inv.trunc == Fraction(4)

    def test_exact_multiterm_without_any_window_raises(self):
        s = NovikovScalar([(0, 1.0), (1, -1.0)])
        with configured(truncation_order=None):
            with pytest.raises(ValueError):
                s.invert()

    def test_nonzero_valuation_series(self):
        s = NovikovScalar(
            [(Fraction(1, 3), 2.0), (Fraction(2, 3), 5.0)], trunc=Fraction(3)
        )
        prod = s * s.invert()
        assert prod.coeff_at(0) == pytest.approx(1.0)
        assert all(abs(c) < 1e-10 for e, c in prod.terms if e > 0)

    def test_unit_part_pruned_to_one_term(self):
        # the T^1 coefficient of the unit part, 1e-15, is below eps_coeff
        inv = NovikovScalar([(0, 1e6), (1, 1e-9)], trunc=5).invert()
        assert inv.terms == ((Fraction(0), 1e-6 + 0j),)
        assert inv.trunc == Fraction(5)

    @settings(max_examples=150, deadline=None)
    @given(_units())
    def test_windowed_inverse_is_inverse_modulo_trunc(self, s):
        inv = s.invert()
        assert inv.trunc == s.trunc
        prod = s * inv
        assert prod.trunc == s.trunc
        # pruning at eps_coeff is absolute, so the error scales with the
        # summands of the product
        norm = sum(abs(c) for _, c in s.terms) * sum(abs(c) for _, c in inv.terms)
        assert (prod - 1.0).max_abs_coeff() <= 1e-12 * norm
        assert s**-3 == inv**3

    def test_zero_is_not_invertible(self):
        with pytest.raises(ZeroDivisionError):
            NovikovScalar.zero().invert()


class TestExpLog:
    def test_exp_of_constant(self):
        s = novikov_exp(T(0, 1.0))
        assert s.coeff_at(0) == pytest.approx(math.e)

    def test_exp_of_monomial_is_its_power_series(self):
        # exp(c T^e) = sum_k c^k T^(ke) / k! below the truncation order
        c, e = 0.7 - 0.4j, Fraction(2, 3)
        with configured(truncation_order=Fraction(4)):
            got = novikov_exp(T(e, c))
        expected = NovikovScalar(
            [(k * e, c**k / math.factorial(k)) for k in range(6)], Fraction(4)
        )
        assert got.trunc == Fraction(4)
        assert [x for x, _ in got.terms] == [k * e for k in range(6)]
        assert_scalar_close(got, expected, tol=1e-15)

    def test_exp_needs_lambda_zero(self):
        from toriclg import NotInLambdaZero

        with pytest.raises(NotInLambdaZero):
            novikov_exp(T(-1, 1.0))

    def test_exp_is_multiplicative(self):
        with configured(truncation_order=Fraction(3)):
            a = NovikovScalar([(Fraction(1, 2), 0.4)])
            b = NovikovScalar([(Fraction(1, 3), -0.8)])
            lhs = novikov_exp(a + b)
            rhs = novikov_exp(a) * novikov_exp(b)
            assert_scalar_close(lhs.truncate(3), rhs.truncate(3), tol=1e-10)


class TestLattice:
    """``lattice`` and ``from_lattice`` carry a scalar to and from integer
    lists, each the inverse of the other."""

    def test_from_lattice_reads_lattice_back(self):
        rng = random.Random(2024)  # the scalars of the valuation axioms suite
        for _ in range(200):
            s = random_scalar(rng)
            for x in (s, s.truncate(Fraction(rng.randint(0, 24), rng.randint(1, 6)))):
                den, es, cs, t = x.lattice()
                assert t is None if x.trunc is None else Fraction(t, den) == x.trunc
                assert NovikovScalar.from_lattice(*x.lattice()) == x


class TestSerialization:
    def test_json_roundtrip_exact(self):
        s = NovikovScalar([(Fraction(1, 3), 1 + 2j), (2, -0.5)])
        assert NovikovScalar.from_json_dict(s.to_json_dict()) == s

    def test_json_roundtrip_truncated(self):
        s = NovikovScalar([(0, 1.0)], trunc=Fraction(7, 2))
        back = NovikovScalar.from_json_dict(s.to_json_dict())
        assert back.trunc == Fraction(7, 2)
        assert back == s

    @given(
        st.lists(
            st.tuples(
                st.fractions(min_value=-50, max_value=50, max_denominator=360),
                st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e6),
            ),
            max_size=8,
        ),
        st.one_of(st.none(), st.fractions(min_value=-60, max_value=60, max_denominator=360)),
    )
    def test_json_exponents_read_as_fractions(self, terms, trunc):
        # exponents are written from the integer lattice, byte for byte as
        # str(Fraction) writes them: negative, integral and reduced ones too
        s = NovikovScalar(terms, trunc)
        d = s.to_json_dict()
        assert [t["exp"] for t in d["terms"]] == [str(e) for e, _ in s.terms]
        assert d["trunc"] == ("inf" if s.trunc is None else str(s.trunc))


class TestRendering:
    def test_plain_series(self):
        s = NovikovScalar([(0, 1.0), (Fraction(1, 2), 1.0), (1, -1.0)])
        assert render_scalar(s) == "1 + T^0.5 - T"

    def test_truncation_marker(self):
        s = NovikovScalar([(0, 2.0)], trunc=Fraction(3))
        assert render_scalar(s) == "2 + O(T^3)"

    def test_pure_imaginary_coefficient(self):
        assert render_scalar(T(0, -1j)) == "-1j"

    @pytest.mark.parametrize(
        "coeff, text",
        [
            (math.inf, "inf"),
            (-math.inf, "-inf"),
            (math.nan, "nan"),
            (complex(1, math.inf), "(1+infj)"),
            (complex(0, -math.inf), "-infj"),
            (complex(math.inf, 1e-20), "(inf+1e-20j)"),
            (complex(2.5, math.nan), "(2.5+nanj)"),
        ],
    )
    def test_non_finite_coefficients_print_as_python_prints_them(self, coeff, text):
        # no part is hidden: an infinite part does not make the other one
        # read as zero, and a real infinity prints without raising
        assert repr(NovikovScalar.from_number(coeff)) == text
        s = NovikovScalar([(0, 1.0), (Fraction(1, 2), coeff)], trunc=Fraction(1))
        assert render_scalar(s) == (
            f"1 - {text[1:]} T^0.5 + O(T^1)" if text.startswith("-")
            else f"1 + {text} T^0.5 + O(T^1)"
        )

    def test_finite_coefficients_print_as_before(self):
        cases = [(2.0, "2"), (-0.5, "-0.5"), (1 / 3, "0.3333333333"), (2.5e-7, "2.5e-07"),
                 (complex(1, 1e-13), "1"), (complex(1e-13, 2), "2j"),
                 (complex(1, -2), "(1-2j)"), (complex(0.1, 1e-11), "(0.1+1e-11j)")]
        for coeff, text in cases:
            assert repr(NovikovScalar.from_number(coeff)) == text

    def test_format_fraction(self):
        assert format_fraction(Fraction(1, 2)) == "0.5"
        assert format_fraction(Fraction(1, 3)) == "1/3"
        assert format_fraction(Fraction(7)) == "7"
        assert format_fraction(Fraction(-3, 20)) == "-0.15"
