"""Randomized invariant checks for the whole pipeline.

The six named suites mirror what the acceptance run re-executes; the
hypothesis block below them shakes the scalar arithmetic harder.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import suites
from toriclg import INF, NovikovScalar

F = Fraction


class TestSuites:
    def test_valuation_axioms(self):
        assert "500" in suites.valuation_axioms_suite(500)

    def test_leibniz_rule(self):
        assert "200" in suites.leibniz_suite(200)

    def test_newton_residual_order(self):
        suites.newton_residual_suite()

    def test_truncation_stability(self):
        suites.truncation_stability_suite()

    def test_lte_integrality(self):
        assert "100 polytopes" in suites.lte_integrality_suite(100)

    def test_lte_tropical_bijection(self):
        suites.lte_tropical_bijection_suite()


# exponents stay on a coarse lattice so sums collide often, which is the
# interesting regime for cancellation handling
_exponents = st.fractions(
    min_value=0, max_value=6, max_denominator=4
)
_coeffs = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=10.0, allow_nan=False, allow_infinity=False
)
_scalars = st.lists(
    st.tuples(_exponents, _coeffs), min_size=0, max_size=5
).map(NovikovScalar)


@settings(max_examples=150, deadline=None)
@given(_scalars, _scalars, _scalars)
@example(
    # the T^4 coefficient of this product once rounded differently by the
    # order of the operands
    NovikovScalar([(0, 1), (0, 1.7531087610488676), (3, 1), (4, 3)]),
    NovikovScalar([(0, 1), (0, 2), (0, 8), (1, 0.99999), (4, 1)]),
    NovikovScalar(),
)
def test_ring_laws(a, b, c):
    d = (a + b) - b - a
    assert d.max_abs_coeff() <= 1e-12 * max(a.max_abs_coeff(), b.max_abs_coeff(), 1.0)
    lhs = (a + b) * c
    rhs = a * c + b * c
    assert (lhs - rhs).max_abs_coeff() <= 1e-9 * max(
        lhs.max_abs_coeff(), rhs.max_abs_coeff(), 1.0
    )
    assert a * b == b * a


@settings(max_examples=150, deadline=None)
@given(_scalars, _scalars)
def test_ultrametric_inequality(a, b):
    v = (a + b).valuation()
    assert v >= min(a.valuation(), b.valuation())


@settings(max_examples=150, deadline=None)
@given(_scalars, _exponents)
def test_shift_moves_valuation(a, e):
    shifted = a.shift(e)
    if a.is_zero():
        assert shifted.valuation() == INF
    else:
        assert shifted.valuation() == a.valuation() + e


@settings(max_examples=150, deadline=None)
@given(_scalars, _exponents)
def test_truncate_idempotent(a, e):
    t = a.truncate(e)
    assert t.truncate(e) == t
    assert all(exp < e for exp, _ in t.terms)


@settings(max_examples=150, deadline=None)
@given(_scalars)
def test_json_roundtrip(a):
    back = NovikovScalar.from_json_dict(a.to_json_dict())
    assert back == a
