"""Exact elimination and numeric roots for Laurent polynomial systems on the
torus."""

import cmath
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eval_cpoly, eval_magnitude, partial
from toriclg import build_potential, catalog, initial_system, tropical_candidates
from toriclg.errors import EliminationFailed, PositiveDimensionalInitialLocus, ToricLGError
from toriclg.polysolve import (
    EVAL_REL,
    _P,
    _coprime,
    _gcd,
    _is_root,
    _newton_polish,
    _term_values,
    exact_poly,
    resultant_last,
    solve_torus_system,
    squarefree_decomposition,
    substitute,
    univariate_roots,
)

F = Fraction


def log_jacobian(polys, point) -> np.ndarray:
    """Matrix of logarithmic derivatives  x_j d p_i / d x_j  at a torus point,
    term by term on the Laurent exponents."""
    m = np.zeros((len(polys), len(point)), dtype=complex)
    for r, p in enumerate(polys):
        for a, c in p.items():
            term = c * math.prod(x**e for x, e in zip(point, a))
            m[r] += np.array(a) * term
    return m


def close_sets(xs, ys, tol=1e-8):
    if len(xs) != len(ys):
        return False
    ys = list(ys)
    for x in xs:
        hit = next((y for y in ys if abs(x - y) <= tol * max(1.0, abs(x))), None)
        if hit is None:
            return False
        ys.remove(hit)
    return True


def upoly(*coeffs):
    """Exact univariate polynomial over Z[i], coefficients constant first."""
    return {(k,): c if isinstance(c, tuple) else (c, 0) for k, c in enumerate(coeffs)}


def proportional(p, q):
    """Exact polynomials over Z[i] equal up to a nonzero scalar."""
    def mul(x, y):
        return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    k = next(iter(p))
    return set(p) == set(q) and all(mul(p[a], q[k]) == mul(q[a], p[k]) for a in p)


def exact_roots(f):
    return univariate_roots({a[0]: complex(*c) for a, c in f.items()})


class TestUnivariate:
    def test_roots_of_cubic(self):
        # z^3 - 1
        roots = univariate_roots({0: -1.0, 3: 1.0})
        expected = [np.exp(2j * np.pi * k / 3) for k in range(3)]
        assert close_sets(roots, expected)

    def test_monomial_content_removed(self):
        # z^2 (z - 2): the zero root does not count on the torus
        roots = univariate_roots({2: -2.0, 3: 1.0})
        assert close_sets(roots, [2.0])

    def test_laurent_support(self):
        # z^{-1} - z  has torus roots +-1
        roots = univariate_roots({-1: 1.0, 1: -1.0})
        assert close_sets(roots, [1.0, -1.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, complex(0, math.inf), math.nan])
    def test_non_finite_coefficient_is_refused(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToricLGError, match="NaN or infinite"):
                univariate_roots({1: bad, 0: -1})
            with pytest.raises(ToricLGError, match="NaN or infinite"):
                solve_torus_system([{(1, 0): bad, (0, 0): -1}, {(0, 1): 1, (1, 0): 2}], 2)

    def test_zero_polynomial_raises(self):
        with pytest.raises(PositiveDimensionalInitialLocus):
            univariate_roots({})

    @pytest.mark.parametrize("degree", range(1, 9))
    def test_roots_equal_np_roots_bit_for_bit(self, degree):
        # the companion matrix is built in place of np.roots: the same
        # roots in the same order, on Laurent support with interior zeros
        rng = np.random.default_rng(degree)
        for _ in range(20):
            coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
            coeffs[1:-1][rng.random(degree - 1) < 0.3] = 0
            lo = int(rng.integers(-3, 3))
            p = {lo + degree - k: complex(c) for k, c in enumerate(coeffs) if c != 0}
            expected = np.roots(coeffs / np.abs(coeffs).max())
            assert univariate_roots(p) == [complex(r) for r in expected]

    def test_squarefree_decomposition_counts_repeated_roots(self):
        # (z - 1)^2 (z + 2) = z^3 - 3z + 2
        parts = squarefree_decomposition(upoly(2, -3, 0, 1))
        assert sorted(e for _, e in parts) == [1, 2]
        double = next(f for f, e in parts if e == 2)
        assert close_sets(exact_roots(double), [1.0])
        simple = next(f for f, e in parts if e == 1)
        assert close_sets(exact_roots(simple), [-2.0])

    def test_squarefree_decomposition_over_gaussian_integers(self):
        # (z - i)^3 (z + 1) = z^4 + (1 - 3i) z^3 - 3(1 + i) z^2 + (i - 3) z + i
        parts = squarefree_decomposition(upoly((0, 1), (-3, 1), (-3, -3), (1, -3), 1))
        assert sorted(e for _, e in parts) == [1, 3]
        triple = next(g for g, e in parts if e == 3)
        assert close_sets(exact_roots(triple), [1j])


class TestModularCertificate:
    def test_coprime_and_common_root(self):
        assert _coprime(upoly(-1, 1), upoly(1, 1))  # x - 1, x + 1
        assert not _coprime(upoly(-1, 0, 1), upoly(1, 1))  # x^2 - 1, x + 1

    def test_prime_dividing_the_leading_coefficient_is_inconclusive(self):
        # _P x - 1 and x - 1 are coprime, but modulo _P the first is constant
        assert not _coprime(upoly(-1, _P), upoly(-1, 1))
        assert _gcd(upoly(-1, _P), upoly(-1, 1)) == upoly(1)

    def test_squarefree_decomposition_with_that_prime_falls_back(self):
        # (_P x - 1)(x - 1)^2: the exact gcds still find the double root
        f = upoly(-1, _P + 2, -2 * _P - 1, _P)
        parts = squarefree_decomposition(f)
        assert sorted((e, max(g)[0]) for g, e in parts) == [(1, 1), (2, 1)]


class TestCPolyBasics:
    def test_eval_and_partial(self):
        # x^2 y - 4 + 3 x^-1 y^2: the term values at a point sum to the value
        # and the scale, and sum a_j T_a / x_j is the partial derivative
        p = {(2, 1): 1 + 0j, (0, 0): -4 + 0j, (-1, 2): 3 + 0j}
        point = (2.0 + 0j, 1 + 1j)
        terms = _term_values(p, point)
        assert [a for a, _ in terms] == list(p)
        assert sum(t for _, t in terms) == pytest.approx(eval_cpoly(p, point))
        assert sum(abs(t) for _, t in terms) == pytest.approx(eval_magnitude(p, point))
        for j, x in enumerate(point):
            d = sum(a[j] * t for a, t in terms) / x
            assert d == pytest.approx(eval_cpoly(partial(p, j), point))
        # x alone fixed: each term keeps its exponent, its value is c x^a0
        assert _term_values(p, (2.0,)) == [((2, 1), 4 + 0j), ((0, 0), -4 + 0j), ((-1, 2), 1.5 + 0j)]
        # every variable fixed: substitute leaves the value under the key ()
        # and drops it where it cancels, at the root (2, 1) of x^2 y - 4
        out = substitute(p, point)
        assert out.keys() == {()} and out[()] == pytest.approx(eval_cpoly(p, point))
        assert substitute({(2, 1): 1 + 0j, (0, 0): -4 + 0j}, (2.0, 1.0)) == {}

    def test_substitute_fixes_the_leading_variables(self):
        # x y^2 z - x^3 + y z^-1 at x = 2: 2 y^2 z + y z^-1 - 8 in (y, z)
        p = {(1, 2, 1): 1 + 0j, (3, 0, 0): -1 + 0j, (0, 1, -1): 1 + 0j}
        out = substitute(p, (2.0,))
        assert out.keys() == {(2, 1), (0, 0), (1, -1)}
        assert out[(2, 1)] == pytest.approx(2.0)
        assert out[(0, 0)] == pytest.approx(-8.0)
        assert out[(1, -1)] == pytest.approx(1.0)
        # all but the last: a one-variable poly on one-tuple keys
        uni = substitute({(1, 2): 1 + 0j, (3, 0): -1 + 0j}, (2.0,))
        assert uni == {(2,): 2 + 0j, (0,): -8 + 0j}

    def test_substitute_drops_what_cancels_below_the_cut(self):
        # (x - 1) + y: x - 1 is 1e-16 of |x| + |1| one ulp above 1, 1e-3 at 1.002
        p = {(1, 0): 1 + 0j, (0, 0): -1 + 0j, (0, 1): 1 + 0j}
        ulp = 1.0 + 2.0**-52
        assert substitute(p, (ulp,), EVAL_REL) == {(1,): 1 + 0j}
        kept = substitute(p, (1.002,), EVAL_REL)
        assert kept.keys() == {(0,), (1,)}
        assert kept[(0,)] == pytest.approx(0.002)

    def test_substitute_without_a_cut_drops_exact_zeros_only(self):
        p = {(1, 0): 1 + 0j, (0, 0): -1 + 0j, (0, 1): 1 + 0j}
        assert substitute(p, (1.0,)) == {(1,): 1 + 0j}
        assert substitute(p, (1.0 + 2.0**-52,)) == {(0,): 2.0**-52 + 0j, (1,): 1 + 0j}

    @pytest.mark.parametrize("rel", [0.0, EVAL_REL])
    def test_substitute_never_drops_a_non_finite_coefficient(self, rel):
        # 1e300 x at x = 1e10 overflows: inf is not zero, whatever the cut
        out = substitute({(1, 0): 1e300, (0, 1): 1}, (1e10,), rel)
        assert out.keys() == {(0,), (1,)}
        assert out[(0,)] == math.inf and out[(1,)] == 1
        nan = substitute({(1, 0): 1e300, (2, 0): -1e290, (0, 1): 1}, (1e10,), rel)
        assert nan[(0,)] != nan[(0,)] and nan[(1,)] == 1  # inf - inf is not zero
        assert not _is_root({(1,): 1e300, (0,): -1}, (1e10,))
        assert not _is_root({(1,): float("nan"), (0,): -1}, (1.0,))


class TestExactInput:
    def test_floats_read_as_dyadic_rationals(self):
        # 0.75 x - 0.25 y^-1: content x^0 y^-1 stripped, 1/4 cleared
        p = exact_poly({(1, 0): 0.75 + 0j, (0, -1): -0.25 + 0j})
        assert proportional(p, {(1, 1): (3, 0), (0, 0): (-1, 0)})

    def test_complex_read_as_gaussian_rationals(self):
        p = exact_poly({(1,): 0.5 + 1.5j, (0,): -2j})
        assert proportional(p, {(1,): (1, 3), (0,): (0, -4)})

    def test_inexact_double_is_taken_as_given(self):
        # 0.1 is not 1/10: the exact reading keeps its binary expansion
        p = exact_poly({(1,): 0.1 + 0j, (0,): -1 + 0j})
        tenth = F(0.1)
        assert tenth != F(1, 10)
        want = {(1,): (tenth.numerator, 0), (0,): (-tenth.denominator, 0)}
        assert proportional(p, want)


class TestResultant:
    def test_eliminates_common_root(self):
        # x^2 + y^2 - 5 and xy - 2 meet where x in {+-1, +-2}
        p = exact_poly({(2, 0): 1 + 0j, (0, 2): 1 + 0j, (0, 0): -5 + 0j})
        q = exact_poly({(1, 1): 1 + 0j, (0, 0): -2 + 0j})
        r = resultant_last(p, q)
        # x^4 - 5x^2 + 4, exactly
        assert proportional(r, {(4,): (1, 0), (2,): (-5, 0), (0,): (4, 0)})

    def test_orientation_of_eliminant(self):
        # y - 2x against y - 3: the resultant must vanish at x = 3/2, not 2/3
        p = exact_poly({(0, 1): 1 + 0j, (1, 0): -2 + 0j})
        q = exact_poly({(0, 1): 1 + 0j, (0, 0): -3 + 0j})
        r = resultant_last(p, q)
        assert proportional(r, {(1,): (2, 0), (0,): (-3, 0)})

    def test_degree_zero_in_last_variable_is_rejected(self):
        # elimination pivots must actually involve the eliminated variable
        p = exact_poly({(1, 1): 1 + 0j, (0, 0): -1 + 0j})
        q = exact_poly({(1, 0): 1 + 0j, (0, 0): -2 + 0j})
        with pytest.raises(EliminationFailed):
            resultant_last(p, q)

    def test_common_component_gives_zero_resultant(self):
        # (x - y)(x + y) and 2x - 2y share the line x = y
        p = exact_poly({(2, 0): 1 + 0j, (0, 2): -1 + 0j})
        q = exact_poly({(1, 0): 2 + 0j, (0, 1): -2 + 0j})
        assert resultant_last(p, q) == {}


class TestSolveSystem:
    def test_univariate_case(self):
        sol = solve_torus_system([{(2,): 1 + 0j, (0,): -4 + 0j}], 1)
        assert close_sets([r[0] for r in sol.roots], [2.0, -2.0])
        assert sol.eliminant is not None
        assert sol.multiplicities == [1, 1]

    def test_two_by_two(self):
        # x y = 1, x + y = 3  ->  x in {(3 +- sqrt 5)/2}
        polys = [
            {(1, 1): 1 + 0j, (0, 0): -1 + 0j},
            {(1, 0): 1 + 0j, (0, 1): 1 + 0j, (0, 0): -3 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        golden = (3 + math.sqrt(5)) / 2
        assert close_sets([r[0] for r in sol.roots], [golden, 1 / golden])
        for r in sol.roots:
            assert abs(r[0] * r[1] - 1) < 1e-9
            assert abs(r[0] + r[1] - 3) < 1e-9

    def test_roots_of_unity_system(self):
        # y1^2 = y2, y2^2 = y1 on the torus: y1^3 = 1 paired with y2 = y1^2
        polys = [
            {(2, 0): 1 + 0j, (0, 1): -1 + 0j},
            {(0, 2): 1 + 0j, (1, 0): -1 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        assert len(sol.roots) == 3
        for r in sol.roots:
            assert abs(r[0] ** 3 - 1) < 1e-9
            assert abs(r[1] - r[0] ** 2) < 1e-9

    def test_three_variables(self):
        # simplex(3) style initial system at the barycenter
        polys = [
            {(1, 0, 0): 1 + 0j, (-1, -1, -1): -1 + 0j},
            {(0, 1, 0): 1 + 0j, (-1, -1, -1): -1 + 0j},
            {(0, 0, 1): 1 + 0j, (-1, -1, -1): -1 + 0j},
        ]
        sol = solve_torus_system(polys, 3)
        assert len(sol.roots) == 4
        for r in sol.roots:
            assert abs(r[0] ** 4 - 1) < 1e-8
            assert abs(r[1] - r[0]) < 1e-8 and abs(r[2] - r[0]) < 1e-8
        # the eliminant is a resultant of resultants: its exponents count nothing
        assert sol.multiplicities == [None] * 4

    def test_five_variables(self):
        # the simplex(5) barycenter system: six points y0^6 = 1, all equal
        n = 5
        polys = []
        for i in range(n):
            e = [0] * n
            e[i] = 1
            polys.append({tuple(e): 1 + 0j, (-1,) * n: -1 + 0j})
        sol = solve_torus_system(polys, n)
        assert len(sol.roots) == 6
        for r in sol.roots:
            assert abs(r[0] ** 6 - 1) < 1e-8
            assert all(abs(x - r[0]) < 1e-8 for x in r)
        assert sol.multiplicities == [None] * 6

    def test_residual_filter_rejects_spurious_branches(self):
        # x - 1 together with x + y - 3: the eliminant in x from a naive
        # elimination contains only x = 1; y must come out 2, nothing else
        polys = [
            {(1, 0): 1 + 0j, (0, 0): -1 + 0j},
            {(1, 0): 1 + 0j, (0, 1): 1 + 0j, (0, 0): -3 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        assert len(sol.roots) == 1
        assert abs(sol.roots[0][0] - 1) < 1e-10
        assert abs(sol.roots[0][1] - 2) < 1e-10

    def test_equation_vanishing_on_a_fibre_is_dropped(self):
        # eliminant (x + 1)^2 (x^3 - x^2 + 2x - 1) of the monotone two-point
        # blow-up; over the double root x = -1 the second equation vanishes
        # identically, so the first one alone gives y = (-1 +- sqrt 5)/2
        polys = [
            {(1, 1): 1 + 0j, (1, 0): 1 + 0j, (-1, -1): -1 + 0j},
            {(1, 1): 1 + 0j, (0, 1): 1 + 0j, (0, -1): -1 + 0j, (-1, -1): -1 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        assert len(sol.roots) == 5
        over = sorted(r[1].real for r in sol.roots if abs(r[0] + 1) < 1e-12)
        assert over == pytest.approx([(-1 - math.sqrt(5)) / 2, (-1 + math.sqrt(5)) / 2])
        assert sol.multiplicities == [1] * 5

    def test_factor_split_where_an_equation_vanishes_on_some_roots(self):
        # y - 1 and (x^2 - 2)(y - x): the eliminant (x^2 - 2)(x - 1) is
        # square-free, but the second equation vanishes identically only
        # over x = +-sqrt 2, so the factor is split before back substitution
        polys = [
            {(0, 1): 1 + 0j, (0, 0): -1 + 0j},
            {(2, 1): 1 + 0j, (3, 0): -1 + 0j, (0, 1): -2 + 0j, (1, 0): 2 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        assert close_sets([r[0] for r in sol.roots], [math.sqrt(2), -math.sqrt(2), 1.0])
        assert all(abs(r[1] - 1) < 1e-12 for r in sol.roots)
        assert sol.multiplicities == [1, 1, 1]


    def test_equation_vanishing_at_a_numeric_partial_root_is_dropped(self):
        # y - 2, y z - 2 z + x - 1, z - 3: the x - 1 term vanishes exactly on
        # the fibre x = 1, and what remains, (y - 2) z, vanishes at y = 2,
        # which is numeric by then; z = 3 comes from the last equation
        polys = [
            {(0, 1, 0): 1 + 0j, (0, 0, 0): -2 + 0j},
            {(0, 1, 1): 1 + 0j, (0, 0, 1): -2 + 0j, (1, 0, 0): 1 + 0j, (0, 0, 0): -1 + 0j},
            {(0, 0, 1): 1 + 0j, (0, 0, 0): -3 + 0j},
        ]
        sol = solve_torus_system(polys, 3)
        assert len(sol.roots) == 1
        assert all(abs(a - b) < 1e-12 for a, b in zip(sol.roots[0], (1, 2, 3)))
        # Res_y(y - 2, Res_z(...)) is a resultant of a resultant
        assert sol.multiplicities == [None]

    def test_coefficient_cancelling_to_roundoff_is_dropped(self):
        # y^2 - 2, (y^2 - 2) z + x - 1, z - 3: at the numeric y = +-sqrt 2 the
        # z coefficient is a rounding residue, not an equation
        polys = [
            {(0, 2, 0): 1 + 0j, (0, 0, 0): -2 + 0j},
            {(0, 2, 1): 1 + 0j, (0, 0, 1): -2 + 0j, (1, 0, 0): 1 + 0j, (0, 0, 0): -1 + 0j},
            {(0, 0, 1): 1 + 0j, (0, 0, 0): -3 + 0j},
        ]
        sol = solve_torus_system(polys, 3)
        assert close_sets([r[1] for r in sol.roots], [math.sqrt(2), -math.sqrt(2)])
        assert all(abs(r[0] - 1) < 1e-12 and abs(r[2] - 3) < 1e-12 for r in sol.roots)

    def test_all_fibre_equations_vanishing_raises(self):
        # y - 2 and (y - 2) z twice over x = 1: z is free above (1, 2)
        polys = [
            {(1, 0, 0): 1 + 0j, (0, 0, 0): -1 + 0j},
            {(0, 1, 0): 1 + 0j, (0, 0, 0): -2 + 0j},
            {(0, 1, 1): 1 + 0j, (0, 0, 1): -2 + 0j, (1, 1, 0): 1 + 0j, (0, 1, 0): -1 + 0j},
        ]
        with pytest.raises(PositiveDimensionalInitialLocus):
            solve_torus_system(polys, 3)

    def test_dense_three_variable_system(self):
        # three dense Gaussian equations: 58 simple torus roots, a degree-118
        # square-free eliminant (most of it extraneous factors of the
        # resultant of resultants), certified square-free modulo a prime
        polys = [
            {(-1, -1, 1): -1 + 1j, (1, 2, -1): 2 + 0j, (-1, -1, 0): -3 + 0j, (0, 1, 2): 1 + 0j},
            {(2, 0, -1): -3 - 1j, (1, 2, -1): 2 + 0j, (-1, 1, 1): 3 - 1j, (1, 1, 2): 2 + 0j},
            {(1, -1, 2): -3 + 0j, (-1, 2, 0): 3 + 0j, (-1, 1, 1): -3 + 1j},
        ]
        sol = solve_torus_system(polys, 3)
        assert len(sol.eliminant) == 119
        assert len(sol.roots) == 58
        for r in sol.roots:
            for p in polys:
                assert abs(eval_cpoly(p, r)) <= 1e-12 * eval_magnitude(p, r)
            assert abs(np.linalg.det(log_jacobian(polys, r))) > 1.0
        assert min(
            max(abs(a - b) for a, b in zip(r, s))
            for i, r in enumerate(sol.roots)
            for s in sol.roots[:i]
        ) > 0.1


class TestMultiplicity:
    """Multiplicities come from the exponents of the square-free
    decomposition of the exact eliminant, shared by the roots over the
    same first coordinate."""

    def test_simple_root(self):
        # x - 1, y - x - 1: one point, eliminant x - 1
        polys = [
            {(1, 0): 1 + 0j, (0, 0): -1 + 0j},
            {(0, 1): 1 + 0j, (1, 0): -1 + 0j, (0, 0): -1 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        assert len(sol.roots) == 1
        assert sol.multiplicities == [1]

    def test_double_root(self):
        # y = 1 tangent to y = 1 + (x - 1)^2: eliminant (x - 1)^2, one point
        polys = [
            {(0, 1): 1 + 0j, (0, 0): -1 + 0j},
            {(0, 1): 1 + 0j, (2, 0): -1 + 0j, (1, 0): 2 + 0j, (0, 0): -2 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        assert len(sol.roots) == 1
        assert abs(sol.roots[0][0] - 1) < 1e-6 and abs(sol.roots[0][1] - 1) < 1e-6
        assert sol.multiplicities == [2]

    def test_shared_cluster_divides(self):
        # y^2 = x and x y^2 = 1: eliminant (x^2 - 1)^2, two points over each
        # root, so the double factor splits into two simple points
        polys = [
            {(0, 2): 1 + 0j, (1, 0): -1 + 0j},
            {(1, 2): 1 + 0j, (0, 0): -1 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        assert len(sol.roots) == 4
        assert sol.multiplicities == [1] * 4

    def test_uneven_share_is_none(self):
        # y^2 = 1 against (x - 1)(1 + y) + (x - 1)^2 (1 - y): eliminant
        # (x - 1)^3 with the two points (1, 1) and (1, -1) above it
        polys = [
            {(0, 2): 1 + 0j, (0, 0): -1 + 0j},
            {
                (2, 0): 1 + 0j, (1, 0): -1 + 0j, (1, 1): 3 + 0j,
                (0, 1): -2 + 0j, (2, 1): -1 + 0j,
            },
        ]
        sol = solve_torus_system(polys, 2)
        assert close_sets([r[1] for r in sol.roots], [1.0, -1.0])
        assert sol.multiplicities == [None, None]

    def test_missing_root_is_none(self):
        # y + x - 1 and y^2 - y + x - 1: the eliminant root x = 1 has only
        # y = 0 above it, off the torus, so only (-1, 2) is reported
        polys = [
            {(0, 1): 1 + 0j, (1, 0): 1 + 0j, (0, 0): -1 + 0j},
            {(0, 2): 1 + 0j, (0, 1): -1 + 0j, (1, 0): 1 + 0j, (0, 0): -1 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        assert len(sol.roots) == 1
        assert abs(sol.roots[0][0] + 1) < 1e-12 and abs(sol.roots[0][1] - 2) < 1e-12
        assert sol.multiplicities == [1]

    def test_product_fibres_keep_multiplicity_one(self):
        # x^2 = 4 and y^2 = 9 decouple: four simple points
        polys = [
            {(2, 0): 1 + 0j, (0, 0): -4 + 0j},
            {(0, 2): 1 + 0j, (0, 0): -9 + 0j},
        ]
        sol = solve_torus_system(polys, 2)
        assert len(sol.roots) == 4
        assert sol.multiplicities == [1] * 4

    def test_vanishing_resultant_raises(self):
        # x^2 - y^2 and x - y share the line x = y
        polys = [
            {(2, 0): 1 + 0j, (0, 2): -1 + 0j},
            {(1, 0): 1 + 0j, (0, 1): -1 + 0j},
        ]
        with pytest.raises(PositiveDimensionalInitialLocus):
            solve_torus_system(polys, 2)


class TestLogJacobian:
    def test_matches_hand_derivatives(self):
        # f = x y - 1: x df/dx = x y = y df/dy at any point
        polys = [{(1, 1): 1 + 0j, (0, 0): -1 + 0j}]
        j = log_jacobian(polys, (2.0, 0.5))
        assert j.shape == (1, 2)
        assert j[0, 0] == pytest.approx(1.0)
        assert j[0, 1] == pytest.approx(1.0)

    def test_laurent_exponents(self):
        # f = x / y: x df/dx = x/y, y df/dy = -x/y
        polys = [{(1, -1): 1 + 0j}]
        j = log_jacobian(polys, (3.0, 2.0))
        assert j[0, 0] == pytest.approx(1.5)
        assert j[0, 1] == pytest.approx(-1.5)


# -- sympy as an independent oracle --------------------------------------------

CATALOG_SPECS = [
    ("simplex", 1), ("simplex", 2), ("simplex", 3), ("simplex", 4),
    ("blowup1", F(1, 3)), ("blowup1", F(1, 4)), ("blowup1", F(1, 5)),
    ("blowup2", F(1, 3), F(1, 3)), ("blowup2", F(1, 2), F(1, 5)),
    ("blowup2", F(1, 2), F(1, 4)),
    ("hirzebruch", 1, F(1, 3)), ("hirzebruch", 1, F(1, 2)),
    ("hirzebruch", 2, F(1, 2)), ("hirzebruch", 2, F(2, 5)),
]


def _sym(p, gens):
    sympy = pytest.importorskip("sympy")
    return sympy.Add(*(
        (re + sympy.I * im) * sympy.Mul(*(g ** e for g, e in zip(gens, a)))
        for a, (re, im) in p.items()
    ))


def _proportional(ours, theirs, gens):
    """Equal up to a nonzero scalar and a monomial factor."""
    sympy = pytest.importorskip("sympy")
    terms = dict(sympy.Poly(theirs, *gens).terms()) if theirs != 0 else {}
    if not terms or not ours:
        return not terms and not ours
    mins = [min(a[i] for a in terms) for i in range(len(gens))]
    terms = {tuple(x - m for x, m in zip(a, mins)): c for a, c in terms.items()}
    if set(terms) != set(ours):
        return False
    key = next(iter(ours))
    ratio = terms[key] / (ours[key][0] + sympy.I * ours[key][1])
    return all(
        sympy.simplify(c - ratio * (ours[a][0] + sympy.I * ours[a][1])) == 0
        for a, c in terms.items()
    )


def _check_pair(p, q, nvars):
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(f"x0:{nvars}")
    ours = resultant_last(p, q)
    theirs = sympy.expand(sympy.resultant(_sym(p, gens), _sym(q, gens), gens[-1]))
    assert _proportional(ours, theirs, gens[:-1]), (p, q)
    if nvars == 2 and len(ours) > 1:
        # the square-free decomposition against sympy's, exponent by exponent
        want = sorted(
            (e, sympy.Poly(g, gens[0]).degree())
            for g, e in sympy.sqf_list(_sym(ours, gens[:1]), gens[0])[1]
        )
        got = sorted((e, max(g)[0]) for g, e in squarefree_decomposition(ours))
        assert got == want, (p, q)


def _involving_pairs(polys):
    exact = [exact_poly(p) for p in polys]
    last = [p for p in exact if max(a[-1] for a in p) > 0]
    return [(p, q) for p in last for q in last if p is not q]


def _strip_monomial(expr, gens):
    sympy = pytest.importorskip("sympy")
    poly = sympy.Poly(expr, *gens)
    mins = [min(m[i] for m in poly.monoms()) for i in range(len(gens))]
    return sympy.expand(expr / sympy.Mul(*(g ** m for g, m in zip(gens, mins))))


def _sympy_eliminant(polys, gens):
    """The resultant cascade of polysolve (same pivots, monomial content
    removed at every level), computed by sympy."""
    sympy = pytest.importorskip("sympy")
    eqs = [_sym(exact_poly(p), gens) for p in polys]
    for k in range(len(gens) - 1, 0, -1):
        involving = [f for f in eqs if sympy.degree(f, gens[k]) > 0]
        eqs = [f for f in eqs if sympy.degree(f, gens[k]) == 0]
        if len(involving) > 1:
            degrees = [sympy.degree(f, gens[k]) for f in involving]
            i = degrees.index(min(degrees))
            eqs += [
                _strip_monomial(sympy.resultant(involving[i], q, gens[k]), gens[:k])
                for j, q in enumerate(involving)
                if j != i
            ]
    return _strip_monomial(sympy.gcd_list(eqs), gens[:1])


@pytest.mark.parametrize("spec", CATALOG_SPECS, ids=lambda s: ":".join(map(str, s)))
def test_eliminants_match_sympy_on_catalog_initial_systems(spec):
    pytest.importorskip("sympy")
    entry = catalog(*spec)
    pot = build_potential(entry.polytope, corrections=entry.corrections)
    n = pot.polytope.dim
    cands, _ = tropical_candidates(pot)
    sympy = pytest.importorskip("sympy")
    gens = sympy.symbols(f"x0:{n}")
    pairs = []
    for u in cands:
        polys, _ = initial_system(pot, u)
        pairs += _involving_pairs(polys)
        try:
            got = solve_torus_system(polys, n).eliminant
        except PositiveDimensionalInitialLocus:
            continue
        coeffs = sympy.Poly(_sympy_eliminant(polys, gens), gens[0]).all_coeffs()[::-1]
        want = [complex(c / coeffs[-1]) for c in coeffs]
        assert len(got) == len(want)
        assert all(abs(a - b) <= 1e-12 * max(map(abs, want)) for a, b in zip(got, want))
    if n > 1:
        assert pairs
    for p, q in pairs:
        _check_pair(p, q, n)


def _random_poly(rng, nvars, gaussian):
    p = {}
    for _ in range(rng.randint(2, 4)):
        a = tuple(rng.randint(0, 3) for _ in range(nvars))
        re = rng.choice([-3, -2, -1, 1, 2, 3])
        im = rng.choice([-2, -1, 0, 1, 2]) if gaussian else 0
        p[a] = complex(re, im)
    return p


@pytest.mark.parametrize("seed", range(12))
def test_resultants_match_sympy_on_random_systems(seed):
    pytest.importorskip("sympy")
    rng = random.Random(seed)
    nvars = 2 if seed < 8 else 3
    checked = 0
    while checked < 3:
        polys = [_random_poly(rng, nvars, gaussian=seed % 2 == 1) for _ in range(2)]
        exact = [exact_poly(p) for p in polys]
        if any(len(p) < 2 or max(a[-1] for a in p) == 0 for p in exact):
            continue
        _check_pair(exact[0], exact[1], nvars)
        checked += 1


# -- the one cancellation cut and Newton's method on term values ----------------


def _torus_point(rng, nvars):
    return tuple(
        cmath.rect(rng.uniform(0.3, 3.0), rng.uniform(-math.pi, math.pi)) for _ in range(nvars)
    )


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.floats(-12.0, 0.0))
def test_is_root_is_the_cancellation_cut(seed, share):
    """On sparse Laurent systems at torus points, _is_root accepts exactly
    the equations whose value is at most EVAL_REL of their term magnitudes.
    The constant term is chosen so that the value lands near 10^share of
    the other terms' magnitudes, on either side of the cut; a point within
    1e-12 of the cut is not compared."""
    rng = random.Random(seed)
    nvars = rng.randint(1, 3)
    point = _torus_point(rng, nvars)
    for _ in range(nvars):
        p = {}
        for _ in range(rng.randint(1, 5)):
            a = tuple(rng.randint(-3, 3) for _ in range(nvars))
            p[a] = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        p.pop((0,) * nvars, None)
        value, mag = eval_cpoly(p, point), eval_magnitude(p, point)
        p[(0,) * nvars] = -value + 10.0**share * mag * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        value, cut = abs(eval_cpoly(p, point)), EVAL_REL * eval_magnitude(p, point)
        if abs(value - cut) > 1e-12 * cut:
            assert _is_root(p, point) == (value <= cut), (p, point)


def _close(got, want, tol=1e-12):
    return all(abs(a - b) <= tol * max(1.0, abs(b)) for a, b in zip(got, want))


def _polish_from_perturbed_roots(rng, polys, n) -> int:
    """Polish each well-conditioned root from a relative 1e-6 away; the
    number of roots checked."""
    checked = 0
    for r in solve_torus_system(polys, n).roots:
        if np.linalg.cond(log_jacobian(polys, r)) > 1e3:
            continue
        seed = tuple(x * (1 + 1e-6 * cmath.exp(1j * rng.uniform(0, 2 * math.pi))) for x in r)
        got = _newton_polish(polys, seed)
        assert _close(got, r), (polys, r, got)
        checked += 1
    return checked


@pytest.mark.parametrize("spec", CATALOG_SPECS, ids=lambda s: ":".join(map(str, s)))
def test_newton_polish_returns_to_perturbed_catalog_roots(spec):
    entry = catalog(*spec)
    pot = build_potential(entry.polytope, corrections=entry.corrections)
    n = pot.polytope.dim
    rng = random.Random(str(spec))
    checked = 0
    for u in tropical_candidates(pot)[0]:
        polys, _ = initial_system(pot, u)
        try:
            checked += _polish_from_perturbed_roots(rng, polys, n)
        except PositiveDimensionalInitialLocus:
            continue
    assert checked


@pytest.mark.parametrize("seed", range(8))
def test_newton_polish_returns_to_perturbed_random_roots(seed):
    rng = random.Random(seed)
    nvars = 2 if seed < 4 else 3
    checked = attempts = 0
    while checked < 3 and attempts < 20:
        attempts += 1
        polys = [_random_poly(rng, nvars, gaussian=seed % 2 == 1) for _ in range(nvars)]
        try:
            checked += _polish_from_perturbed_roots(rng, polys, nvars)
        except PositiveDimensionalInitialLocus:
            continue
    assert checked >= 3


@pytest.mark.parametrize(
    "polys, seed, iterations",
    [
        # x^2 - 1e300 from 1e-150: the first step, 1e300 / 2e-150, overflows
        ([{(2,): 1 + 0j, (0,): -1e300 + 0j}], (1e-150 + 0j,), 1),
        # x^2 + 1 and y - 1/x from (1, 1): the first step reaches x = 0
        ([{(2, 0): 1 + 0j, (0, 0): 1 + 0j}, {(0, 1): 1 + 0j, (-1, 0): -1 + 0j}], (1 + 0j, 1 + 0j), 1),
        # x - 1 from 0: the seed is off the torus
        ([{(1,): 1 + 0j, (0,): -1 + 0j}], (0j,), 25),
        # x^3 - 1 from 1e120: the terms overflow at the seed itself
        ([{(3,): 1 + 0j, (0,): -1 + 0j}], (1e120 + 0j,), 25),
        # y - 2 and -1e300 (x^-1 y^-1 + x) + i x from (1e8, 1 + i): the step
        # reaches x = 5e-9 i, where the first term overflows and the Jacobian
        # is not a number
        (
            [{(0, 1): 1 + 0j, (0, 0): -2 + 0j}, {(-1, -1): -1e300 + 0j, (1, 0): -1e300 + 1j}],
            (1e8 + 0j, 1 + 1j),
            25,
        ),
    ],
    ids=["step-overflows", "zero-coordinate", "zero-seed", "seed-terms-overflow", "terms-overflow"],
)
def test_newton_polish_off_the_finite_torus_returns_the_seed(polys, seed, iterations):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _newton_polish(polys, seed, iterations) == seed
