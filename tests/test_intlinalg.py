"""Exact rational and integer lattice linear algebra."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    det_int,
    frac_matrix,
    frac_rank,
    reference_canonical_affine,
    reference_solve,
    row_reduce,
)
from toriclg._intlinalg import (
    _eliminate,
    adapted_basis,
    adjugate,
    canonical_affine,
    frac_solve,
    over_common_denominator,
    smith_normal_form,
)


def _matmul(a, b):
    return [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a
    ]


def _cofactor(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _cofactor([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _minor_rank(m):
    """Rank as the size of the largest nonzero minor, by cofactor expansion."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                if _cofactor([[m[r][c] for c in cs] for r in rs]):
                    return k
    return 0


def _unimodular(rng, n):
    """A random integer matrix of determinant +-1: a product of row swaps,
    sign flips and integer row additions applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        move = rng.choice(("swap", "negate", "add"))
        if move == "swap":
            m[i], m[j] = m[j], m[i]
        elif move == "negate":
            m[i] = [-x for x in m[i]]
        elif i != j:
            q = rng.choice((-2, -1, 1, 2))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


class TestFracSolve:
    def test_unique_solution(self):
        sol = frac_solve([[2, 1], [1, -1]], [3, 0])
        assert sol is not None
        x, null = sol
        assert x == [Fraction(1), Fraction(1)]
        assert null == []

    def test_inconsistent_returns_none(self):
        assert frac_solve([[1, 1], [2, 2]], [1, 3]) is None

    def test_underdetermined_reports_nullspace(self):
        sol = frac_solve([[1, 1]], [2])
        assert sol is not None
        x, null = sol
        assert x[0] + x[1] == 2
        assert len(null) == 1
        v = null[0]
        assert v[0] + v[1] == 0 and v != [0, 0]

    def test_rank(self):
        assert frac_rank([[1, 2], [2, 4]]) == 1
        assert frac_rank([[1, 2], [0, 1]]) == 2
        assert frac_rank([]) == 0


class TestDetInt:
    def test_known_values(self):
        assert det_int([[1, 0], [0, 1]]) == 1
        assert det_int([[0, 1], [1, 0]]) == -1
        assert det_int([[2, 3], [1, 2]]) == 1
        assert det_int([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0

    def test_random_matches_cofactor_expansion(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            assert det_int(m) == _cofactor(m)

    def test_sign_under_row_operations(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            m = _unimodular(rng, n)
            assert det_int(m) == _cofactor(m) in (1, -1)
            assert det_int(_matmul(m, a)) == det_int(m) * _cofactor(a)


class TestAdjugate:
    def test_known_values(self):
        assert adjugate([[2, 3], [1, 2]]) == (1, [[2, -3], [-1, 2]])
        assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])
        assert adjugate([[1, 2], [2, 4]]) == (0, [])
        assert adjugate([[5]]) == (5, [[1]])

    def test_random_matches_cofactors(self):
        rng = random.Random(13)
        for _ in range(200):
            n = rng.randint(1, 5)
            if rng.random() < 0.3:  # thin products make singular matrices
                k = rng.randint(1, n)
                m = _matmul(
                    [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)],
                    [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)],
                )
            else:
                m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            det, adj = adjugate(m)
            assert det == _cofactor(m)
            if det:
                scaled = [[det if i == j else 0 for j in range(n)] for i in range(n)]
                assert _matmul(m, adj) == scaled == _matmul(adj, m)
            else:
                assert adj == []


class TestRankAgainstMinors:
    def test_random_rectangular(self):
        rng = random.Random(11)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            # products of thin factors make rank deficiency common
            k = rng.randint(1, min(rows, cols))
            left = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(k)]
            m = _matmul(left, right)
            assert frac_rank(m) == _minor_rank(m)


class TestCanonicalForm:
    """Equivalent descriptions of one solution set give one exact answer;
    the deduplication of tropical candidate cells keys on this."""

    @staticmethod
    def _system(rng):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        if rng.random() < 0.7:
            # consistent: right-hand side from a rational point
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
            b = [sum(c * y for c, y in zip(row, x)) for row in a]
        else:
            b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
        return a, b

    def test_solve_is_invariant_under_unimodular_row_mixing(self):
        rng = random.Random(17)
        consistent = 0
        for _ in range(150):
            a, b = self._system(rng)
            m = _unimodular(rng, len(a))
            mb = [sum(x * y for x, y in zip(row, b)) for row in m]
            sol = frac_solve(a, b)
            assert frac_solve(_matmul(m, a), mb) == sol
            if sol is not None:
                consistent += 1
                x, null = sol
                assert all(
                    sum(c * y for c, y in zip(row, x)) == rhs
                    for row, rhs in zip(a, b)
                )
                assert len(null) == len(a[0]) - frac_rank(a)
        assert consistent >= 75

    def test_canonical_affine_is_invariant_under_reparametrisation(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(150):
            a, b = self._system(rng)
            sol = frac_solve(a, b)
            if sol is None or not sol[1]:
                continue
            x, null = sol
            k = len(null)
            key = canonical_affine(x, null)
            # same affine space: another point on it, other spanning vectors
            shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in null]
            moved = [
                xi + sum(c * v[i] for c, v in zip(shift, null))
                for i, xi in enumerate(x)
            ]
            m = _unimodular(rng, k)
            mixed = [
                [sum(c * v[i] for c, v in zip(row, null)) for i in range(len(x))]
                for row in m
            ]
            assert canonical_affine(moved, mixed) == key
            # and the solve of a row-mixed system lands on the same key
            mm = _unimodular(rng, len(a))
            mb = [sum(p * q for p, q in zip(row, b)) for row in mm]
            x2, null2 = frac_solve(_matmul(mm, a), mb)
            assert canonical_affine(x2, null2) == key
            basis, point = key
            assert len(basis) == k
            assert all(point[next(i for i, c in enumerate(r) if c)] == 0 for r in basis)
            checked += 1
        assert checked >= 30


class TestAgainstFractionReference:
    """The integer elimination gives what the Fraction reduction of
    ``helpers.row_reduce`` gives, on random rational systems: rectangular,
    rank-deficient, inconsistent, with mixed denominators."""

    @staticmethod
    def _rational(rng):
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4, 6)))

    def _matrix(self, rng, rows, cols):
        k = rng.randint(0, min(rows, cols) + 1)
        if k > min(rows, cols):  # generic
            return [[self._rational(rng) for _ in range(cols)] for _ in range(rows)]
        if k == 0:
            return [[Fraction(0)] * cols for _ in range(rows)]
        # a product of thin factors has rank at most k
        left = [[self._rational(rng) for _ in range(k)] for _ in range(rows)]
        right = [[self._rational(rng) for _ in range(cols)] for _ in range(k)]
        return _matmul(left, right)

    def _system(self, rng):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = self._matrix(rng, rows, cols)
        if rng.random() < 0.6:  # consistent: b from a rational point
            x = [self._rational(rng) for _ in range(cols)]
            b = [sum(c * y for c, y in zip(row, x)) for row in a]
        else:
            b = [self._rational(rng) for _ in range(rows)]
        return a, b

    def test_solve_and_canonical_form(self):
        rng = random.Random(29)
        kinds = {"unique": 0, "affine": 0, "inconsistent": 0}
        for _ in range(3000):
            a, b = self._system(rng)
            sol = frac_solve(a, b)
            assert sol == reference_solve(a, b)
            if sol is None:
                kinds["inconsistent"] += 1
                continue
            x, null = sol
            assert all(isinstance(v, Fraction) for v in [*x, *itertools.chain(*null)])
            kinds["affine" if null else "unique"] += 1
            if null:
                assert canonical_affine(x, null) == reference_canonical_affine(x, null)
            # any rows as directions, zero and dependent ones included
            point = [self._rational(rng) for _ in range(len(a[0]))]
            assert canonical_affine(point, a) == reference_canonical_affine(point, a)
        assert min(kinds.values()) >= 300, kinds

    def test_eliminate_leaves_pivot_times_reduced_form(self):
        rng = random.Random(31)
        for _ in range(3000):
            rows, cols = rng.randint(1, 5), rng.randint(1, 6)
            a = self._matrix(rng, rows, cols)
            ncols = rng.randint(0, cols)  # later columns are carried along
            m = [over_common_denominator(row)[0] for row in a]
            pivots, _, d = _eliminate(m, ncols)
            ref = frac_matrix(a)
            assert pivots == row_reduce(ref, ncols)[0]
            assert d != 0
            assert [[Fraction(x, d) for x in row] for row in m[: len(pivots)]] == ref[: len(pivots)]
            assert all(x == 0 for row in m[len(pivots):] for x in row[:ncols])

    def test_adjugate(self):
        rng = random.Random(37)
        singular = 0
        for _ in range(2000):
            n = rng.randint(1, 5)
            # entries have denominators dividing 144, so this keeps the rank
            m = [[int(x * 144) for x in row] for row in self._matrix(rng, n, n)]
            det, adj = adjugate(m)
            ref = frac_matrix([row + [int(i == j) for j in range(n)] for i, row in enumerate(m)])
            pivots, sign, product = row_reduce(ref, n)
            if len(pivots) < n:
                singular += 1
                assert (det, adj) == (0, [])
                continue
            assert det == sign * product
            assert adj == [[det * x for x in row[n:]] for row in ref]
        assert 200 <= singular <= 1800


class TestSmith:
    @pytest.mark.parametrize(
        "a",
        [
            [[2, 0], [0, 3]],
            [[2, 4], [6, 8]],
            [[1, 2, 3], [4, 5, 6]],
            [[0, 0], [0, 0]],
            [[5]],
        ],
    )
    def test_transforms_diagonalize(self, a):
        u, d, v, v_inv = smith_normal_form(a)
        assert _matmul(_matmul(u, a), v) == d
        assert abs(det_int(u)) == 1
        assert abs(det_int(v)) == 1
        n = len(v)
        assert _matmul(v, v_inv) == [
            [1 if i == j else 0 for j in range(n)] for i in range(n)
        ]
        for i, row in enumerate(d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0


class TestAdaptedBasis:
    def test_scaled_row_saturates_to_primitive(self):
        ranks, basis, _ = adapted_basis([[2, 0]], 2)
        assert ranks == [1]
        assert basis[0] == [1, 0]

    def test_line_with_fractional_direction_content(self):
        ranks, basis, _ = adapted_basis([[4, 6]], 2)
        assert ranks == [1]
        assert basis[0] == [2, 3]

    def test_full_rank_lattice(self):
        # an index-6 sublattice of Z^2 still gets a basis of all of Z^2
        ranks, basis, inverse = adapted_basis([[2, 1], [0, 3]], 2)
        assert ranks == [1, 2]
        assert _matmul(basis, inverse) == [[1, 0], [0, 1]]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                    max_size=8,
                ),
            )
        )
    )
    def test_echelon_transform_and_saturated_spans(self, case):
        n, rows = case
        ranks, basis, inverse = adapted_basis(rows, n)
        assert _matmul(basis, inverse) == [
            [1 if i == j else 0 for j in range(n)] for i in range(n)
        ]
        for i, row in enumerate(_matmul(rows, inverse)):
            assert all(x == 0 for x in row[ranks[i]:])
            assert ranks[i] == frac_rank(rows[: i + 1])
            assert frac_rank(rows[: i + 1] + basis[: ranks[i]]) == ranks[i]
        for b in basis:
            assert next(x for x in b if x) > 0
