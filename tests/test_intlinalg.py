"""Exact rational and integer lattice linear algebra."""

import itertools
import random
from fractions import Fraction

import pytest

from toriclg import IntegralityFailure
from toriclg._intlinalg import (
    canonical_affine,
    det_int,
    extend_basis_in_lattice,
    frac_rank,
    frac_solve,
    saturation_basis,
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


class TestSaturation:
    def test_scaled_row_saturates_to_primitive(self):
        assert saturation_basis([[2, 0]], 2) == [[1, 0]]

    def test_full_rank_lattice(self):
        basis = saturation_basis([[2, 1], [0, 3]], 2)
        # index-6 sublattice of Z^2 saturates to all of Z^2
        assert abs(det_int(basis)) == 1

    def test_line_with_fractional_direction_content(self):
        basis = saturation_basis([[4, 6]], 2)
        assert basis == [[2, 3]] or basis == [[-2, -3]]

    def test_random_spans_agree(self):
        rng = random.Random(9)
        for _ in range(30):
            rows = [
                [rng.randint(-4, 4) for _ in range(3)]
                for _ in range(rng.randint(1, 3))
            ]
            sat = saturation_basis(rows, 3)
            assert len(sat) == frac_rank(rows)
            for r in rows:
                # original rows are integer combinations of the saturation
                sol = frac_solve([list(col) for col in zip(*sat)], r)
                assert sol is not None
                assert all(x.denominator == 1 for x in sol[0])


class TestExtendBasis:
    def test_completion_is_unimodular_in_lattice_coords(self):
        lattice = [[1, 0], [0, 1]]
        new = extend_basis_in_lattice([[1, 0]], lattice)
        assert len(new) == 1
        assert abs(det_int([[1, 0], new[0]])) == 1

    def test_returns_only_new_rows(self):
        lattice = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        new = extend_basis_in_lattice([[0, 1, 0]], lattice)
        assert len(new) == 2
        assert abs(det_int([[0, 1, 0]] + new)) == 1

    def test_unsaturated_partial_is_rejected(self):
        with pytest.raises(IntegralityFailure):
            extend_basis_in_lattice([[2, 0]], [[1, 0], [0, 1]])

    def test_sublattice_target(self):
        # complete inside the even-in-first-coordinate lattice
        lattice = [[2, 0], [0, 1]]
        new = extend_basis_in_lattice([[2, 0]], lattice)
        assert len(new) == 1
        stacked = [[2, 0], new[0]]
        # the completion stays inside the target lattice
        sol = frac_solve([list(c) for c in zip(*lattice)], new[0])
        assert sol is not None and all(x.denominator == 1 for x in sol[0])
        assert abs(det_int(stacked)) == abs(det_int(lattice))
