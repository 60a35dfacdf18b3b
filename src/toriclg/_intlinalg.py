"""Exact linear algebra over the rationals and over the integers.

This is the package's one exact linear-algebra module.  Everything here
runs on small dense matrices (dimension at most ~20), so the
implementations favour clarity over asymptotics.  One fraction-free
Gauss-Jordan elimination over the integers (``_eliminate``, Bareiss) does
every row reduction: the rational solve (``frac_solve``), the canonical
form of an affine span (``canonical_affine``) and the determinant and
adjugate of an integer matrix (``adjugate``).  Rational inputs enter it as
integer rows, each scaled by the least common denominator of its entries
(``over_common_denominator``), and ``Fraction`` is used only to read those
inputs and to build the returned values.  One unimodular column reduction
over the integers (``adapted_basis``) gives a lattice basis adapted to a
sequence of integer vectors, together with its inverse, and alternates on
columns and rows to diagonalise (``smith_normal_form``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

IntMatrix = list[list[int]]


def over_common_denominator(u: Sequence) -> tuple[list[int], int]:
    """Integer numerators of the rationals u over their least common
    denominator, and that denominator."""
    xs = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in u]
    den = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _eliminate(m: IntMatrix, ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the integer rows
    ``m`` in place.

    Pivots are taken in the first ``ncols`` columns only; any further
    columns (a right-hand side, an identity block) are carried along.  Each
    step scales every other row by the new pivot and divides by the one
    before, and every division is exact, since each entry stays a minor of
    the input.  Returns ``(pivots, sign, d)``: the pivot column of each
    leading row, the sign of the row permutation and the last pivot ``d``.
    The leading rows then hold ``d`` times the reduced row echelon form of
    ``m``, and ``d`` is the determinant of the pivot rows and columns of the
    row-permuted input, so a square full-rank matrix has determinant
    ``sign * d``.  Rows past ``len(pivots)`` are zero in the pivoting
    columns.
    """
    nrows = len(m)
    pivots: list[int] = []
    sign, d = 1, 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[col]
        for i in range(nrows):
            if i != r:
                f = m[i][col]
                m[i] = [(p * x - f * y) // d for x, y in zip(m[i], prow)]
        d = p
        pivots.append(col)
    return pivots, sign, d


def frac_solve(
    a: Sequence[Sequence], b: Sequence
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Solve a x = b over the rationals.

    Returns ``(particular, nullspace_basis)``, or ``None`` when inconsistent.
    The particular solution is zero in every free coordinate, and the
    nullspace basis is read off the reduced echelon form, so both depend
    only on the row space of ``[a | b]``.  The basis is empty exactly when
    the solution is unique.
    """
    ncols = len(a[0]) if a else 0
    m = [over_common_denominator([*row, y])[0] for row, y in zip(a, b)]
    pivots, _, d = _eliminate(m, ncols)
    if any(m[r][ncols] for r in range(len(pivots), len(m))):
        return None
    particular = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = Fraction(m[r][ncols], d)
    nullspace: list[list[Fraction]] = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = Fraction(-m[r][fc], d)
        nullspace.append(vec)
    return particular, nullspace


def canonical_affine(
    point: Sequence, directions: Sequence[Sequence]
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """A normal form of the affine space ``point + span(directions)``:
    the nonzero rows of the reduced echelon form of the directions, and
    the point moved to zero in their pivot coordinates.  Two descriptions
    of the same affine space give the same pair."""
    basis = [over_common_denominator(v)[0] for v in directions]
    pivots, _, d = _eliminate(basis, len(point))
    del basis[len(pivots):]
    # p - sum_r p[pivot r] * (row r / d), with p = nums / den
    nums, den = over_common_denominator(point)
    moved = [
        d * x - sum(nums[col] * row[j] for row, col in zip(basis, pivots))
        for j, x in enumerate(nums)
    ]
    return (
        tuple(tuple(Fraction(x, d) for x in row) for row in basis),
        tuple(Fraction(x, d * den) for x in moved),
    )


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def adjugate(a: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    """Determinant and adjugate of a square integer matrix.

    The elimination of ``[a | I]`` leaves ``d·I`` in the left block and
    ``d·a⁻¹`` in the right one, where ``d`` is the determinant of the
    row-permuted matrix.  Returns ``(det, adj)`` with ``a · adj = det · I``,
    or ``(0, [])`` when ``a`` is singular.
    """
    n = len(a)
    m = [[int(x) for x in row] + e for row, e in zip(a, _identity(n))]
    pivots, sign, d = _eliminate(m, n)
    if len(pivots) < n:
        return 0, []
    return sign * d, [[sign * x for x in row[n:]] for row in m]


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    return [[sum(map(mul, row, col)) for col in zip(*b)] for row in a]


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Smith-style diagonalisation with transforms.

    Returns ``(u, d, v, v_inv)`` with ``u a v = d``, ``u`` and ``v``
    unimodular, and ``d`` diagonal (entries not necessarily forming a
    divisibility chain, which none of the callers need).  ``adapted_basis``
    alternates on the columns and on the rows (the columns of ``dᵀ``) until
    no entry is off the diagonal.  No pipeline stage calls it; it is kept for
    the benchmark's ``intlinalg.smith`` tracer binding (``bench/tracer.py``).
    """
    d: IntMatrix = [[int(x) for x in row] for row in a]
    k, n = len(d), len(d[0]) if d else 0
    u, v, v_inv = _identity(k), _identity(n), _identity(n)
    while any(x for i, row in enumerate(d) for j, x in enumerate(row) if i != j):
        _, back, w = adapted_basis(d, n)  # d·w is lower echelon
        d, v, v_inv = _matmul(d, w), _matmul(v, w), _matmul(back, v_inv)
        wt = list(zip(*adapted_basis(list(zip(*d)), k)[2]))  # wᵀ·d: upper echelon
        d, u = _matmul(wt, d), _matmul(wt, u)
    return u, d, v, v_inv


def adapted_basis(
    rows: Sequence[Sequence[int]], n: int
) -> tuple[list[int], IntMatrix, IntMatrix]:
    """A basis of Z^n adapted to the growing spans of ``rows``.

    Unimodular column operations bring the rows to lower echelon form
    ``rows · V = H``.  Returns ``(ranks, basis, inverse)``: ``ranks[i]`` is
    the pivot count after row i, ``basis`` is ``V⁻¹`` and ``inverse`` is
    ``V``.  Row i of ``rows`` is the combination ``H[i]`` of the first
    ``ranks[i]`` rows of the unimodular ``V⁻¹``, so those rows are a basis
    of the integer points in the span of rows 0..i.  Each basis row is
    signed so that its first nonzero entry is positive.
    """
    # cols[j] is column j of H followed by column j of V
    cols = [[row[j] for row in rows] + e for j, e in enumerate(_identity(n))]
    v_inv = _identity(n)
    ranks: list[int] = []
    r = 0
    for i in range(len(rows)):
        while r < n:
            nonzero = [j for j in range(r, n) if cols[j][i]]
            if not nonzero:
                break
            p = min(nonzero, key=lambda j: abs(cols[j][i]))
            cols[r], cols[p] = cols[p], cols[r]
            v_inv[r], v_inv[p] = v_inv[p], v_inv[r]
            if len(nonzero) == 1:
                r += 1
                break
            for j in range(r + 1, n):
                q = cols[j][i] // cols[r][i]
                if q:  # col_j -= q col_r, so row_r += q row_j in V⁻¹
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[r])]
                    v_inv[r] = [x + q * y for x, y in zip(v_inv[r], v_inv[j])]
        ranks.append(r)
    for t, b in enumerate(v_inv):
        if next(x for x in b if x) < 0:
            v_inv[t] = [-x for x in b]
            cols[t] = [-x for x in cols[t]]
    return ranks, v_inv, [list(row) for row in zip(*(c[len(rows):] for c in cols))]
