"""Exact linear algebra over the rationals and over the integers.

This is the package's one exact linear-algebra module.  Everything here
runs on small dense matrices (dimension at most ~20), so the
implementations favour clarity over asymptotics: one fraction
Gauss-Jordan reduction (``row_reduce``) behind the solve and
canonical-span routines, one fraction-free Gauss-Jordan reduction over
the integers (``adjugate``) for determinants and inverses of integer
matrices, and one unimodular column reduction over the integers
(``adapted_basis``) that gives a lattice basis adapted to a sequence of
integer vectors, together with its inverse.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]


def frac_matrix(rows: Sequence[Sequence]) -> list[Row]:
    return [[Fraction(x) for x in row] for row in rows]


def row_reduce(m: list[Row], ncols: int) -> tuple[list[int], int, Fraction]:
    """Bring ``m`` to reduced row echelon form in place.

    Pivots are taken in the first ``ncols`` columns only; any further
    columns (a right-hand side) are carried along.  Returns
    ``(pivots, sign, pivot_product)``: the pivot column of each leading
    row, the sign of the row permutation, and the product of the pivots
    before normalisation, so that a square full-rank matrix has
    determinant ``sign * pivot_product``.  Rows past ``len(pivots)`` are
    zero in the pivoting columns.
    """
    nrows = len(m)
    pivots: list[int] = []
    sign = 1
    product = Fraction(1)
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
            sign = -sign
        pv = m[row][col]
        product *= pv
        # entries left of col are zero in every row not yet used as a
        # pivot; zero entries are skipped, which keeps Fraction work small
        prow = m[row]
        if pv != 1:
            prow = m[row] = prow[:col] + [x / pv if x else x for x in prow[col:]]
        for r in range(nrows):
            f = m[r][col]
            if r != row and f:
                m[r] = m[r][:col] + [
                    x - f * y if y else x for x, y in zip(m[r][col:], prow[col:])
                ]
        pivots.append(col)
        row += 1
    return pivots, sign, product


def frac_solve(
    a: Sequence[Sequence], b: Sequence
) -> tuple[Row, list[Row]] | None:
    """Solve a x = b over the rationals.

    Returns ``(particular, nullspace_basis)``, or ``None`` when inconsistent.
    The particular solution is zero in every free coordinate, and the
    nullspace basis is read off the reduced echelon form, so both depend
    only on the row space of ``[a | b]``.  The basis is empty exactly when
    the solution is unique.
    """
    ncols = len(a[0]) if a else 0
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    pivots, _, _ = row_reduce(m, ncols)
    if any(m[r][ncols] != 0 for r in range(len(pivots), len(m))):
        return None
    particular = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = m[r][ncols]
    nullspace: list[Row] = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][fc]
        nullspace.append(vec)
    return particular, nullspace


def canonical_affine(
    point: Sequence, directions: Sequence[Sequence]
) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """A normal form of the affine space ``point + span(directions)``:
    the nonzero rows of the reduced echelon form of the directions, and
    the point moved to zero in their pivot coordinates.  Two descriptions
    of the same affine space give the same pair."""
    basis = frac_matrix(directions)
    pivots, _, _ = row_reduce(basis, len(point))
    del basis[len(pivots):]
    p = [Fraction(x) for x in point]
    for row, col in zip(basis, pivots):
        f = p[col]
        p = [a - f * b for a, b in zip(p, row)]
    return tuple(tuple(r) for r in basis), tuple(p)


IntMatrix = list[list[int]]


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def adjugate(a: Sequence[Sequence[int]]) -> tuple[int, IntMatrix]:
    """Determinant and adjugate of a square integer matrix.

    Fraction-free Gauss-Jordan elimination (Bareiss) of ``[a | I]``: every
    division is exact, and after the last pivot ``d`` the left block is
    ``d·I`` and the right block ``d·a⁻¹``, where ``d`` is the determinant
    of the row-permuted matrix.  Returns ``(det, adj)`` with
    ``a · adj = det · I``, or ``(0, [])`` when ``a`` is singular.
    """
    n = len(a)
    m = [[int(x) for x in row] + e for row, e in zip(a, _identity(n))]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0, []
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        prow = m[k]
        p = prow[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], prow)]
        prev = p
    return sign * prev, [[sign * x for x in row[n:]] for row in m]


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[IntMatrix, IntMatrix, IntMatrix, IntMatrix]:
    """Smith-style diagonalisation with transforms.

    Returns ``(u, d, v, v_inv)`` with ``u a v = d``, ``u`` and ``v``
    unimodular, and ``d`` diagonal (entries not necessarily forming a
    divisibility chain, which none of the callers need).
    """
    d: IntMatrix = [[int(x) for x in row] for row in a]
    k = len(d)
    n = len(d[0]) if d else 0
    u = _identity(k)
    v = _identity(n)
    v_inv = _identity(n)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def add_row(i, j, q):  # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_col(i, j, q):  # col_i += q * col_j  (v_inv: row_j -= q * row_i)
        for row in d:
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]
        v_inv[j] = [x - q * y for x, y in zip(v_inv[j], v_inv[i])]

    t = 0
    while t < k and t < n:
        # locate smallest nonzero entry in the remaining block
        best = None
        for i in range(t, k):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        swap_rows(t, i)
        swap_cols(t, j)
        dirty = False
        for i in range(t + 1, k):
            q = -(d[i][t] // d[t][t])
            if q:
                add_row(i, t, q)
            if d[i][t] != 0:
                dirty = True
        for j in range(t + 1, n):
            q = -(d[t][j] // d[t][t])
            if q:
                add_col(j, t, q)
            if d[t][j] != 0:
                dirty = True
        if dirty:
            continue  # remainders left; pick a new, smaller pivot
        if d[t][t] < 0:
            add_row(t, t, -2)  # row_t += -2 row_t, i.e. row_t *= -1
        t += 1
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
