"""Shared test utilities: random polytopes, the exhaustive polytope
combinatorics that the vertex walk is checked against, series
comparisons (among them a batched Newton lift against single ones), the
closed-form residue pairing of projective space, the Fraction derivation
of initial systems, a point-by-point reference for the balanced-position
scan, the candidate search's earlier line cutting, a ``Fraction`` row
reduction that the library's integer elimination is checked against,
and a term-by-term evaluation of complex Laurent polynomials that
polysolve's one term evaluation is checked against."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from toriclg import (
    InvalidPolytope,
    LevelUnderdetermined,
    MomentPolytope,
    NovikovScalar,
    get_config,
    is_strongly_balanced,
)
from toriclg.polytope import ValidationReport, Vertex
from toriclg.tropical import balanced_at

_SIDES = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
_CUTS = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]


def _chop_corner(p: MomentPolytope, rng: random.Random) -> MomentPolytope | None:
    """Cut one vertex with the sum of the normals of its facets.

    The new facet is sum_t ell_t - eps over the facets t through the
    vertex, with eps below the value of that sum at every other vertex, so
    only the chosen corner goes away (a blow-up at a fixed point); the
    corner determinants it creates equal the old one.
    """
    verts = p.vertices()
    v = rng.choice(verts)
    tight = [p.facets[t] for t in v.tight]
    room = min(
        sum(f.ell(w.point) for f in tight) for w in verts if w.tight != v.tight
    )
    if room <= 0:
        return None
    eps = room * rng.choice(_CUTS)
    normal = tuple(map(sum, zip(*(f.normal for f in tight))))
    rows = [(f.normal, f.constant) for f in p.facets]
    rows.append((normal, sum(f.constant for f in tight) - eps))
    return MomentPolytope.from_inequalities(rows)


def random_delzant_polytope(rng: random.Random, max_chops: int = 3) -> MomentPolytope:
    """Random smooth 2-d moment polytope: a box or simplex, corners chopped."""
    if rng.random() < 0.5:
        a, b = rng.choice(_SIDES), rng.choice(_SIDES)
        rows = [
            ((1, 0), Fraction(0)),
            ((0, 1), Fraction(0)),
            ((-1, 0), a),
            ((0, -1), b),
        ]
    else:
        rows = [
            ((1, 0), Fraction(0)),
            ((0, 1), Fraction(0)),
            ((-1, -1), rng.choice(_SIDES)),
        ]
    p = MomentPolytope.from_inequalities(rows)
    for _ in range(rng.randrange(max_chops + 1)):
        q = _chop_corner(p, rng)
        if q is not None and q.validate().ok:
            p = q
    return p


def random_delzant_threefold(
    rng: random.Random, max_chops: int = 2
) -> MomentPolytope:
    """Random smooth 3-d moment polytope: a box, a simplex or a triangle
    times an interval, corners chopped."""
    kind = rng.randrange(3)
    if kind == 0:
        a, b, c = (rng.choice(_SIDES) for _ in range(3))
        rows = [
            ((1, 0, 0), Fraction(0)),
            ((0, 1, 0), Fraction(0)),
            ((0, 0, 1), Fraction(0)),
            ((-1, 0, 0), a),
            ((0, -1, 0), b),
            ((0, 0, -1), c),
        ]
    elif kind == 1:
        rows = [
            ((1, 0, 0), Fraction(0)),
            ((0, 1, 0), Fraction(0)),
            ((0, 0, 1), Fraction(0)),
            ((-1, -1, -1), rng.choice(_SIDES)),
        ]
    else:
        rows = [
            ((1, 0, 0), Fraction(0)),
            ((0, 1, 0), Fraction(0)),
            ((-1, -1, 0), rng.choice(_SIDES)),
            ((0, 0, 1), Fraction(0)),
            ((0, 0, -1), rng.choice(_SIDES)),
        ]
    p = MomentPolytope.from_inequalities(rows)
    for _ in range(rng.randrange(max_chops + 1)):
        q = _chop_corner(p, rng)
        if q is not None and q.validate().ok:
            p = q
    return p


# -- reference row reduction ----------------------------------------------------
# The Fraction Gauss-Jordan reduction the library used before its integer
# elimination.  The exhaustive polytope oracles below solve with it, so the
# vertex walk is not checked against its own arithmetic, and the property
# tests compare frac_solve, canonical_affine and adjugate with it.


def frac_matrix(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def row_reduce(m: list[list[Fraction]], ncols: int) -> tuple[list[int], int, Fraction]:
    """Bring ``m`` to reduced row echelon form in place.

    Pivots are taken in the first ``ncols`` columns only; further columns
    are carried along.  Returns ``(pivots, sign, pivot_product)``: the
    pivot column of each leading row, the sign of the row permutation, and
    the product of the pivots before normalisation, so that a square
    full-rank matrix has determinant ``sign * pivot_product``.
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
        m[row] = [x / pv for x in m[row]]
        for r in range(nrows):
            f = m[r][col]
            if r != row and f:
                m[r] = [x - f * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return pivots, sign, product


def reference_solve(a, b):
    """``(particular, nullspace)`` of a x = b from the reduced echelon form
    of ``[a | b]``, or None when inconsistent (the contract of
    ``frac_solve``)."""
    ncols = len(a[0]) if a else 0
    m = frac_matrix([*row, y] for row, y in zip(a, b))
    pivots, _, _ = row_reduce(m, ncols)
    if any(m[r][ncols] != 0 for r in range(len(pivots), len(m))):
        return None
    particular = [Fraction(0)] * ncols
    for r, col in enumerate(pivots):
        particular[col] = m[r][ncols]
    nullspace = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -m[r][fc]
        nullspace.append(vec)
    return particular, nullspace


def reference_canonical_affine(point, directions):
    """The nonzero reduced echelon rows of the directions and the point
    moved to zero in their pivot coordinates (the contract of
    ``canonical_affine``)."""
    basis = frac_matrix(directions)
    pivots, _, _ = row_reduce(basis, len(point))
    del basis[len(pivots):]
    p = [Fraction(x) for x in point]
    for row, col in zip(basis, pivots):
        f = p[col]
        p = [a - f * b for a, b in zip(p, row)]
    return tuple(tuple(r) for r in basis), tuple(p)


def frac_rank(rows) -> int:
    m = frac_matrix(rows)
    return len(row_reduce(m, len(m[0]) if m else 0)[0])


def det_int(a) -> int:
    """Determinant of a small integer matrix, exact."""
    m = frac_matrix(a)
    n = len(m)
    pivots, sign, product = row_reduce(m, n)
    if len(pivots) < n:
        return 0
    det = sign * product
    assert det.denominator == 1
    return det.numerator


# -- exhaustive polytope combinatorics ------------------------------------------
# The brute-force enumeration the library used before its vertex walk: every
# n-subset of facets for the vertices, every (n-1)-subset for a recession
# ray and every pair of vertices for the walls.  Tests compare the walk's
# report, vertices and Fano type with these.


def exhaustive_vertices(p: MomentPolytope) -> tuple[Vertex, ...]:
    n = p.dim
    seen: dict[tuple, set[int]] = {}
    for subset in itertools.combinations(range(p.nfacets), n):
        a = [list(p.facets[j].normal) for j in subset]
        b = [-p.facets[j].constant for j in subset]
        sol = reference_solve(a, b)
        if sol is None or sol[1]:
            continue
        point = tuple(sol[0])
        values = p.support_values(point)
        if all(v >= 0 for v in values):
            tight = seen.setdefault(point, set())
            tight.update(j for j, v in enumerate(values) if v == 0)
    return tuple(Vertex(q, tuple(sorted(t))) for q, t in sorted(seen.items()))


def _exhaustive_recession_ray(p: MomentPolytope) -> tuple | None:
    n = p.dim
    normals = [list(f.normal) for f in p.facets]
    if n == 1:
        for d in ((Fraction(1),), (Fraction(-1),)):
            if all(Fraction(v[0]) * d[0] >= 0 for v in normals):
                return d
        return None
    for subset in itertools.combinations(range(p.nfacets), n - 1):
        sol = reference_solve([normals[j] for j in subset], [0] * (n - 1))
        if sol is None or len(sol[1]) != 1:
            continue
        d = tuple(sol[1][0])
        for cand in (d, tuple(-x for x in d)):
            if all(sum(vj * x for vj, x in zip(v, cand)) >= 0 for v in normals):
                return cand
    return None


def exhaustive_report(p: MomentPolytope) -> ValidationReport:
    issues: list[str] = []
    n = p.dim
    normals = [list(f.normal) for f in p.facets]
    for j, f in enumerate(p.facets):
        if all(x == 0 for x in f.normal):
            issues.append(f"facet {j}: zero normal")
        elif math.gcd(*f.normal) != 1:
            issues.append(f"facet {j}: normal {f.normal} not primitive")
    if len({f.normal for f in p.facets}) < p.nfacets:
        issues.append("duplicate facet normals")
    if frac_rank(normals) < n:
        issues.append("normals do not span; polytope unbounded or degenerate")
    elif ray := _exhaustive_recession_ray(p):
        issues.append(f"unbounded: recession direction {ray}")
    verts = exhaustive_vertices(p)
    if not verts:
        issues.append("no vertices; polytope empty or unbounded")
    for v in verts:
        if len(v.tight) != n:
            issues.append(f"vertex {v.point}: {len(v.tight)} facets meet (not simple)")
            continue
        d = det_int([normals[j] for j in v.tight])
        if abs(d) != 1:
            issues.append(f"vertex {v.point}: normal determinant {d} (not unimodular)")
    if verts:
        pts = [v.point for v in verts]
        if frac_rank([[a - b for a, b in zip(q, pts[0])] for q in pts[1:]]) < n:
            issues.append("polytope is not full-dimensional (empty interior)")
        for j in range(p.nfacets):
            on_facet = [v.point for v in verts if j in v.tight]
            if not on_facet:
                issues.append(f"facet {j}: redundant (touches no vertex)")
            elif frac_rank(
                [[a - b for a, b in zip(q, on_facet[0])] for q in on_facet[1:]]
            ) < n - 1:
                issues.append(
                    f"facet {j}: tight set has dimension < {n - 1} (redundant)"
                )
    return ValidationReport(not issues, tuple(issues), len(verts))


def exhaustive_fano_type(p: MomentPolytope) -> str:
    """The value of m_p on the off-facet normal of every pair of vertices
    that share n-1 facets."""
    report = exhaustive_report(p)
    if not report.ok:
        raise InvalidPolytope("; ".join(report.issues))
    verts = exhaustive_vertices(p)
    n = p.dim
    strict = True
    for v in verts:
        m, _ = reference_solve([list(p.facets[j].normal) for j in v.tight], [1] * n)
        for w in verts:
            shared = set(v.tight) & set(w.tight)
            if w is v or len(shared) != n - 1:
                continue
            (off,) = set(w.tight) - shared
            value = sum(a * b for a, b in zip(m, p.facets[off].normal))
            if value > 1:
                return "neither"
            strict = strict and value != 1
    return "fano" if strict else "nef-only"


def random_scalar(rng: random.Random, nterms: int = 4, den: int = 6) -> NovikovScalar:
    """Exact scalar with small rational exponents and unit-scale coefficients."""
    terms = []
    for _ in range(rng.randint(1, nterms)):
        e = Fraction(rng.randint(0, 4 * den), rng.randint(1, den))
        c = complex(rng.uniform(0.2, 2.0) * rng.choice([-1, 1]),
                    rng.uniform(0.2, 2.0) * rng.choice([-1, 1]))
        terms.append((e, c))
    return NovikovScalar(terms)


def scalars_close(x: NovikovScalar, y: NovikovScalar, tol: float = 1e-9) -> bool:
    d = x - y
    return all(abs(c) <= tol for _, c in d.terms)


def on_lattice(s: NovikovScalar, den: int, width: int) -> np.ndarray:
    """Coefficients of s at T^(k/den), k < width; s must sit on (1/den)Z."""
    d, es, cs = s.lattice()
    assert den % d == 0, (den, d)
    out = np.zeros(width, complex)
    for e, c in zip(es, cs):
        if e * (den // d) < width:
            out[e * (den // d)] = c
    return out


def assert_scalar_close(x: NovikovScalar, y: NovikovScalar, tol: float = 1e-9):
    d = x - y
    bad = [(e, c) for e, c in d.terms if abs(c) > tol]
    assert not bad, f"series differ by {bad}"


def assert_same_lift(got, alone, tol: float = 1e-9):
    """An entry of a batched ``newton_lift`` against the lift of its root
    alone: the same outcome, with the same message when the root did not
    lift; otherwise the same residual valuation and series exponents, and
    coefficients of the series and of the final system within tol of their
    largest one."""
    assert type(got) is type(alone)
    if isinstance(alone, Exception):
        assert str(got) == str(alone)
        return
    (ys, resval, system), (ref_ys, ref_resval, ref_system) = got, alone
    assert resval == ref_resval
    for y, ref in zip(ys, ref_ys, strict=True):
        assert y.trunc == ref.trunc
        assert [e for e, _ in y.terms] == [e for e, _ in ref.terms]
        scale = max(abs(c) for _, c in ref.terms)
        assert all(abs(a - b) <= tol * scale for (_, a), (_, b) in zip(y.terms, ref.terms))
    assert (system.den, system.shifts, system.low) == (
        ref_system.den, ref_system.shifts, ref_system.low
    )
    for a, b in ((system.jac, ref_system.jac), (system.value, ref_system.value)):
        assert a.shape == b.shape
        assert np.all(abs(a - b) <= tol * abs(b).max())


def novikov_det(m: list[list[NovikovScalar]]) -> NovikovScalar:
    """Determinant by cofactor expansion; fine for the small sizes here."""
    n = len(m)
    if n == 0:
        return NovikovScalar.one()
    if n == 1:
        return m[0][0]
    total = NovikovScalar.zero()
    for j in range(n):
        entry = m[0][j]
        if entry.is_zero():
            continue
        minor = [[m[r][c] for c in range(n) if c != j] for r in range(1, n)]
        term = entry * novikov_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def cpn_duality_errors(n: int, report, residues) -> tuple[float, float]:
    """The largest deviations of a residue report of projective n-space from
    its closed form: the point with y_i = zeta T^(1/(n+1)), zeta an (n+1)-st
    root of unity, has Z = (n+1) zeta^n T^(n/(n+1)), and the basis element
    of degree 2a pairs with that of degree 2b to
    sum_zeta zeta^(a+b)/Z T^((a+b)/(n+1)) = 1 if a + b = n, else 0.
    Returns the errors of the Z values and of the pairing."""
    zetas = [p.y_initial[0] for p in report.points]
    assert len(zetas) == len(residues.z_values) == n + 1
    for p, zeta in zip(report.points, zetas):
        assert all(abs(y - zeta) <= 1e-9 for y in p.y_initial)
    roots = [cmath.exp(2j * cmath.pi * k / (n + 1)) for k in range(n + 1)]
    assert all(min(abs(zeta - r) for zeta in zetas) <= 1e-9 for r in roots)
    z_err = max(
        (z - NovikovScalar.monomial(Fraction(n, n + 1), (n + 1) * zeta**n)).max_abs_coeff()
        for z, zeta in zip(residues.z_values, zetas)
    )
    pair_err = 0.0
    for a, b in itertools.product(range(n + 1), repeat=2):
        s = NovikovScalar.zero()
        for inv, zeta in zip(residues.pairing_diag, zetas):
            s = s + inv * NovikovScalar.from_number(zeta ** (a + b))
        s = s.shift(Fraction(a + b, n + 1))
        expect = NovikovScalar.from_number(1.0 if a + b == n else 0.0)
        pair_err = max(pair_err, (s - expect).max_abs_coeff())
    return z_err, pair_err


def _prune(acc: dict[Fraction, complex]) -> dict[Fraction, complex]:
    eps = get_config().eps_coeff
    return {e: c for e, c in sorted(acc.items()) if abs(c) > eps}


def reference_sum(a: NovikovScalar, b: NovikovScalar):
    """a + b as (exponent -> coefficient, truncation order), on Fraction
    keys and without the kernel's integer lattice."""
    orders = [t for t in (a.trunc, b.trunc) if t is not None]
    trunc = min(orders) if orders else None
    acc: dict[Fraction, complex] = {}
    for e, c in a.terms + b.terms:
        if trunc is None or e < trunc:
            acc[e] = acc.get(e, 0j) + c
    return _prune(acc), trunc


def reference_product(a: NovikovScalar, b: NovikovScalar):
    """a * b as (exponent -> coefficient, truncation order) by the
    schoolbook rule on Fraction keys: knowing a mod T^s and b mod T^t gives
    ab mod T^min(s + v(b), t + v(a)), where v of a scalar with no known term
    is its truncation order."""

    def low(s):
        return s.terms[0][0] if s.terms else s.trunc

    orders = [
        s.trunc + low(o)
        for s, o in ((a, b), (b, a))
        if s.trunc is not None and low(o) is not None
    ]
    trunc = min(orders) if orders else None
    acc: dict[Fraction, complex] = {}
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            if trunc is None or ea + eb < trunc:
                acc[ea + eb] = acc.get(ea + eb, 0j) + ca * cb
    return _prune(acc), trunc


# -- tropical reference -----------------------------------------------------------
# The Fraction derivation the tropical stage used before its integer frame:
# each equation y_i dPO/dy_i from poly.log_derivative(i), its terms valued
# at u with Fractions.  Tests compare initial_system and balanced_at with it.


def reference_initial_system(potential, u):
    """Leading-coefficient system and leading valuations of the equations
    y_i dPO/dy_i = 0 in the frame at u."""
    uf = tuple(Fraction(x) for x in u)
    polys, svals = [], []
    for i in range(potential.polytope.dim):
        g = potential.poly.log_derivative(i)
        vals = {
            a: c.valuation() + sum(x * y for x, y in zip(a, uf))
            for a, c in g.terms.items()
        }
        s = min(vals.values())
        polys.append(
            {a: g.terms[a].leading()[1] for a, v in vals.items() if v == s}
        )
        svals.append(s)
    return polys, svals


def reference_balanced_at(potential, u) -> bool:
    """u is interior and every equation's least valuation there is tied."""
    if not potential.polytope.interior_contains(tuple(Fraction(x) for x in u)):
        return False
    polys, _ = reference_initial_system(potential, u)
    return all(len(p) >= 2 for p in polys)


def reference_balanced_positions(potential, grid: int, extra=None):
    """The balanced-position scan point by point: the interior test, then
    the full balancing test, at every grid and extra point."""
    p = potential.polytope
    box = p.bounding_box()
    axes = [
        [lo + Fraction(k, grid) * (hi - lo) for k in range(1, grid)]
        for lo, hi in box
    ]
    points = [u for u in itertools.product(*axes) if p.interior_contains(u)]
    for u in extra or []:
        uf = tuple(Fraction(x) for x in u)
        if p.interior_contains(uf) and uf not in points:
            points.append(uf)
    out = []
    for u in sorted(points):
        try:
            ok = is_strongly_balanced(potential, u)
            out.append((u, "balanced" if ok else "unbalanced"))
        except LevelUnderdetermined:
            out.append((u, "unknown"))
    return out


# -- tropical line reference ------------------------------------------------------
# The candidate search before one crossing rule cut its lines: the pair ties
# as Fraction rows, their choices solved by the Fraction reduction above, each
# line cut to the interior by its own loop over Facet.ell and subdivided at
# every tie of every equation, repeats included.  The balancing test is the
# library's balanced_at, which TestFrameOracle checks on its own.  Tests
# compare tropical_candidates with it on polygons, whose candidates are
# points and lines only.


def reference_line_interval(potential, p, d):
    """Open parameter interval where p + t d stays interior."""
    lo = hi = None
    for f in potential.polytope.facets:
        slope = sum(Fraction(n) * x for n, x in zip(f.normal, d))
        base = f.ell(p)
        if slope == 0:
            if base <= 0:
                return None
            continue
        bound = -base / slope
        if slope > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    if lo is None or hi is None or lo >= hi:
        return None
    return lo, hi


def reference_tropical_candidates(potential):
    """Sorted candidate points, and the line cells as sorted tuples
    (sample_u, direction, t_range), of a polygon's potential."""
    pair_eqs = []
    for i in range(potential.polytope.dim):
        terms = [(a, c.valuation()) for a, c in potential.poly.terms.items() if a[i]]
        ties = set()
        for (a, va), (b, vb) in itertools.combinations(terms, 2):
            row = [Fraction(x - y) for x, y in zip(a, b)] + [vb - va]
            lead = next(x for x in row if x)
            ties.add(tuple(x / lead for x in row))
        pair_eqs.append(sorted(ties))
    points, lines = set(), set()
    for combo in itertools.product(*pair_eqs):
        sol = reference_solve([t[:-1] for t in combo], [t[-1] for t in combo])
        if sol is not None:
            particular, nullspace = sol
            assert len(nullspace) <= 1, "polygons have no candidate planes"
            if nullspace:
                lines.add(reference_canonical_affine(particular, nullspace))
            else:
                points.add(tuple(particular))
    candidates = {u for u in points if balanced_at(potential, u)}
    cells = []
    for (d,), particular in lines:
        interval = reference_line_interval(potential, particular, d)
        if interval is None:
            continue
        lo, hi = interval
        breaks = set()
        for *row, rhs in itertools.chain(*pair_eqs):
            slope = sum(x * z for x, z in zip(row, d))
            if slope != 0:
                t = (rhs - sum(x * y for x, y in zip(row, particular))) / slope
                if lo < t < hi:
                    breaks.add(t)
        ts = sorted(breaks)
        for t in ts:
            u = tuple(a + t * b for a, b in zip(particular, d))
            if balanced_at(potential, u):
                candidates.add(u)
        edges = [lo] + ts + [hi]
        for a_t, b_t in zip(edges, edges[1:]):
            mid = (a_t + b_t) / 2
            u = tuple(a + mid * b for a, b in zip(particular, d))
            if balanced_at(potential, u):
                cells.append((u, d, (a_t, b_t)))
    return sorted(candidates), sorted(cells)


# -- complex Laurent polynomials, term by term ---------------------------------
# The reference for polysolve's term values: the value, the sum of term
# magnitudes, and the partial derivative as a polynomial of its own.


def eval_cpoly(p, point) -> complex:
    total = 0j
    for a, c in p.items():
        term = c
        for x, e in zip(point, a):
            if e:
                term *= x**e
        total += term
    return total


def eval_magnitude(p, point) -> float:
    """Sum of term magnitudes: the natural scale for residual tests."""
    total = 0.0
    for a, c in p.items():
        term = abs(c)
        for x, e in zip(point, a):
            if e:
                term *= abs(x) ** e
        total += term
    return total


def partial(p, i: int):
    out = {}
    for a, c in p.items():
        if a[i] == 0:
            continue
        b = list(a)
        b[i] -= 1
        out[tuple(b)] = out.get(tuple(b), 0j) + c * a[i]
    return out
