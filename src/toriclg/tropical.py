"""Locating critical fibers of a potential over the Novikov field.

The search runs in two stages.  The tropical stage works with exact
rational arithmetic on term valuations: a point u inside the polytope can
carry a critical point only if, in the frame centered at u, every partial
of the potential has its minimal T-power attained by at least two terms.
Candidate points come from equating valuation pairs, one pair per
equation; rank-deficient pair choices yield affine candidate subspaces
that are subdivided along their breakpoints.  The algebraic stage solves
the leading-coefficient system at each candidate over the torus by exact
elimination (``polysolve``) and lifts every nondegenerate initial root to
a Novikov series solution by Newton iteration with exact exponent
bookkeeping; each step evaluates every term c_a y^a of the potential in
the frame at u once, and takes the residuals and the Jacobian as
integer-weighted sums of those term values.  A root with an invertible
leading Jacobian is simple, and stays in the report without a series when
its lift fails numerically; a degenerate root is not lifted and takes its
multiplicity from the exponent of its factor in the square-free
decomposition of the exact eliminant, shared evenly by the roots over the
same first coordinate (None when the share is uneven or the eliminant is
a resultant of resultants).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ._intlinalg import canonical_affine, frac_solve
from .config import get_config
from .errors import (
    NoConvergence,
    NotInterior,
    PositiveDimensionalInitialLocus,
    SingularInitialJacobian,
)
from .laurent import LaurentPoly, Potential
from .novikov import INF, NovikovScalar, format_fraction, weighted_sum
from .polysolve import (
    CPoly,
    log_jacobian,
    solve_torus_system,
)

ExpVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]


# -- term bookkeeping ---------------------------------------------------------


def _equation_terms(g: LaurentPoly) -> list[tuple[ExpVec, Fraction, complex]]:
    """(exponent, coefficient valuation, leading complex coefficient) per term."""
    out = []
    for a, c in g.terms.items():
        v = c.valuation()
        out.append((a, v, c.coeff_at(v)))
    return out


def _val_at(term: tuple[ExpVec, Fraction, complex], u: FracVec) -> Fraction:
    a, v, _ = term
    return v + sum(Fraction(x) * y for x, y in zip(a, u))


def _argmin_count(terms, u: FracVec) -> int:
    vals = [_val_at(t, u) for t in terms]
    m = min(vals)
    return sum(1 for v in vals if v == m)


def balanced_at(potential: Potential, u) -> bool:
    """True when every equation of the critical system has its minimal
    valuation at u attained by at least two terms."""
    uf = tuple(Fraction(x) for x in u)
    if not potential.polytope.interior_contains(uf):
        return False
    for g in potential.critical_system():
        if not g.terms:
            return False
        if _argmin_count(_equation_terms(g), uf) < 2:
            return False
    return True


def initial_system(
    potential: Potential, u
) -> tuple[list[CPoly], list[Fraction]]:
    """Leading-coefficient system of the critical equations in the frame
    centered at u, together with the leading valuation of each equation."""
    uf = tuple(Fraction(x) for x in u)
    if not potential.polytope.interior_contains(uf):
        raise NotInterior(f"{u} is not an interior point")
    polys: list[CPoly] = []
    svals: list[Fraction] = []
    for g in potential.critical_system():
        terms = _equation_terms(g)
        vals = [_val_at(t, uf) for t in terms]
        s = min(vals)
        p: CPoly = {}
        for (a, _, lead), v in zip(terms, vals):
            if v == s:
                p[a] = p.get(a, 0j) + lead
        polys.append(p)
        svals.append(s)
    return polys, svals


# -- tropical candidates ------------------------------------------------------


@dataclass(frozen=True)
class TropicalCell:
    """A candidate locus that was not resolved into isolated points."""

    dimension: int
    sample_u: FracVec
    directions: tuple[FracVec, ...] = ()
    t_range: tuple[Fraction, Fraction] | None = None
    note: str = ""

    def to_json_dict(self) -> dict:
        d = {
            "dimension": self.dimension,
            "sample_u": [format_fraction(x) for x in self.sample_u],
            "directions": [
                [format_fraction(x) for x in v] for v in self.directions
            ],
            "note": self.note,
        }
        if self.t_range is not None:
            d["t_range"] = [format_fraction(t) for t in self.t_range]
        return d


def _line_interval(
    potential: Potential, p: FracVec, d: FracVec
) -> tuple[Fraction, Fraction] | None:
    """Open parameter interval where p + t d stays interior."""
    lo: Fraction | None = None
    hi: Fraction | None = None
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
        return None  # unbounded lines cannot occur inside a compact polytope
    return lo, hi


def _point_on(p: FracVec, d: FracVec, t: Fraction) -> FracVec:
    return tuple(a + t * b for a, b in zip(p, d))


def tropical_candidates(
    potential: Potential,
) -> tuple[list[FracVec], list[TropicalCell]]:
    """Isolated candidate points and positive-dimensional candidate cells."""
    eqs = [_equation_terms(g) for g in potential.critical_system()]
    n = potential.polytope.dim
    if any(len(terms) < 2 for terms in eqs):
        return [], []
    pair_eqs: list[list[tuple[FracVec, Fraction]]] = []
    for terms in eqs:
        seen: dict[tuple, tuple[FracVec, Fraction]] = {}
        for (a, va, _), (b, vb, _) in itertools.combinations(terms, 2):
            row = tuple(Fraction(x - y) for x, y in zip(a, b))
            rhs = vb - va
            if all(x == 0 for x in row):
                continue  # same exponent cannot happen after merging
            scale = next(x for x in row if x != 0)
            key = (tuple(x / scale for x in row), rhs / scale)
            seen[key] = (row, rhs)
        pair_eqs.append(list(seen.values()))
    if any(not pe for pe in pair_eqs):
        return [], []

    points: dict[FracVec, None] = {}
    subspaces: dict[tuple, tuple[FracVec, list[FracVec]]] = {}
    for combo in itertools.product(*pair_eqs):
        a = [list(row) for row, _ in combo]
        b = [rhs for _, rhs in combo]
        sol = frac_solve(a, b)
        if sol is None:
            continue
        particular, nullspace = sol
        if not nullspace:
            points[tuple(particular)] = None
        else:
            key = canonical_affine(particular, nullspace)
            subspaces.setdefault(key, (key[1], [tuple(v) for v in key[0]]))

    def ok(u: FracVec) -> bool:
        return potential.polytope.interior_contains(u) and all(
            _argmin_count(terms, u) >= 2 for terms in eqs
        )

    candidates = {u: None for u in points if ok(u)}
    cells: list[TropicalCell] = []

    for particular, basis in subspaces.values():
        if len(basis) == 1:
            d = basis[0]
            interval = _line_interval(potential, particular, d)
            if interval is None:
                continue
            lo, hi = interval
            breaks: set[Fraction] = set()
            for terms in eqs:
                for (a, va, _), (bb, vb, _) in itertools.combinations(terms, 2):
                    slope = sum(
                        Fraction(x - y) * z for x, y, z in zip(a, bb, d)
                    )
                    base = (
                        va
                        + sum(Fraction(x) * y for x, y in zip(a, particular))
                        - vb
                        - sum(Fraction(x) * y for x, y in zip(bb, particular))
                    )
                    if slope != 0:
                        t = -base / slope
                        if lo < t < hi:
                            breaks.add(t)
            ts = sorted(breaks)
            for t in ts:
                u = _point_on(particular, d, t)
                if ok(u):
                    candidates.setdefault(u, None)
            edges = [lo] + ts + [hi]
            for a_t, b_t in zip(edges, edges[1:]):
                mid = (a_t + b_t) / 2
                u = _point_on(particular, d, mid)
                if ok(u):
                    cells.append(
                        TropicalCell(
                            dimension=1,
                            sample_u=u,
                            directions=(d,),
                            t_range=(a_t, b_t),
                        )
                    )
        else:
            steps = [Fraction(k, 4) for k in range(-4, 5)]
            hits = []
            for tv in itertools.product(steps, repeat=len(basis)):
                u = tuple(
                    p + sum(t * v[i] for t, v in zip(tv, basis))
                    for i, p in enumerate(particular)
                )
                if ok(u):
                    hits.append(u)
            if hits:
                cells.append(
                    TropicalCell(
                        dimension=len(basis),
                        sample_u=hits[0],
                        directions=tuple(basis),
                        note="validated on a coarse sample only",
                    )
                )

    ordered = sorted(candidates)
    cells.sort(key=lambda c: (c.dimension, c.sample_u))
    return ordered, cells


# -- Novikov-linear algebra ---------------------------------------------------


def lambda_solve(
    mat: list[list[NovikovScalar]], rhs: list[NovikovScalar]
) -> list[NovikovScalar]:
    """Gaussian elimination over the Novikov field with minimal-valuation
    pivoting.  Raises SingularInitialJacobian when no usable pivot exists."""
    n = len(rhs)
    m = [row[:] for row in mat]
    b = rhs[:]
    # a pivot row is final once its column is eliminated, so back
    # substitution reuses the inverses taken here
    invs: list[NovikovScalar] = []
    for col in range(n):
        best = None
        best_val = INF
        for r in range(col, n):
            e = m[r][col]
            if not e.is_zero() and e.valuation() < best_val:
                best, best_val = r, e.valuation()
        if best is None:
            raise SingularInitialJacobian(
                f"no pivot in column {col}: Jacobian is singular to working order"
            )
        m[col], m[best] = m[best], m[col]
        b[col], b[best] = b[best], b[col]
        inv = m[col][col].invert()
        invs.append(inv)
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            f = m[r][col] * inv
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
            b[r] = b[r] - f * b[col]
    xs: list[NovikovScalar] = [NovikovScalar.zero()] * n
    for row in range(n - 1, -1, -1):
        acc = b[row]
        for col in range(row + 1, n):
            acc = acc - m[row][col] * xs[col]
        xs[row] = acc * invs[row]
    return xs


# -- lifting ------------------------------------------------------------------


def _frame_system(
    potential: Potential, u: FracVec
) -> tuple[LaurentPoly, list[Fraction]]:
    """The potential P_u in the frame at u, and for each equation i of the
    critical system its leading T-power s_i: the least coefficient
    valuation of P_u among the terms with a_i != 0."""
    pu = potential.poly.change_frame(u)
    shifts = [
        min(c.valuation() for a, c in pu.terms.items() if a[i])
        for i in range(pu.nvars)
    ]
    return pu, shifts


def _residuals(values, shifts, order) -> list[NovikovScalar]:
    """r_i = T^-s_i sum_a a_i T_a modulo T^order, from the term values
    T_a = c_a y^a of P_u."""
    return [
        weighted_sum(((a[i], t) for a, t in values), order + s).shift(-s)
        for i, s in enumerate(shifts)
    ]


def _jacobian(values, shifts, order) -> list[list[NovikovScalar]]:
    """J_ij = T^-s_i sum_a a_i a_j T_a modulo T^order: the derivatives
    y_j d/dy_j of the residuals, from the same term values."""
    return [
        [
            weighted_sum(((a[i] * a[j], t) for a, t in values), order + s).shift(-s)
            for j in range(len(shifts))
        ]
        for i, s in enumerate(shifts)
    ]


def _residual_valuation(
    point: tuple[NovikovScalar, ...], residuals: list[NovikovScalar]
) -> Fraction | float:
    """Least exponent at which a residual has a coefficient above rounding
    noise; ``inf`` when none has.

    Float error in a residual coefficient at T^e scales with the products
    cancelled there, so its noise level is a small multiple of eps_coeff
    times the largest b(e1)*b(e2) with e1 + e2 = e, where b is the running
    max of |coefficient| over the solution series, floored at 1.  The
    exponents are read as numerators over one common denominator; a lift
    from a nondegenerate root has none below 0, and a residual term there
    never counts as noise.
    """
    rel = max(10 * get_config().eps_coeff, 1e-11)
    lattices = [s.lattice() for s in point]
    res_lattices = [r.lattice() for r in residuals]
    den = math.lcm(*(d for d, _, _ in lattices + res_lattices))
    res = sorted(
        ((e * (den // d), c) for d, es, cs in res_lattices for e, c in zip(es, cs)),
        key=lambda term: term[0],
    )
    if not res:
        return INF
    b = np.ones(max(res[-1][0], 0) + 1)
    for d, es, cs in lattices:
        for e, c in zip(es, cs):
            k = max(e * (den // d), 0)
            if k < len(b):
                b[k] = max(b[k], abs(c))
    np.maximum.accumulate(b, out=b)
    for k, c in res:
        if k < 0 or abs(c) > rel * (b[: k + 1] * b[k::-1]).max():
            return Fraction(k, den)
    return INF


def newton_lift(
    potential: Potential,
    u,
    y0: tuple[complex, ...],
    order: Fraction | None = None,
) -> tuple[tuple[NovikovScalar, ...], Fraction | float]:
    """Lift an initial torus root at candidate u to a series solution of the
    critical system, accurate modulo T^order.  Returns the solution in the
    frame centered at u along with the final residual valuation.

    When the leading Jacobian at y0 is invertible, Hensel's lemma makes
    each Newton step at least double the residual valuation.  So the
    valuation v of the residual at y0 is measured once, and the steps then
    solve on the fixed windows 2v, 4v, ... up to the order.  The residual
    valuation of the final series is measured once at the end; it is
    returned only as a certificate that it reaches the order, and
    NoConvergence is raised otherwise, as it is for v <= 0.  The terms of
    P_u are evaluated once per step; the residuals and the Jacobian of the
    next step are weighted sums of those values.
    """
    cfg = get_config()
    e_order = Fraction(order) if order is not None else cfg.truncation_order
    if e_order is None or e_order <= 0:
        raise ValueError("newton_lift needs a positive finite order")
    pu, shifts = _frame_system(potential, tuple(Fraction(x) for x in u))
    ys = tuple(NovikovScalar.monomial(0, c, trunc=e_order) for c in y0)
    values = pu.term_values(ys)
    res = _residuals(values, shifts, e_order)
    w = _residual_valuation(ys, res)
    if w <= 0:
        raise NoConvergence(
            f"initial root has residual of valuation {w}; not a root"
        )
    while w < e_order:
        # the residual has valuation at least w (Hensel), so this step is
        # exact modulo T^(2w); solving past that window only injects junk
        # into the tail of ys
        w = min(2 * w, e_order)
        # the Jacobian at ys mod T^w is the residuals' term values mod T^w
        jac = _jacobian(values, shifts, w)
        try:
            eps = lambda_solve(jac, [-r.truncate(w) for r in res])
        except SingularInitialJacobian as exc:
            raise NoConvergence(f"Jacobian became singular while lifting: {exc}")
        ys = tuple(
            y * (e.with_order(e_order) + 1.0) for y, e in zip(ys, eps)
        )
        values = pu.term_values(ys)
        res = _residuals(values, shifts, e_order)
    final = _residual_valuation(ys, res)
    if final < e_order:
        raise NoConvergence(
            f"residual valuation {final} is below the order {e_order} "
            f"after the Newton steps"
        )
    return ys, final


# -- assembled search ---------------------------------------------------------


@dataclass
class CriticalPoint:
    """One critical fiber of the potential.

    y_local holds the series solution in the frame centered at u, so the
    absolute coordinates are T^{u_i} times the stored scalars.
    """

    u: FracVec
    y_initial: tuple[complex, ...]
    y_local: tuple[NovikovScalar, ...] | None
    multiplicity: int | None
    nondegenerate: bool
    residual_valuation: Fraction | float | None = None

    def y_absolute(self) -> tuple[NovikovScalar, ...] | None:
        if self.y_local is None:
            return None
        return tuple(y.shift(x) for y, x in zip(self.y_local, self.u))

    def to_json_dict(self) -> dict:
        d = {
            "u": [format_fraction(x) for x in self.u],
            "y_initial": [[z.real, z.imag] for z in self.y_initial],
            "multiplicity": self.multiplicity,
            "nondegenerate": self.nondegenerate,
        }
        if self.y_local is not None:
            d["y_local"] = [y.to_json_dict() for y in self.y_local]
        if self.residual_valuation is not None:
            d["residual_valuation"] = (
                "inf"
                if self.residual_valuation == INF
                else format_fraction(self.residual_valuation)
            )
        return d


@dataclass
class EliminantRecord:
    u: FracVec
    coeffs: list[complex]  # monic, degree 0 upward, in the first frame variable

    def to_json_dict(self) -> dict:
        return {
            "u": [format_fraction(x) for x in self.u],
            "coeffs": [[c.real, c.imag] for c in self.coeffs],
        }


@dataclass
class CriticalReport:
    points: list[CriticalPoint]
    cells: list[TropicalCell]
    eliminants: list[EliminantRecord] = field(default_factory=list)

    def multiplicity_total(self) -> int | None:
        total = 0
        for p in self.points:
            if p.multiplicity is None:
                return None
            total += p.multiplicity
        return total

    def to_json_dict(self) -> dict:
        return {
            "points": [p.to_json_dict() for p in self.points],
            "cells": [c.to_json_dict() for c in self.cells],
            "eliminants": [e.to_json_dict() for e in self.eliminants],
        }


def find_critical_points(
    potential: Potential, order: Fraction | None = None
) -> CriticalReport:
    """Full search: tropical candidates, initial roots, Newton lifts."""
    cfg = get_config()
    e_order = Fraction(order) if order is not None else cfg.truncation_order
    candidates, cells = tropical_candidates(potential)
    points: list[CriticalPoint] = []
    eliminants: list[EliminantRecord] = []
    extra_cells = list(cells)
    n = potential.polytope.dim
    for u in candidates:
        polys, _ = initial_system(potential, u)
        try:
            sol = solve_torus_system(polys, n)
        except PositiveDimensionalInitialLocus as exc:
            extra_cells.append(
                TropicalCell(
                    dimension=0,
                    sample_u=u,
                    note=f"positive-dimensional initial locus: {exc}",
                )
            )
            continue
        if sol.eliminant is not None and len(sol.eliminant) > 1:
            eliminants.append(EliminantRecord(u, sol.eliminant))
        for root, mult in zip(sol.roots, sol.multiplicities):
            jac = log_jacobian(polys, root)
            scale = np.prod(np.abs(jac).max(axis=1))
            if abs(np.linalg.det(jac)) <= cfg.eps_degenerate * max(scale, 1e-30):
                # a degenerate root takes its multiplicity from the eliminant
                points.append(
                    CriticalPoint(
                        u=u,
                        y_initial=root,
                        y_local=None,
                        multiplicity=mult,
                        nondegenerate=False,
                    )
                )
                continue
            try:
                ys, resval = newton_lift(potential, u, root, e_order)
            except NoConvergence:  # still a simple root; only its series is missing
                ys = resval = None
            points.append(
                CriticalPoint(
                    u=u,
                    y_initial=root,
                    y_local=ys,
                    multiplicity=1,
                    nondegenerate=True,
                    residual_valuation=resval,
                )
            )
    points.sort(
        key=lambda p: (
            p.u,
            tuple((round(z.real, 9), round(z.imag, 9)) for z in p.y_initial),
        )
    )
    extra_cells.sort(key=lambda c: (c.dimension, c.sample_u))
    eliminants.sort(key=lambda e: e.u)
    return CriticalReport(points=points, cells=extra_cells, eliminants=eliminants)
