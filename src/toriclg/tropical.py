"""Locating critical fibers of a potential over the Novikov field.

The search runs in two stages, and both read the potential's terms in the
frame centered at u from one integer frame (``_Frame``): exponents as
integer numerators over one denominator, with each equation's least leading
numerator.  The tropical stage asks that at u every log-derivative
y_i dPO/dy_i have its minimal T-power attained by at least two terms.
Candidate points come from equating valuation pairs, one pair per
equation: each tie is a primitive integer vector read from the frame at
u = 0, and each choice of ties is solved by the integer elimination of
``_intlinalg``; rank-deficient choices yield affine candidate subspaces
that are subdivided along their breakpoints.  The algebraic stage solves
the leading-coefficient system at each candidate over the torus by exact
elimination (``polysolve``) and lifts all initial roots of the candidate
together to Novikov series, by Newton steps on dense arrays over one
exponent lattice, the frame at u put on (1/D)Z with one row per root; the
roots of one seed residual valuation share each step, solved order by
order from each root's inverse of its leading Jacobian, to the order the
potential's coefficients determine.  The lift gives one outcome per root.
A lifted root's final full-width system stays with the point
(``LatticeSystem``), and the residue data are read from it.  The root's
leading Jacobian decides degeneracy.  A root where it is invertible is
simple, and stays in the report without a series when its lift fails
numerically (NoConvergence); a degenerate root's outcome is
SingularInitialJacobian, and the root takes its multiplicity from the
exponent of its factor in the square-free decomposition of the exact
eliminant, shared evenly by the roots over the same first coordinate (None
when the share is uneven or the eliminant is a resultant of resultants).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._intlinalg import canonical_affine, frac_solve
from .config import get_config
from .errors import (
    NoConvergence,
    NotInterior,
    PositiveDimensionalInitialLocus,
    SingularInitialJacobian,
)
from .laurent import Potential
from .novikov import INF, NovikovScalar, format_fraction
from .polysolve import EVAL_REL, CPoly, _term_values, solve_torus_system
from .polytope import _dot

ExpVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]


# -- the frame at u -----------------------------------------------------------


class _Frame:
    """The critical equations' terms in the frame centered at u, on integers.

    Each term c_a y^a of ``potential.poly`` with a != 0 (the constant term
    enters only the critical value, in ``jacres``) keeps its exponent vector
    a, the numerators over ``den`` of the exponents of c_a T^<a, u>
    (increasing) and its coefficients; den is the least common denominator
    of u and their exponents.  ``s[i]`` is the least leading numerator over
    the terms with a_i != 0: the valuation of y_i dPO/dy_i at u, times den
    (None when no term has a_i != 0)."""

    def __init__(self, potential: Potential, u):
        uf = [Fraction(x) for x in u]
        terms = {a: c for a, c in potential.poly.terms.items() if any(a)}
        self.den = den = math.lcm(
            *(x.denominator for x in uf), *(c.lattice()[0] for c in terms.values())
        )
        un = [x.numerator * (den // x.denominator) for x in uf]
        self.terms: list[tuple[ExpVec, list[int], tuple[complex, ...]]] = []
        for a, c in terms.items():
            d, es, cs = c.lattice()
            shift = sum(x * e for x, e in zip(un, a))
            self.terms.append((a, [e * (den // d) + shift for e in es], cs))
        self.s = [
            min((ks[0] for a, ks, _ in self.terms if a[i]), default=None)
            for i in range(potential.polytope.dim)
        ]

    def leading(self, i: int) -> list[tuple[ExpVec, complex]]:
        """The terms of y_i dPO/dy_i at its least valuation: (a, a_i c_a,lead)."""
        s = self.s[i]
        return [(a, cs[0] * a[i]) for a, ks, cs in self.terms if a[i] and ks[0] == s]


def balanced_at(potential: Potential, u) -> bool:
    """True when every equation y_i dPO/dy_i = 0 has its minimal valuation
    at u attained by at least two terms."""
    if not potential.polytope.interior_contains(u):
        return False
    frame = _Frame(potential, u)
    return all(len(frame.leading(i)) >= 2 for i in range(len(frame.s)))


def initial_system(
    potential: Potential, u
) -> tuple[list[CPoly], list[Fraction]]:
    """Leading-coefficient system of the critical equations in the frame
    centered at u, together with the leading valuation of each equation."""
    if not potential.polytope.interior_contains(u):
        raise NotInterior(f"{u} is not an interior point")
    frame = _Frame(potential, u)
    polys: list[CPoly] = [dict(frame.leading(i)) for i in range(len(frame.s))]
    return polys, [Fraction(s, frame.den) for s in frame.s]


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


def _line_scan(walls, ties, p: FracVec, d: FracVec) -> list[Fraction] | None:
    """The ends lo < hi of the open interval of t where the line p + t d is
    interior, with the ties' crossings between them, in increasing order;
    None when the line misses the interior.  A row (w, r) meets the line at
    t = (r - <w, p>)/<w, d>: a facet wall (v_j, -lambda_j) bounds t from
    below where it rises along d and from above where it falls, and drops
    the line where it is parallel with <w, p> <= r."""

    def crossings(rows):
        return [(_dot(w, d), r - _dot(w, p)) for *w, r in rows]

    lo, hi = [], []
    for slope, gap in crossings(walls):
        if slope:
            (lo if slope > 0 else hi).append(gap / slope)
        elif gap >= 0:
            return None
    if not lo or not hi or max(lo) >= min(hi):
        return None  # unbounded lines cannot occur inside a compact polytope
    a, b = max(lo), min(hi)
    breaks = {gap / slope for slope, gap in crossings(ties) if slope}
    return [a, *sorted(t for t in breaks if a < t < b), b]


def tropical_candidates(
    potential: Potential,
) -> tuple[list[FracVec], list[TropicalCell]]:
    """Isolated candidate points and positive-dimensional candidate cells.

    Each pair of terms of an equation, with their valuations at u = 0,
    gives one affine equation in u where the two valuations agree; a choice
    of one pair equation per critical equation is solved exactly, and the
    solutions are kept where ``balanced_at`` holds."""
    frame = _Frame(potential, (0,) * potential.polytope.dim)
    den = frame.den
    # the tie <a - b, u> = (k_b - k_a)/den of a pair of terms, as the
    # primitive integer vector (den (a - b), k_b - k_a) whose first nonzero
    # entry (a != b: terms are merged) is positive; proportional ties give
    # one vector, kept where it first appears
    pair_eqs: list[list[tuple[int, ...]]] = []
    for i in range(len(frame.s)):
        terms = [(a, ks[0]) for a, ks, _ in frame.terms if a[i]]
        seen: dict[tuple[int, ...], None] = {}
        for (a, ka), (b, kb) in itertools.combinations(terms, 2):
            tie = [den * (x - y) for x, y in zip(a, b)] + [kb - ka]
            g = math.gcd(*tie) * (1 if next(x for x in tie if x) > 0 else -1)
            seen[tuple(x // g for x in tie)] = None
        pair_eqs.append(list(seen))

    points: dict[FracVec, None] = {}
    subspaces: dict[tuple, None] = {}
    for combo in itertools.product(*pair_eqs):
        sol = frac_solve([tie[:-1] for tie in combo], [tie[-1] for tie in combo])
        if sol is None:
            continue
        particular, nullspace = sol
        if not nullspace:
            points[tuple(particular)] = None
        else:
            subspaces[canonical_affine(particular, nullspace)] = None

    candidates = {u: None for u in points if balanced_at(potential, u)}
    cells: list[TropicalCell] = []
    if any(len(basis) == 1 for basis, _ in subspaces):  # the line scan's rows
        walls = [(*f.normal, -f.constant) for f in potential.polytope.facets]
        ties = dict.fromkeys(itertools.chain(*pair_eqs))  # each distinct tie once

    for basis, particular in subspaces:
        if len(basis) == 1:
            d = basis[0]
            edges = _line_scan(walls, ties, particular, d)
            if edges is None:
                continue
            for t in edges[1:-1]:
                u = tuple(p + t * x for p, x in zip(particular, d))
                if balanced_at(potential, u):
                    candidates.setdefault(u, None)
            for a_t, b_t in zip(edges, edges[1:]):
                mid = (a_t + b_t) / 2
                u = tuple(p + mid * x for p, x in zip(particular, d))
                if balanced_at(potential, u):
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
                if balanced_at(potential, u):
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


# -- lifting ------------------------------------------------------------------


def _residual_valuation(den: int, ys: np.ndarray, res: np.ndarray) -> Fraction | float:
    """Least exponent k/den at which a residual array has a coefficient above
    rounding noise; ``inf`` when none has.

    Float error in a residual coefficient at slot k scales with the products
    cancelled there, so its noise level is a small multiple of eps_coeff
    times the largest b(k1)*b(k2) with k1 + k2 = k, where b is the running
    max of |coefficient| over the solution arrays ``ys`` (as wide as
    ``res``), floored at 1.  A slot holding NaN or infinity is content.
    """
    rel = max(10 * get_config().eps_coeff, 1e-11)
    b = np.maximum.accumulate(np.maximum(np.abs(ys).max(axis=0), 1.0))
    size = np.abs(res).max(axis=0)
    for k in np.flatnonzero(~(size <= rel)):  # the floor is at least rel
        noise = rel * (b[: k + 1] * b[k::-1]).max()
        if not (np.isfinite(size[k]) and size[k] <= noise):
            return Fraction(int(k), den)
    return INF


def _is_degenerate(jac: np.ndarray) -> np.ndarray:
    """For each matrix of a (K, n, n) stack: |det| <= eps_degenerate times
    the product of its row maxima."""
    scale = np.prod(np.abs(jac).max(axis=2), axis=1)
    bound = get_config().eps_degenerate * np.maximum(scale, 1e-30)
    return np.abs(np.linalg.det(jac)) <= bound


def lambda_solve(jac: np.ndarray, rhs: np.ndarray, inv0: np.ndarray) -> np.ndarray:
    """Solve jac . delta = rhs modulo T^W order by order, row by row of a
    (K, n, n, W) and a (K, n, W) array whose slot k holds the coefficient of
    T^(k/D): delta_m = J_0^-1 (rhs_m - sum_{k=1..m} J_k delta_{m-k}),
    J_k = jac[..., k], with ``inv0`` the (K, n, n) stack of the J_0^-1.  One
    pass over the slots serves every row."""
    rows, n, width = rhs.shape
    higher = jac[..., 1:].transpose(0, 1, 3, 2).reshape(rows, n, -1)  # [J_1 | J_2 | ...]
    rev = np.zeros((rows, width * n, 1), complex)  # block width-1-m holds delta_m
    for m in range(width):
        acc = rhs[:, :, m, None] - higher[:, :, : m * n] @ rev[:, (width - m) * n :]
        rev[:, (width - 1 - m) * n : (width - m) * n] = inv0 @ acc
    return rev.reshape(rows, width, n)[:, ::-1].transpose(0, 2, 1)


def _unit_inverse(p: np.ndarray) -> np.ndarray:
    """1/p to the length of p for p[0] = 1, by Newton doubling (Brent-Kung):
    g known modulo T^k becomes g(2 - pg) modulo T^2k."""
    g, k = np.ones(1, complex), 1
    while k < len(p):
        k = min(2 * k, len(p))
        e = -np.convolve(p[:k], g)[:k]
        e[0] += 2
        g = np.convolve(g, e)[:k]
    return g


class _Lattice:
    """The frame at u (``_Frame``) on one exponent lattice (1/den)Z, slot k
    holding T^(k/den), for the Newton lift.

    ``order`` is the order asked for, capped at the least relative
    truncation (truncation order minus valuation) of a coefficient of a term
    with a != 0: past it the input does not determine the equations.  den is
    the least common denominator of the order and the frame's exponents
    below each term's leading power plus the order; size = order*den.  Each
    term c_a y^a keeps its exponent vector and the slot ``place`` of its
    leading T-power counted from the least one, ``low``; ``base[r, t]``
    holds the value c_a y0^a of term t at seed r of ``roots`` over that
    power (size slots), NaN when a power of the seed leaves the float
    range.  The shift s_i (``shifts[i]``) is the frame's s_i on this
    lattice, and equation i starts at ``starts[i]`` = s_i - low.
    ``weights`` has a row of ones, then the rows a_i and a_i a_j
    (j = 1..n) of each i in turn."""

    def __init__(self, potential: Potential, u, roots, order: Fraction):
        terms = potential.poly.terms
        known = [c.trunc - c.valuation() for a, c in terms.items() if any(a) and c.trunc is not None]
        order = min([order, *known])
        fr = _Frame(potential, u)
        big = math.lcm(order.denominator, fr.den)
        size = order.numerator * (big // order.denominator)
        frame = []
        for a, ks, cs in fr.terms:
            ks = np.array(ks) * (big // fr.den)
            cut = int(np.searchsorted(ks, ks[0] + size))
            frame.append((a, ks[:cut], cs[:cut]))
        g = math.gcd(big, size, *(int(k) for _, ks, _ in frame for k in ks))
        self.order, self.den, self.size = order, big // g, size // g
        self.shifts = tuple(s * (big // fr.den) // g for s in fr.s)
        self.low = min(self.shifts)
        self.exps = [a for a, _, _ in frame]
        self.place = [int(ks[0]) // g - self.low for _, ks, _ in frame]
        # the frame as one polynomial in y and the slot variable: c T^k y^a
        # keyed (a, k), k counted from its term's leading slot
        poly = {(*a, int(k - ks[0]) // g): c for a, ks, cs in frame for k, c in zip(ks, cs)}
        at = [t for t, (_, ks, _) in enumerate(frame) for _ in ks], [key[-1] for key in poly]
        self.base = np.zeros((len(roots), len(frame), self.size), complex)
        for row, root in zip(self.base, roots):
            try:
                row[at] = [v for _, v in _term_values(poly, [complex(y) for y in root])]
            except (OverflowError, ZeroDivisionError):  # a power past the float range
                row[:] = np.nan
        am = np.array(self.exps, dtype=float)
        rows = np.einsum("ai,aj->ija", am, np.hstack([np.ones((len(am), 1)), am]))
        self.weights = np.vstack([np.ones(len(am)), rows.reshape(-1, len(am))])
        self.starts = [s - self.low for s in self.shifts]


def _power(units: np.ndarray, powers: dict, i: int, e: int) -> np.ndarray:
    """(1 + x_i)^e modulo the width of ``units`` (the rows 1 + x_i), memoised
    in ``powers``: negative powers are powers of one inverse."""
    if (i, e) not in powers:
        step = 1 if e > 0 else -1
        powers[i, e] = (
            units[i] if e == 1 else _unit_inverse(units[i]) if e == -1
            else np.convolve(_power(units, powers, i, e - step),
                             _power(units, powers, i, step))[: units.shape[1]]
        )
    return powers[i, e]


def _term_arrays(lat: _Lattice, rows: np.ndarray, x: np.ndarray, width: int) -> np.ndarray:
    """The term values c_a y^a at y = y0 (1 + x) over their leading T-power,
    modulo T^width in slots, one row per seed ``rows`` of the lattice and
    its row of x: the seed values times powers of 1 + x_i, each product a
    direct convolution."""
    out = np.empty((len(rows), len(lat.exps), width), complex)
    for r, units, terms in zip(rows, x[:, :, :width] + np.eye(1, width), out):
        powers: dict[tuple[int, int], np.ndarray] = {}
        for t, a, o in zip(lat.base[r], lat.exps, terms):
            t = t[:width]
            for i, e in enumerate(a):
                if e:
                    t = np.convolve(t, _power(units, powers, i, e))[:width]
            o[:] = t
    return out


def _system(lat: _Lattice, terms: np.ndarray, width: int):
    """Residuals r_i = T^-s_i sum_a a_i T_a, log-Jacobian J_ij = T^-s_i
    sum_a a_i a_j T_a and the critical value T^-low sum_{a != 0} T_a, modulo
    T^width, for each row of a (K, terms, >= width) array of term values:
    the rows of ``lat.weights`` applied to the term arrays, each placed at
    its leading slot, in one matrix product over all rows.  Returns (K, n, W),
    (K, n, n, W) and (K, W) arrays."""
    g = np.zeros((len(lat.place), len(terms), max(lat.starts + lat.place) + width), complex)
    for row, t, p in zip(g, terms.transpose(1, 0, 2), lat.place):
        row[:, p : p + width] = t[:, :width]
    sums = (lat.weights @ g.reshape(len(g), -1)).reshape(len(lat.weights), *g.shape[1:])
    eqs = sums[1:].reshape(len(lat.starts), -1, *g.shape[1:])
    blocks = np.array([eqs[i, ..., o : o + width] for i, o in enumerate(lat.starts)])
    blocks = blocks.transpose(2, 0, 1, 3)
    return blocks[:, :, 0], blocks[:, :, 1:], sums[0, :, :width]


def _scalar(arr: np.ndarray, den: int, shift: int = 0) -> NovikovScalar:
    """sum_k arr[k] T^((k + shift)/den) modulo T^((len(arr) + shift)/den),
    pruned at eps_coeff."""
    keep = np.flatnonzero(np.abs(arr) > get_config().eps_coeff)
    return NovikovScalar.from_lattice(
        den, (keep + shift).tolist(), arr[keep].tolist(), len(arr) + shift
    )


def _minors_det(jac: np.ndarray) -> np.ndarray:
    """det of an (n, n, W) array of series modulo T^W, by expansion over the
    minors of the leading rows on each column subset: n 2^(n-1) truncated
    products, each coefficient's rounding relative to its own summands."""
    n, _, width = jac.shape
    minors = {0: np.eye(1, width, dtype=complex)[0]}  # column bitmask -> minor
    for k in range(n):
        grown: dict[int, np.ndarray] = {}
        for cols, m in minors.items():
            for j in range(n):
                if cols >> j & 1:
                    continue
                # row k is the last row of the minor on cols + {j}; the sign
                # is (-1)^(k + position of column j in it) = (-1)^(columns after j)
                t = np.convolve(jac[k, j], m)[:width]
                key = cols | 1 << j
                if bin(cols >> j).count("1") % 2:
                    t = -t
                grown[key] = grown[key] + t if key in grown else t
        minors = grown
    return minors[(1 << n) - 1]


@dataclass(eq=False)
class LatticeSystem:
    """The lift's final full-width system at its point, on the lift's lattice
    (slot k holds T^(k/den)): the log-Jacobian J_ij = T^-s_i theta_i theta_j PO
    and the critical value T^-low sum_{a != 0} T_a, modulo T^order.  The
    log-Hessian is H_ij = T^(s_i) J_ij, so Z = det H = T^(sum s_i) det J."""

    den: int
    shifts: tuple[int, ...]
    low: int
    jac: np.ndarray
    value: np.ndarray

    @cached_property
    def det(self) -> np.ndarray:
        return _minors_det(self.jac)

    def z(self) -> NovikovScalar:
        return _scalar(self.det, self.den, sum(self.shifts))

    def z_inverse(self) -> NovikovScalar:
        d = self.det
        return _scalar(_unit_inverse(d / d[0]) / d[0], self.den, -sum(self.shifts))

    def critical_value(self) -> NovikovScalar:
        """Without the potential's constant term, which the lattice leaves out."""
        return _scalar(self.value, self.den, self.low)


Lift = tuple[tuple[NovikovScalar, ...], Fraction | float, LatticeSystem]


def newton_lift(
    potential: Potential,
    u,
    roots,
    order: Fraction | None = None,
) -> list[Lift | SingularInitialJacobian | NoConvergence]:
    """Lift the initial torus roots at candidate u to series solutions of
    the critical system modulo T^order, in the frame centered at u: one
    entry per root, in order.  A lifted root gives its series, the final
    residual valuation (a certificate that it reaches the order) and the
    final system (``LatticeSystem``), which carries the point's residue
    data; a root that does not lift gives the SingularInitialJacobian or
    NoConvergence that says why.  The order is capped where the potential's
    coefficients stop being known (``_Lattice``).

    All roots run on one exponent lattice (``_Lattice``), built once from
    the potential and u, one row per root, and each carries
    y_i = y0_i (1 + x_i).  A seed is not a root (NoConvergence) when a
    coordinate is zero or not finite, which is refused before anything is
    evaluated, or when its initial equations fail the solver's cut
    |sum a_i T_a| <= EVAL_REL sum |a_i T_a| (``polysolve._is_root``).  The
    seeds' system gives each other root's leading Jacobian J_0, its
    degeneracy test (SingularInitialJacobian), and its seed residual
    valuation v (NoConvergence when v <= 0: not a root).  A
    seed with v >= order is returned as it is.  Otherwise each Newton step
    at least doubles v (Hensel), so the roots of one v step together on the
    windows 2v, 4v, ... up to the order, with ``lambda_solve`` from each
    row's inverse of J_0, evaluating the terms once per step, to the next
    window only.  A row whose step leaves inf or NaN in x, its residual or
    its Jacobian stops there (NoConvergence: the Newton steps overflow), and
    so does one whose final residual has content below the order; the other
    rows go on unchanged.
    """
    e_order = Fraction(order) if order is not None else get_config().truncation_order
    if e_order is None or e_order <= 0:
        raise ValueError("newton_lift needs a positive finite order")
    if not len(roots):
        return []
    seed = np.array(roots, complex)
    # a seed off the torus is refused unevaluated: its row holds y = 1
    torus = np.isfinite(seed).all(axis=1) & (seed != 0).all(axis=1)
    lat = _Lattice(potential, u, np.where(torus[:, None], seed, 1), e_order)
    e_order, den = lat.order, lat.den
    # the solver's cut on each seed's initial equations: |sum a_i T_a| <=
    # EVAL_REL sum |a_i T_a| over the terms at the equation's leading power;
    # a seed whose terms leave the float range fails it
    initial = np.equal.outer(lat.starts, lat.place) * np.abs(np.array(lat.exps)).T
    with np.errstate(over="ignore", invalid="ignore"):
        res, jac, value = _system(lat, lat.base, lat.size)
        mag = np.abs(lat.base[:, :, 0]) @ initial.T
    cut = torus & (np.isfinite(mag) & (np.abs(res[..., 0]) <= EVAL_REL * mag)).all(axis=1)
    out: list = [None] * len(seed)
    for r in np.flatnonzero(~cut):
        why = "fails the initial equations" if torus[r] else "is off the torus"
        out[r] = NoConvergence(f"the seed {why}; not a root")
    groups: dict[Fraction, list[int]] = {}
    kept = np.flatnonzero(cut)
    for r, degenerate in zip(kept, _is_degenerate(jac[kept, :, :, 0])):
        if degenerate:
            out[r] = SingularInitialJacobian("leading Jacobian is singular; cannot lift")
            continue
        w = _residual_valuation(den, seed[r, :, None] * np.eye(1, lat.size), res[r])
        if w <= 0:
            out[r] = NoConvergence(f"initial root has residual of valuation {w}; not a root")
        elif w >= e_order:
            ys = tuple(NovikovScalar.monomial(0, c, trunc=e_order) for c in roots[r])
            out[r] = ys, w, LatticeSystem(den, lat.shifts, lat.low, jac[r], value[r])
        else:
            groups.setdefault(w, []).append(r)

    for v, group in groups.items():
        rows = np.array(group)
        w, width = int(v * den), min(int(2 * v * den), lat.size)
        inv0 = np.linalg.inv(jac[rows, :, :, 0])
        res_g, jac_g = res[rows, :, :width], jac[rows, :, :, :width]
        x = np.zeros((len(rows), seed.shape[1], lat.size), complex)
        with np.errstate(over="ignore", invalid="ignore"):
            while w < lat.size and len(rows):
                # the residual is O(T^w), so this step is exact modulo T^(2w) (Hensel)
                w = width
                delta = lambda_solve(jac_g, -res_g, inv0)
                conv = [
                    [np.convolve(a[:w], b)[:w] for a, b in zip(xr, dr)]
                    for xr, dr in zip(x, delta)
                ]
                x[:, :, :w] += delta + conv
                width = min(2 * w, lat.size)
                res_g, jac_g, value_g = _system(lat, _term_arrays(lat, rows, x, width), width)
                ok = (
                    np.isfinite(x).all(axis=(1, 2))
                    & np.isfinite(res_g).all(axis=(1, 2))
                    & np.isfinite(jac_g).all(axis=(1, 2, 3))
                )
                for r in rows[~ok]:
                    out[r] = NoConvergence("the Newton steps overflow")
                rows, x, inv0 = rows[ok], x[ok], inv0[ok]
                res_g, jac_g, value_g = res_g[ok], jac_g[ok], value_g[ok]
        x[:, :, 0] += 1
        x *= seed[rows, :, None]
        for r, xr, rr, jr, vr in zip(rows, x, res_g, jac_g, value_g):
            final = _residual_valuation(den, xr, rr)
            if final < e_order:
                out[r] = NoConvergence(
                    f"residual valuation {final} is below the order {e_order} "
                    f"after the Newton steps"
                )
            else:
                ys = tuple(_scalar(y, den) for y in xr)
                out[r] = ys, final, LatticeSystem(den, lat.shifts, lat.low, jr, vr)
    return out


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
    # the lift's final system, from which the residue data are read
    system: LatticeSystem | None = field(default=None, repr=False, compare=False)

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
    """Full search: tropical candidates, initial roots, Newton lifts.  Candidates,
    their roots and the tropical cells come sorted: the report is built in order."""
    candidates, cells = tropical_candidates(potential)
    points: list[CriticalPoint] = []
    eliminants: list[EliminantRecord] = []
    zero_cells: list[TropicalCell] = []
    n = potential.polytope.dim
    for u in candidates:
        polys, _ = initial_system(potential, u)
        try:
            sol = solve_torus_system(polys, n)
        except PositiveDimensionalInitialLocus as exc:
            note = f"positive-dimensional initial locus: {exc}"
            zero_cells.append(TropicalCell(dimension=0, sample_u=u, note=note))
            continue
        if sol.eliminant is not None and len(sol.eliminant) > 1:
            eliminants.append(EliminantRecord(u, sol.eliminant))
        lifts = newton_lift(potential, u, sol.roots, order)
        for root, mult, lift in zip(sol.roots, sol.multiplicities, lifts):
            # a degenerate root takes its multiplicity from the eliminant; a
            # simple root whose lift fails only misses its series
            degenerate = isinstance(lift, SingularInitialJacobian)
            ys, resval, system = (None, None, None) if isinstance(lift, Exception) else lift
            points.append(
                CriticalPoint(
                    u=u,
                    y_initial=root,
                    y_local=ys,
                    multiplicity=mult if degenerate else 1,
                    nondegenerate=not degenerate,
                    residual_valuation=resval,
                    system=system,
                )
            )
    return CriticalReport(points=points, cells=zero_cells + cells, eliminants=eliminants)
