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
elimination (``polysolve``) and lifts every initial root to a Novikov
series by Newton steps on dense arrays over one exponent lattice, the
frame at u put on (1/D)Z, each step solved order by order from one
inverse of the leading Jacobian, to the order the potential's coefficients
determine.  The lift's final full-width system stays with the point
(``LatticeSystem``), and the residue data are read from it.  The lift's
leading Jacobian decides degeneracy.  A root where it is invertible is
simple, and stays in the report without a series when its lift fails
numerically (NoConvergence); at a degenerate root the lift raises
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
from .polysolve import CPoly, solve_torus_system

ExpVec = tuple[int, ...]
FracVec = tuple[Fraction, ...]


# -- the frame at u -----------------------------------------------------------


class _Frame:
    """The terms of the potential in the frame centered at u, on integers.

    Each term c_a y^a of ``potential.poly``, the constant one included,
    keeps its exponent vector a, the numerators over ``den`` of the
    exponents of c_a T^<a, u> (increasing) and its coefficients; den is the
    least common denominator of u and the coefficients' exponents.  ``s[i]``
    is the least leading numerator over the terms with a_i != 0: the
    valuation of y_i dPO/dy_i at u, times den (None when no term has
    a_i != 0)."""

    def __init__(self, potential: Potential, u):
        uf = [Fraction(x) for x in u]
        terms = potential.poly.terms
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
    subspaces: dict[tuple, tuple[FracVec, list[FracVec]]] = {}
    for combo in itertools.product(*pair_eqs):
        sol = frac_solve([tie[:-1] for tie in combo], [tie[-1] for tie in combo])
        if sol is None:
            continue
        particular, nullspace = sol
        if not nullspace:
            points[tuple(particular)] = None
        else:
            key = canonical_affine(particular, nullspace)
            subspaces.setdefault(key, (key[1], [tuple(v) for v in key[0]]))

    candidates = {u: None for u in points if balanced_at(potential, u)}
    cells: list[TropicalCell] = []

    for particular, basis in subspaces.values():
        if len(basis) == 1:
            d = basis[0]
            interval = _line_interval(potential, particular, d)
            if interval is None:
                continue
            lo, hi = interval
            # where the line crosses the tie of a pair of terms
            breaks: set[Fraction] = set()
            for *row, rhs in itertools.chain(*pair_eqs):
                slope = sum(x * z for x, z in zip(row, d))
                if slope != 0:
                    t = (rhs - sum(x * y for x, y in zip(row, particular))) / slope
                    if lo < t < hi:
                        breaks.add(t)
            ts = sorted(breaks)
            for t in ts:
                u = _point_on(particular, d, t)
                if balanced_at(potential, u):
                    candidates.setdefault(u, None)
            edges = [lo] + ts + [hi]
            for a_t, b_t in zip(edges, edges[1:]):
                mid = (a_t + b_t) / 2
                u = _point_on(particular, d, mid)
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
    ``res``), floored at 1.
    """
    rel = max(10 * get_config().eps_coeff, 1e-11)
    b = np.maximum.accumulate(np.maximum(np.abs(ys).max(axis=0), 1.0))
    size = np.abs(res).max(axis=0)
    for k in np.flatnonzero(size > rel):  # the floor is at least rel
        if size[k] > rel * (b[: k + 1] * b[k::-1]).max():
            return Fraction(int(k), den)
    return INF


def _is_degenerate(jac: np.ndarray) -> bool:
    """|det jac| <= eps_degenerate times the product of its row maxima."""
    scale = np.prod(np.abs(jac).max(axis=1))
    return abs(np.linalg.det(jac)) <= get_config().eps_degenerate * max(scale, 1e-30)


def lambda_solve(jac: np.ndarray, rhs: np.ndarray, inv0: np.ndarray) -> np.ndarray:
    """Solve jac . delta = rhs modulo T^W order by order, for an (n, n, W)
    and an (n, W) array whose slot k holds the coefficient of T^(k/D):
    delta_m = J_0^-1 (rhs_m - sum_{k=1..m} J_k delta_{m-k}), J_k = jac[..., k],
    with ``inv0`` = J_0^-1."""
    n, width = rhs.shape
    higher = jac[:, :, 1:].transpose(0, 2, 1).reshape(n, -1)  # [J_1 | J_2 | ...]
    rev = np.zeros((width, n), complex)  # row width-1-m holds delta_m
    for m in range(width):
        acc = rhs[:, m] - higher[:, : m * n] @ rev[width - m :].ravel()
        rev[width - 1 - m] = inv0 @ acc
    return rev[::-1].T


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
    (the constant term's included) below each term's leading power plus the
    order; size = order*den.  Each term c_a y^a with a != 0 keeps its
    exponent vector, its value c_a y0^a at the seed over its leading T-power
    (size slots) and the slot ``place`` of that power counted from the least
    one, ``low``.  The shift s_i (``shifts[i]``) is the frame's s_i on this
    lattice, and equation i starts at ``starts[i]`` = s_i - low.
    ``weights`` has a row of ones, then the rows a_i and a_i a_j
    (j = 1..n) of each i in turn."""

    def __init__(self, potential: Potential, u, y0, order: Fraction):
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
        ys = [complex(y) for y in y0]
        self.exps, self.base, self.place = [], [], []
        for a, ks, cs in frame:
            if any(a):
                for y, e in zip(ys, a):
                    if e:
                        p = y**e if e > 0 else (1 / y) ** -e
                        cs = [c * p for c in cs]
                self.base.append(np.zeros(self.size, complex))
                self.base[-1][(ks - ks[0]) // g] = cs
                self.exps.append(a)
                self.place.append(int(ks[0]) // g - self.low)
        am = np.array(self.exps, dtype=float)
        rows = np.einsum("ai,aj->ija", am, np.hstack([np.ones((len(am), 1)), am]))
        self.weights = np.vstack([np.ones(len(am)), rows.reshape(-1, len(am))])
        self.starts = [s - self.low for s in self.shifts]


def _term_arrays(lat: _Lattice, x: np.ndarray, width: int) -> list[np.ndarray]:
    """The term values c_a y^a at y = y0 (1 + x) over their leading T-power,
    modulo T^width in slots: the seed values times powers of 1 + x_i, the
    negative ones powers of one inverse per variable."""
    units = x[:, :width] + np.eye(1, width)
    powers: dict[tuple[int, int], np.ndarray] = {}

    def power(i: int, e: int) -> np.ndarray:
        if (i, e) not in powers:
            step = 1 if e > 0 else -1
            powers[i, e] = (
                units[i] if e == 1 else _unit_inverse(units[i]) if e == -1
                else np.convolve(power(i, e - step), power(i, step))[:width]
            )
        return powers[i, e]

    out = []
    for t, a in zip(lat.base, lat.exps):
        t = t[:width]
        for i, e in enumerate(a):
            if e:
                t = np.convolve(t, power(i, e))[:width]
        out.append(t)
    return out


def _system(lat: _Lattice, terms, width: int):
    """Residuals r_i = T^-s_i sum_a a_i T_a, log-Jacobian J_ij = T^-s_i
    sum_a a_i a_j T_a and the critical value T^-low sum_{a != 0} T_a, modulo
    T^width: the rows of ``lat.weights`` applied to the term arrays, each
    placed at its leading slot, in one matrix product."""
    g = np.zeros((len(terms), max(lat.starts + lat.place) + width), complex)
    for row, t, p in zip(g, terms, lat.place):
        row[p : p + width] = t[:width]
    sums = lat.weights @ g
    rows = sums[1:].reshape(len(lat.starts), -1, sums.shape[1])
    blocks = np.array([rows[i, :, o : o + width] for i, o in enumerate(lat.starts)])
    return blocks[:, 0], blocks[:, 1:], sums[0, :width]


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


def newton_lift(
    potential: Potential,
    u,
    y0: tuple[complex, ...],
    order: Fraction | None = None,
) -> tuple[tuple[NovikovScalar, ...], Fraction | float, LatticeSystem]:
    """Lift an initial torus root at candidate u to a series solution of the
    critical system modulo T^order, in the frame centered at u, with the
    final residual valuation (a certificate that it reaches the order) and
    the final system (``LatticeSystem``), which carries the point's residue
    data.  The order is capped where the potential's coefficients stop being
    known (``_Lattice``).

    The whole lift runs on one exponent lattice (``_Lattice``), built from
    the potential and u directly, and carries y_i = y0_i (1 + x_i).  The
    seed's system gives the leading Jacobian J_0, the one degeneracy test
    (SingularInitialJacobian), and the seed's residual valuation v
    (NoConvergence when v <= 0: not a root).  A seed with v >= order is
    returned as it is.  Otherwise each Newton step at least doubles v
    (Hensel), so the steps solve on the windows 2v, 4v, ... up to the order
    with ``lambda_solve`` from one inverse of J_0, each evaluating the terms
    once, to the next window only.  NoConvergence is raised when the final
    residual has content below the order, or when a step overflows.
    """
    e_order = Fraction(order) if order is not None else get_config().truncation_order
    if e_order is None or e_order <= 0:
        raise ValueError("newton_lift needs a positive finite order")
    lat = _Lattice(potential, u, y0, e_order)
    e_order = lat.order
    res, jac, value = _system(lat, lat.base, lat.size)
    if _is_degenerate(jac[:, :, 0]):
        raise SingularInitialJacobian("leading Jacobian is singular; cannot lift")

    seed = np.array(y0, complex)[:, None]
    w = _residual_valuation(lat.den, seed * np.eye(1, lat.size), res)
    if w <= 0:
        raise NoConvergence(
            f"initial root has residual of valuation {w}; not a root"
        )
    if w >= e_order:
        ys = tuple(NovikovScalar.monomial(0, c, trunc=e_order) for c in y0)
        return ys, w, LatticeSystem(lat.den, lat.shifts, lat.low, jac, value)
    w, width = int(w * lat.den), min(int(2 * w * lat.den), lat.size)
    inv0 = np.linalg.inv(jac[:, :, 0])
    res, jac = res[:, :width], jac[:, :, :width]
    x = np.zeros((len(y0), lat.size), complex)
    try:
        with np.errstate(over="raise", invalid="raise"):
            while w < lat.size:
                # the residual is O(T^w), so this step is exact modulo T^(2w) (Hensel)
                w = width
                delta = lambda_solve(jac, -res, inv0)
                conv = [np.convolve(a[:w], b)[:w] for a, b in zip(x, delta)]
                x[:, :w] += delta + conv
                width = min(2 * w, lat.size)
                res, jac, value = _system(lat, _term_arrays(lat, x, width), width)
    except FloatingPointError as exc:
        raise NoConvergence(f"the Newton steps overflow ({exc})") from None
    x[:, 0] += 1
    x *= seed
    final = _residual_valuation(lat.den, x, res)
    if final < e_order:
        raise NoConvergence(
            f"residual valuation {final} is below the order {e_order} "
            f"after the Newton steps"
        )
    ys = tuple(_scalar(y, lat.den) for y in x)
    return ys, final, LatticeSystem(lat.den, lat.shifts, lat.low, jac, value)


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
            try:
                ys, resval, system = newton_lift(potential, u, root, e_order)
            except SingularInitialJacobian:
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
            except NoConvergence:  # still a simple root; only its series is missing
                ys = resval = system = None
            points.append(
                CriticalPoint(
                    u=u,
                    y_initial=root,
                    y_local=ys,
                    multiplicity=1,
                    nondegenerate=True,
                    residual_valuation=resval,
                    system=system,
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
