"""Leading term equations and the balancing test for torus fibers.

At an interior point u the support values ell_j(u) sort into levels
S_1 < S_2 < ... .  The normals of the first levels span larger and larger
sublattices; K is the first level at which they span everything.  An
integral basis adapted to this filtration (each initial segment is a
basis of the saturation of the corresponding normal span) turns the
level-wise leading parts of the potential into honest Laurent polynomials
in new variables w_1..w_n, introduced d(l) at a time.  The leading term
system asks each level's part to be critical in its own new variables;
the fiber at u is strongly balanced (bulk-balanced for nontrivial bulk
coefficients) exactly when that cascade has a solution with every
coordinate nonzero.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from ._intlinalg import det_int, extend_basis_in_lattice, frac_solve, saturation_basis
from .config import get_config
from .errors import (
    IntegralityFailure,
    LevelUnderdetermined,
    NotInterior,
    PositiveDimensionalInitialLocus,
)
from .laurent import Potential
from .novikov import format_fraction
from .polysolve import CPoly, normalize, solve_torus_system, univariate_roots

FracVec = tuple[Fraction, ...]


@dataclass(frozen=True)
class Level:
    """Facets sharing one support value at the base point."""

    value: Fraction
    facet_indices: tuple[int, ...]
    new_rank: int  # rank gained over the previous levels

    def to_json_dict(self) -> dict:
        return {
            "value": format_fraction(self.value),
            "facets": list(self.facet_indices),
            "new_rank": self.new_rank,
        }


@dataclass(frozen=True)
class AdaptedFrame:
    """Filtration data and the adapted lattice basis at a point."""

    u: FracVec
    levels: tuple[Level, ...]
    depth: int  # number of levels K needed to span the whole lattice
    basis: tuple[tuple[int, ...], ...]  # rows e_1..e_n, det +-1
    inverse: tuple[tuple[int, ...], ...]  # matrix inverse of the basis rows

    @property
    def block_sizes(self) -> list[int]:
        return [lv.new_rank for lv in self.levels[: self.depth]]

    def blocks(self) -> list[range]:
        out = []
        start = 0
        for lv in self.levels[: self.depth]:
            out.append(range(start, start + lv.new_rank))
            start += lv.new_rank
        return out

    def coords(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Coordinates of an integer vector in the adapted basis."""
        n = len(self.basis)
        return tuple(
            sum(v[k] * self.inverse[k][i] for k in range(n)) for i in range(n)
        )

    def w_to_y(self, w: tuple[complex, ...]) -> tuple[complex, ...]:
        """Map adapted torus coordinates back to the standard frame."""
        n = len(self.basis)
        out = []
        for k in range(n):
            val = 1 + 0j
            for i in range(n):
                e = self.inverse[k][i]
                if e:
                    val *= w[i] ** e
            out.append(val)
        return tuple(out)

    def to_json_dict(self) -> dict:
        return {
            "u": [format_fraction(x) for x in self.u],
            "levels": [lv.to_json_dict() for lv in self.levels],
            "depth": self.depth,
            "basis": [list(row) for row in self.basis],
        }


def _group_levels(values) -> list:
    """Distinct values in increasing order, each with the ascending indices
    of the entries that hold it."""
    groups: dict = {}
    for j, v in enumerate(values):
        groups.setdefault(v, []).append(j)
    return sorted(groups.items())


def order_levels(potential: Potential, u) -> list[tuple[Fraction, list[int]]]:
    """Distinct support values at u in increasing order with facet indices."""
    values = potential.polytope.support_values(tuple(Fraction(x) for x in u))
    if any(v <= 0 for v in values):
        raise NotInterior(f"{u} is not an interior point")
    return _group_levels(values)


def adapted_frame(potential: Potential, u) -> AdaptedFrame:
    p = potential.polytope
    uf = tuple(Fraction(x) for x in u)
    n = p.dim
    grouped = order_levels(potential, uf)
    levels: list[Level] = []
    basis: list[tuple[int, ...]] = []
    cumulative: list[tuple[int, ...]] = []
    depth = 0
    for value, idxs in grouped:
        if depth:
            # the basis is full: later levels gain no rank
            levels.append(Level(value, tuple(idxs), 0))
            continue
        cumulative.extend(p.facets[j].normal for j in idxs)
        sat = saturation_basis(cumulative, n)
        gained = len(sat) - len(basis)
        levels.append(Level(value, tuple(idxs), gained))
        if gained > 0:
            basis = basis + extend_basis_in_lattice(basis, sat)
            if len(basis) == n:
                depth = len(levels)
    if depth == 0:
        raise IntegralityFailure("facet normals do not span the lattice")
    d = det_int(basis)
    if d not in (1, -1):
        raise IntegralityFailure(f"adapted basis has determinant {d}")
    inverse = _int_inverse(basis)
    return AdaptedFrame(
        u=uf,
        levels=tuple(levels),
        depth=depth,
        basis=tuple(basis),
        inverse=inverse,
    )


def _int_inverse(rows: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    n = len(rows)
    cols = []
    for i in range(n):
        sol = frac_solve(rows, [int(k == i) for k in range(n)])
        if sol is None:
            raise IntegralityFailure("adapted basis is singular")
        if any(x.denominator != 1 for x in sol[0]):
            raise IntegralityFailure("adapted basis inverse is not integral")
        cols.append([int(x) for x in sol[0]])
    return tuple(zip(*cols))


def leading_term_system(
    potential: Potential, u
) -> tuple[AdaptedFrame, list[CPoly]]:
    """Level-wise leading parts of the potential in adapted coordinates.

    Returns one Laurent polynomial per level up to the spanning depth,
    written in the w variables (full-length exponent vectors, nonzero only
    in the coordinates already introduced).  Correction terms whose
    valuation at u reaches into these levels are not supported and are
    ignored with a warning.
    """
    frame = adapted_frame(potential, u)
    p = potential.polytope
    leading = potential.bulk.leading()
    polys: list[CPoly] = []
    introduced = 0
    for lv in frame.levels[: frame.depth]:
        introduced += lv.new_rank
        poly: CPoly = {}
        for j in lv.facet_indices:
            c = frame.coords(p.facets[j].normal)
            if any(c[i] != 0 for i in range(introduced, p.dim)):
                raise IntegralityFailure(
                    f"facet {j} leaves the span of its level"
                )
            poly[c] = poly.get(c, 0j) + leading[j]
        polys.append(poly)
    if potential.corrections:
        _warn_reaching_corrections(
            potential,
            p.support_values(frame.u),
            frame.levels[frame.depth - 1].value,
        )
    return frame, polys


def _warn_reaching_corrections(
    potential: Potential, support, s_top, scale: int = 1
) -> None:
    """Warn once per correction term whose valuation at a point reaches
    the top leading level ``s_top``; the warning names the caller of the
    function that runs the test.

    ``support`` holds the point's support values; it and ``s_top`` may
    both be multiplied by one positive integer ``scale``.
    """
    for corr in potential.corrections:
        val = corr.extra_t * scale + sum(
            k * support[j] for j, k in enumerate(corr.z_exponents)
        )
        if val <= s_top:
            warnings.warn(
                "correction term reaches the leading levels at this point "
                "and is ignored by the leading term system",
                stacklevel=3,
            )


@dataclass
class LTEBranch:
    """One branch of the cascade: assigned values with None marking a
    variable that stayed free."""

    values: list
    note: str = ""


@dataclass
class LTEResult:
    frame: AdaptedFrame
    level_polys: list[CPoly]
    witnesses_w: list[tuple] = field(default_factory=list)
    free_masks: list[tuple[bool, ...]] = field(default_factory=list)
    status: str = "unsolvable"  # solvable | unsolvable | underdetermined

    def witnesses_y(self) -> list[tuple[complex, ...]]:
        """Witness points in the standard torus coordinates, free
        variables pinned to 1."""
        out = []
        for w in self.witnesses_w:
            filled = tuple(1 + 0j if x is None else x for x in w)
            out.append(self.frame.w_to_y(filled))
        return out

    def to_json_dict(self) -> dict:
        return {
            "frame": self.frame.to_json_dict(),
            "status": self.status,
            "witnesses_w": [
                [None if x is None else [x.real, x.imag] for x in w]
                for w in self.witnesses_w
            ],
            "witnesses_y": [
                [[z.real, z.imag] for z in w] for w in self.witnesses_y()
            ],
        }


def _theta(poly: CPoly, r: int) -> CPoly:
    out: CPoly = {}
    for a, c in poly.items():
        if a[r]:
            out[a] = out.get(a, 0j) + c * a[r]
    return out


def _substitute(
    poly: CPoly, values: list, block: range
) -> tuple[CPoly | None, bool]:
    """Replace assigned variables by their values, keeping block variables.

    Returns (reduced poly in block coordinates, hit_free) where hit_free
    notes a nonzero exponent on a variable that stayed free earlier.
    """
    out: CPoly = {}
    mag: dict[tuple[int, ...], float] = {}
    for a, c in poly.items():
        term = c
        for i, e in enumerate(a):
            if i in block or e == 0:
                continue
            v = values[i]
            if v is None:
                return None, True
            term *= v ** e
        key = tuple(a[i] for i in block)
        out[key] = out.get(key, 0j) + term
        mag[key] = mag.get(key, 0.0) + abs(term)
    # coefficients that cancel up to the roundoff of their summands are zero
    return {k: c for k, c in out.items() if abs(c) > 1e-9 * mag[k]}, False


def solve_lte(potential: Potential, u) -> LTEResult:
    """Run the level cascade and collect torus witnesses."""
    frame, polys = leading_term_system(potential, u)
    n = potential.polytope.dim
    blocks = frame.blocks()
    branches: list[LTEBranch] = [LTEBranch(values=[None] * n)]
    underdetermined = False
    for poly, block in zip(polys, blocks):
        eqs = [_theta(poly, r) for r in block]
        next_branches: list[LTEBranch] = []
        for br in branches:
            reduced: list[CPoly] = []
            hit_free = False
            for q in eqs:
                rq, free = _substitute(q, br.values, block)
                if free:
                    hit_free = True
                    break
                rq = normalize(rq)
                if rq:
                    reduced.append(rq)
            if hit_free:
                underdetermined = True
                continue
            if not reduced:
                next_branches.append(br)  # vacuous level: block vars stay free
                continue
            if any(len(q) == 1 for q in reduced):
                continue  # a surviving monomial equation kills the branch
            if len(block) == 1:
                roots = univariate_roots({a[0]: c for a, c in reduced[0].items()})
                roots = [
                    r
                    for r in roots
                    if all(
                        abs(sum(c * r ** a[0] for a, c in q.items())) <= 1e-8
                        for q in reduced[1:]
                    )
                ]
                for r in roots:
                    vals = br.values[:]
                    vals[block[0]] = r
                    next_branches.append(LTEBranch(values=vals))
                continue
            if len(reduced) < len(block):
                underdetermined = True
                continue
            try:
                sol = solve_torus_system(reduced, len(block))
            except PositiveDimensionalInitialLocus:
                underdetermined = True
                continue
            for root in sol.roots:
                vals = br.values[:]
                for i, r in zip(block, root):
                    vals[i] = r
                next_branches.append(LTEBranch(values=vals))
        branches = next_branches
    result = LTEResult(frame=frame, level_polys=polys)
    for br in branches:
        result.witnesses_w.append(tuple(br.values))
        result.free_masks.append(tuple(v is None for v in br.values))
    if result.witnesses_w:
        result.status = "solvable"
    elif underdetermined:
        result.status = "underdetermined"
    else:
        result.status = "unsolvable"
    return result


def is_strongly_balanced(potential: Potential, u) -> bool:
    """True when the leading term system has a torus solution at u.  With
    nontrivial bulk coefficients this is the bulk-balancing test."""
    res = solve_lte(potential, u)
    if res.status == "underdetermined":
        raise LevelUnderdetermined(
            f"cascade at {tuple(u)} leaves equations with free variables"
        )
    return res.status == "solvable"


_VERDICTS = {
    "solvable": "balanced",
    "unsolvable": "unbalanced",
    "underdetermined": "unknown",
}


def balanced_positions(
    potential: Potential,
    grid: int,
    extra: list | None = None,
) -> list[tuple[FracVec, str]]:
    """Scan an interior grid (plus optional extra points) and classify each
    point as balanced, unbalanced, or unknown.

    The verdict at u depends only on its level pattern: the facet indices
    grouped by support value, groups in increasing order of value.  The
    adapted frame, the level polynomials and the cascade read the groups
    and never the values or u, and the bulk coefficients enter only
    through their leading parts.  So the cascade runs once per pattern, on
    the first point in scan order that has it, and later points with that
    pattern take its verdict.  Support values are computed once per point,
    as integers over one common denominator.  The correction-term warning
    of ``leading_term_system`` depends on u itself and is tested at every
    point.
    """
    if grid < 1:
        raise ValueError(f"grid must be a positive integer, got {grid}")
    p = potential.polytope
    box = p.bounding_box()
    steps = [(hi - lo) / grid for lo, hi in box]
    extras = [tuple(Fraction(x) for x in u) for u in extra or []]
    den = math.lcm(
        *(lo.denominator for lo, _ in box),
        *(step.denominator for step in steps),
        *(f.constant.denominator for f in p.facets),
        *(x.denominator for u in extras for x in u),
    )

    def scaled(x: Fraction) -> int:
        return x.numerator * (den // x.denominator)

    facets = [(f.normal, scaled(f.constant)) for f in p.facets]
    axes = [
        [scaled(lo) + k * scaled(step) for k in range(1, grid)]
        for (lo, _), step in zip(box, steps)
    ]
    # numerators of the interior points -> their support values times den
    support: dict[tuple[int, ...], list[int]] = {}
    for num in itertools.chain(
        itertools.product(*axes), (tuple(map(scaled, u)) for u in extras)
    ):
        if num not in support:
            values = [sum(a * b for a, b in zip(v, num)) + c for v, c in facets]
            if all(x > 0 for x in values):
                support[num] = values

    known: dict[tuple[tuple[int, ...], ...], tuple[str, int]] = {}
    out: list[tuple[FracVec, str]] = []
    for num in sorted(support):
        u = tuple(Fraction(x, den) for x in num)
        levels = _group_levels(support[num])
        pattern = tuple(tuple(idxs) for _, idxs in levels)
        if pattern in known:
            verdict, depth = known[pattern]
            _warn_reaching_corrections(
                potential, support[num], levels[depth - 1][0], den
            )
        else:
            res = solve_lte(potential, u)
            verdict, depth = known[pattern] = (
                _VERDICTS[res.status],
                res.frame.depth,
            )
        out.append((u, verdict))
    return out
