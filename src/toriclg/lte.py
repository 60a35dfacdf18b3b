"""Leading term equations and the balancing test for torus fibers.

At an interior point u the support values ell_j(u) sort into levels
S_1 < S_2 < ... , grouped exactly on their integer numerators over one
denominator (``MomentPolytope._scaled_support``).  The normals of the
first levels span larger and larger sublattices; K is the first level at
which they span everything.  An integral basis adapted to this filtration
(each initial segment is a basis of the saturation of the corresponding
normal span) turns the level-wise leading parts of the potential into
honest Laurent polynomials in new variables w_1..w_n, introduced d(l) at
a time.  The leading term
system asks each level's part to be critical in its own new variables;
the fiber at u is strongly balanced (bulk-balanced for nontrivial bulk
coefficients) exactly when that cascade has a solution with every
coordinate nonzero.  Higher-order correction terms never enter the
system (see ``leading_term_system``), so the verdicts read only the facet
terms and their leading bulk coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# frac_solve is not called here; bench/tracer.py binds it in this module
from ._intlinalg import adapted_basis, frac_solve  # noqa: F401
from .errors import (
    IntegralityFailure,
    LevelUnderdetermined,
    NotInterior,
    PositiveDimensionalInitialLocus,
)
from .laurent import Potential
from .novikov import format_fraction
from .polysolve import EVAL_REL, CPoly, _term_values, solve_torus_system, substitute, univariate_roots

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
        """Map adapted torus coordinates back to the standard frame: y_k is
        the monomial in w whose exponents are row k of the inverse."""
        return tuple(t for _, t in _term_values(dict.fromkeys(self.inverse, 1 + 0j), w))

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


def adapted_frame(potential: Potential, u) -> AdaptedFrame:
    """The levels at u, grouped on the integer support values of the
    polytope (numerators over one denominator), and the adapted basis."""
    p = potential.polytope
    uf = tuple(Fraction(x) for x in u)
    values, den = p._scaled_support(uf)
    if any(v <= 0 for v in values):
        raise NotInterior(f"{uf} is not an interior point")
    grouped = _group_levels(values)
    ranks, basis, inverse = adapted_basis(
        [p.facets[j].normal for _, idxs in grouped for j in idxs], p.dim
    )
    ends = itertools.accumulate(len(idxs) for _, idxs in grouped)
    reached = [ranks[end - 1] for end in ends]  # the rank after each level
    if reached[-1] < p.dim:
        raise IntegralityFailure("facet normals do not span the lattice")
    return AdaptedFrame(
        u=uf,
        levels=tuple(
            Level(Fraction(value, den), tuple(idxs), r - q)
            for (value, idxs), r, q in zip(grouped, reached, [0, *reached])
        ),
        depth=reached.index(p.dim) + 1,
        basis=tuple(map(tuple, basis)),
        inverse=tuple(map(tuple, inverse)),
    )


def leading_term_system(
    potential: Potential, u
) -> tuple[AdaptedFrame, list[CPoly]]:
    """Level-wise leading parts of the potential in adapted coordinates.

    Returns one Laurent polynomial per level up to the spanning depth,
    written in the w variables (full-length exponent vectors, nonzero only
    in the coordinates already introduced).  Only the facet terms enter: a
    correction c T^rho prod z_j^{k_j} (rho > 0, k_j >= 0, c of valuation
    >= 0; ``build_potential`` checks all three) lies above ell_j(u) for
    every j with k_j > 0, so its exponent lies in the span of strictly lower
    levels and no level equation theta_r P_l sees it.
    """
    frame = adapted_frame(potential, u)
    p = potential.polytope
    leading = potential.bulk.leading()
    polys: list[CPoly] = []
    for lv in frame.levels[: frame.depth]:
        poly: CPoly = {}
        for j in lv.facet_indices:
            c = frame.coords(p.facets[j].normal)
            poly[c] = poly.get(c, 0j) + leading[j]
        polys.append(poly)
    return frame, polys


@dataclass
class LTEResult:
    frame: AdaptedFrame
    level_polys: list[CPoly]
    witnesses_w: list[tuple]  # None marks a coordinate that stayed free
    status: str  # solvable | unsolvable | underdetermined

    def witnesses_y(self) -> list[tuple[complex, ...]]:
        """Witness points in the standard torus coordinates, free
        variables set to 1."""
        return [
            self.frame.w_to_y(tuple(1 + 0j if x is None else x for x in w))
            for w in self.witnesses_w
        ]

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


def _theta(poly: CPoly, r: int, stop: int) -> CPoly:
    """theta_r poly on the first ``stop`` coordinates (the level's exponents
    vanish past its block)."""
    out: CPoly = {}
    for a, c in poly.items():
        if a[r]:
            out[a[:stop]] = out.get(a[:stop], 0j) + c * a[r]
    return out


def solve_lte(potential: Potential, u) -> LTEResult:
    """Run the level cascade and collect torus witnesses.  A variable left
    free by a vacuous level is pinned to 1 where a later level involves it;
    a pinned branch that finds no root makes the cascade underdetermined,
    since another value might have solved it."""
    frame, polys = leading_term_system(potential, u)
    n = potential.polytope.dim
    # one list of values per branch of the cascade, None marking a variable
    # that stayed free
    branches: list[list] = [[None] * n]
    underdetermined = False
    for poly, block in zip(polys, frame.blocks()):
        eqs = [_theta(poly, r, block.stop) for r in block]
        if any(len(q) == 1 for q in eqs):
            branches = []  # a monomial has no torus zero, whatever the values
            break
        involved = {i for q in eqs for a in q for i in range(block.start) if a[i]}
        next_branches: list[list] = []
        for br in branches:
            pinned = [i for i in involved if br[i] is None]
            br = [1 + 0j if i in pinned else x for i, x in enumerate(br)]
            # earlier levels' roots are numeric: what cancels to roundoff is zero
            reduced = [
                rq for q in eqs if (rq := substitute(q, br[: block.start], EVAL_REL))
            ]
            if not reduced:
                next_branches.append(br)  # vacuous level: block vars stay free
                continue
            if len(block) == 1:  # one equation per block variable
                roots = univariate_roots({a[0]: c for a, c in reduced[0].items()})
                solved = [(r,) for r in roots]
            else:
                try:
                    solved = solve_torus_system(reduced, len(block)).roots
                except PositiveDimensionalInitialLocus:
                    underdetermined = True
                    continue
            underdetermined |= bool(pinned) and not solved
            next_branches += [
                [*br[: block.start], *root, *br[block.stop :]] for root in solved
            ]
        branches = next_branches
    status = "solvable" if branches else "underdetermined" if underdetermined else "unsolvable"
    return LTEResult(frame, polys, [tuple(b) for b in branches], status)


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
    through their leading parts.  So there is one cascade loop over
    distinct patterns: each cascade runs on the first point in scan order
    that has the pattern, and every point takes its pattern's verdict.

    The scan is array work on integer numerators over one common
    denominator.  The grid and the extras form one (N, n) array, kept in
    lexicographic order with each point once; the support values are one
    matrix product and the interior test is their sign.  A point's
    pattern is the stable argsort of its values together with the mask of
    equal neighbours in sorted order.  The arrays hold int64 when a bound
    on every support value fits below 2**63, and Python ints (dtype
    object) otherwise, so the scan is exact for every input.  The rows
    share one ``Fraction`` per distinct numerator, and ``lte --grid``
    writes one string per distinct numerator.
    """
    pts, den, verdicts = _scan_grid(potential, grid, extra)
    fracs = {x: Fraction(x, den) for x in set(pts.ravel().tolist())}
    return [
        (tuple(map(fracs.__getitem__, num)), verdict)
        for num, verdict in zip(pts.tolist(), verdicts)
    ]


def _scan_grid(
    potential: Potential,
    grid: int,
    extra: list | None = None,
) -> tuple[np.ndarray, int, list[str]]:
    """The scan of ``balanced_positions`` before any point becomes a
    ``Fraction``: the interior points as an (N, n) array of numerators in
    scan order, their common denominator, and one verdict per point."""
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

    axes = [
        [scaled(lo) + k * scaled(step) for k in range(1, grid)]
        for (lo, _), step in zip(box, steps)
    ]
    extra_nums = [list(map(scaled, u)) for u in extras]
    normals = [f.normal for f in p.facets]
    consts = [scaled(f.constant) for f in p.facets]
    # every support value numerator, and every partial sum of one, is at most bound
    top = max((abs(x) for xs in (*axes, *extra_nums) for x in xs), default=0)
    bound = max(sum(map(abs, v)) * top + abs(c) for v, c in zip(normals, consts))
    dtype = np.int64 if bound < 2**63 else object

    mesh = np.meshgrid(*(np.array(a, dtype=dtype) for a in axes), indexing="ij")
    pts = np.concatenate(
        [
            np.stack(mesh, axis=-1).reshape(-1, p.dim),
            np.array(extra_nums, dtype=dtype).reshape(-1, p.dim),
        ]
    )
    # scan order: lexicographic, each point once (an extra may repeat or
    # lie on the grid)
    pts = pts[np.lexsort(pts.T[::-1])]
    fresh = np.ones(len(pts), dtype=bool)
    fresh[1:] = (pts[1:] != pts[:-1]).any(axis=1)
    pts = pts[fresh]
    values = pts @ np.array(normals, dtype=dtype).T + np.array(consts, dtype=dtype)
    inside = (values > 0).all(axis=1)
    pts, values = pts[inside], values[inside]
    if not len(pts):
        return pts, den, []
    rank = np.argsort(values, axis=1, kind="stable")
    ranked = np.take_along_axis(values, rank, axis=1)
    # int64 on both paths (ranks beside a bool mask); np.unique on a view
    # of each row as one opaque value is several times faster than
    # np.unique(axis=0), which sorts one field per column
    patterns = np.concatenate([rank, ranked[:, 1:] == ranked[:, :-1]], axis=1)
    row = np.dtype((np.void, patterns.itemsize * patterns.shape[1]))
    _, first, which = np.unique(
        patterns.view(row).ravel(), return_index=True, return_inverse=True
    )
    verdict_of = [""] * len(first)
    for k in np.argsort(first).tolist():  # the cascades in scan order
        u = tuple(Fraction(x, den) for x in pts[first[k]].tolist())
        verdict_of[k] = _VERDICTS[solve_lte(potential, u).status]
    return pts, den, [verdict_of[k] for k in which.tolist()]
