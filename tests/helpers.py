"""Shared test utilities: random polytopes, series comparisons and a
point-by-point reference for the balanced-position scan."""

import itertools
import random
from fractions import Fraction

from toriclg import (
    LevelUnderdetermined,
    MomentPolytope,
    NovikovScalar,
    get_config,
    is_strongly_balanced,
)

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


def assert_scalar_close(x: NovikovScalar, y: NovikovScalar, tol: float = 1e-9):
    d = x - y
    bad = [(e, c) for e, c in d.terms if abs(c) > tol]
    assert not bad, f"series differ by {bad}"


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
