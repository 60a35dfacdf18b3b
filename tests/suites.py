"""Property suites shared by the unit tests and the acceptance run.

Each suite raises AssertionError on the first violation and returns a short
human-readable summary on success.
"""

import math
import random
from fractions import Fraction

from helpers import det_int, random_delzant_polytope, random_scalar
from toriclg import (
    INF,
    LaurentPoly,
    NovikovScalar,
    adapted_frame,
    build_potential,
    catalog,
    find_critical_points,
    initial_system,
    solve_lte,
)
from toriclg.polysolve import solve_torus_system
from toriclg.errors import PositiveDimensionalInitialLocus

F = Fraction

FANO_ENTRIES = [
    ("simplex", (1,)),
    ("simplex", (2,)),
    ("simplex", (3,)),
    ("blowup1", (F(2, 5),)),
    ("blowup1", (F(1, 5),)),
    ("blowup1", (F(1, 3),)),
    ("blowup2", (F(1, 2), F(1, 5))),
    ("hirzebruch", (1, F(2, 5))),
]


def _potential(name, *params):
    entry = catalog(name, *params)
    return build_potential(entry.polytope, corrections=entry.corrections)


def valuation_axioms_suite(pairs: int = 500) -> str:
    rng = random.Random(2024)
    checked = 0
    for _ in range(pairs):
        a = random_scalar(rng)
        b = random_scalar(rng)
        va, vb = a.valuation(), b.valuation()
        assert (a * b).valuation() == va + vb
        s = a + b
        assert s.valuation() >= min(va, vb)
        if va != vb:
            assert s.valuation() == min(va, vb)
        assert (a - a).valuation() == INF
        assert (a * NovikovScalar.one()).valuation() == va
        assert (a * NovikovScalar.zero()).valuation() == INF
        checked += 1
    assert checked == pairs
    return f"valuation axioms hold on {pairs} random scalar pairs"


def _random_laurent(rng: random.Random, nvars: int) -> LaurentPoly:
    total = LaurentPoly.zero(nvars)
    for _ in range(rng.randint(1, 5)):
        exps = tuple(rng.randint(-3, 3) for _ in range(nvars))
        total = total + LaurentPoly.monomial(nvars, exps, random_scalar(rng, 2))
    return total


def leibniz_suite(pairs: int = 200) -> str:
    rng = random.Random(515)
    for _ in range(pairs):
        nvars = rng.randint(1, 3)
        f = _random_laurent(rng, nvars)
        g = _random_laurent(rng, nvars)
        i = rng.randrange(nvars)
        lhs = (f * g).log_derivative(i)
        rhs = f.log_derivative(i) * g + f * g.log_derivative(i)
        diff = lhs - rhs
        scale = max(
            [c.max_abs_coeff() for _, c in lhs.sorted_terms()] + [1.0]
        )
        for _, c in diff.sorted_terms():
            assert c.max_abs_coeff() <= 1e-9 * scale
    return f"Leibniz rule holds on {pairs} random polynomial pairs"


def newton_residual_suite(order: Fraction = F(5)) -> str:
    points = 0
    for name, params in FANO_ENTRIES + [("hirzebruch", (2, F(1, 2)))]:
        pot = _potential(name, *params)
        rep = find_critical_points(pot, order=order)
        for p in rep.points:
            if p.y_local is None:
                continue
            assert p.residual_valuation is not None
            assert p.residual_valuation >= order, (name, params, p.u)
            points += 1
    return f"residual valuation >= {order} certified at {points} lifted points"


def truncation_stability_suite() -> str:
    cases = [("simplex", (2,)), ("blowup1", (F(2, 5),)), ("hirzebruch", (2, F(1, 2)))]
    for name, params in cases:
        pot = _potential(name, *params)
        rep3 = find_critical_points(pot, order=F(3))
        rep6 = find_critical_points(pot, order=F(6))
        assert len(rep3.points) == len(rep6.points)
        for p3, p6 in zip(rep3.points, rep6.points):
            assert p3.u == p6.u
            assert all(
                abs(a - b) < 1e-8
                for a, b in zip(p3.y_initial, p6.y_initial)
            )
            for a, b in zip(p3.y_local, p6.y_local):
                d = a - b.truncate(F(3))
                assert d.max_abs_coeff() <= 1e-9
    return f"series agree below the shorter window on {len(cases)} entries (E=3 vs 6)"


def lte_integrality_suite(count: int = 100) -> str:
    rng = random.Random(4242)
    frames = 0
    for _ in range(count):
        p = random_delzant_polytope(rng)
        pot = build_potential(p, assume_fano=True)
        us = [p.barycenter()]
        box = p.bounding_box()
        for _ in range(4):
            u = tuple(
                lo + F(rng.randint(1, 11), 12) * (hi - lo) for lo, hi in box
            )
            if p.interior_contains(u):
                us.append(u)
        for u in us:
            fr = adapted_frame(pot, u)
            rows = [list(r) for r in fr.basis]
            assert all(isinstance(x, int) for row in rows for x in row)
            assert abs(det_int(rows)) == 1
            inv = [list(r) for r in fr.inverse]
            assert all(isinstance(x, int) for row in inv for x in row)
            frames += 1
    return f"adapted bases integral and unimodular in {frames} frames over {count} polytopes"


def lte_tropical_bijection_suite() -> str:
    from toriclg import tropical_candidates

    compared = 0
    for name, params in FANO_ENTRIES:
        pot = _potential(name, *params)
        candidates, _ = tropical_candidates(pot)
        for u in candidates:
            polys, _ = initial_system(pot, u)
            try:
                roots = solve_torus_system(polys, pot.polytope.dim).roots
            except PositiveDimensionalInitialLocus:
                continue
            res = solve_lte(pot, u)
            witnesses = res.witnesses_y()
            assert len(witnesses) == len(roots), (name, params, u)
            remaining = list(roots)
            for w in witnesses:
                hit = next(
                    (
                        r
                        for r in remaining
                        if all(abs(a - b) < 1e-6 for a, b in zip(w, r))
                    ),
                    None,
                )
                assert hit is not None, (name, params, u, w)
                remaining.remove(hit)
            compared += 1
    assert compared > 0
    return (
        "leading-term witnesses match initial solutions at "
        f"{compared} candidate fibers across {len(FANO_ENTRIES)} entries"
    )
