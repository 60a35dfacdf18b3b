"""End-to-end acceptance checks.

One test per headline claim; run with -v to get a pass/fail line for each.
All tolerances are stated inline, next to the assertion they guard.
"""

import cmath
import math
from fractions import Fraction

import pytest

import suites
from helpers import cpn_duality_errors
from toriclg import (
    NovikovScalar,
    balanced_positions,
    build_potential,
    catalog,
    find_critical_points,
    is_strongly_balanced,
    residue_report,
    solve_lte,
)

F = Fraction


def _close(a: complex, b: complex, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


def _is_monomial(s: NovikovScalar, exp: Fraction, coeff: complex, tol: float = 1e-9) -> bool:
    """s equals coeff*T^exp within tol on every represented coefficient."""
    d = s - NovikovScalar.monomial(exp, coeff)
    return d.max_abs_coeff() <= tol


def _potential(name, *params):
    entry = catalog(name, *params)
    return build_potential(entry.polytope, corrections=entry.corrections)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_1_projective_space_regression(n):
    pot = _potential("simplex", n)
    rep = find_critical_points(pot)
    assert len(rep.points) == n + 1
    assert all(p.nondegenerate and p.multiplicity == 1 for p in rep.points)

    val = F(1, n + 1)
    zetas = [cmath.exp(2j * cmath.pi * k / (n + 1)) for k in range(n + 1)]
    seen = []
    for p in rep.points:
        ys = p.y_absolute()
        assert all(y.valuation() == val for y in ys)
        leads = [y.leading()[1] for y in ys]
        # every coordinate carries the same root of unity
        assert all(_close(c, leads[0]) for c in leads)
        assert all(_is_monomial(y, val, leads[0]) for y in ys)
        k = min(range(n + 1), key=lambda k: abs(leads[0] - zetas[k]))
        assert _close(leads[0], zetas[k])
        seen.append(k)
    assert sorted(seen) == list(range(n + 1))

    rr = residue_report(pot, rep)
    for p, cv, pd in zip(rep.points, rr.critical_values, rr.pairing_diag):
        k = seen[rep.points.index(p)]
        assert _is_monomial(cv, val, (n + 1) * zetas[k])
        assert _is_monomial(pd, -F(n, n + 1), zetas[k] ** (-n) / (n + 1))
    assert rr.trace_ok and rr.trace_residual <= 1e-9

    # the hyperplane-power basis is self-dual under the residue pairing
    assert max(cpn_duality_errors(n, rep, rr)) <= 1e-9


def test_criterion_2_one_point_blowup_case_analysis():
    betti = catalog("blowup1", F(1, 3)).polytope.total_betti()
    assert betti == 4

    # alpha = 2/5: four fibers at one interior point
    rep = find_critical_points(_potential("blowup1", F(2, 5)))
    assert len(rep.points) == 4
    assert all(p.u == (F(7, 20), F(3, 10)) for p in rep.points)
    roots = []
    for p in rep.points:
        y1, y2 = p.y_initial
        assert _close(y1 ** 4, 1.0)
        assert _close(y2, y1 ** 2)
        roots.append(y1)
    for k in range(4):
        assert any(_close(z, 1j ** k) for z in roots)
    assert rep.multiplicity_total() == betti

    # alpha = 1/5: the point splits 1 + 3
    rep = find_critical_points(_potential("blowup1", F(1, 5)))
    by_u = {}
    for p in rep.points:
        by_u.setdefault(p.u, []).append(p)
    assert sorted(by_u) == [(F(1, 5), F(3, 5)), (F(1, 3), F(1, 3))]
    (lone,) = by_u[(F(1, 5), F(3, 5))]
    assert _close(lone.y_initial[0], -1.0) and _close(lone.y_initial[1], 1.0)
    triple = by_u[(F(1, 3), F(1, 3))]
    assert len(triple) == 3
    cubes = sorted(
        (round(p.y_initial[0].real, 9), round(p.y_initial[0].imag, 9)) for p in triple
    )
    want = sorted(
        (round(z.real, 9), round(z.imag, 9))
        for z in (cmath.exp(2j * cmath.pi * k / 3) for k in range(3))
    )
    assert all(abs(a - c) < 1e-9 and abs(b - d) < 1e-9 for (a, b), (c, d) in zip(cubes, want))
    assert all(_close(p.y_initial[1], p.y_initial[0]) for p in triple)
    assert rep.multiplicity_total() == betti

    # alpha = 1/3 (monotone): all four collapse onto the center
    rep = find_critical_points(_potential("blowup1", F(1, 3)))
    assert len(rep.points) == 4
    assert all(p.u == (F(1, 3), F(1, 3)) for p in rep.points)
    for p in rep.points:
        z = p.y_initial[0]
        assert abs(z ** 4 + z ** 3 - 1) < 1e-9
    assert rep.multiplicity_total() == betti


def test_criterion_3_hirzebruch_determinants_and_trace():
    pot = _potential("hirzebruch", 2, F(1, 2))
    rep = find_critical_points(pot)
    assert len(rep.points) == 4
    # the stated point formula has its coordinates swapped: ((1-a)/2,(1+a)/2)
    # lies outside the trapezoid, and the determinant example puts the
    # balanced fiber at ((1+a)/2,(1-a)/2)
    assert all(p.u == (F(3, 4), F(1, 4)) for p in rep.points)

    rr = residue_report(pot, rep)
    dets = rr.z_values
    assert all(d.valuation() == 1 for d in dets)
    leads = sorted(d.leading()[1].real for d in dets)
    assert all(abs(d.leading()[1].imag) <= 1e-9 for d in dets)
    for got, want in zip(leads, [-4.0, -4.0, 4.0, 4.0]):
        assert abs(got - want) <= 1e-9
    for d in dets:
        assert _is_monomial(d, F(1), d.leading()[1])
    assert rr.trace_ok and rr.trace_residual <= 1e-9


def test_criterion_4_monotone_blowup_trace_identity():
    pot = _potential("blowup1", F(1, 3))
    rep = find_critical_points(pot)
    (elim,) = rep.eliminants
    assert elim.u == (F(1, 3), F(1, 3))
    expected = [-1, 0, 0, 1, 1]  # z^4 + z^3 - 1, constant term first
    assert len(elim.coeffs) == 5
    assert all(abs(c - e) <= 1e-9 for c, e in zip(elim.coeffs, expected))

    rr = residue_report(pot, rep)
    acc = 0.0
    for p, zval in zip(rep.points, rr.z_values):
        z = p.y_initial[0]
        want = (4 - z ** 3) / z
        assert zval.valuation() == F(2, 3)
        assert _is_monomial(zval, F(2, 3), want, tol=1e-9 * abs(want))
        acc += z / (4 - z ** 3)
    assert abs(acc) < 1e-10


def test_criterion_5_leading_term_equation_verdicts():
    # Hirzebruch scan: strongly balanced at the known fiber and nowhere else
    pot = _potential("hirzebruch", 2, F(1, 2))
    star = (F(3, 4), F(1, 4))
    scan = balanced_positions(pot, 50, extra=[star])
    balanced = [u for u, status in scan if status == "balanced"]
    assert balanced == [star]
    assert all(status in ("balanced", "unbalanced") for _, status in scan)
    res = solve_lte(pot, star)
    got = sorted(
        (round(w[0].real, 6), round(w[1].real, 6)) for w in res.witnesses_y()
    )
    assert got == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    # blowup2 segment: balanced along u2 = 1/4 between the tropical bounds
    pot2 = _potential("blowup2", F(1, 2), F(1, 4))
    for k in range(1, 11):
        t = F(1, 4) + k * F(1, 88)
        assert F(1, 4) < t < F(3, 8)
        u = (t, F(1, 4))
        assert is_strongly_balanced(pot2, u)
        res = solve_lte(pot2, u)
        ws = res.witnesses_y()
        assert ws and all(_close(w[1], -1.0, 1e-6) for w in ws)
    for u in [
        (F(7, 16), F(1, 4)),
        (F(3, 16), F(1, 4)),
        (F(5, 16), F(3, 10)),
        (F(1, 2), F(1, 8)),
    ]:
        assert pot2.polytope.interior_contains(u)
        assert not is_strongly_balanced(pot2, u)


def test_criterion_6_property_suites():
    lines = [
        suites.valuation_axioms_suite(500),
        suites.leibniz_suite(200),
        suites.newton_residual_suite(),
        suites.truncation_stability_suite(),
        suites.lte_integrality_suite(100),
        suites.lte_tropical_bijection_suite(),
    ]
    assert len(lines) == 6 and all(lines)
