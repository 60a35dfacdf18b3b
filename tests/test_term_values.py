"""Term values against per-derivative evaluation.

The residue report evaluates each term c_a y^a of the frame-shifted
potential once per point and takes the Hessian and the critical value as
integer-weighted sums of those values.  The Newton lift does the same on
dense arrays over one exponent lattice, read from the potential and u, for
its residuals and log-Jacobian.  The oracle here builds each derivative
polynomial theta_i theta_j PO, shifts it to the frame and evaluates it term
by term with its own powers of y, and evaluates the critical value as the
potential at the absolute point.  Both must agree below each window.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from helpers import on_lattice, random_delzant_polytope, random_delzant_threefold
from toriclg import (
    LaurentPoly,
    NovikovScalar,
    build_potential,
    catalog,
    configured,
    find_critical_points,
    get_config,
    hessian_matrix,
    residue_report,
    tropical,
)

F = Fraction
REL = 1e-12

SERIES_CATALOG = [
    ("blowup1", (F(1, 5),)),
    ("blowup2", (F(1, 2), F(1, 5))),
    ("hirzebruch", (1, F(1, 2))),
    ("hirzebruch", (1, F(2, 5))),
    ("hirzebruch", (2, F(1, 2))),
    ("hirzebruch", (2, F(2, 5))),
]


def _catalog_potential(name, params):
    entry = catalog(name, *params)
    return build_potential(entry.polytope, corrections=entry.corrections)


# seeded helpers polytopes: one-term (monotone) lifts and series of 20-44 terms
POTENTIALS = [
    pytest.param(lambda n=n, p=p: _catalog_potential(n, p), id=f"{n}:{p}")
    for n, p in SERIES_CATALOG
] + [
    pytest.param(
        lambda s=s: build_potential(
            random_delzant_polytope(random.Random(s)), assume_fano=True
        ),
        id=f"polygon-{s}",
    )
    for s in (0, 3, 4, 8, 13)
] + [
    pytest.param(
        lambda s=s: build_potential(
            random_delzant_threefold(random.Random(s)), assume_fano=True
        ),
        id=f"threefold-{s}",
    )
    for s in (0, 5, 13)
]


def reference_evaluate(f: LaurentPoly, ys) -> NovikovScalar:
    """sum_a c_a prod_i y_i^{a_i}, every power taken on its own and the
    terms added one at a time, with no shared term values."""
    total = NovikovScalar.zero()
    for a, c in f.terms.items():
        for y, e in zip(ys, a):
            if e:
                c = c * y**e
        total = total + c
    return total


def assert_agree(got: NovikovScalar, ref: NovikovScalar, scale: float, window):
    """Equal coefficients at every exponent below the window, to REL times
    the scale of the summands (at least 1: pruning is absolute)."""
    tol = REL * max(scale, 1.0)
    for e in {e for e, _ in got.terms + ref.terms if e < window}:
        assert abs(got.coeff_at(e) - ref.coeff_at(e)) <= tol, (e, got, ref)


def summand_scale(values, weight) -> float:
    return max(abs(weight(a)) * t.max_abs_coeff() for a, t in values)


@pytest.mark.parametrize("make", POTENTIALS)
def test_term_values_match_derivative_evaluation(make):
    pot = make()
    order = get_config().truncation_order
    rep = find_critical_points(pot)
    lifted = [p for p in rep.points if p.y_local is not None]
    assert lifted
    g = pot.poly
    n = pot.polytope.dim
    criticals = residue_report(pot, rep).critical_values
    for pt, crit in zip(lifted, criticals):
        ys = pt.y_local
        values = g.change_frame(pt.u).term_values(ys)
        thetas = [g.log_derivative(i).change_frame(pt.u) for i in range(n)]
        shifts = [min(c.valuation() for c in h.terms.values()) for h in thetas]
        hess = hessian_matrix(pot, pt.u, ys)
        # the lift's lattice, read from the potential and u; the terms at
        # y = y0 (1 + x) on it, and the residuals and log-Jacobian summed
        # from them, modulo T^w
        lat = tropical._Lattice(pot, pt.u, pt.y_initial, order)
        assert lat.size == order * lat.den
        assert [F(s, lat.den) for s in lat.starts] == [s - min(shifts) for s in shifts]
        x = np.array([on_lattice(y, lat.den, lat.size) / c for y, c in zip(ys, pt.y_initial)])
        x[:, 0] -= 1
        for w in (order / 4, order / 2, order):
            yw = tuple(y.truncate(w) for y in ys)
            width = math.ceil(w * lat.den)
            res, jac = tropical._system(lat, tropical._term_arrays(lat, x, width), width)
            assert res.shape == (n, width)
            # the array path prunes only its output, so neither side
            # prunes here
            for i in range(n):
                with configured(eps_coeff=0.0):
                    ref = reference_evaluate(thetas[i], yw).shift(-shifts[i])
                    got = tropical._scalar(res[i], lat.den)
                assert_agree(got, ref, summand_scale(values, lambda a: a[i]), w)
                for j in range(n):
                    hij = g.log_derivative(i).log_derivative(j).change_frame(pt.u)
                    scale = summand_scale(values, lambda a: a[i] * a[j])
                    with configured(eps_coeff=0.0):
                        ref = reference_evaluate(hij, yw).shift(-shifts[i])
                        got = tropical._scalar(jac[i, j], lat.den)
                    assert_agree(got, ref, scale, w)
                    if w == order:
                        ref = reference_evaluate(hij, ys)
                        assert hess[i][j].trunc == ref.trunc
                        assert_agree(hess[i][j], ref, scale, ref.trunc)
        ref = pot.evaluate(pt.y_absolute())
        assert crit.trunc == ref.trunc
        assert_agree(crit, ref, summand_scale(values, lambda a: 1), ref.trunc)


def test_residue_report_evaluates_terms_once_per_point(monkeypatch):
    pot = _catalog_potential("blowup2", (F(1, 2), F(1, 5)))
    rep = find_critical_points(pot)
    calls = {"term_values": 0, "change_frame": 0, "evaluate": 0}

    def counted(name):
        fn = getattr(LaurentPoly, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(LaurentPoly, name, counted(name))
    res = residue_report(pot, rep)
    lifted = sum(p.y_local is not None for p in rep.points)
    assert lifted == len(res.z_values) > 0
    assert calls == {"term_values": lifted, "change_frame": lifted, "evaluate": 0}
