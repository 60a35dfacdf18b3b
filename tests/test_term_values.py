"""Array evaluation against per-derivative evaluation.

The Newton lift evaluates each term c_a y^a of the frame-shifted potential
once per step on dense arrays over one exponent lattice, read from the
potential and u, and takes its residuals, log-Jacobian and critical value
as integer-weighted sums of those arrays.  The residue report reads Z, 1/Z
and the critical value off the lift's final system.  The oracle here builds
each derivative polynomial theta_i theta_j PO, shifts it to the frame and
evaluates it term by term with its own powers of y, takes Z as the cofactor
determinant of those sparse entries, and evaluates the critical value as
the potential at the absolute point.  Both must agree below each window,
and ``hessian_matrix`` must agree with the oracle's entries.  The
determinant over minors and the unit inverse have their own property
against a Leibniz expansion and an order-by-order division written here.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    novikov_det,
    on_lattice,
    random_delzant_polytope,
    random_delzant_threefold,
)
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


def permutation_max(scales) -> float:
    """The largest product of one entry scale per row and column."""
    n = len(scales)
    return max(
        math.prod(scales[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


@pytest.mark.parametrize("make", POTENTIALS)
def test_term_values_match_derivative_evaluation(make):
    # the array path prunes only its output, so nothing is pruned here: the
    # residue data from the lift's arrays and the oracle on the lifted
    # scalars see the same series
    with configured(eps_coeff=0.0):
        compare_with_derivative_evaluation(make())


def compare_with_derivative_evaluation(pot):
    order = get_config().truncation_order
    rep = find_critical_points(pot)
    residues = residue_report(pot, rep)
    lifted = [p for p in rep.points if p.y_local is not None]
    assert lifted
    g = pot.poly
    n = pot.polytope.dim
    data = zip(lifted, residues.z_values, residues.pairing_diag, residues.critical_values)
    for pt, z, z_inv, crit in data:
        ys = pt.y_local
        values = g.change_frame(pt.u).term_values(ys)
        thetas = [g.log_derivative(i).change_frame(pt.u) for i in range(n)]
        shifts = [min(c.valuation() for c in h.terms.values()) for h in thetas]
        hess = hessian_matrix(pot, pt.u, ys)
        # the lift's lattice, read from the potential and u; the terms at
        # y = y0 (1 + x) on it, and the residuals and log-Jacobian summed
        # from them, modulo T^w
        lat = tropical._Lattice(pot, pt.u, [pt.y_initial], order)
        assert lat.size == order * lat.den
        assert [F(s, lat.den) for s in lat.shifts] == shifts
        x = np.array([on_lattice(y, lat.den, lat.size) / c for y, c in zip(ys, pt.y_initial)])
        x[:, 0] -= 1
        ref_hess = [[None] * n for _ in range(n)]
        scales = [[0.0] * n for _ in range(n)]
        for w in (order / 4, order / 2, order):
            yw = tuple(y.truncate(w) for y in ys)
            width = math.ceil(w * lat.den)
            terms = tropical._term_arrays(lat, [0], x[None], width)
            (res,), (jac,), _ = tropical._system(lat, terms, width)
            assert res.shape == (n, width)
            for i in range(n):
                ref = reference_evaluate(thetas[i], yw).shift(-shifts[i])
                got = tropical._scalar(res[i], lat.den)
                assert_agree(got, ref, summand_scale(values, lambda a: a[i]), w)
                for j in range(n):
                    hij = g.log_derivative(i).log_derivative(j).change_frame(pt.u)
                    scale = summand_scale(values, lambda a: a[i] * a[j])
                    ref = reference_evaluate(hij, yw).shift(-shifts[i])
                    got = tropical._scalar(jac[i, j], lat.den)
                    assert_agree(got, ref, scale, w)
                    if w == order:
                        ref = reference_evaluate(hij, ys)
                        assert hess[i][j].trunc == ref.trunc
                        assert_agree(hess[i][j], ref, scale, ref.trunc)
                        ref_hess[i][j], scales[i][j] = ref, scale
        # Z against the cofactor determinant of the sparse entries, 1/Z by
        # its product with that Z
        ref_z = novikov_det(ref_hess)
        assert z.trunc == ref_z.trunc and z_inv.trunc == ref_z.invert().trunc
        assert z.valuation() == ref_z.valuation() == sum(shifts)
        assert_agree(z, ref_z, permutation_max(scales), ref_z.trunc)
        v = z.valuation()
        width = int((ref_z.trunc - v) * lat.den)
        a = on_lattice(z_inv.shift(v), lat.den, width)
        b = on_lattice(ref_z.shift(-v), lat.den, width)
        one = np.convolve(a, b)[:width] - np.eye(1, width)[0]
        # rounding in 1/Z grows with the products before each slot
        scale = np.maximum.accumulate(np.convolve(abs(a), abs(b))[:width])
        assert np.all(abs(one) <= REL * scale)
        ref = pot.poly.evaluate(pt.y_absolute())
        assert crit.trunc == ref.trunc
        assert_agree(crit, ref, summand_scale(values, lambda a: 1), ref.trunc)


def test_residue_report_evaluates_no_terms(monkeypatch):
    # the residue data come from the lift's final system: the report makes
    # no frame change and evaluates no term, sparse or on arrays
    pot = _catalog_potential("blowup2", (F(1, 2), F(1, 5)))
    rep = find_critical_points(pot)
    calls = {"term_values": 0, "change_frame": 0, "evaluate": 0, "_term_arrays": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("term_values", "change_frame", "evaluate"):
        counted(LaurentPoly, name)
    counted(tropical, "_term_arrays")
    res = residue_report(pot, rep)
    lifted = sum(p.y_local is not None for p in rep.points)
    assert lifted == len(res.z_values) == len(res.pairing_diag) > 0
    assert calls == dict.fromkeys(calls, 0)


def leibniz_det(m: np.ndarray) -> np.ndarray:
    """sum over permutations of sign * prod_i m[i, p(i)] modulo T^W, each
    product by np.convolve."""
    n, _, width = m.shape
    total = np.zeros(width, complex)
    for p in itertools.permutations(range(n)):
        t = np.eye(1, width, dtype=complex)[0]
        for i in range(n):
            t = np.convolve(t, m[i, p[i]])[:width]
        inversions = sum(a > b for a, b in itertools.combinations(p, 2))
        total += -t if inversions % 2 else t
    return total


def permanent(m: np.ndarray) -> np.ndarray:
    """The Leibniz sum over absolute values: each coefficient's summand scale."""
    n, _, width = m.shape
    total = np.zeros(width)
    for p in itertools.permutations(range(n)):
        t = np.eye(1, width)[0]
        for i in range(n):
            t = np.convolve(t, abs(m[i, p[i]]))[:width]
        total += t
    return total


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    width=st.integers(1, 200),
    decay=st.floats(0.05, 1.0),
)
def test_minors_determinant_and_unit_inverse(seed, n, width, decay):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1, 1, (n, n, width)) + 1j * rng.uniform(-1, 1, (n, n, width))
    m *= decay ** np.arange(width)
    m[..., 0] += 2 * np.eye(n)  # a leading coefficient away from 0
    det = tropical._minors_det(m)
    assert det.shape == (width,)
    assert np.all(abs(det - leibniz_det(m)) <= REL * permanent(m))
    # the inverse of the unit det / det[0], against division order by order
    p = det / det[0]
    ref = np.zeros(width, complex)
    ref[0] = 1
    for k in range(1, width):
        ref[k] = -np.dot(p[1 : k + 1], ref[k - 1 :: -1])
    inv = tropical._unit_inverse(p)
    assert inv.shape == (width,)
    scale = np.maximum.accumulate(abs(ref)) * np.maximum.accumulate(abs(p)) * np.arange(1, width + 1)
    assert np.all(abs(inv - ref) <= 1e-10 * scale)
