"""The Newton lift on one exponent lattice.

``lambda_solve`` solves J delta = rhs modulo T^W order by order from one
inverse of the leading coefficient J_0; the property below checks the
product J delta with ``np.convolve``, independently of the recursion.  The
oracle substitutes each lifted series into the frame equations of the
critical system through the sparse ``LaurentPoly.evaluate``, which shares
no code with the array lift, and asks that nothing above rounding noise
remains below the truncation order.
"""

import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_same_lift,
    random_delzant_polytope,
    random_delzant_threefold,
    scalars_close,
)
from toriclg import (
    Correction,
    NovikovScalar,
    PositiveDimensionalInitialLocus,
    build_potential,
    catalog,
    find_critical_points,
    get_config,
    initial_system,
    residue_report,
    tropical,
    tropical_candidates,
)
from toriclg.polysolve import solve_torus_system

F = Fraction


def _series_product(jac: np.ndarray, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J delta modulo T^W by convolution, and the same sum over absolute
    values: the scale each coefficient is rounded against."""
    n, width = delta.shape
    prod = np.zeros((n, width), complex)
    scale = np.zeros((n, width))
    for i in range(n):
        for j in range(n):
            prod[i] += np.convolve(jac[i, j], delta[j])[:width]
            scale[i] += np.convolve(abs(jac[i, j]), abs(delta[j]))[:width]
    return prod, scale


@settings(max_examples=60, deadline=None)
@given(
    k=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    width=st.integers(1, 300),
    decay=st.floats(0.05, 1.0),
)
def test_lambda_solve_solves_modulo_the_window(k, seed, n, width, decay):
    # k independent systems solved in one batch, each row checked alone
    rng = np.random.default_rng(seed)

    def cplx(*shape):
        return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)

    def unitary():
        return np.linalg.qr(cplx(n, n))[0]

    # J_0 with condition number at most 10: a unitary factor times singular
    # values in [1, 10]
    j0 = np.array([unitary() @ np.diag(rng.uniform(1, 10, n)) @ unitary() for _ in range(k)])
    # higher terms J_k of size decay^k keep delta's coefficients finite
    jac = cplx(k, n, n, width) * decay ** np.arange(width)
    jac[..., 0] = j0
    rhs = cplx(k, n, width)
    delta = tropical.lambda_solve(jac, rhs, np.linalg.inv(j0))
    assert delta.shape == (k, n, width)
    assert np.all(np.isfinite(delta))
    for j, d, r in zip(jac, delta, rhs):
        prod, scale = _series_product(j, d)
        assert np.all(abs(prod - r) <= 1e-10 * (scale + abs(r)))


# every catalog family; all of their coefficients are exact
CATALOG_ENTRIES = [
    ("simplex", (1,)),
    ("simplex", (2,)),
    ("simplex", (3,)),
    ("blowup1", (F(1, 5),)),
    ("blowup1", (F(1, 3),)),
    ("blowup2", (F(1, 2), F(1, 5))),
    ("blowup2", (F(1, 3), F(1, 3))),
    ("hirzebruch", (1, F(2, 5))),
    ("hirzebruch", (2, F(1, 2))),
]


def _catalog(name, *params):
    entry = catalog(name, *params)
    return build_potential(entry.polytope, corrections=entry.corrections)


LIFTED = [
    pytest.param(lambda n=n, p=p: _catalog(n, *p), id=f"{n}:{p}")
    for n, p in [
        ("blowup1", (F(1, 5),)),
        ("blowup2", (F(1, 2), F(1, 5))),
        ("hirzebruch", (1, F(1, 2))),
        ("hirzebruch", (1, F(2, 5))),
        ("hirzebruch", (2, F(1, 2))),
        ("hirzebruch", (2, F(2, 5))),
    ]
] + [
    pytest.param(
        lambda s=s: build_potential(
            random_delzant_polytope(random.Random(s)), assume_fano=True
        ),
        id=f"polygon-{s}",
    )
    for s in (3, 4, 11, 16, 21)  # lattices of 160, 40, 1080, 180 and 540 slots
] + [
    # threefold 45 lifts on a lattice of 640 slots (1/128 up to T^5),
    # threefold 7 on 1280 (1/256), with coefficients up to about 5e41
    pytest.param(
        lambda s=s: build_potential(
            random_delzant_threefold(random.Random(s), max_chops=3), assume_fano=True
        ),
        id=f"threefold-{s}",
    )
    for s in (3, 45, 7)
]


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda n=n, p=p: _catalog(n, *p), id=f"{n}:{p}") for n, p in CATALOG_ENTRIES]
    + [p for p in LIFTED if p.id.startswith(("polygon", "threefold"))],
)
def test_a_batch_lifts_each_root_as_it_lifts_alone(make):
    # every candidate with two roots or more: each entry of the batch
    # against the lift of its root alone
    pot = make()
    batches = 0
    for u in tropical_candidates(pot)[0]:
        polys, _ = initial_system(pot, u)
        try:
            roots = solve_torus_system(polys, pot.polytope.dim).roots
        except PositiveDimensionalInitialLocus:
            continue
        if len(roots) >= 2:
            batches += 1
            lifts = tropical.newton_lift(pot, u, roots)
            for root, got in zip(roots, lifts, strict=True):
                assert_same_lift(got, tropical.newton_lift(pot, u, [root])[0])
    assert batches


def _graded_scale(values, weight):
    """For the sum of weight(a) T_a: the exponents of its summands' terms
    in increasing order, and the largest summand coefficient at or below
    each."""
    pairs = sorted(
        (e, abs(weight(a) * c)) for a, t in values if weight(a) for e, c in t.terms
    )
    return [e for e, _ in pairs], np.maximum.accumulate([c for _, c in pairs])


@pytest.mark.parametrize("make", LIFTED)
def test_lifted_series_solve_the_frame_equations(make):
    pot = make()
    order = get_config().truncation_order
    lifted = [p for p in find_critical_points(pot).points if p.y_local is not None]
    assert lifted
    for pt in lifted:
        pu = pot.change_frame(pt.u)
        values = pu.term_values(pt.y_local)
        for i in range(pot.polytope.dim):
            r = pu.log_derivative(i).evaluate(pt.y_local)
            shift = min(c.valuation() for a, c in pu.terms.items() if a[i])
            assert r.trunc >= order + shift
            exps, scale = _graded_scale(values, lambda a: a[i])
            for e, c in r.terms:
                if e < order + shift:
                    assert abs(c) <= 1e-9 * scale[bisect_right(exps, e) - 1], (pt.u, i, e)


def test_truncated_coefficient_caps_the_order():
    # the y2^-1 coefficient T^(1/2) + T^(3/2) c with c known modulo T^(1/2)
    # is known only modulo T^2, 3/2 above its valuation: the lift and the
    # residue data stop there, and agree with the exact correction c = 1
    # below it
    entry = catalog("hirzebruch", 2, F(1, 2))
    (corr,) = entry.corrections
    loose = Correction(corr.extra_t, corr.z_exponents, NovikovScalar([(0, 1.0)], trunc=F(1, 2)))
    pot = build_potential(entry.polytope, corrections=[loose])
    exact = build_potential(entry.polytope, corrections=entry.corrections)
    rep, ref = find_critical_points(pot), find_critical_points(exact)
    assert len(rep.points) == len(ref.points) == 4
    res, ref_res = residue_report(pot, rep), residue_report(exact, ref)
    for k, (pt, ref_pt) in enumerate(zip(rep.points, ref.points)):
        assert pt.residual_valuation >= F(3, 2)
        for y, ref_y in zip(pt.y_local, ref_pt.y_local):
            assert y.trunc == F(3, 2)
            assert scalars_close(y, ref_y.truncate(F(3, 2)), tol=1e-12)
        z = res.z_values[k]
        assert z.trunc == z.valuation() + F(3, 2)
        assert res.pairing_diag[k].trunc == F(3, 2) - z.valuation()
        assert scalars_close(z, ref_res.z_values[k].truncate(z.trunc), tol=1e-12)
        value, ref_value = res.critical_values[k], ref_res.critical_values[k]
        assert value.trunc == value.valuation() + F(3, 2)
        assert scalars_close(value, ref_value.truncate(value.trunc), tol=1e-12)
    assert res.trace_ok


@pytest.mark.parametrize("name, params", CATALOG_ENTRIES)
def test_exact_coefficients_keep_the_full_order(name, params):
    pot = _catalog(name, *params)
    order = get_config().truncation_order
    rep = find_critical_points(pot)
    res = residue_report(pot, rep)
    assert rep.points and len(res.z_values) == len(rep.points)
    for pt, z in zip(rep.points, res.z_values):
        assert all(y.trunc == order for y in pt.y_local)
        assert pt.residual_valuation >= order
        assert z.trunc == z.valuation() + order
