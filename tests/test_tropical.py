"""Tropical candidate search, initial systems, and Newton lifting."""

import cmath
import itertools
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    assert_same_lift,
    assert_scalar_close,
    on_lattice,
    random_delzant_polytope,
    random_delzant_threefold,
    reference_balanced_at,
    reference_initial_system,
    reference_tropical_candidates,
)
from toriclg import tropical
from toriclg import (
    INF,
    BulkCoefficients,
    Correction,
    LaurentPoly,
    NoConvergence,
    NotInterior,
    NovikovScalar,
    SingularInitialJacobian,
    build_potential,
    catalog,
    find_critical_points,
    initial_system,
    newton_lift,
    residue_report,
    tropical_candidates,
)
from toriclg.polysolve import solve_torus_system

F = Fraction


def potential_of(name, *params):
    entry = catalog(name, *params)
    return build_potential(entry.polytope, corrections=entry.corrections)


def degenerate_bulk_potential(corrections=()):
    """blowup1:1/3 with bulk coefficients that merge two critical points
    into one degenerate double point."""
    entry = catalog("blowup1", F(1, 3))
    bulk = BulkCoefficients(
        tuple(NovikovScalar.from_number(c) for c in (1, 1, -0.25, 0.75))
    )
    return build_potential(entry.polytope, bulk=bulk, corrections=corrections)


def close(a: complex, b: complex, tol=1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


class TestCandidates:
    def test_simplex_has_single_balanced_point(self):
        cands, cells = tropical_candidates(potential_of("simplex", 2))
        assert cands == [(F(1, 3), F(1, 3))]
        assert cells == []

    def test_blowup1_generic(self):
        cands, _ = tropical_candidates(potential_of("blowup1", F(2, 5)))
        assert cands == [(F(7, 20), F(3, 10))]

    def test_blowup1_small_alpha_splits(self):
        cands, _ = tropical_candidates(potential_of("blowup1", F(1, 5)))
        assert cands == [(F(1, 5), F(3, 5)), (F(1, 3), F(1, 3))]

    def test_blowup2_segment_cell(self):
        cands, cells = tropical_candidates(potential_of("blowup2", F(1, 2), F(1, 4)))
        assert (F(3, 8), F(1, 4)) in cands
        seg = [c for c in cells if c.dimension == 1]
        assert len(seg) == 1
        cell = seg[0]
        assert cell.t_range == (F(1, 4), F(3, 8))
        assert cell.sample_u == (F(5, 16), F(1, 4))
        assert cell.directions == ((F(1), F(0)),)

    def test_two_dimensional_cell_of_a_threefold(self):
        # the cell branch of dimension >= 2, sampled on a coarse grid
        p = random_delzant_threefold(random.Random(4), max_chops=3)
        pot = build_potential(p, assume_fano=True)
        rep = find_critical_points(pot)
        planes = [c for c in rep.cells if c.dimension >= 2]
        assert [(c.dimension, c.sample_u, c.note) for c in planes] == [
            (2, (F(1), F(1, 2), F(5, 4)), "validated on a coarse sample only")
        ]
        assert planes[0].directions == ((F(1), F(0), F(0)), (F(0), F(1), F(1)))
        assert tropical.balanced_at(pot, planes[0].sample_u)
        res = residue_report(pot, rep)
        assert (res.morse_mode, res.morse_total, res.betti, res.morse_ok) == ("lower-bound", 14, 14, True)
        assert res.trace_ok is None and res.trace_residual is None and res.trace_sum is None
        assert "positive-dimensional candidate cells: trace check skipped" in res.notes

    def test_line_scan_matches_the_reference(self):
        # one crossing rule cuts each line: the facet walls give its interior
        # interval and each distinct tie its breakpoints; the reference cuts
        # it with Facet.ell and every tie of every equation
        line_cells = 0
        for seed in range(16):
            p = random_delzant_polytope(random.Random(seed), max_chops=8)
            pot = build_potential(p, assume_fano=True)
            cands, cells = tropical_candidates(pot)
            assert {(c.dimension, len(c.directions), c.note) for c in cells} <= {(1, 1, "")}
            got = sorted((c.sample_u, c.directions[0], c.t_range) for c in cells)
            assert (cands, got) == reference_tropical_candidates(pot), seed
            line_cells += len(cells)
        assert line_cells >= 80

    def test_candidates_are_interior(self):
        for name, params in [
            ("simplex", (3,)),
            ("blowup1", (F(1, 3),)),
            ("blowup2", (F(1, 2), F(1, 5))),
        ]:
            pot = potential_of(name, *params)
            cands, _ = tropical_candidates(pot)
            assert cands
            for u in cands:
                assert pot.polytope.interior_contains(u)


class TestInitialSystem:
    def test_cp1_shape(self):
        pot = potential_of("simplex", 1)
        polys, vals = initial_system(pot, (F(1, 2),))
        assert vals == [F(1, 2)]
        assert polys == [{(1,): 1 + 0j, (-1,): -1 + 0j}]

    def test_leading_valuations_balance(self):
        # at a candidate the lowest support value is attained at least twice
        pot = potential_of("blowup1", F(2, 5))
        (u,), _ = tropical_candidates(pot)
        vals = pot.polytope.support_values(u)
        low = min(vals)
        assert sum(1 for v in vals if v == low) >= 2


def oracle_potential(seed: int):
    """A seeded polygon (seeds below 12) or threefold with multi-term bulk
    coefficients, a correction whose monomial is constant, one that merges
    with a facet monomial and one on the sum of two facet normals."""
    rng = random.Random(seed)
    if seed < 12:
        p = random_delzant_polytope(rng)
    else:
        p = random_delzant_threefold(rng, max_chops=1)
    m, normals = p.nfacets, [f.normal for f in p.facets]
    bulk = BulkCoefficients(
        tuple(
            NovikovScalar(
                [
                    (0, rng.choice([1, 2, -0.5])),
                    (F(rng.randint(1, 6), rng.randint(1, 5)), rng.uniform(-2, 2)),
                ]
            )
            for _ in range(m)
        )
    )
    # facets whose normals sum to zero: the monomial is the constant y^0
    zero = next(
        ks
        for k in range(2, p.dim + 2)
        for ks in itertools.combinations(range(m), k)
        if not any(map(sum, zip(*(normals[j] for j in ks))))
    )
    j, l = rng.sample(range(m), 2)

    def corr(t, js, c):
        return Correction(t, tuple(js.count(i) for i in range(m)), NovikovScalar.from_number(c))

    corrections = [
        corr(F(1, rng.randint(2, 7)), list(zero), 1.5),
        corr(F(rng.randint(1, 4), 3), [j], -0.75),
        corr(F(1, 2), [j, l], 0.5 + 1j),
    ]
    return build_potential(p, bulk=bulk, corrections=corrections)


def oracle_points(pot, rng) -> list:
    """The candidates and cell samples, random interior points (strict
    convex combinations of the vertices), a vertex and a point outside."""
    cands, cells = tropical_candidates(pot)
    verts = [v.point for v in pot.polytope.vertices()]
    points = list(cands) + [c.sample_u for c in cells]
    for _ in range(6):
        w = [rng.randint(1, 5) for _ in verts]
        points.append(tuple(sum(x * c for x, c in zip(col, w)) / sum(w) for col in zip(*verts)))
    points.append(verts[0])
    points.append(tuple(x - 1 for x in verts[0]))
    return points


class TestFrameOracle:
    """initial_system and balanced_at against the Fraction derivation from
    poly.log_derivative(i) (tests/helpers.py)."""

    def test_oracle_potentials_carry_the_awkward_terms(self):
        for seed in (0, 12):
            terms = oracle_potential(seed).poly.terms
            zero = (0,) * len(next(iter(terms)))
            assert zero in terms
            assert sum(len(c.terms) > 1 for a, c in terms.items() if any(a)) >= 2

    @pytest.mark.parametrize("seed", range(18))
    def test_initial_system_and_balance_match_the_fraction_derivation(self, seed):
        pot = oracle_potential(seed)
        rng = random.Random(100 + seed)
        balanced = []
        for u in oracle_points(pot, rng):
            ok = tropical.balanced_at(pot, u)
            assert ok == reference_balanced_at(pot, u), u
            balanced.append(ok)
            if not pot.polytope.interior_contains(u):
                with pytest.raises(NotInterior):
                    initial_system(pot, u)
                continue
            polys, vals = initial_system(pot, u)
            ref_polys, ref_vals = reference_initial_system(pot, u)
            assert vals == ref_vals, u
            assert polys == ref_polys, u
        assert any(balanced) and not all(balanced)

    def test_candidates_are_balanced_on_the_oracle_potentials(self):
        found = 0
        for seed in range(12):
            pot = oracle_potential(seed)
            cands, _ = tropical_candidates(pot)
            assert all(reference_balanced_at(pot, u) for u in cands)
            found += len(cands)
        assert found > 0

    def test_constant_term_stays_off_the_lift_lattice(self):
        # the constant term's T-power (denominator 7) is an exponent of no
        # critical equation: the lattice and the lift are those without it
        p = catalog("simplex", 2).polytope
        plain = build_potential(p)
        pot = build_potential(p, corrections=[Correction(F(1, 7), (1, 1, 1))])
        assert pot.poly.terms[(0, 0)].valuation() == sum(f.constant for f in p.facets) + F(1, 7)
        u = (F(1, 3), F(1, 3))
        roots = solve_torus_system(initial_system(plain, u)[0], 2).roots
        assert len(roots) == 3
        lats = [tropical._Lattice(q, u, roots, F(2)) for q in (plain, pot)]
        assert lats[1].den == lats[0].den == 3
        for name in ("order", "size", "shifts", "low", "exps", "place", "starts"):
            assert getattr(lats[1], name) == getattr(lats[0], name), name
        for name in ("base", "weights"):
            assert np.array_equal(getattr(lats[1], name), getattr(lats[0], name)), name
        lifts = [newton_lift(q, u, roots, F(2)) for q in (plain, pot)]
        for got, ref in zip(*lifts, strict=True):
            assert got[0] == ref[0] and got[1] == ref[1] == INF
            assert (got[2].den, got[2].shifts, got[2].low) == (ref[2].den, ref[2].shifts, ref[2].low)
            assert np.array_equal(got[2].jac, ref[2].jac)
            assert np.array_equal(got[2].value, ref[2].value)


def certificate(pot, u, ys, lat) -> Fraction | float:
    """The lift's residual certificate at ys, from residuals computed by the
    sparse oracle: equation i of the critical system in the frame at u,
    evaluated term by term and divided by its leading T-power s_i, put on the
    lift's lattice."""
    thetas = [pot.change_frame(u).log_derivative(i) for i in range(len(ys))]
    shifts = [min(c.valuation() for c in h.terms.values()) for h in thetas]
    res = np.array(
        [on_lattice(h.evaluate(ys).shift(-s), lat.den, lat.size) for h, s in zip(thetas, shifts)]
    )
    arrs = np.array([on_lattice(y, lat.den, lat.size) for y in ys])
    return tropical._residual_valuation(lat.den, arrs, res)


def record_lattices(monkeypatch) -> list:
    """Every exponent lattice the lift builds from now on, in order."""
    built = []
    make = tropical._Lattice

    def record(*args):
        built.append(make(*args))
        return built[-1]

    monkeypatch.setattr(tropical, "_Lattice", record)
    return built


def doubling_windows(v, order) -> list:
    """The windows 2v, 4v, ... of the Newton steps from a residual of
    valuation v, the last one capped at the order."""
    windows, w = [], v
    while w < order:
        w = min(2 * w, order)
        windows.append(w)
    return windows


def blowup_root_series(n: int) -> list[Fraction]:
    """Coefficients of s^0..s^(n-1) of the root a = -1 - s + ... of
    a^3 (a + 1) = s, exactly: x = a + 1 solves x = -s (1 - x)^-3."""

    def mul(p, q):
        return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(n)]

    x = [F(0)] * n
    for _ in range(n):
        one_minus_x = [F(1) - x[0]] + [-c for c in x[1:]]
        cube = mul(mul(one_minus_x, one_minus_x), one_minus_x)
        inv = [F(1)] + [F(0)] * (n - 1)
        for k in range(1, n):
            inv[k] = -sum(cube[j] * inv[k - j] for j in range(1, k + 1))
        x = [F(0)] + [-c for c in inv[: n - 1]]
    return [F(-1) + x[0]] + x[1:]


class TestNewtonLift:
    def test_cp1_is_exact_at_first_shot(self):
        pot = potential_of("simplex", 1)
        ((ys, resval, _),) = newton_lift(pot, (F(1, 2),), [(1.0,)])
        assert resval == math.inf
        ((e, c),) = ys[0].terms
        assert e == 0 and c == 1
        # in absolute coordinates the point is T^{1/2} on the nose
        assert ys[0].shift(F(1, 2)).terms == ((F(1, 2), 1 + 0j),)

    def test_lift_reaches_requested_order(self):
        pot = potential_of("blowup1", F(2, 5))
        ((ys, resval, _),) = newton_lift(pot, (F(7, 20), F(3, 10)), [(1.0, 1.0)], order=F(3))
        assert resval >= F(3)
        system = pot.change_frame((F(7, 20), F(3, 10)))
        # residual of the lifted series against the frame equations; below
        # the certified order only pruning rubble may remain
        for i in range(2):
            r = system.log_derivative(i).evaluate(ys)
            low = [c for e, c in r.terms if e < F(3)]
            assert all(abs(c) <= 1e-9 for c in low)

    def test_lift_residual_certificate_default_order(self):
        pot = potential_of("blowup1", F(1, 5))
        rep = find_critical_points(pot)
        for p in rep.points:
            assert p.residual_valuation is not None
            assert p.residual_valuation >= F(5)

    def test_bad_seed_raises(self):
        pot = potential_of("simplex", 2)
        (out,) = newton_lift(pot, (F(1, 3), F(1, 3)), [(0.5, 0.7)])
        assert isinstance(out, NoConvergence) and "not a root" in str(out)

    @pytest.mark.parametrize(
        "name, params, y",
        [
            # a zero or non-finite coordinate is refused before it is evaluated
            ("simplex", (2,), (math.nan, 1)),
            ("simplex", (2,), (0.0, 1)),
            ("simplex", (2,), (math.inf, 1)),
            # at |y1| >= 1e11 every slot-0 residual is below the noise floor
            # of the residual valuation, so only the solver's cut refuses it
            ("simplex", (2,), (1e12, 1)),
            ("simplex", (2,), (1e155, 1)),
            # powers of the seed that overflow or underflow to zero
            ("hirzebruch", (2, F(1, 2)), (1, 1e-200)),
            ("hirzebruch", (2, F(1, 2)), (1e200, 1e200)),
            ("blowup1", (F(2, 5),), (1e200, 1e200)),
            ("blowup2", (F(1, 2), F(1, 5)), (1e-200, 1e-200)),
        ],
    )
    def test_a_seed_that_is_not_a_torus_root_is_refused(self, name, params, y):
        pot = potential_of(name, *params)
        point = find_critical_points(pot).points[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bad, good = newton_lift(pot, point.u, [y, point.y_initial])
        assert isinstance(bad, NoConvergence) and "not a root" in str(bad)
        assert good[1] == point.residual_valuation

    def test_geometric_series_is_lifted_exactly(self):
        # coefficients grow about 8.7 times per step of T^(1/4); a noise
        # floor graded by the square of their size took the T^4 coefficient
        # -1752962953121 as converged where the series has +5815796869995
        pot = potential_of("blowup1", F(1, 4))
        rep = find_critical_points(pot)
        (pt,) = [p for p in rep.points if p.u == (F(1, 4), F(1, 2))]
        exact = blowup_root_series(20)
        assert exact[16] == 5815796869995
        assert exact[19] == -3824609516638444
        scale = max(abs(c) for c in exact)
        for k, c in enumerate(exact):
            assert abs(pt.y_local[0].coeff_at(F(k, 4)) - c) <= 1e-9 * scale, k
        res = residue_report(pot, rep)
        assert res.trace_ok is True
        assert res.trace_residual <= 1e-9

    @pytest.mark.parametrize(
        "name, params, u, y0, k, size",
        [
            # at T^4 the coefficients are ~1e13: a perturbation of 1e6 is far
            # above rounding noise there, far below a floor graded by their
            # square (~1e15)
            ("blowup1", (F(1, 4),), (F(1, 4), F(1, 2)), (-1.0, 1.0), 16, 1e6),
            ("blowup1", (F(2, 5),), (F(7, 20), F(3, 10)), (1.0, 1.0), 9, 1e-6),
        ],
    )
    def test_perturbed_coefficient_is_reported(
        self, monkeypatch, name, params, u, y0, k, size
    ):
        pot = potential_of(name, *params)
        order = F(5)
        lattices = record_lattices(monkeypatch)
        ((ys, resval, _),) = newton_lift(pot, u, [y0], order)
        assert resval == math.inf
        (lat,) = lattices
        assert certificate(pot, u, ys, lat) == math.inf
        d, es, _, _ = ys[0].lattice()
        e = F(es[k], d)
        bumped = (ys[0] + NovikovScalar.monomial(e, size, trunc=order), *ys[1:])
        assert certificate(pot, u, bumped, lat) == e

    def test_steps_follow_the_doubling_schedule(self, monkeypatch):
        pot = potential_of("blowup1", F(2, 5))
        u, y0, order = (F(7, 20), F(3, 10)), (1.0, 1.0), F(3)
        lattices = record_lattices(monkeypatch)
        calls = []
        solve = tropical.lambda_solve

        def counted(jac, rhs, *args):
            assert jac.shape[3] == rhs.shape[2]
            calls.append(rhs.shape[2])
            return solve(jac, rhs, *args)

        monkeypatch.setattr(tropical, "lambda_solve", counted)
        newton_lift(pot, u, [y0], order)
        (lat,) = lattices
        ys0 = tuple(NovikovScalar.monomial(0, c, trunc=order) for c in y0)
        v = certificate(pot, u, ys0, lat)
        assert 0 < v < order
        assert [F(c, lat.den) for c in calls] == doubling_windows(v, order)

    def test_one_term_evaluation_per_step(self, monkeypatch):
        # an operation count, not a timing: the lift evaluates the terms of
        # the potential once for the seed, when it builds its lattice, and
        # once per Newton step, only to the next window, inverting each
        # coordinate at most once per step
        pot = potential_of("blowup2", F(1, 2), F(1, 5))
        pt = max(
            find_critical_points(pot).points,
            key=lambda p: max(len(y.terms) for y in p.y_local or ()),
        )
        n = pot.polytope.dim
        steps, evaluations, widths, inside = [], [], [], []
        solve = tropical.lambda_solve
        term_arrays = tropical._term_arrays

        def recorded(lat, rows, x, width):
            widths.append(width)
            evaluations.append(0)
            inside.append(True)
            try:
                return term_arrays(lat, rows, x, width)
            finally:
                inside.pop()

        unit_inverse = tropical._unit_inverse

        def inverse(p):
            if inside:
                evaluations[-1] += 1
            return unit_inverse(p)

        def counted_solve(jac, rhs, *args):
            steps.append(rhs.shape[2])
            return solve(jac, rhs, *args)

        lattices = record_lattices(monkeypatch)
        monkeypatch.setattr(tropical, "_term_arrays", recorded)
        monkeypatch.setattr(tropical, "_unit_inverse", inverse)
        monkeypatch.setattr(tropical, "lambda_solve", counted_solve)
        ((ys, _, _),) = newton_lift(pot, pt.u, [pt.y_initial])
        assert ys == pt.y_local
        assert len(lattices) == 1
        assert len(steps) >= 3
        assert len(evaluations) == len(steps)
        assert all(0 < k <= n for k in evaluations)
        # after a step on window W the terms are needed to min(2W, N) only
        assert widths == [min(2 * w, steps[-1]) for w in steps]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.inf, math.nan)])
    def test_a_non_finite_residual_slot_is_content(self, bad):
        res = np.zeros((2, 4), complex)
        res[1, 2] = bad
        for ys in (np.ones((2, 4), complex), np.full((2, 4), math.inf, complex)):
            assert tropical._residual_valuation(4, ys, res) == F(1, 2)

    def test_scalar_keeps_a_non_finite_slot_as_from_lattice_does(self):
        arr = np.array([1.0, math.nan, 1e-20, math.inf, -2j])
        got = tropical._scalar(arr, 3, 2).lattice()
        want = NovikovScalar.from_lattice(3, [2, 3, 4, 5, 6], arr.tolist(), 7).lattice()
        assert got[1] == want[1] == (2, 3, 5, 6)
        assert (got[0], got[3]) == (want[0], want[3]) == (3, 7)
        assert repr(got[2]) == repr(want[2])  # NaN == NaN is False

    def test_final_residual_below_order_raises(self, monkeypatch):
        # a solve that never corrects past T^1 leaves residual content below
        # the order, which the final measurement must refuse
        pot = potential_of("blowup1", F(2, 5))
        u, order = (F(7, 20), F(3, 10)), F(3)
        lattices = record_lattices(monkeypatch)
        solve = tropical.lambda_solve

        def cut(jac, rhs, *args):
            delta = solve(jac, rhs, *args)
            delta[..., lattices[-1].den :] = 0  # slot den holds T^1
            return delta

        monkeypatch.setattr(tropical, "lambda_solve", cut)
        (out,) = newton_lift(pot, u, [(1.0, 1.0)], order=order)
        assert isinstance(out, NoConvergence) and "below the order" in str(out)

    @pytest.mark.parametrize(
        "name, params, u, y0",
        [
            ("simplex", (1,), (F(1, 2),), (1.0,)),
            ("blowup1", (F(2, 5),), (F(7, 20), F(3, 10)), (1.0, 1.0)),
        ],
    )
    def test_no_series_arithmetic_before_the_final_scalars(
        self, monkeypatch, name, params, u, y0
    ):
        # the lift reads the potential and u directly onto its lattice: no
        # frame change, no term values, no sums or products of scalars
        pot = potential_of(name, *params)
        expected = newton_lift(pot, u, [y0])[0][:2]

        def forbidden(*args, **kwargs):
            raise AssertionError("series arithmetic inside the lift")

        for attr in ("change_frame", "term_values", "evaluate"):
            monkeypatch.setattr(LaurentPoly, attr, forbidden)
        for attr in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__pow__", "invert"):
            monkeypatch.setattr(NovikovScalar, attr, forbidden)
        assert newton_lift(pot, u, [y0])[0][:2] == expected

    def test_each_seed_valuation_group_doubles_on_its_own(self, monkeypatch):
        # CP^2 with corrections -2 T^(1/2) z1 + T^(1/6) z1^2, which cancel in
        # the first equation at the root y = (1, 1) only, and T z2: the roots
        # (w, w) and (w^2, w^2) (w^3 = 1) have seed residual valuation 1/2,
        # the root (1, 1) has 1
        pot = build_potential(
            catalog("simplex", 2).polytope,
            corrections=[
                Correction(F(1, 2), (1, 0, 0), NovikovScalar.from_number(-2)),
                Correction(F(1, 6), (2, 0, 0), NovikovScalar.from_number(1)),
                Correction(F(1), (0, 1, 0)),
            ],
        )
        u, order = (F(1, 3), F(1, 3)), F(5)
        roots = [p.y_initial for p in find_critical_points(pot).points]
        singles = [newton_lift(pot, u, [r])[0] for r in roots]
        lattices = record_lattices(monkeypatch)
        calls = []
        solve = tropical.lambda_solve

        def counted(jac, rhs, *args):
            calls.append((len(rhs), rhs.shape[2]))
            return solve(jac, rhs, *args)

        monkeypatch.setattr(tropical, "lambda_solve", counted)
        lifts = newton_lift(pot, u, roots, order)
        for got, alone in zip(lifts, singles, strict=True):
            assert_same_lift(got, alone)
        (lat,) = lattices
        seeds = [tuple(NovikovScalar.monomial(0, c, trunc=order) for c in r) for r in roots]
        vals = [certificate(pot, u, ys0, lat) for ys0 in seeds]
        assert sorted(vals) == [F(1, 2), F(1, 2), F(1)]
        expected = [
            (vals.count(v), w * lat.den)
            for v in dict.fromkeys(vals)  # groups in the order of their first root
            for w in doubling_windows(v, order)
        ]
        assert calls == expected

    @pytest.mark.parametrize("fault", [None, "overflow", "below the order"])
    def test_a_failing_row_leaves_its_siblings_alone(self, monkeypatch, fault):
        # the degenerate root and the two simple roots in one batch; a
        # correction above the leading order keeps the initial roots and makes
        # the simple ones take Newton steps together, as rows 0 and 1
        pot = degenerate_bulk_potential([Correction(F(1, 2), (1, 0, 0, 0))])
        points = find_critical_points(pot).points
        assert len({p.u for p in points}) == 1
        u, roots = points[0].u, [p.y_initial for p in points]
        singles = [newton_lift(pot, u, [r])[0] for r in roots]
        assert [type(s).__name__ for s in singles].count("SingularInitialJacobian") == 1
        simple = [k for k, s in enumerate(singles) if isinstance(s, tuple)]
        assert len(simple) == 2
        lattices = record_lattices(monkeypatch)
        solve = tropical.lambda_solve
        rows = []

        def faulty(jac, rhs, *args):
            rows.append(len(rhs))
            delta = solve(jac, rhs, *args)
            if fault == "overflow" and len(rows) == 1:
                delta[0, :, -1] = np.inf
            elif fault == "below the order":
                delta[0, :, lattices[-1].den :] = 0  # slot den holds T^1
            return delta

        monkeypatch.setattr(tropical, "lambda_solve", faulty)
        lifts = newton_lift(pot, u, roots)
        assert rows[0] == 2 and len(rows) >= 3
        for k, (got, alone) in enumerate(zip(lifts, singles, strict=True)):
            if fault and k == simple[0]:
                assert isinstance(got, NoConvergence) and fault in str(got)
            else:
                assert_same_lift(got, alone)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: potential_of("blowup2", F(1, 2), F(1, 5)),
            lambda: build_potential(
                random_delzant_threefold(random.Random(3), max_chops=3), assume_fano=True
            ),
        ],
        ids=["blowup2:1/2,1/5", "threefold-3"],
    )
    def test_one_lattice_per_candidate_and_one_solve_per_group_step(self, monkeypatch, make):
        # an operation count: the search lifts the roots of each candidate in
        # one call on one lattice, and solves once per Newton step of each
        # group of roots with one seed residual valuation, not once per root
        pot = make()
        order = F(5)
        points = find_critical_points(pot).points
        lattices = record_lattices(monkeypatch)
        calls = []
        solve = tropical.lambda_solve

        def counted(jac, rhs, *args):
            calls.append((len(lattices), len(rhs), rhs.shape[2]))
            return solve(jac, rhs, *args)

        monkeypatch.setattr(tropical, "lambda_solve", counted)
        assert find_critical_points(pot).points == points
        by_u: dict = {}
        for p in points:
            by_u.setdefault(p.u, []).append(p)
        assert [len(lat.base) for lat in lattices] == [len(ps) for ps in by_u.values()]
        expected = []
        for k, (lat, (u, ps)) in enumerate(zip(lattices, by_u.items()), 1):
            seeds = [
                tuple(NovikovScalar.monomial(0, c, trunc=order) for c in p.y_initial)
                for p in ps
            ]
            vals = [certificate(pot, u, ys0, lat) for ys0, p in zip(seeds, ps) if p.nondegenerate]
            expected += [
                (k, vals.count(v), w * lat.den)
                for v in dict.fromkeys(vals)
                for w in doubling_windows(v, order)
            ]
        assert sorted(calls) == sorted(expected)
        assert max(rows for _, rows, _ in calls) > 1

    def test_degenerate_root_raises_singular_initial_jacobian(self):
        pot = degenerate_bulk_potential()
        (degen,) = [p for p in find_critical_points(pot).points if not p.nondegenerate]
        (out,) = newton_lift(pot, degen.u, [degen.y_initial])
        assert isinstance(out, SingularInitialJacobian)


class TestCriticalPoints:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projective_space(self, n):
        rep = find_critical_points(potential_of("simplex", n))
        assert len(rep.points) == n + 1
        u_star = tuple([F(1, n + 1)] * n)
        roots = []
        for p in rep.points:
            assert p.u == u_star
            assert p.nondegenerate and p.multiplicity == 1
            # all coordinates share one n+1st root of unity
            z = p.y_initial[0]
            assert all(close(w, z) for w in p.y_initial)
            assert close(z ** (n + 1), 1.0)
            roots.append(z)
        # the n+1 fibers use the n+1 distinct roots
        for k in range(n + 1):
            zeta = cmath.exp(2j * cmath.pi * k / (n + 1))
            assert any(close(z, zeta) for z in roots)

    def test_blowup1_generic_roots(self):
        rep = find_critical_points(potential_of("blowup1", F(2, 5)))
        assert len(rep.points) == 4
        got = sorted(
            (round(p.y_initial[0].real, 6), round(p.y_initial[0].imag, 6),
             round(p.y_initial[1].real, 6))
            for p in rep.points
        )
        assert got == [(-1, 0, 1), (0, -1, -1), (0, 1, -1), (1, 0, 1)]

    def test_blowup1_small_alpha_split_counts(self):
        rep = find_critical_points(potential_of("blowup1", F(1, 5)))
        by_u = {}
        for p in rep.points:
            by_u.setdefault(p.u, []).append(p)
        assert len(by_u[(F(1, 5), F(3, 5))]) == 1
        assert len(by_u[(F(1, 3), F(1, 3))]) == 3
        lone = by_u[(F(1, 5), F(3, 5))][0]
        assert close(lone.y_initial[0], -1.0) and close(lone.y_initial[1], 1.0)
        for p in by_u[(F(1, 3), F(1, 3))]:
            assert close(p.y_initial[0] ** 3, 1.0)

    def test_blowup1_monotone_eliminant(self):
        rep = find_critical_points(potential_of("blowup1", F(1, 3)))
        assert len(rep.points) == 4
        assert all(p.u == (F(1, 3), F(1, 3)) for p in rep.points)
        (elim,) = rep.eliminants
        coeffs = elim.coeffs
        assert len(coeffs) == 5
        expected = [-1, 0, 0, 1, 1]  # z^4 + z^3 - 1, degree 0 upward
        assert all(abs(c - e) < 1e-9 for c, e in zip(coeffs, expected))

    def test_hirzebruch_with_correction(self):
        rep = find_critical_points(potential_of("hirzebruch", 2, F(1, 2)))
        assert len(rep.points) == 4
        assert all(p.u == (F(3, 4), F(1, 4)) for p in rep.points)
        # ybar2 branches are +-(1 +- T^{1/2}) and ybar1 the matching inverse
        for p in rep.points:
            y2 = p.y_local[1]
            s = y2.coeff_at(0)
            assert close(abs(s), 1.0)
            assert close(abs(y2.coeff_at(F(1, 2))), 1.0)
            prod = p.y_local[0] * p.y_local[1]
            # y1 y2 = sign: the branches pair into inverses
            assert close(abs(prod.coeff_at(0)), 1.0)

    def test_blowup2_five_points(self):
        rep = find_critical_points(potential_of("blowup2", F(1, 2), F(1, 5)))
        by_u = {}
        for p in rep.points:
            by_u.setdefault(p.u, []).append(p)
        assert len(by_u[(F(3, 8), F(1, 4))]) == 4
        assert len(by_u[(F(1, 5), F(1, 5))]) == 1
        assert rep.multiplicity_total() == 5
        assert rep.multiplicity_total() == potential_of(
            "blowup2", F(1, 2), F(1, 5)
        ).polytope.total_betti()

    def test_blowup2_segment_case(self):
        rep = find_critical_points(potential_of("blowup2", F(1, 2), F(1, 4)))
        assert len(rep.points) == 2
        assert all(p.u == (F(3, 8), F(1, 4)) for p in rep.points)
        vals = sorted(round(p.y_initial[0].real, 6) for p in rep.points)
        assert vals == [round(-1 / math.sqrt(2), 6), round(1 / math.sqrt(2), 6)]
        assert [c.dimension for c in rep.cells] == [1]

    def test_degenerate_double_point_with_bulk(self):
        rep = find_critical_points(degenerate_bulk_potential())
        assert len(rep.points) == 3
        degen = [p for p in rep.points if not p.nondegenerate]
        assert len(degen) == 1
        d = degen[0]
        assert d.multiplicity == 2 and d.y_local is None
        assert close(d.y_initial[0], -1.0) and close(d.y_initial[1], 1.0, tol=1e-6)
        simple = [p for p in rep.points if p.nondegenerate]
        for p in simple:
            assert p.multiplicity == 1
            assert abs(p.y_initial[0].real - 1 / 3) < 1e-9
        roots = sorted(p.y_initial[0].imag for p in simple)
        w = math.sqrt(2) / 3
        assert abs(roots[0] + w) < 1e-9 and abs(roots[1] - w) < 1e-9
        assert rep.multiplicity_total() == 4

    def test_failed_lift_keeps_the_simple_point(self, monkeypatch):
        # a root with an invertible leading Jacobian is simple whether or not
        # its series lifts; a lift that fails numerically drops only the series
        pot = potential_of("simplex", 2)
        real_lift = tropical.newton_lift
        failing = []

        def flaky_lift(potential, u, roots, order=None):
            lifts = real_lift(potential, u, roots, order)
            if not failing:
                failing.append(roots[0])
                lifts[0] = NoConvergence("residual valuation below the order")
            return lifts

        monkeypatch.setattr(tropical, "newton_lift", flaky_lift)
        rep = find_critical_points(pot)
        assert len(rep.points) == 3 and rep.multiplicity_total() == 3
        unlifted = [p for p in rep.points if p.y_local is None]
        assert [p.y_initial for p in unlifted] == failing
        assert unlifted[0].nondegenerate and unlifted[0].residual_valuation is None
        res = residue_report(pot, rep)
        assert res.trace_ok is None and res.morse_ok and res.morse_total == 3
        assert any("did not lift" in note for note in res.notes)

    def test_random_threefold_reports_every_simple_point(self):
        # seed 7: one root at u = (21/64, 3/64, 3/64) has a lift so
        # ill-conditioned (series coefficients near 1e40) that it fails on
        # the last bits of the root; the search must still report it
        from helpers import random_delzant_threefold
        import random

        poly = random_delzant_threefold(random.Random(7), max_chops=3)
        pot = build_potential(poly, assume_fano=True)
        rep = find_critical_points(pot)
        assert len(rep.points) >= 10
        assert all(p.nondegenerate and p.multiplicity == 1 for p in rep.points)
        assert rep.multiplicity_total() <= poly.total_betti()
        assert [c.dimension for c in rep.cells].count(0) == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_lift_keeps_the_simple_point_without_a_series(self):
        # seed 37: the series at two points outgrow float64 before the order;
        # the overflow ends the lift (NoConvergence) instead of certifying
        # inf/NaN arrays
        poly = random_delzant_polytope(random.Random(37), max_chops=4)
        pot = build_potential(poly, assume_fano=True)
        rep = find_critical_points(pot)
        diverging = {(F(35, 48), F(1, 4)), (F(53, 72), F(35, 144))}
        assert len(rep.points) == 7
        assert {p.u for p in rep.points} >= diverging
        for p in rep.points:
            assert p.nondegenerate and p.multiplicity == 1
            if p.u in diverging:
                assert p.y_local is None and p.residual_valuation is None
                (out,) = newton_lift(pot, p.u, [p.y_initial])
                assert isinstance(out, NoConvergence) and "overflow" in str(out)
            else:
                assert p.y_local is not None and p.residual_valuation == INF

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bulk_values_far_apart_warn_nothing_and_certify_only_finite_series(self):
        # facet j of polygon seed s carries the bulk value +-2^k, k in
        # [-30, 30]: at seed 27 the three lifts at u = (2/3, 2/3) leave the
        # float range only when y = y0 (1 + x) is formed, and at seeds 27
        # and 31 a 1/Z does in its unit inverse
        for s in range(64):
            poly = random_delzant_polytope(random.Random(s))
            rng = random.Random(1000 + s)
            bulk = BulkCoefficients(tuple(
                NovikovScalar.from_number(rng.choice((1, -1)) * 2.0 ** rng.randint(-30, 30))
                for _ in poly.facets
            ))
            pot = build_potential(poly, bulk=bulk, assume_fano=True)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rep = find_critical_points(pot)
                res = residue_report(pot, rep)
            lifted = [p for p in rep.points if p.y_local is not None]
            for p in lifted:
                assert all(cmath.isfinite(c) for y in p.y_local for c in y.lattice()[2]), (s, p.u)
            if s == 27:
                diverging = [p for p in rep.points if p.u == (F(2, 3), F(2, 3))]
                assert len(diverging) == 3
                for p in diverging:
                    assert p.nondegenerate and p.y_local is None and p.residual_valuation is None
            if s in (27, 31):
                assert not all(cmath.isfinite(c) for z in res.pairing_diag for c in z.lattice()[2])
                assert res.trace_ok is None

    def test_truncation_stability(self):
        pot = potential_of("blowup1", F(2, 5))
        rep3 = find_critical_points(pot, order=F(3))
        rep6 = find_critical_points(pot, order=F(6))
        assert len(rep3.points) == len(rep6.points)
        for p3, p6 in zip(rep3.points, rep6.points):
            assert p3.u == p6.u
            for a, b in zip(p3.y_local, p6.y_local):
                assert_scalar_close(a, b.truncate(F(3)), tol=1e-9)


# the catalog entries the tests build, the degenerate bulk double point,
# and the polygon and threefold seeds of the residue oracle, with polygon 6,
# whose cells include one of dimension 0
REPORT_ORDER_CASES = [
    pytest.param(lambda s=s: potential_of(*s), id=":".join(map(str, s)))
    for s in [
        ("simplex", 1), ("simplex", 2), ("simplex", 3), ("simplex", 4), ("simplex", 5),
        ("blowup1", F(1, 3)), ("blowup1", F(1, 4)), ("blowup1", F(1, 5)),
        ("blowup1", F(2, 5)), ("blowup2", F(1, 3), F(1, 3)),
        ("blowup2", F(1, 2), F(1, 5)), ("blowup2", F(1, 2), F(1, 4)),
        ("hirzebruch", 1, F(1, 3)), ("hirzebruch", 1, F(1, 2)),
        ("hirzebruch", 1, F(2, 5)), ("hirzebruch", 2, F(1, 2)),
        ("hirzebruch", 2, F(2, 5)),
    ]
] + [pytest.param(degenerate_bulk_potential, id="degenerate-bulk")] + [
    pytest.param(
        lambda s=s: build_potential(random_delzant_polytope(random.Random(s)), assume_fano=True),
        id=f"polygon-{s}",
    )
    for s in (1, 6, 8, 16, 18, 20)
] + [
    pytest.param(
        lambda s=s: build_potential(random_delzant_threefold(random.Random(s)), assume_fano=True),
        id=f"threefold-{s}",
    )
    for s in (0, 1, 6, 7, 13)
]


@pytest.mark.parametrize("make", REPORT_ORDER_CASES)
def test_the_report_comes_in_search_order(make):
    # points by (u, rounded initial root), eliminants by u, cells by
    # (dimension, sample point); the search builds them in this order
    rep = find_critical_points(make())
    keys = [
        (p.u, tuple((round(z.real, 9), round(z.imag, 9)) for z in p.y_initial))
        for p in rep.points
    ]
    assert keys == sorted(keys)
    us = [e.u for e in rep.eliminants]
    assert us == sorted(us) and len(set(us)) == len(us)
    cells = [(c.dimension, c.sample_u) for c in rep.cells]
    assert cells == sorted(cells)


class TestAbsoluteCoordinates:
    def test_y_absolute_shifts_by_u(self):
        rep = find_critical_points(potential_of("simplex", 2))
        p = rep.points[0]
        for local, absolute in zip(p.y_local, p.y_absolute()):
            assert absolute.valuation() == local.valuation() + F(1, 3)

    def test_critical_point_json(self):
        rep = find_critical_points(potential_of("simplex", 1))
        d = rep.to_json_dict()
        assert len(d["points"]) == 2
        assert d["points"][0]["u"] == ["0.5"]
        assert "y_local" in d["points"][0]
