"""Hessians, Z-values, residue pairing, trace identity, duality regression."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import (
    catalog_potential,
    cpn_duality_errors,
    novikov_det,
    random_delzant_polytope,
    random_delzant_threefold,
)

from toriclg import (
    BulkCoefficients,
    Correction,
    MomentPolytope,
    NovikovScalar,
    build_potential,
    catalog,
    find_critical_points,
    get_config,
    hessian_matrix,
    morse_count_check,
    residue_report,
    z_exactness,
    z_value,
)
from toriclg.tropical import LatticeSystem

F = Fraction


def potential_of(name, *params):
    entry = catalog(name, *params)
    return build_potential(entry.polytope, corrections=entry.corrections)


def point_with_root(rep, z0, tol=1e-8):
    return next(
        p for p in rep.points if abs(p.y_initial[0] - z0) <= tol
    )


class TestHessian:
    def test_cp1_value(self):
        pot = potential_of("simplex", 1)
        rep = find_critical_points(pot)
        pt = point_with_root(rep, 1.0)
        ((h,),) = [hessian_matrix(pot, pt.u, pt.y_local)[0]]
        assert h.valuation() == F(1, 2)
        assert h.coeff_at(F(1, 2)) == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cpn_closed_form(self, n):
        pot = potential_of("simplex", n)
        rep = find_critical_points(pot)
        for pt in rep.points:
            zeta = pt.y_initial[0]
            h = hessian_matrix(pot, pt.u, pt.y_local)
            for i in range(n):
                for j in range(n):
                    expected = zeta * (2.0 if i == j else 1.0)
                    entry = h[i][j]
                    assert entry.valuation() == F(1, n + 1)
                    assert entry.coeff_at(F(1, n + 1)) == pytest.approx(
                        expected, abs=1e-9
                    )

    def test_symmetry_is_term_exact(self):
        for name, params in [
            ("blowup1", (F(2, 5),)),
            ("blowup2", (F(1, 2), F(1, 5))),
            ("hirzebruch", (2, F(1, 2))),
        ]:
            pot = potential_of(name, *params)
            rep = find_critical_points(pot)
            for pt in rep.points:
                if pt.y_local is None:
                    continue
                h = hessian_matrix(pot, pt.u, pt.y_local)
                n = len(h)
                for i in range(n):
                    for j in range(i + 1, n):
                        assert h[i][j] == h[j][i]


class TestDeterminant:
    def test_two_by_two(self):
        a = NovikovScalar.monomial(0, 2.0)
        b = NovikovScalar.monomial(1, 1.0)
        det = novikov_det([[a, b], [b, a]])
        assert det.coeff_at(0) == pytest.approx(4.0)
        assert det.coeff_at(2) == pytest.approx(-1.0)

    def test_three_by_three_permutation_signs(self):
        one = NovikovScalar.one()
        zero = NovikovScalar.zero()
        # permutation matrix of a 3-cycle has determinant +1
        m = [[zero, one, zero], [zero, zero, one], [one, zero, zero]]
        assert novikov_det(m).coeff_at(0) == pytest.approx(1.0)

    def test_empty_matrix(self):
        assert novikov_det([]).coeff_at(0) == pytest.approx(1.0)


class TestZValues:
    def test_cp2(self):
        pot = potential_of("simplex", 2)
        rep = find_critical_points(pot)
        for pt in rep.points:
            z = z_value(pot, pt)
            zeta = pt.y_initial[0]
            assert z.valuation() == F(2, 3)
            assert z.coeff_at(F(2, 3)) == pytest.approx(3 * zeta ** 2, abs=1e-9)

    def test_hirzebruch_determinants(self):
        pot = potential_of("hirzebruch", 2, F(1, 2))
        rep = find_critical_points(pot)
        assert len(rep.points) == 4
        coeffs = []
        for pt in rep.points:
            z = z_value(pot, pt)
            assert z.valuation() == F(1)
            c = z.coeff_at(F(1))
            assert abs(abs(c) - 4.0) < 1e-9
            assert abs(c.imag) < 1e-9
            coeffs.append(round(c.real, 6))
        assert sorted(coeffs) == [-4.0, -4.0, 4.0, 4.0]

    def test_monotone_blowup_closed_form(self):
        pot = potential_of("blowup1", F(1, 3))
        rep = find_critical_points(pot)
        assert len(rep.points) == 4
        for pt in rep.points:
            z0 = pt.y_initial[0]
            expected = (4 - z0 ** 3) / z0
            z = z_value(pot, pt)
            assert z.valuation() == F(2, 3)
            assert abs(z.coeff_at(F(2, 3)) - expected) < 1e-9 * max(
                1.0, abs(expected)
            )

    def test_valuation_consistency_across_catalog(self):
        # v(Z) from the lift's system against the Hessian entries: it is at
        # least the least sum of entry valuations over the permutations, with
        # equality when the leading terms along the minimizing permutations
        # do not cancel
        for name, params in [
            ("simplex", (2,)),
            ("simplex", (3,)),
            ("blowup1", (F(2, 5),)),
            ("blowup1", (F(1, 5),)),
            ("blowup2", (F(1, 2), F(1, 5))),
            ("hirzebruch", (2, F(1, 2))),
        ]:
            pot = potential_of(name, *params)
            rep = find_critical_points(pot)
            for pt in rep.points:
                if pt.y_local is None:
                    continue
                h = hessian_matrix(pot, pt.u, pt.y_local)
                n = len(h)
                vals = [[e.valuation() for e in row] for row in h]
                sums = {
                    p: sum(vals[i][p[i]] for i in range(n))
                    for p in itertools.permutations(range(n))
                }
                best = min(sums.values())
                lead = sum(
                    (-1) ** sum(a > b for a, b in itertools.combinations(p, 2))
                    * math.prod(h[i][p[i]].coeff_at(vals[i][p[i]]) for i in range(n))
                    for p, v in sums.items()
                    if v == best
                )
                # on this list the leading terms never cancel
                assert best != float("inf") and abs(lead) > 1e-9
                assert z_value(pot, pt).valuation() == best, (name, pt.u)


class TestResidueReport:
    def test_cpn_pairing_closed_form(self):
        n = 3
        pot = potential_of("simplex", n)
        rep = find_critical_points(pot)
        res = residue_report(pot, rep)
        for pt, pair in zip(
            [p for p in rep.points if p.y_local is not None], res.pairing_diag
        ):
            zeta = pt.y_initial[0]
            assert pair.valuation() == F(-n, n + 1)
            expected = zeta ** (-n) / (n + 1)
            assert abs(pair.coeff_at(F(-n, n + 1)) - expected) < 1e-9

    def test_pairing_inverts_z(self):
        pot = potential_of("blowup1", F(2, 5))
        rep = find_critical_points(pot)
        res = residue_report(pot, rep)
        for z, pair in zip(res.z_values, res.pairing_diag):
            prod = z * pair
            assert prod.coeff_at(0) == pytest.approx(1.0)
            assert all(abs(c) < 1e-9 for e, c in prod.terms if e != 0)

    def test_constant_term_enters_the_critical_value(self):
        # z1 z3 = T^(3/2) on the box [0, 1] x [0, 1/2] has exponent 0: the
        # lift's lattice leaves the term out and the report adds it exactly
        rows = [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), F(1, 2))]
        box = MomentPolytope.from_inequalities(rows)
        corr = Correction(F(1, 2), (1, 0, 1, 0), NovikovScalar.from_number(3.0))
        pot = build_potential(box, corrections=[corr])
        assert pot.poly.terms[(0, 0)] == NovikovScalar.monomial(F(3, 2), 3.0)
        rep = find_critical_points(pot)
        res = residue_report(pot, rep)
        assert len(res.critical_values) == 4
        for pt, value in zip(rep.points, res.critical_values):
            ref = pot.poly.evaluate(pt.y_absolute())
            assert value.trunc == ref.trunc
            assert abs(value.coeff_at(F(3, 2)) - ref.coeff_at(F(3, 2))) < 1e-12
            assert (value - ref).max_abs_coeff() < 1e-12

    def test_cp1_critical_values(self):
        pot = potential_of("simplex", 1)
        rep = find_critical_points(pot)
        res = residue_report(pot, rep)
        got = sorted(c.coeff_at(F(1, 2)).real for c in res.critical_values)
        assert got == pytest.approx([-2.0, 2.0])
        for c in res.critical_values:
            assert c.valuation() == F(1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cpn_critical_values_are_eigenvalues(self, n):
        pot = potential_of("simplex", n)
        rep = find_critical_points(pot)
        res = residue_report(pot, rep)
        assert len(res.critical_values) == n + 1
        seen = []
        for c in res.critical_values:
            assert c.valuation() == F(1, n + 1)
            lead = c.coeff_at(F(1, n + 1))
            # a critical value (n+1) zeta for a fresh root of unity zeta
            assert abs(lead ** (n + 1) - (n + 1) ** (n + 1)) < 1e-6
            assert all(abs(lead - s) > 1e-6 for s in seen)
            seen.append(lead)

    def test_trace_vanishes_on_fano_catalog(self):
        cases = [
            ("simplex", (1,)),
            ("simplex", (2,)),
            ("simplex", (3,)),
            ("blowup1", (F(2, 5),)),
            ("blowup1", (F(1, 5),)),
            ("blowup1", (F(1, 3),)),
            ("blowup2", (F(1, 2), F(1, 5))),
            ("hirzebruch", (1, F(2, 5))),
        ]
        for name, params in cases:
            pot = potential_of(name, *params)
            rep = find_critical_points(pot)
            res = residue_report(pot, rep)
            assert res.trace_ok, (name, params, res.trace_residual)
            assert res.trace_residual <= 1e-9

    def test_written_trace_sum_leaves_out_rounding_residue(self):
        # the sum of 1/Z is zero; on blowup2:1/2,1/5 its computed terms are
        # rounding residue of about 1e-15 of the pairing scale, which only
        # trace_residual reports
        pot = potential_of("blowup2", F(1, 2), F(1, 5))
        rep = find_critical_points(pot)
        tol = get_config().tol_zero

        def checked(rep):
            res = residue_report(pot, rep)
            total = sum(res.pairing_diag, NovikovScalar.zero())
            scale = max(t.max_abs_coeff() for t in res.pairing_diag)
            assert res.trace_residual == total.max_abs_coeff() / scale
            assert res.trace_ok is (res.trace_residual <= tol)
            kept = tuple((e, c) for e, c in total.terms if abs(c) > tol * scale)
            assert res.trace_sum.terms == kept
            assert res.trace_sum.trunc == total.trunc
            doc = res.trace_sum.to_json_dict()
            assert NovikovScalar.from_json_dict(doc).to_json_dict() == doc
            return res

        res = checked(rep)
        assert res.trace_ok is True and 0 < res.trace_residual <= tol
        assert res.trace_sum.is_zero()
        # without one point the sum is minus its 1/Z, which is written
        rep.points = rep.points[1:]
        res = checked(rep)
        assert res.trace_ok is False and res.trace_sum.terms

    def test_degenerate_points_skip_trace_with_note(self):
        entry = catalog("blowup1", F(1, 3))
        bulk = BulkCoefficients(
            tuple(NovikovScalar.from_number(c) for c in (1, 1, -0.25, 0.75))
        )
        pot = build_potential(entry.polytope, bulk=bulk)
        rep = find_critical_points(pot)
        res = residue_report(pot, rep)
        assert res.trace_ok is None
        assert any("degenerate" in note for note in res.notes)
        assert res.morse_ok and res.morse_mode == "equality"
        assert len(res.z_values) == 2  # only the nondegenerate pair

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_pairing_skips_trace_with_note(self, monkeypatch, bad):
        # a NaN would make the largest coefficient of the sum, and so the
        # residual, depend on the order of its terms
        pot = potential_of("simplex", 2)
        rep = find_critical_points(pot)
        z_inverse = LatticeSystem.z_inverse

        def spoiled(system):
            den, es, cs, t = z_inverse(system).lattice()
            if system is rep.points[0].system:
                cs = (bad, *cs[1:])
            return NovikovScalar.from_lattice(den, es, cs, t)

        monkeypatch.setattr(LatticeSystem, "z_inverse", spoiled)
        res = residue_report(pot, rep)
        assert len(res.pairing_diag) == 3
        assert (res.trace_ok, res.trace_sum, res.trace_residual) == (None, None, None)
        assert res.notes == ["a 1/Z has a NaN or infinite coefficient: trace check skipped"]

    @pytest.mark.parametrize("spec", ["blowup1:1/5", "simplex:3", "hirzebruch:2,1/2"])
    def test_no_series_products_in_the_search_or_the_residue_report(self, monkeypatch, spec):
        # series cross to and from the arrays by lattice() and from_lattice()
        # only: no scalar is parsed from Fractions, multiplied or inverted;
        # __add__ serves the trace sum, the constant term and hirzebruch:2's
        # merged term.  The potential is built first, its terms on first use
        pot = catalog_potential(spec)

        def forbidden(*args, **kwargs):
            raise AssertionError("Novikov scalar arithmetic in the pipeline")

        for attr in ("__init__", "monomial", "__mul__", "__rmul__", "__pow__", "invert"):
            monkeypatch.setattr(NovikovScalar, attr, forbidden)
        rep = find_critical_points(pot)
        res = residue_report(pot, rep)
        monkeypatch.undo()
        ref_pot = catalog_potential(spec)
        ref = find_critical_points(ref_pot)
        assert rep.points and rep == ref
        assert res == residue_report(ref_pot, ref)

    def test_cells_downgrade_morse_to_lower_bound(self):
        pot = potential_of("blowup2", F(1, 2), F(1, 4))
        rep = find_critical_points(pot)
        ok, total, betti, mode = morse_count_check(pot, rep)
        assert mode == "lower-bound"
        assert ok and total == 2 and betti == 5
        res = residue_report(pot, rep)
        assert res.trace_ok is None
        assert any("cells" in note for note in res.notes)


def intersection_sums(pot):
    """For every set J of n distinct facets, sum_p z_J(p) / Z(p) with
    z_J = prod_{j in J} T^(ell_j(u)) y^(v_j) at each point's lifted series,
    in sparse arithmetic, and the largest coefficient among its summands."""
    rep = find_critical_points(pot)
    res = residue_report(pot, rep)
    # a complete, fully lifted report: the sums are over every point
    assert res.morse_mode == "equality" and res.morse_ok and res.trace_ok
    facets = pot.polytope.facets
    out = []
    for subset in itertools.combinations(range(len(facets)), pot.polytope.dim):
        total, scale = NovikovScalar.zero(), 0.0
        for pt, inv in zip(rep.points, res.pairing_diag):
            term = inv
            for j in subset:
                z = NovikovScalar.monomial(facets[j].ell(pt.u))
                for y, e in zip(pt.y_local, facets[j].normal):
                    z = z * y**e if e else z
                term = term * z
            total = total + term
            scale = max(scale, term.max_abs_coeff())
        out.append((subset, total, scale))
    return out


INTERSECTION_CASES = [
    pytest.param(lambda n=n, p=p: potential_of(n, *p), id=f"{n}:{p}")
    for n, p in [
        ("simplex", (2,)),
        ("simplex", (3,)),
        ("blowup1", (F(1, 5),)),
        ("blowup1", (F(1, 3),)),
        ("blowup2", (F(1, 2), F(1, 5))),
        ("blowup2", (F(1, 3), F(1, 3))),
        ("hirzebruch", (1, F(1, 2))),
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
    for s in (1, 8, 16, 18, 20)
] + [
    pytest.param(
        lambda s=s: build_potential(
            random_delzant_threefold(random.Random(s)), assume_fano=True
        ),
        id=f"threefold-{s}",
    )
    for s in (0, 1, 6, 7, 13)
]


@pytest.mark.parametrize("make", INTERSECTION_CASES)
def test_residue_pairing_is_the_intersection_number(make):
    # FOOO (arXiv:1009.1648): the Kodaira-Spencer map carries the residue
    # pairing to the Poincare pairing, so <z_J, 1> is the intersection
    # number of the divisors of J: 1 when they meet at a vertex, else 0.
    # On a Fano space only the classical product reaches top degree, so the
    # terms other than T^0 vanish; a nef-only space has genuine ones.
    pot = make()
    vertices = {v.tight for v in pot.polytope.vertices()}
    fano = pot.polytope.fano_type() == "fano"
    tol = get_config().tol_zero
    for subset, total, scale in intersection_sums(pot):
        expected = 1.0 if subset in vertices else 0.0
        assert abs(total.coeff_at(0) - expected) <= 1e-12 * max(scale, 1.0), subset
        if fano:
            rest = [abs(c) for e, c in total.terms if e != 0]
            assert max(rest, default=0.0) <= tol * scale, (subset, total)


class TestExactnessLabels:
    def test_surface(self):
        assert z_exactness(potential_of("hirzebruch", 2, F(1, 2))) == "surface"

    def test_nef_threefold(self):
        assert z_exactness(potential_of("simplex", 3)) == "nef-deg2"

    def test_non_nef_threefold_is_leading_order_only(self):
        rows = [
            ((1, 0, 0), 0),
            ((0, 1, 0), 0),
            ((0, 0, 1), 0),
            ((0, 0, -1), 1),
            ((-1, -1, -4), 6),
        ]
        p = MomentPolytope.from_inequalities(rows)
        assert p.fano_type() == "neither"
        pot = build_potential(p, assume_fano=True)
        assert z_exactness(pot) == "leading-order-only"


class TestDuality:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_kodaira_spencer_pairing(self, n):
        # the pipeline's own Z values and 1/Z on projective n-space against
        # the closed form: the hyperplane-power basis is self-dual
        pot = potential_of("simplex", n)
        rep = find_critical_points(pot)
        z_err, pair_err = cpn_duality_errors(n, rep, residue_report(pot, rep))
        assert z_err <= 1e-9 and pair_err <= 1e-9
