"""Laurent polynomials over Novikov scalars and potential assembly."""

import math
import warnings
from fractions import Fraction

import pytest

from helpers import assert_scalar_close
from toriclg import (
    BulkCoefficients,
    Correction,
    LaurentPoly,
    NotInterior,
    NovikovScalar,
    build_potential,
    catalog,
    render_poly,
    z_monomial,
)
from toriclg.errors import CorrectionNotPositive

F = Fraction
S = NovikovScalar.monomial


def mono(exps, exp=0, coeff=1.0):
    return LaurentPoly.monomial(len(exps), exps, S(F(exp), coeff))


class TestRingOps:
    def test_add_collects_terms(self):
        f = mono((1, 0)) + mono((1, 0)) + mono((0, -1))
        terms = dict(f.sorted_terms())
        assert terms[(1, 0)] == S(0, 2.0)
        assert terms[(0, -1)] == S(0, 1.0)

    @pytest.mark.parametrize("entry", [1.5, F(1, 2), True], ids=["float", "fraction", "bool"])
    def test_exponent_entries_must_be_integers(self, entry):
        with pytest.raises(ValueError):
            LaurentPoly(2, [((entry, 0), S(0, 1.0))])

    def test_integral_exponent_entries_read_as_integers(self):
        f = LaurentPoly(2, [((1.0, F(-2, 1)), S(0, 1.0))])
        ((a, _),) = f.sorted_terms()
        assert a == (1, -2) and all(type(x) is int for x in a)

    def test_zero_coefficients_vanish(self):
        f = mono((2, 1)) - mono((2, 1))
        assert f.is_zero()

    def test_mul_convolves_exponents(self):
        f = mono((1, 0)) * mono((-1, 1))
        assert dict(f.sorted_terms()) == {(0, 1): S(0, 1.0)}

    def test_mul_by_scalar_and_number(self):
        f = mono((1, 0)) * S(F(1, 2), 3.0)
        ((a, c),) = f.sorted_terms()
        assert a == (1, 0) and c == S(F(1, 2), 3.0)
        assert dict((2 * mono((1, 0))).sorted_terms()) == {(1, 0): S(0, 2.0)}

    def test_log_derivative_scales_by_exponent(self):
        f = mono((2, -3))
        assert dict(f.log_derivative(0).sorted_terms()) == {(2, -3): S(0, 2.0)}
        assert dict(f.log_derivative(1).sorted_terms()) == {(2, -3): S(0, -3.0)}
        assert mono((0, 5)).log_derivative(0).is_zero()

    def test_evaluate(self):
        f = mono((1, 1)) + mono((-1, 0))
        y1 = S(F(1, 2), 2.0)
        y2 = S(0, 3.0)
        v = f.evaluate((y1, y2))
        # 2 T^{1/2} * 3 + (1/2) T^{-1/2}
        assert v.coeff_at(F(1, 2)) == pytest.approx(6.0)
        assert v.coeff_at(F(-1, 2)) == pytest.approx(0.5)

    def test_evaluate_inverts_each_variable_once(self, monkeypatch):
        # negative powers within one evaluation share one inverse per variable
        exps = [(-1, 0), (-2, 1), (-3, -1)]
        f = sum((mono(a) for a in exps), LaurentPoly.zero(2))
        y = (S(F(1, 3), 2.0) + S(F(2, 3), 1.0), S(0, 1.0) + S(1, 0.5))
        expected = sum((y[0] ** a * y[1] ** b for a, b in exps), NovikovScalar.zero())
        inverted = []
        invert = NovikovScalar.invert

        def counted(s):
            inverted.append(s)
            return invert(s)

        monkeypatch.setattr(NovikovScalar, "invert", counted)
        v = f.evaluate(y)
        assert inverted == list(y)
        assert_scalar_close(v, expected)

    def test_change_frame_shifts_coefficients(self):
        f = mono((1, 0)) + mono((0, 1), exp=F(1, 2))
        g = f.change_frame((F(1, 4), F(1, 4)))
        terms = dict(g.sorted_terms())
        assert terms[(1, 0)] == S(F(1, 4), 1.0)
        assert terms[(0, 1)] == S(F(3, 4), 1.0)


class TestZMonomial:
    def test_simplex_monomials(self):
        p = catalog("simplex", 2).polytope
        by_normal = {
            dict(z_monomial(p, j).sorted_terms()).popitem()[0]: j
            for j in range(3)
        }
        z0 = z_monomial(p, by_normal[(-1, -1)])
        ((a, c),) = z0.sorted_terms()
        assert a == (-1, -1) and c == S(1, 1.0)

    def test_valuation_matches_support_value(self):
        p = catalog("blowup1", F(2, 5)).polytope
        u = (F(7, 20), F(3, 10))
        for j in range(p.nfacets):
            ((_, c),) = z_monomial(p, j).change_frame(u).sorted_terms()
            assert c.valuation() == p.ell(j, u)


class TestBuildPotential:
    def test_simplex_base(self):
        pot = build_potential(catalog("simplex", 2).polytope)
        terms = dict(pot.poly.sorted_terms())
        assert terms[(1, 0)] == S(0, 1.0)
        assert terms[(0, 1)] == S(0, 1.0)
        assert terms[(-1, -1)] == S(1, 1.0)

    def test_bulk_rescales_coefficients(self):
        p = catalog("simplex", 2).polytope
        bulk = BulkCoefficients(
            (NovikovScalar.one(), S(0, 2.0), NovikovScalar.one())
        )
        pot = build_potential(p, bulk=bulk)
        facet_of = {f.normal: j for j, f in enumerate(p.facets)}
        terms = dict(pot.poly.sorted_terms())
        doubled = [a for a, c in terms.items() if c == S(0, 2.0)]
        assert len(doubled) == 1
        assert facet_of[doubled[0]] == 1

    def test_bulk_arity_checked(self):
        with pytest.raises(ValueError):
            build_potential(
                catalog("simplex", 2).polytope, bulk=BulkCoefficients.ones(2)
            )

    def test_correction_appends_higher_term(self):
        entry = catalog("hirzebruch", 2, F(1, 2))
        pot = build_potential(entry.polytope, corrections=entry.corrections)
        terms = dict(pot.poly.sorted_terms())
        # z4 = T^{1/2} y2^{-1}; the correction adds T * z4 on top of it
        assert_scalar_close(
            terms[(0, -1)],
            NovikovScalar([(F(1, 2), 1.0), (F(3, 2), 1.0)]),
        )

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf), complex(1, math.nan)])
    def test_non_finite_coefficients_are_refused(self, bad):
        p = catalog("simplex", 2).polytope
        one = NovikovScalar.one()
        for scalar in (NovikovScalar.from_number(bad), NovikovScalar([(0, 1.0), (F(1, 2), bad)])):
            with pytest.raises(ValueError, match="bulk coefficient 1 has a NaN or infinite term"):
                build_potential(p, bulk=BulkCoefficients((one, scalar, one)))
            with pytest.raises(ValueError, match="correction 0 coefficient has a NaN or infinite term"):
                build_potential(p, corrections=[Correction(F(1, 2), (1, 0, 0), scalar)])

    def test_correction_must_increase_order(self):
        p = catalog("simplex", 2).polytope
        with pytest.raises(CorrectionNotPositive):
            build_potential(
                p,
                corrections=[Correction(F(0), (1, 0, 0))],
                assume_fano=True,
            )

    @pytest.mark.parametrize(
        "corr",
        [
            Correction(F(1, 2), (0, 0, -1, 1)),
            Correction(F(1, 2), (0, 0, 0, 1), S(-1)),
            Correction(F(1, 2), (0, 0, 0, 1), NovikovScalar([(F(-1, 3), 1.0), (0, 1.0)])),
        ],
        ids=["negative-exponent", "negative-valuation", "negative-valuation-series"],
    )
    def test_correction_must_be_a_positive_product_of_facet_terms(self, corr):
        p = catalog("hirzebruch", 2, F(1, 2)).polytope
        with pytest.raises(CorrectionNotPositive):
            build_potential(p, corrections=[corr])

    def test_correction_of_positive_coefficient_valuation_is_accepted(self):
        p = catalog("hirzebruch", 2, F(1, 2)).polytope
        corr = Correction(F(1, 2), (0, 0, 0, 2), S(F(1, 3), 2.0))
        pot = build_potential(p, corrections=[corr])
        # z4^2 = T y2^-2; the correction is 2 T^(1 + 1/2 + 1/3) y2^-2
        assert dict(pot.poly.sorted_terms())[(0, -2)] == S(F(11, 6), 2.0)

    def test_nonfano_without_corrections_warns(self):
        p = catalog("hirzebruch", 2, F(1, 2)).polytope
        with pytest.warns(UserWarning, match="fano"):
            build_potential(p)

    def test_assume_fano_suppresses_warning(self):
        p = catalog("hirzebruch", 2, F(1, 2)).polytope
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_potential(p, assume_fano=True)

    def test_fano_entry_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_potential(catalog("blowup1", F(1, 3)).polytope)


class TestPotential:
    def test_every_log_derivative_is_nonzero(self):
        pot = build_potential(catalog("simplex", 3).polytope)
        assert pot.polytope.dim == 3
        assert all(not pot.poly.log_derivative(i).is_zero() for i in range(3))

    def test_evaluate_inside_domain(self):
        pot = build_potential(catalog("simplex", 1).polytope)
        y = S(F(1, 2), 1.0)
        # PO(T^{1/2}) = T^{1/2} + T * T^{-1/2} = 2 T^{1/2}
        assert pot.poly.evaluate((y,)) == S(F(1, 2), 2.0)

    def test_change_frame_needs_interior(self):
        pot = build_potential(catalog("simplex", 2).polytope)
        with pytest.raises(NotInterior):
            pot.change_frame((0, 0))

    def test_change_frame_valuations(self):
        pot = build_potential(catalog("simplex", 2).polytope)
        g = pot.change_frame((F(1, 3), F(1, 3)))
        # in the fiber frame at the barycenter all three terms sit at T^{1/3}
        assert all(c.valuation() == F(1, 3) for _, c in g.sorted_terms())


class TestRendering:
    def test_render_poly(self):
        entry = catalog("hirzebruch", 2, F(1, 2))
        pot = build_potential(entry.polytope, corrections=entry.corrections)
        assert (
            render_poly(pot.poly)
            == "y1 + y2 + T^0.5 (1+T^1) y2^-1 + T^2 y1^-1 y2^-2"
        )

    def test_render_uses_varname(self):
        f = mono((1, -2))
        assert render_poly(f, varname="w") == "w1 w2^-2"
