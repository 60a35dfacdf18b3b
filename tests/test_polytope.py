"""Moment polytope validation, geometry queries, and the example catalog."""

import json
import random
from fractions import Fraction

import pytest

from helpers import (
    exhaustive_fano_type,
    exhaustive_report,
    exhaustive_vertices,
    random_delzant_polytope,
    random_delzant_threefold,
)
from toriclg import (
    BulkCoefficients,
    Correction,
    InvalidPolytope,
    MomentPolytope,
    NovikovScalar,
    ParamOutOfRange,
    UnknownName,
    catalog,
)

F = Fraction


def square(side=1):
    return MomentPolytope.from_inequalities(
        [((1, 0), 0), ((0, 1), 0), ((-1, 0), side), ((0, -1), side)]
    )


class TestValidation:
    def test_simplex_is_valid(self):
        rep = catalog("simplex", 2).polytope.validate()
        assert rep.ok and rep.issues == () and rep.vertex_count == 3

    def test_non_unimodular_corner(self):
        # the corner where (0,1) meets (-2,-1) has determinant 2
        p = MomentPolytope.from_inequalities(
            [((1, 0), 0), ((0, 1), 0), ((-2, -1), 2)]
        )
        rep = p.validate()
        assert not rep.ok
        assert any("unimodular" in s for s in rep.issues)

    def test_unbounded_is_flagged(self):
        p = MomentPolytope.from_inequalities([((1, 0), 0), ((0, 1), 0)])
        rep = p.validate()
        assert not rep.ok
        assert any("unbounded" in s for s in rep.issues)

    def test_non_primitive_normal(self):
        p = MomentPolytope.from_inequalities(
            [((2, 0), 0), ((0, 1), 0), ((-1, -1), 1)]
        )
        assert any("primitive" in s for s in p.validate().issues)

    def test_redundant_facet(self):
        p = MomentPolytope.from_inequalities(
            [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1), ((-1, 0), 5)]
        )
        assert any("redundant" in s for s in p.validate().issues)

    def test_require_valid_raises(self):
        p = MomentPolytope.from_inequalities([((1, 0), 0), ((0, 1), 0)])
        with pytest.raises(InvalidPolytope):
            p.require_valid()

    @pytest.mark.parametrize(
        "rows, issues",
        [
            (
                [((1, 0), 0), ((0, 1), 0), ((-2, -1), 2)],
                [
                    "vertex (Fraction(1, 1), Fraction(0, 1)): "
                    "normal determinant 2 (not unimodular)",
                ],
            ),
            (
                [((2, 0), 0), ((0, 1), 0), ((-1, -1), 1)],
                [
                    "facet 0: normal (2, 0) not primitive",
                    "vertex (Fraction(0, 1), Fraction(0, 1)): "
                    "normal determinant 2 (not unimodular)",
                    "vertex (Fraction(0, 1), Fraction(1, 1)): "
                    "normal determinant -2 (not unimodular)",
                ],
            ),
            (
                [((1, 0), 0), ((0, 1), 0)],
                [
                    "unbounded: recession direction "
                    "(Fraction(0, 1), Fraction(1, 1))",
                    "polytope is not full-dimensional (empty interior)",
                    "facet 0: tight set has dimension < 1 (redundant)",
                    "facet 1: tight set has dimension < 1 (redundant)",
                ],
            ),
            (
                [((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)],
                ["no vertices; polytope empty or unbounded"],
            ),
            (
                # square pyramid: the apex lies on four facets
                [
                    ((0, 0, 1), 0),
                    ((1, 0, -1), 1),
                    ((-1, 0, -1), 1),
                    ((0, 1, -1), 1),
                    ((0, -1, -1), 1),
                ],
                [
                    "vertex (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)): "
                    "4 facets meet (not simple)",
                ],
            ),
            (
                [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -2), 2)],
                [
                    "vertex (Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)): "
                    "normal determinant -2 (not unimodular)",
                ],
            ),
            (
                [((1,), 0)],
                [
                    "unbounded: recession direction (Fraction(1, 1),)",
                    "polytope is not full-dimensional (empty interior)",
                ],
            ),
        ],
    )
    def test_cached_report_keeps_issues_and_message(self, rows, issues):
        p = MomentPolytope.from_inequalities(rows)
        rep = p.validate()
        assert not rep.ok and list(rep.issues) == issues
        assert p.validate() is rep
        for _ in range(2):
            with pytest.raises(InvalidPolytope) as exc:
                p.require_valid()
            assert str(exc.value) == "; ".join(issues)

    def test_no_inequalities(self):
        with pytest.raises(InvalidPolytope):
            MomentPolytope.from_inequalities([])

    @pytest.mark.parametrize(
        "entry, names",
        [(1.5, None), (F(3, 2), None), (True, None), (float("inf"), None), (1, ["a", "b"])],
        ids=["float", "fraction", "bool", "infinite", "short-names"],
    )
    def test_truncated_normals_and_wrong_names_are_refused(self, entry, names):
        rows = [([entry, 0], 0), ([0, 1], 0), ([-1, -1], 1)]
        with pytest.raises(InvalidPolytope):
            MomentPolytope.from_inequalities(rows, names)

    def test_integral_normal_entries_read_as_integers(self):
        p = MomentPolytope.from_inequalities(
            [([1.0, 0], 0), ([0, F(2, 2)], 0), (["-1", -1], 1)], ["a", "b", "c"]
        )
        assert [f.normal for f in p.facets] == [(1, 0), (0, 1), (-1, -1)]
        assert all(type(x) is int for f in p.facets for x in f.normal)
        assert [f.name for f in p.facets] == ["a", "b", "c"] and p.validate().ok

    def test_random_chops_stay_valid(self):
        rng = random.Random(21)
        for _ in range(25):
            assert random_delzant_polytope(rng).validate().ok


def _invalid_rows(rng: random.Random, rows: list) -> list:
    """One defect applied to the facet rows of a valid polytope."""
    rows = list(rows)
    n = len(rows[0][0])
    j = rng.randrange(len(rows))
    v, c = rows[j]
    kind = rng.choice(
        ("non-primitive", "duplicate", "redundant", "non-unimodular",
         "unbounded", "empty", "through-vertex", "zero", "random")
    )
    if kind == "non-primitive":
        rows[j] = (tuple(2 * x for x in v), 2 * c)
    elif kind == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), (v, c + rng.choice((0, F(1, 2)))))
    elif kind == "redundant":
        rows.append((tuple(rng.randint(-2, 2) for _ in range(n)), F(rng.randint(5, 9))))
    elif kind == "non-unimodular":
        w, d = rows[(j + 1) % len(rows)]
        rows.append((tuple(2 * x + y for x, y in zip(v, w)), 2 * c + d - F(1, 4)))
    elif kind == "unbounded":
        del rows[j]
    elif kind == "empty":
        rows.append((tuple(-x for x in v), -c - F(1, 2)))
    elif kind == "through-vertex":
        vertices = exhaustive_vertices(MomentPolytope.from_inequalities(rows))
        point = rng.choice(vertices).point
        w = tuple(rng.randint(-2, 2) for _ in range(n))
        rows.append((w, -sum(a * b for a, b in zip(w, point))))
    elif kind == "zero":
        rows.append(((0,) * n, F(rng.randint(-1, 1))))
    else:
        rows = [
            (tuple(rng.randint(-1, 1) for _ in range(n)), F(rng.choice((0, 1, 2, -1))))
            for _ in range(rng.randint(n, n + 3))
        ]
    return rows


class TestWalkAgainstExhaustive:
    """The vertex walk gives the report, vertices and Fano type of the
    exhaustive enumeration, on valid polytopes and on broken ones."""

    @staticmethod
    def _fano(p, fano_type):
        try:
            return fano_type(p)
        except InvalidPolytope as exc:
            return str(exc)

    def _assert_same(self, rows):
        p = MomentPolytope.from_inequalities(rows)
        q = MomentPolytope.from_inequalities(rows)
        assert p.validate() == exhaustive_report(q), rows
        assert p.vertices() == exhaustive_vertices(q), rows
        assert self._fano(p, MomentPolytope.fano_type) == self._fano(
            q, exhaustive_fano_type
        ), rows

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_polytopes(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            generate = rng.choice((random_delzant_polytope, random_delzant_threefold))
            rows = [(f.normal, f.constant) for f in generate(rng).facets]
            self._assert_same(rows)
            for _ in range(2):
                self._assert_same(_invalid_rows(rng, rows))

    @pytest.mark.parametrize(
        "rows",
        [
            [((-1,), 3)],
            [((1,), 0), ((-1,), 2)],
            [((2,), 0), ((-1,), 2)],
            [((1,), 0), ((1,), 1)],
            [((1,), 0), ((-1,), -1)],
            [((0,), 0), ((1,), 0), ((-1,), 1)],
            [((1, 0), 0), ((-1, 0), 1)],
            [((1, 0), 0), ((0, 1), 0), ((-1, 0), 1), ((0, -1), 0)],
        ],
    )
    def test_small_cases(self, rows):
        self._assert_same(rows)

    def test_catalog(self):
        for spec in (
            [("simplex", k) for k in range(1, 6)]
            + [("blowup1", F(1, 3)), ("blowup2", F(1, 2), F(1, 5))]
            + [("hirzebruch", k, F(1, 2)) for k in (1, 2, 3)]
        ):
            p = catalog(*spec).polytope
            self._assert_same([(f.normal, f.constant) for f in p.facets])


class TestGeometry:
    def test_square_vertices(self):
        verts = {v.point for v in square().vertices()}
        assert verts == {
            (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))
        }

    def test_membership(self):
        p = square()
        assert p.contains((0, 0))
        assert not p.interior_contains((0, 0))
        assert p.interior_contains((F(1, 2), F(1, 2)))
        assert not p.contains((2, 0))

    def test_support_values_and_ell(self):
        p = catalog("simplex", 2).polytope
        u = (F(1, 3), F(1, 3))
        vals = p.support_values(u)
        assert vals == [p.ell(j, u) for j in range(3)]
        assert all(v == F(1, 3) for v in vals)

    def test_bounding_box_and_barycenter(self):
        p = square(2)
        assert p.bounding_box() == [(F(0), F(2)), (F(0), F(2))]
        assert p.barycenter() == (F(1), F(1))

    def test_total_betti(self):
        assert catalog("simplex", 2).polytope.total_betti() == 3
        assert catalog("simplex", 4).polytope.total_betti() == 5
        assert catalog("blowup1", F(1, 3)).polytope.total_betti() == 4
        assert catalog("blowup2", F(1, 2), F(1, 4)).polytope.total_betti() == 5

    def test_fano_type(self):
        assert catalog("simplex", 3).polytope.fano_type() == "fano"
        assert catalog("blowup1", F(2, 5)).polytope.fano_type() == "fano"
        assert catalog("hirzebruch", 2, F(1, 2)).polytope.fano_type() == "nef-only"


class TestCatalog:
    def test_simplex_facets(self):
        p = catalog("simplex", 3).polytope
        assert p.dim == 3 and p.nfacets == 4
        assert {f.normal for f in p.facets} == {
            (-1, -1, -1), (1, 0, 0), (0, 1, 0), (0, 0, 1)
        }

    def test_blowup1_shape(self):
        p = catalog("blowup1", F(1, 3)).polytope
        assert p.nfacets == 4
        assert p.contains((F(1, 3), F(1, 3)))
        # the chopped corner of the simplex is gone
        assert not p.contains((F(1, 10), F(8, 10)))

    def test_hirzebruch_two_carries_correction(self):
        entry = catalog("hirzebruch", 2, F(1, 2))
        assert len(entry.corrections) == 1
        corr = entry.corrections[0]
        assert corr.extra_t == F(1)
        assert corr.z_exponents == (0, 0, 0, 1)

    def test_hirzebruch_one_is_plain(self):
        entry = catalog("hirzebruch", 1, F(1, 2))
        assert entry.corrections == ()
        assert entry.polytope.fano_type() == "fano"

    def test_string_params_accepted(self):
        entry = catalog("blowup1", "2/5")
        assert entry.polytope.contains((F(7, 20), F(3, 10)))

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            catalog("octahedron")

    @pytest.mark.parametrize(
        "name,params",
        [
            ("simplex", (0,)),
            ("simplex", (F(1, 2),)),
            ("blowup1", (F(3, 2),)),
            ("blowup1", ()),
            ("blowup2", (F(1, 2),)),
            ("hirzebruch", (2, F(2),)),
        ],
    )
    def test_bad_parameters(self, name, params):
        with pytest.raises(ParamOutOfRange):
            catalog(name, *params)


class TestSerialization:
    def test_polytope_roundtrip(self):
        p = catalog("blowup2", F(1, 2), F(1, 4)).polytope
        q, corrs = MomentPolytope.from_json_dict(json.loads(json.dumps(p.to_json_dict())))
        assert corrs == []
        assert [f.normal for f in q.facets] == [f.normal for f in p.facets]
        assert [f.constant for f in q.facets] == [f.constant for f in p.facets]

    def test_corrections_roundtrip(self):
        entry = catalog("hirzebruch", 2, F(1, 2))
        doc = entry.polytope.to_json_dict(entry.corrections)
        q, corrs = MomentPolytope.from_json_dict(doc)
        assert corrs == list(entry.corrections)

    def test_correction_plain_complex_coeff(self):
        c = Correction.from_json_dict(
            {"monomial_z": [1, 0], "extra_T": "3/2", "coeff": {"re": 2.0, "im": 0.0}}
        )
        assert c.extra_t == F(3, 2)
        assert c.coeff == NovikovScalar.from_number(2.0)
        back = c.to_json_dict()
        assert back["coeff"] == {"re": 2.0, "im": 0.0}

    def test_fraction_constants_survive(self):
        p = catalog("blowup1", F(1, 3)).polytope
        d = p.to_json_dict()
        q, _ = MomentPolytope.from_json_dict(d)
        assert q.facets[-1].constant == F(2, 3)


class TestBulk:
    def test_requires_valuation_zero_units(self):
        good = BulkCoefficients(
            (NovikovScalar.one(), NovikovScalar([(0, 2.0), (1, 1.0)]))
        )
        assert good.leading() == (1 + 0j, 2 + 0j)
        with pytest.raises(InvalidPolytope):
            BulkCoefficients((NovikovScalar.monomial(1, 1.0),))
        with pytest.raises(InvalidPolytope):
            BulkCoefficients((NovikovScalar.zero(),))

    def test_ones(self):
        assert BulkCoefficients.ones(3).leading() == (1 + 0j,) * 3
