"""Leading term equations: adapted frames, cascades, and balance verdicts."""

import cmath
import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    det_int,
    random_delzant_polytope,
    random_delzant_threefold,
    reference_balanced_positions,
)
from toriclg import lte
from toriclg import (
    BulkCoefficients,
    Correction,
    LevelUnderdetermined,
    MomentPolytope,
    NotInterior,
    NovikovScalar,
    adapted_frame,
    balanced_positions,
    build_potential,
    catalog,
    find_critical_points,
    is_strongly_balanced,
    leading_term_system,
    solve_lte,
)
from toriclg.tropical import balanced_at

F = Fraction


def potential_of(name, *params):
    entry = catalog(name, *params)
    return build_potential(entry.polytope, corrections=entry.corrections)


# the box [0,1/2] x [0,2] x [0,23/10]
BOX_ROWS = [
    ((1, 0, 0), F(0)),
    ((-1, 0, 0), F(1, 2)),
    ((0, 1, 0), F(0)),
    ((0, -1, 0), F(2)),
    ((0, 0, 1), F(0)),
    ((0, 0, -1), F(23, 10)),
]


def norm_pairs(ws, tol=1e-9):
    out = set()
    for w in ws:
        out.add(tuple((round(z.real, 6), round(z.imag, 6)) for z in w))
    return out


class TestAdaptedFrame:
    def test_generic_point_has_depth_one(self):
        pot = potential_of("simplex", 2)
        fr = adapted_frame(pot, (F(1, 3), F(1, 3)))
        assert fr.depth == 1
        assert fr.levels[0].value == F(1, 3)
        assert fr.levels[0].facet_indices == (0, 1, 2)
        assert abs(det_int([list(r) for r in fr.basis])) == 1

    def test_hirzebruch_two_levels(self):
        pot = potential_of("hirzebruch", 2, F(1, 2))
        fr = adapted_frame(pot, (F(3, 4), F(1, 4)))
        assert fr.depth == 2
        assert [lv.value for lv in fr.levels[: fr.depth]] == [F(1, 4), F(3, 4)]
        assert [lv.facet_indices for lv in fr.levels[: fr.depth]] == [(1, 3), (0, 2)]
        assert [lv.new_rank for lv in fr.levels[: fr.depth]] == [1, 1]
        assert fr.basis == ((0, 1), (1, 0))

    def test_basis_inverse_roundtrip(self):
        pot = potential_of("blowup2", F(1, 2), F(1, 5))
        fr = adapted_frame(pot, (F(3, 8), F(1, 4)))
        n = len(fr.basis)
        prod = [
            [
                sum(fr.basis[i][k] * fr.inverse[k][j] for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert prod == [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def test_coords_and_w_to_y_are_inverse_frames(self):
        pot = potential_of("hirzebruch", 2, F(1, 2))
        fr = adapted_frame(pot, (F(3, 4), F(1, 4)))
        # lattice vector expressed in the adapted basis and back
        v = (3, -2)
        c = fr.coords(v)
        back = tuple(
            sum(c[i] * fr.basis[i][k] for i in range(2)) for k in range(2)
        )
        assert back == v

    def test_exterior_point_rejected(self):
        pot = potential_of("simplex", 2)
        with pytest.raises(NotInterior):
            adapted_frame(pot, (F(2, 3), F(2, 3)))
        # a boundary point is not interior either
        with pytest.raises(NotInterior, match="is not an interior point"):
            adapted_frame(pot, (F(0), F(1, 3)))

    def test_levels_past_the_depth_gain_no_rank(self):
        pot = potential_of("blowup2", F(1, 2), F(1, 5))
        fr = adapted_frame(pot, (F(1, 10), F(1, 5)))
        assert fr.depth < len(fr.levels)
        assert sum(lv.new_rank for lv in fr.levels) == 2
        assert all(lv.new_rank == 0 for lv in fr.levels[fr.depth:])
        assert sorted(j for lv in fr.levels for j in lv.facet_indices) == list(
            range(pot.polytope.nfacets)
        )


class TestLevelSystem:
    def test_levels_pick_up_matching_monomials(self):
        pot = potential_of("hirzebruch", 2, F(1, 2))
        frame, polys = leading_term_system(pot, (F(3, 4), F(1, 4)))
        assert len(polys) == frame.depth
        # first level is the fiber direction: w2 + 1/w2 in adapted coords
        assert set(polys[0]) == {(1, 0), (-1, 0)}
        # second level brings in the base directions
        assert set(polys[1]) == {(0, 1), (-2, -1)}

    def test_correction_term_is_ignored_by_lte(self):
        # the cascade reads only the leading part; the correction enters at
        # strictly higher T-order and must not change the system
        entry = catalog("hirzebruch", 2, F(1, 2))
        with_corr = build_potential(entry.polytope, corrections=entry.corrections)
        without = build_potential(entry.polytope, assume_fano=True)
        u = (F(3, 4), F(1, 4))
        _, a = leading_term_system(with_corr, u)
        _, b = leading_term_system(without, u)
        assert a == b


class TestCascade:
    def test_hirzebruch_balanced_point(self):
        pot = potential_of("hirzebruch", 2, F(1, 2))
        res = solve_lte(pot, (F(3, 4), F(1, 4)))
        assert res.status == "solvable"
        assert norm_pairs(res.witnesses_y()) == {
            ((1.0, 0.0), (1.0, 0.0)),
            ((1.0, 0.0), (-1.0, 0.0)),
            ((-1.0, 0.0), (1.0, 0.0)),
            ((-1.0, 0.0), (-1.0, 0.0)),
        }
        assert all(len(w) == 2 and None not in w for w in res.witnesses_w)

    def test_hirzebruch_off_point(self):
        pot = potential_of("hirzebruch", 2, F(1, 2))
        res = solve_lte(pot, (F(5, 8), F(1, 4)))
        assert res.status == "unsolvable"
        assert res.witnesses_w == []

    def test_segment_witness_with_free_coordinate(self):
        pot = potential_of("blowup2", F(1, 2), F(1, 4))
        res = solve_lte(pot, (F(5, 16), F(1, 4)))
        assert res.status == "solvable"
        ((w1, w2),) = res.witnesses_w
        assert w2 is None
        assert abs(w1 - (-1)) < 1e-9
        assert [tuple(x is None for x in w) for w in res.witnesses_w] == [(False, True)]
        ((y1, y2),) = res.witnesses_y()
        assert abs(y1 - 1) < 1e-9 and abs(y2 - (-1)) < 1e-9

    def test_segment_membership_decides(self):
        pot = potential_of("blowup2", F(1, 2), F(1, 4))
        for num in range(1, 10):
            t = F(1, 4) + F(num, 80)  # strictly inside (1/4, 3/8)
            assert is_strongly_balanced(pot, (t, F(1, 4)))
        assert not is_strongly_balanced(pot, (F(5, 16), F(3, 10)))
        assert not is_strongly_balanced(pot, (F(3, 8), F(3, 16)))

    def test_free_variable_in_a_later_level_is_pinned(self):
        """A box cut along two edges by x + y >= 1/4 and y + z <= 5/2.  At
        (1/4, 1/2, 1) the levels are {x, 1/2 - x}, {y, x + y - 1/4} and
        {z, 5/2 - y - z}.  The root w1 = -1 of the first level cancels the
        second, so w2 stays free, and the third level involves w2: pinned
        to 1, it gives w3 = +-1 (the branch solves for every w2, with
        w3 = +-w2^(-1/2)).  The root w1 = 1 leaves the monomial 2 w2, which
        has no torus zero."""
        pot = build_potential(
            MomentPolytope.from_inequalities(
                [*BOX_ROWS, ((1, 1, 0), F(-1, 4)), ((0, -1, -1), F(5, 2))]
            ),
            assume_fano=True,
        )
        u = (F(1, 4), F(1, 2), F(1))
        res = solve_lte(pot, u)
        assert [lv.facet_indices for lv in res.frame.levels[:3]] == [(0, 1), (2, 6), (4, 7)]
        assert res.status == "solvable"
        assert norm_pairs(res.witnesses_w) == {
            ((-1.0, 0.0), (1.0, 0.0), (1.0, 0.0)),
            ((-1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)),
        }
        assert is_strongly_balanced(pot, u) and balanced_at(pot, u)
        # past z = 23/20 the third level is the facet-7 monomial alone
        for z in (F(23, 20), F(23, 16)):
            assert solve_lte(pot, (F(1, 4), F(1, 2), z)).status == "unsolvable"
        for grid in (4, 8, 16):
            rows = balanced_positions(pot, grid, extra=[u])
            assert "unknown" not in dict(rows).values()
            assert [v for v, s in rows if s == "balanced"] == [u]

    def test_a_pin_that_finds_no_root_is_underdetermined(self):
        """The same box cut by x + y >= 1/4 and y + z >= 1/2.  At
        (1/4, 1/2, 1) the third level is {z, y + z - 1/2}, whose theta
        equation w3 (1 + w2) has two terms: pinned to w2 = 1 it has no torus
        zero, while w2 = -1 makes the level vacuous.  A failed pin proves
        nothing, so the point stays unknown."""
        pot = build_potential(
            MomentPolytope.from_inequalities(
                [*BOX_ROWS, ((1, 1, 0), F(-1, 4)), ((0, 1, 1), F(-1, 2))]
            ),
            assume_fano=True,
        )
        u = (F(1, 4), F(1, 2), F(1))
        res = solve_lte(pot, u)
        assert [lv.facet_indices for lv in res.frame.levels[:3]] == [(0, 1), (2, 6), (4, 7)]
        assert (res.status, res.witnesses_w) == ("underdetermined", [])
        with pytest.raises(LevelUnderdetermined):
            is_strongly_balanced(pot, u)
        assert dict(balanced_positions(pot, 4, extra=[u]))[u] == "unknown"

    def test_simplex_is_balanced_only_at_center(self):
        pot = potential_of("simplex", 2)
        assert is_strongly_balanced(pot, (F(1, 3), F(1, 3)))
        assert not is_strongly_balanced(pot, (F(1, 4), F(1, 4)))
        assert not is_strongly_balanced(pot, (F(1, 3), F(1, 4)))

    def test_lte_witnesses_match_critical_roots(self):
        from toriclg import find_critical_points

        pot = potential_of("blowup1", F(2, 5))
        rep = find_critical_points(pot)
        u = rep.points[0].u
        res = solve_lte(pot, u)
        lte_set = norm_pairs(res.witnesses_y())
        crit_set = norm_pairs([p.y_initial for p in rep.points])
        assert lte_set == crit_set


class TestGridScan:
    def test_statuses_and_coverage(self):
        pot = potential_of("simplex", 2)
        rows = balanced_positions(pot, 6)
        assert all(s in {"balanced", "unbalanced", "unknown"} for _, s in rows)
        us = [u for u, _ in rows]
        assert (F(1, 3), F(1, 3)) in us
        assert all(pot.polytope.interior_contains(u) for u in us)
        balanced = [u for u, s in rows if s == "balanced"]
        assert balanced == [(F(1, 3), F(1, 3))]

    def test_extra_points_are_included_once(self):
        pot = potential_of("simplex", 2)
        rows = balanced_positions(
            pot, 6, extra=[(F(1, 3), F(1, 3)), (F(1, 5), F(1, 5))]
        )
        us = [u for u, _ in rows]
        assert us.count((F(1, 3), F(1, 3))) == 1
        assert (F(1, 5), F(1, 5)) in us

    def test_grid_must_be_positive(self):
        pot = potential_of("simplex", 2)
        for grid in (0, -3):
            with pytest.raises(ValueError, match="grid"):
                balanced_positions(pot, grid)


# -- the scan against its point-by-point reference ------------------------------

SCAN_ENTRIES = [
    ("simplex", (1,)),
    ("simplex", (2,)),
    ("simplex", (3,)),
    ("blowup1", (F(1, 5),)),
    ("blowup1", (F(1, 3),)),
    ("blowup2", (F(1, 2), F(1, 5))),
    ("blowup2", (F(1, 2), F(1, 4))),
    ("blowup2", (F(1, 3), F(1, 3))),
    ("hirzebruch", (1, F(2, 5))),
    ("hirzebruch", (2, F(1, 2))),
    ("hirzebruch", (2, F(1, 3))),
    ("hirzebruch", (3, F(1, 2))),
]


def probe_points(p, grid):
    """Extra scan points of every kind: the box center (a grid point), the
    vertex barycenter given twice, an off-grid interior point near a
    vertex, every vertex (boundary), and a point outside."""
    verts = [v.point for v in p.vertices()]
    center = p.barycenter()
    box = p.bounding_box()
    on_grid = tuple(lo + (hi - lo) * (grid // 2) / grid for lo, hi in box)
    off_grid = tuple((96 * c + v) / 97 for c, v in zip(center, verts[0]))
    outside = tuple(2 * v - c for v, c in zip(verts[-1], center))
    return [on_grid, center, center, off_grid, outside, *verts]


def _scan_potential(name, params):
    with warnings.catch_warnings():
        # hirzebruch:3 has no catalog correction and is not fano
        warnings.simplefilter("ignore")
        return potential_of(name, *params)


@pytest.mark.parametrize("grid", range(6, 13))
@pytest.mark.parametrize(
    "name, params",
    SCAN_ENTRIES,
    ids=[f"{n}:{','.join(map(str, p))}" for n, p in SCAN_ENTRIES],
)
def test_scan_matches_point_by_point_reference(name, params, grid):
    pot = _scan_potential(name, params)
    extra = probe_points(pot.polytope, grid)
    assert balanced_positions(pot, grid, extra) == reference_balanced_positions(
        pot, grid, extra
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid=st.integers(3, 9))
def test_scan_matches_reference_on_random_polygons(seed, grid):
    p = random_delzant_polytope(random.Random(seed), max_chops=4)
    pot = build_potential(p, assume_fano=True)
    extra = probe_points(p, grid)
    assert balanced_positions(pot, grid, extra) == reference_balanced_positions(
        pot, grid, extra
    )


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid=st.integers(3, 5))
def test_scan_matches_reference_on_random_threefolds(seed, grid):
    p = random_delzant_threefold(random.Random(seed))
    pot = build_potential(p, assume_fano=True)
    extra = probe_points(p, grid)
    assert balanced_positions(pot, grid, extra) == reference_balanced_positions(
        pot, grid, extra
    )


def level_pattern(p, u):
    """Facet indices grouped by support value at u, groups in increasing
    order of value."""
    values = p.support_values(u)
    return tuple(
        tuple(j for j, v in enumerate(values) if v == s) for s in sorted(set(values))
    )


def interior_grid(p, grid):
    """The interior points of the grid scanned by ``balanced_positions``."""
    box = p.bounding_box()
    axes = [[lo + F(k, grid) * (hi - lo) for k in range(1, grid)] for lo, hi in box]
    return [u for u in itertools.product(*axes) if p.interior_contains(u)]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid=st.integers(4, 10))
def test_points_with_one_level_pattern_share_the_cascade(seed, grid):
    """The cascade reads only the ordered facet groups: two interior
    points with the same pattern give the same level polynomials and the
    same status, also with a correction term present."""
    rng = random.Random(seed)
    p = random_delzant_polytope(rng, max_chops=4)
    corr = Correction(
        F(rng.randint(1, 6), rng.randint(2, 12)),
        tuple(rng.randint(0, 1) for _ in p.facets),
    )
    pot = build_potential(p, corrections=[corr])
    by_pattern: dict = {}
    for u in interior_grid(p, grid):
        by_pattern.setdefault(level_pattern(p, u), []).append(u)
    for pattern, us in by_pattern.items():
        if len(us) < 2:
            continue
        first, other = solve_lte(pot, us[0]), solve_lte(pot, rng.choice(us[1:]))
        assert first.level_polys == other.level_polys, pattern
        assert first.status == other.status, pattern


def first_point_of_each_pattern(p, grid, extra):
    """The interior grid and extra points in scan order, each level pattern
    kept at its first point."""
    points = set(interior_grid(p, grid))
    points.update(u for u in (tuple(map(F, x)) for x in extra) if p.interior_contains(u))
    firsts: dict = {}
    for u in sorted(points):
        firsts.setdefault(level_pattern(p, u), u)
    return list(firsts.values())


@pytest.mark.parametrize(
    "make, seed, grid",
    [*((random_delzant_polytope, seed, 8) for seed in range(6)), (random_delzant_threefold, 2, 5)],
)
def test_the_scan_runs_one_cascade_per_level_pattern(monkeypatch, make, seed, grid):
    p = make(random.Random(seed))
    pot = build_potential(p, assume_fano=True)
    extra = probe_points(p, grid)
    calls = []
    real = lte.solve_lte

    def counted(potential, u):
        calls.append(u)
        return real(potential, u)

    monkeypatch.setattr(lte, "solve_lte", counted)
    balanced_positions(pot, grid, extra)
    firsts = first_point_of_each_pattern(p, grid, extra)
    assert len(firsts) > 1
    assert calls == firsts


def test_wide_numerators_scan_exactly():
    """Numerators past int64: on blowup1 at a = 1/q, q = 2**61 - 1, grid 6
    and the off-grid extra (1/(3q), 1/3) share the denominator 6q."""
    q = 2**61 - 1
    pot = potential_of("blowup1", F(1, q))
    extra = [(F(1, 3 * q), F(1, 3))]
    rows = balanced_positions(pot, 6, extra)
    assert rows == reference_balanced_positions(pot, 6, extra)
    assert (extra[0], "unbalanced") in rows


def test_support_values_past_int64_scan_exactly():
    """Numerators within int64 whose support values are not: on the square
    [-1, 1]^2 at grid 4 with the extra (1/q, 1/q), q = 2**62 - 1, the
    common denominator is 2q, every numerator is at most q in size, and
    1 - u1 at u1 = -1/2 has the numerator 3q > 2**63."""
    q = 2**62 - 1
    square = MomentPolytope.from_inequalities(
        [((1, 0), F(1)), ((-1, 0), F(1)), ((0, 1), F(1)), ((0, -1), F(1))]
    )
    pot = build_potential(square, assume_fano=True)
    extra = [(F(1, q), F(1, q))]
    rows = balanced_positions(pot, 4, extra)
    assert rows == reference_balanced_positions(pot, 4, extra)
    assert [u for u, s in rows if s == "balanced"] == [(0, 0)]
    assert len(rows) == 10


def random_corrections(rng, p, count=3):
    """Corrections T^rho * c * prod z_j^{k_j} with small rho > 0, mostly
    zero k_j in {0, 1, 2} and c of valuation 0 or just above, so that many
    of them reach the leading levels."""
    return [
        Correction(
            F(1, rng.randint(2, 24)),
            tuple(rng.choice((0, 0, 0, 1, 2)) for _ in p.facets),
            NovikovScalar.monomial(
                F(rng.randint(0, 1), rng.randint(4, 12)), complex(rng.uniform(-2, 2), 1)
            ),
        )
        for _ in range(count)
    ]


def corrections_stay_out(pot, grid):
    """Check at every interior grid point that each correction whose
    valuation reaches the top level has zero adapted coordinates in every
    block whose level value is at or above that valuation, and that the
    level polynomials and the cascade are the same without the corrections.  Returns the
    number of (point, correction) pairs that reached the top level."""
    p = pot.polytope
    bare = build_potential(p, assume_fano=True)
    reached = 0
    for u in interior_grid(p, grid):
        res = solve_lte(pot, u)
        frame = res.frame
        ell = p.support_values(u)
        top = frame.levels[frame.depth - 1].value
        for corr in pot.corrections:
            val = (
                corr.extra_t
                + corr.coeff.valuation()
                + sum(k * e for k, e in zip(corr.z_exponents, ell))
            )
            if val > top:
                continue
            reached += 1
            a = tuple(
                sum(k * f.normal[i] for k, f in zip(corr.z_exponents, p.facets))
                for i in range(p.dim)
            )
            coords = frame.coords(a)
            for lv, block in zip(frame.levels, frame.blocks()):
                if lv.value >= val:
                    assert all(coords[r] == 0 for r in block), (u, corr)
        other = solve_lte(bare, u)
        assert res.level_polys == other.level_polys, u
        assert (res.status, res.witnesses_w) == (other.status, other.witnesses_w), u
    return reached


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid=st.integers(3, 8))
def test_corrections_stay_out_of_the_cascade_on_random_polygons(seed, grid):
    rng = random.Random(seed)
    p = random_delzant_polytope(rng, max_chops=4)
    pot = build_potential(p, corrections=random_corrections(rng, p), assume_fano=True)
    corrections_stay_out(pot, grid)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), grid=st.integers(3, 5))
def test_corrections_stay_out_of_the_cascade_on_random_threefolds(seed, grid):
    rng = random.Random(seed)
    p = random_delzant_threefold(rng)
    pot = build_potential(p, corrections=random_corrections(rng, p), assume_fano=True)
    corrections_stay_out(pot, grid)


def test_a_correction_reaching_the_levels_leaves_the_scan_unchanged():
    """T^(1/10) z_1 on the projective plane reaches the top level at many
    grid points; the check above is not vacuous there, and the scan gives
    the verdicts of the bare potential."""
    p = catalog("simplex", 2).polytope
    pot = build_potential(p, corrections=[Correction(F(1, 10), (1, 0, 0))])
    assert corrections_stay_out(pot, 20) > 0
    assert balanced_positions(pot, 20) == balanced_positions(build_potential(p), 20)


def random_bulk(rng, m):
    """m valuation-zero units with random leading coefficients and one
    higher term each."""
    return BulkCoefficients(
        tuple(
            NovikovScalar(
                (
                    (0, cmath.rect(rng.uniform(0.5, 2), rng.uniform(-3, 3))),
                    (F(1, rng.randint(2, 4)), complex(rng.uniform(-1, 1))),
                )
            )
            for _ in range(m)
        )
    )


@pytest.mark.parametrize(
    "family, seeds",
    [
        (lambda rng: random_delzant_polytope(rng, max_chops=4), range(40)),
        (random_delzant_threefold, range(12)),
    ],
    ids=["polygons", "threefolds"],
)
def test_critical_fibres_with_bulk_have_solvable_cascades(family, seeds):
    """Every critical fibre of the potential with bulk b solves the leading
    term equation with the same b (its leading roots are a witness).  With
    unit bulk in the cascade instead, some polygon fibres here fail."""
    fibres = 0
    for seed in seeds:
        rng = random.Random(seed)
        p = family(rng)
        pot = build_potential(p, bulk=random_bulk(rng, len(p.facets)), assume_fano=True)
        for u in {pt.u for pt in find_critical_points(pot).points}:
            fibres += 1
            assert solve_lte(pot, u).status == "solvable", (seed, u)
    assert fibres >= len(seeds)
