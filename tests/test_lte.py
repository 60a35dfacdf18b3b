"""Leading term equations: adapted frames, cascades, and balance verdicts."""

import itertools
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_delzant_polytope,
    random_delzant_threefold,
    reference_balanced_positions,
)
from toriclg import (
    Correction,
    NotInterior,
    adapted_frame,
    balanced_positions,
    build_potential,
    catalog,
    is_strongly_balanced,
    leading_term_system,
    solve_lte,
)
from toriclg._intlinalg import det_int

F = Fraction


def potential_of(name, *params):
    entry = catalog(name, *params)
    return build_potential(entry.polytope, corrections=entry.corrections)


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
        assert fr.basis == ((0, 1), (1, 0)) or fr.basis == ([0, 1], [1, 0])

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
        assert all(mask == (False, False) for mask in res.free_masks)

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
        assert res.free_masks == [(False, True)]
        ((y1, y2),) = res.witnesses_y()
        assert abs(y1 - 1) < 1e-9 and abs(y2 - (-1)) < 1e-9

    def test_segment_membership_decides(self):
        pot = potential_of("blowup2", F(1, 2), F(1, 4))
        for num in range(1, 10):
            t = F(1, 4) + F(num, 80)  # strictly inside (1/4, 3/8)
            assert is_strongly_balanced(pot, (t, F(1, 4)))
        assert not is_strongly_balanced(pot, (F(5, 16), F(3, 10)))
        assert not is_strongly_balanced(pot, (F(3, 8), F(3, 16)))

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


@pytest.mark.filterwarnings("ignore:correction term reaches")
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
    box = p.bounding_box()
    axes = [[lo + F(k, grid) * (hi - lo) for k in range(1, grid)] for lo, hi in box]
    by_pattern: dict = {}
    for u in itertools.product(*axes):
        if p.interior_contains(u):
            by_pattern.setdefault(level_pattern(p, u), []).append(u)
    for pattern, us in by_pattern.items():
        if len(us) < 2:
            continue
        first, other = solve_lte(pot, us[0]), solve_lte(pot, rng.choice(us[1:]))
        assert first.level_polys == other.level_polys, pattern
        assert first.status == other.status, pattern


def test_scan_warns_at_every_point_the_reference_does():
    """The correction-term warning depends on u, not only on the level
    pattern; the scan must raise it at the same points as the reference."""
    entry = catalog("simplex", 2)
    pot = build_potential(
        entry.polytope, corrections=[Correction(F(1, 10), (1, 0, 0))]
    )
    grid = 20
    with warnings.catch_warnings(record=True) as ref_log:
        warnings.simplefilter("always")
        expected = reference_balanced_positions(pot, grid)
    # the fixture is only useful if one pattern has warned and quiet points
    warned: dict = {}
    for u, _ in expected:
        with warnings.catch_warnings(record=True) as log:
            warnings.simplefilter("always")
            solve_lte(pot, u)
        warned.setdefault(level_pattern(pot.polytope, u), set()).add(bool(log))
    assert {True, False} in warned.values()
    with warnings.catch_warnings(record=True) as scan_log:
        warnings.simplefilter("always")
        assert balanced_positions(pot, grid) == expected
    assert len(ref_log) > 0
    assert [str(w.message) for w in scan_log] == [str(w.message) for w in ref_log]
