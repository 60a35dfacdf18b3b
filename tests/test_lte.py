"""Leading term equations: adapted frames, cascades, and balance verdicts."""

from fractions import Fraction

import pytest

from toriclg import (
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
