"""Command line driver: subcommands, file inputs, exit codes, JSON contract."""

import json
import random
from fractions import Fraction

import pytest

from helpers import catalog_potential, grid_document, random_delzant_polytope
from toriclg import (
    MomentPolytope,
    NoConvergence,
    RunConfig,
    ToricLGError,
    build_potential,
    get_config,
    lte,
)
from toriclg.cli import json_text, main

HIRZ = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "constant": "0"},
        {"normal": [0, 1], "constant": "0"},
        {"normal": [-1, -2], "constant": "2"},
        {"normal": [0, -1], "constant": "1/2"},
    ],
}
TRIANGLE = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "constant": "0"},
        {"normal": [0, 1], "constant": "0"},
        {"normal": [-1, -1], "constant": "1"},
    ],
}
HIRZ_CORR = [
    {"monomial_z": [0, 0, 0, 1], "extra_T": "1", "coeff": {"re": 1.0, "im": 0.0}}
]


# the box [0,1/2] x [0,2] x [0,23/10] cut by x + y >= 1/4 and y + z >= 1/2:
# its grid-8 scan has 2 points whose cascade pins a free variable to its one
# bad value, so they read "unknown"
CUT_BOX = {
    "dim": 3,
    "facets": [
        {"normal": [1, 0, 0], "constant": "0"},
        {"normal": [-1, 0, 0], "constant": "1/2"},
        {"normal": [0, 1, 0], "constant": "0"},
        {"normal": [0, -1, 0], "constant": "2"},
        {"normal": [0, 0, 1], "constant": "0"},
        {"normal": [0, 0, -1], "constant": "23/10"},
        {"normal": [1, 1, 0], "constant": "-1/4"},
        {"normal": [0, 1, 1], "constant": "-1/2"},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_catalog_list(self, capsys):
        code, out, _ = run(capsys, "catalog-list")
        assert code == 0
        for name in ("simplex", "blowup1", "blowup2", "hirzebruch"):
            assert name in out

    def test_betti(self, capsys):
        code, out, _ = run(capsys, "betti", "--catalog", "simplex:3")
        assert code == 0
        assert "4" in out

    def test_potential_text(self, capsys):
        code, out, _ = run(capsys, "potential", "--catalog", "hirzebruch:2,1/2")
        assert code == 0
        assert out.strip() == "PO = y1 + y2 + T^0.5 (1+T^1) y2^-1 + T^2 y1^-1 y2^-2"

    def test_critical_points_text(self, capsys):
        code, out, _ = run(capsys, "critical-points", "--catalog", "simplex:2")
        assert code == 0
        assert "critical points: 3" in out
        assert "u=(1/3, 1/3)" in out

    def test_lte_at_point(self, capsys):
        code, out, _ = run(
            capsys, "lte", "--catalog", "hirzebruch:2,1/2", "--u", "3/4,1/4"
        )
        assert code == 0
        assert "status: solvable" in out
        assert out.count("witness") == 4

    def test_lte_grid(self, capsys):
        code, out, _ = run(capsys, "lte", "--catalog", "simplex:2", "--grid", "6")
        assert code == 0
        assert "balanced at u=(1/3, 1/3)" in out

    def test_lte_grid_header_has_one_factor_per_dimension(self, capsys):
        code, out, _ = run(capsys, "lte", "--catalog", "simplex:3", "--grid", "4")
        assert code == 0
        assert out.startswith("grid 4x4x4: 1 interior points\n")
        code, out, _ = run(
            capsys, "lte", "--catalog", "simplex:3", "--grid", "4", "--format", "json"
        )
        assert json.loads(out)["grid"] == 4

    def test_residue_check(self, capsys):
        code, out, _ = run(capsys, "residue-check", "--catalog", "simplex:2")
        assert code == 0
        assert "trace sum residual" in out and "ok" in out
        assert "multiplicity count: 3 vs betti 3" in out

    def test_analyze_text(self, capsys):
        code, out, _ = run(capsys, "analyze", "--catalog", "blowup1:1/3")
        assert code == 0
        assert "fano type: fano" in out
        assert "critical points: 4" in out
        assert "exactness: surface" in out


class TestJsonContract:
    def test_documents_roundtrip_byte_identically(self, capsys):
        for argv in (
            ["critical-points", "--catalog", "simplex:2", "--format", "json"],
            ["analyze", "--catalog", "simplex:2", "--format", "json"],
            ["lte", "--catalog", "simplex:2", "--u", "1/3,1/3", "--format", "json"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert out.strip() == json.dumps(
                json.loads(out), indent=2, sort_keys=True
            )

    def test_analyze_document_shape(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--catalog", "simplex:2", "--format", "json"
        )
        doc = json.loads(out)
        assert sorted(doc) == [
            "betti", "critical", "fano_type", "potential", "residue", "validation"
        ]
        assert doc["validation"]["ok"] is True
        assert doc["betti"] == 3
        assert len(doc["critical"]["points"]) == 3

    def test_analyze_blowup2_monotone_finds_all_five_points(self, capsys):
        # the eliminant (y1 + 1)^2 (y1^3 - y1^2 + 2 y1 - 1) has a double root
        # over which the second equation vanishes identically
        code, out, _ = run(
            capsys, "analyze", "--catalog", "blowup2:1/3,1/3", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        points = doc["critical"]["points"]
        assert len(points) == 5
        over = sorted(
            p["y_initial"][1][0]
            for p in points
            if abs(complex(*p["y_initial"][0]) + 1) < 1e-12
        )
        root5 = 5 ** 0.5
        assert over == pytest.approx([(-1 - root5) / 2, (-1 + root5) / 2], abs=1e-12)
        res = doc["residue"]
        assert res["morse_mode"] == "equality"
        assert res["morse_total"] == res["betti"] == 5
        assert res["morse_ok"] is True
        assert res["trace_ok"] is True

    def test_analyze_five_dimensional_simplex(self, capsys):
        # five variables: past the old four-variable limit of the solver
        code, out, _ = run(
            capsys, "analyze", "--catalog", "simplex:5", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["critical"]["points"]) == 6
        res = doc["residue"]
        assert res["morse_mode"] == "equality"
        assert res["morse_total"] == res["betti"] == 6
        assert res["trace_ok"] is True

    def test_series_fields_parse_back(self, capsys):
        from toriclg import NovikovScalar

        code, out, _ = run(
            capsys, "critical-points", "--catalog", "simplex:1", "--format", "json"
        )
        doc = json.loads(out)
        y = NovikovScalar.from_json_dict(doc["points"][0]["y_local"][0])
        assert y.trunc == Fraction(5)


# the lte-scan benchmark's catalog entries
LTE_SCAN_ENTRIES = (
    "hirzebruch:2,1/2",
    "blowup2:1/2,1/5",
    "blowup2:1/2,1/4",
    "blowup1:1/5",
    "hirzebruch:1,2/5",
    "simplex:3",
)


def grid_reports(pot, grid):
    """The JSON and text reports of ``lte --grid``, built from one dict per
    point and ``json_text``."""
    doc = grid_document(pot, grid)
    shape = "x".join([str(grid)] * pot.polytope.dim)
    lines = [f"grid {shape}: {len(doc['verdicts'])} interior points"]
    lines += [
        "  balanced at u=(" + ", ".join(v["u"]) + ")"
        for v in doc["verdicts"]
        if v["status"] == "balanced"
    ]
    unknown = sum(v["status"] == "unknown" for v in doc["verdicts"])
    if unknown:
        lines.append(f"  ({unknown} points undetermined)")
    return json_text(doc) + "\n", "\n".join(lines) + "\n"


class TestGridReport:
    """``lte --grid`` writes its report from the scan's arrays; it must
    match the report built point by point through ``json_text``."""

    @staticmethod
    def check(capsys, argv, pot, grid):
        want = grid_reports(pot, grid)
        for fmt, expected in zip(("json", "text"), want):
            code, out, _ = run(capsys, "lte", *argv, "--grid", str(grid), "--format", fmt)
            assert code == 0
            # the first differing line, not a diff of two long reports
            got, ref = out.split("\n"), expected.split("\n")
            bad = next((i for i, (a, b) in enumerate(zip(got, ref)) if a != b), None)
            assert bad is None, (bad, got[bad], ref[bad])
            assert len(got) == len(ref)
        return want

    @pytest.mark.parametrize("grid", [1, 2, 7])
    @pytest.mark.parametrize("spec", LTE_SCAN_ENTRIES)
    def test_catalog_scans(self, capsys, spec, grid):
        doc, _ = self.check(capsys, ["--catalog", spec], catalog_potential(spec), grid)
        if grid == 1:
            assert '"verdicts": []' in doc

    def test_numerators_past_int64(self, capsys):
        q = 2**61 - 1
        spec = f"blowup1:1/{q}"
        pot = catalog_potential(spec)
        # over the common denominator 6q the support values pass 2**63
        assert lte._scan_grid(pot, 6)[0].dtype == object
        self.check(capsys, ["--catalog", spec], pot, 6)

    def test_unknown_points(self, capsys, tmp_path):
        path = tmp_path / "box.json"
        path.write_text(json.dumps(CUT_BOX))
        p, _ = MomentPolytope.from_json_dict(CUT_BOX)
        pot = build_potential(p, assume_fano=True)
        doc, text = self.check(capsys, ["--polytope", str(path), "--assume-fano"], pot, 8)
        assert text.startswith("grid 8x8x8: 343 interior points\n")
        assert text.endswith("  (2 points undetermined)\n")
        assert doc.count('"status": "unknown"') == 2


class TestExactWorkRunsOnce:
    def test_analyze_validates_once(self, capsys, monkeypatch):
        calls = {"_walk": 0, "_validation_report": 0}
        for name in calls:
            body = getattr(MomentPolytope, name)

            def counting(self, _body=body, _name=name):
                calls[_name] += 1
                return _body(self)

            monkeypatch.setattr(MomentPolytope, name, counting)
        code, out, _ = run(
            capsys, "analyze", "--catalog", "blowup1:1/3", "--format", "json"
        )
        assert code == 0
        assert calls == {"_walk": 1, "_validation_report": 1}
        doc = json.loads(out)
        assert doc["validation"] == {"ok": True, "issues": [], "vertices": 4}
        assert doc["fano_type"] == "fano"

    def test_invalid_polytope_reports_its_issues(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "dim": 2,
            "facets": [
                {"normal": [1, 0], "constant": "0"},
                {"normal": [0, 1], "constant": "0"},
                {"normal": [-2, -1], "constant": "2"},
            ],
        }))
        code, _, err = run(capsys, "analyze", "--polytope", str(path))
        assert code == 2
        assert err == (
            "invalid input: vertex (Fraction(1, 1), Fraction(0, 1)): "
            "normal determinant 2 (not unimodular)\n"
        )


class TestFileInputs:
    def test_polytope_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(HIRZ))
        code, out, _ = run(capsys, "potential", "--polytope", str(path), "--assume-fano")
        assert code == 0
        assert "T^0.5 y2^-1" in out

    def test_embedded_corrections(self, capsys, tmp_path):
        doc = dict(HIRZ, corrections=HIRZ_CORR)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "potential", "--polytope", str(path))
        assert code == 0
        assert "(1+T^1)" in out

    def test_corrections_file_flag(self, capsys, tmp_path):
        ppath = tmp_path / "p.json"
        cpath = tmp_path / "c.json"
        ppath.write_text(json.dumps(HIRZ))
        cpath.write_text(json.dumps(HIRZ_CORR))
        code, out, _ = run(
            capsys,
            "critical-points",
            "--polytope", str(ppath),
            "--corrections", str(cpath),
        )
        assert code == 0
        assert "critical points: 4" in out
        assert "u=(0.75, 0.25)" in out

    def test_nonfano_file_without_corrections_warns(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(HIRZ))
        code, out, err = run(capsys, "potential", "--polytope", str(path))
        assert code == 0
        # one line, without the library's file path and source line
        assert err == (
            "warning: polytope is not detectably fano and no corrections "
            "were given; using the leading-order potential only\n"
        )


class TestCountVerdict:
    def test_lower_bound_reads_incomplete(self, capsys, tmp_path):
        # the hexagon cut from the triangle u1 + u2 <= 1 by u2 <= 3/4,
        # u1 + u2 >= 1/4 and u1 <= 1/2: the search finds no point, so the
        # count 0 <= 6 holds and certifies nothing
        path = tmp_path / "p.json"
        hexagon = random_delzant_polytope(random.Random(6))
        path.write_text(json.dumps(hexagon.to_json_dict()))
        source = ("--polytope", str(path), "--assume-fano")
        code, out, _ = run(capsys, "analyze", *source)
        assert code == 0
        assert "multiplicity count 0 vs betti 6 (lower-bound) -> incomplete" in out
        assert "-> ok" not in out
        code, out, _ = run(capsys, "residue-check", *source)
        assert code == 0
        assert "multiplicity count: 0 vs betti 6 (lower-bound) -> incomplete" in out
        # the JSON keeps its fields: a lower bound that holds
        code, out, _ = run(capsys, "analyze", *source, "--format", "json")
        assert code == 0
        res = json.loads(out)["residue"]
        assert (res["morse_mode"], res["morse_total"], res["morse_ok"]) == (
            "lower-bound", 0, True
        )


class TestConfiguration:
    def test_truncation_flag_extends_series(self, capsys):
        code3, out3, _ = run(
            capsys, "critical-points", "--catalog", "simplex:2",
            "--truncation", "3", "--format", "json",
        )
        code8, out8, _ = run(
            capsys, "critical-points", "--catalog", "simplex:2",
            "--truncation", "8", "--format", "json",
        )
        assert code3 == code8 == 0
        doc3, doc8 = json.loads(out3), json.loads(out8)
        assert len(doc3["points"]) == len(doc8["points"]) == 3
        assert doc3["points"][0]["y_local"][0]["trunc"] == "3"
        assert doc8["points"][0]["y_local"][0]["trunc"] == "8"
        # same three initial roots either way
        r3 = sorted(str(p["y_initial"]) for p in doc3["points"])
        r8 = sorted(str(p["y_initial"]) for p in doc8["points"])
        assert r3 == r8

    def test_env_config_sets_truncation(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncation": 2}))
        monkeypatch.setenv("TORICLG_CONFIG", str(cfg))
        code, out, _ = run(
            capsys, "critical-points", "--catalog", "simplex:1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["points"][0]["y_local"][0]["trunc"] == "2"

    def test_flag_overrides_env_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncation": 2}))
        monkeypatch.setenv("TORICLG_CONFIG", str(cfg))
        code, out, _ = run(
            capsys, "critical-points", "--catalog", "simplex:1",
            "--truncation", "4", "--format", "json",
        )
        doc = json.loads(out)
        assert doc["points"][0]["y_local"][0]["trunc"] == "4"

    def test_a_run_leaves_the_configuration_as_it_found_it(
        self, capsys, tmp_path, monkeypatch
    ):
        code, _, _ = run(capsys, "betti", "--catalog", "simplex:2", "--truncation", "3")
        assert code == 0 and get_config() == RunConfig()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncation": 2, "eps_sol": 1e-6}))
        monkeypatch.setenv("TORICLG_CONFIG", str(cfg))
        code, _, _ = run(capsys, "betti", "--catalog", "simplex:2")
        assert code == 0 and get_config() == RunConfig()
        # a command that fails inside the run restores it too
        code, _, _ = run(capsys, "betti", "--catalog", "nosuch:2", "--truncation", "3")
        assert code == 2 and get_config() == RunConfig()


class TestExitCodes:
    def test_unknown_catalog_name(self, capsys):
        code, _, err = run(capsys, "potential", "--catalog", "nosuch:1")
        assert code == 2
        assert "invalid input" in err

    def test_parameter_out_of_range(self, capsys):
        code, _, err = run(capsys, "potential", "--catalog", "blowup1:3/2")
        assert code == 2
        assert "alpha" in err

    def test_needs_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "potential")
        assert code == 2
        code, _, err = run(
            capsys, "potential", "--catalog", "simplex:1", "--polytope", "x.json"
        )
        assert code == 2

    def test_malformed_json_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "facets": [')
        code, _, err = run(capsys, "potential", "--polytope", str(path))
        assert code == 2
        assert "invalid input" in err

    @pytest.mark.parametrize("key", ["dim", "facets"])
    def test_polytope_json_missing_key(self, capsys, tmp_path, key):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({k: v for k, v in HIRZ.items() if k != key}))
        code, _, err = run(capsys, "analyze", "--polytope", str(path))
        assert code == 2
        assert err == f"invalid input: polytope JSON lacks key '{key}'\n"

    @pytest.mark.parametrize(
        "text, kind", [("[1, 2]", "list"), ('"x"', "str"), ("null", "NoneType")]
    )
    def test_polytope_json_not_an_object(self, capsys, tmp_path, text, kind):
        path = tmp_path / "p.json"
        path.write_text(text)
        code, _, err = run(capsys, "analyze", "--polytope", str(path))
        assert code == 2
        assert err == f"invalid input: polytope JSON must be an object, got {kind}\n"

    def test_correction_json_missing_key(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        corrections = [{"monomial_z": [0, 0, 0, 1]}]  # no "extra_T"
        path.write_text(json.dumps({**HIRZ, "corrections": corrections}))
        code, _, err = run(capsys, "potential", "--polytope", str(path))
        assert code == 2
        assert err == "invalid input: correction JSON lacks key 'extra_T'\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "potential", "--polytope", str(tmp_path / "absent.json")
        )
        assert code == 2

    def test_lte_needs_target(self, capsys):
        code, _, err = run(capsys, "lte", "--catalog", "simplex:2")
        assert code == 2
        assert "--u or --grid" in err

    def test_lte_rejects_both_targets(self, capsys):
        code, out, err = run(
            capsys, "lte", "--catalog", "simplex:2", "--u", "1/3,1/3", "--grid", "6"
        )
        assert code == 2
        assert err == "invalid input: lte needs exactly one of --u or --grid\n"
        assert out == ""

    def test_grid_below_one_rejected(self, capsys):
        for grid in ("--grid=-3", "--grid=0"):
            code, out, err = run(capsys, "lte", "--catalog", "simplex:2", grid)
            assert code == 2
            assert "invalid input: grid must be a positive integer" in err
            assert out == ""

    def test_grid_one_scans_no_point(self, capsys):
        code, out, _ = run(capsys, "lte", "--catalog", "simplex:2", "--grid", "1")
        assert code == 0
        assert out.startswith("grid 1x1: 0 interior points")

    def test_exterior_u_rejected(self, capsys):
        code, _, err = run(
            capsys, "lte", "--catalog", "simplex:2", "--u", "2/3,2/3"
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["potential", "lte"])
    @pytest.mark.parametrize("u, n", [("1/3,1/3,9", 3), ("1/3,1/3,1/3", 3), ("1/3", 1)])
    def test_u_length_must_match_dimension(self, capsys, command, u, n):
        code, out, err = run(capsys, command, "--catalog", "simplex:2", "--u", u)
        assert code == 2
        assert out == ""
        assert err == (
            f"invalid input: point has {n} coordinates,"
            " the polytope has dimension 2\n"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("5", "TORICLG_CONFIG file must hold a JSON object, got int"),
            ('"truncation"', "TORICLG_CONFIG file must hold a JSON object, got str"),
            ('{"eps_coeff": [1]}', "TORICLG_CONFIG eps_coeff must be a number, got list"),
            ('{"truncation": null}', "TORICLG_CONFIG truncation must be a number, got NoneType"),
            ('{"tol_zero": -1}', "TORICLG_CONFIG tol_zero must be a finite non-negative number, got -1"),
            ('{"tol_zero": Infinity}', "TORICLG_CONFIG tol_zero must be a finite non-negative number, got Infinity"),
            ('{"eps_coeff": NaN}', "TORICLG_CONFIG eps_coeff must be a finite non-negative number, got NaN"),
            ('{"eps_sol": -Infinity}', "TORICLG_CONFIG eps_sol must be a finite non-negative number, got -Infinity"),
            ('{"eps_degenerate": "-1e-8"}', 'TORICLG_CONFIG eps_degenerate must be a finite non-negative number, got "-1e-8"'),
            ('{"tol_zero": "1e999"}', 'TORICLG_CONFIG tol_zero must be a finite non-negative number, got "1e999"'),
            (
                '{"eps_coef": -1, "tol_zero": 0}',
                'TORICLG_CONFIG has unknown keys "eps_coef";'
                " it reads truncation, eps_coeff, eps_sol, eps_degenerate, tol_zero",
            ),
        ],
        ids=[
            "number", "string", "eps-list", "truncation-null", "tol-negative",
            "tol-infinity", "eps-nan", "eps-sol-minus-infinity",
            "eps-degenerate-negative-string", "tol-overflowing-string", "unknown-key",
        ],
    )
    def test_malformed_env_config(self, capsys, tmp_path, monkeypatch, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        monkeypatch.setenv("TORICLG_CONFIG", str(cfg))
        code, out, err = run(capsys, "potential", "--catalog", "simplex:1")
        assert code == 2
        assert out == ""
        assert err == f"invalid input: {message}\n"

    @pytest.mark.parametrize("command", ["potential", "analyze", "critical-points"])
    @pytest.mark.parametrize("order", ["-1", "0"])
    def test_truncation_must_be_positive(
        self, capsys, tmp_path, monkeypatch, command, order
    ):
        argv = [command, "--catalog", "simplex:1"]
        code, out, err = run(capsys, *argv, f"--truncation={order}")
        assert (code, out) == (2, "")
        assert err == f"invalid input: --truncation must be positive, got {order}\n"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"truncation": int(order)}))
        monkeypatch.setenv("TORICLG_CONFIG", str(cfg))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"invalid input: TORICLG_CONFIG truncation must be positive, got {order}\n"
        )

    @pytest.mark.parametrize(
        "polytope, corrections",
        [
            ({**HIRZ, "facets": [*HIRZ["facets"], 5]}, None),
            ({**HIRZ, "facets": [{"normal": 5, "constant": "0"}, *HIRZ["facets"][1:]]}, None),
            ({**HIRZ, "facets": [{"normal": [1, 0], "constant": [1]}, *HIRZ["facets"][1:]]}, None),
            ({**HIRZ, "corrections": [5]}, None),
            (HIRZ, 5),
            ({**TRIANGLE, "facets": [{"normal": [1.7, 0], "constant": "0"}, *TRIANGLE["facets"][1:]]}, None),
            ({**TRIANGLE, "facets": [{"normal": [True, 0], "constant": "0"}, *TRIANGLE["facets"][1:]]}, None),
            ({**TRIANGLE, "dim": 2.5}, None),
            ({"dim": True, "facets": [{"normal": [1], "constant": "0"}, {"normal": [-1], "constant": "1"}]}, None),
            ({**HIRZ, "corrections": [{"monomial_z": [0.9, 0, 0, 1], "extra_T": "1"}]}, None),
            (HIRZ, [{"monomial_z": [0, 0, 0, False], "extra_T": "1"}]),
            (HIRZ, [{"monomial_z": [0, 0, -1, 1], "extra_T": "1/2"}]),
            (HIRZ, [{"monomial_z": [0, 0, 0, 1], "extra_T": "1/2", "coeff": {"terms": [{"exp": "-1/2", "re": 1.0, "im": 0.0}], "trunc": "inf"}}]),
            ({**TRIANGLE, "facets": [*TRIANGLE["facets"][:2], {"normal": [-1, -1], "constant": True}]}, None),
            (HIRZ, [{"monomial_z": [0, 0, 0, 1], "extra_T": True}]),
            (HIRZ, [{"monomial_z": [0, 0, 0, 1], "extra_T": "1/2", "coeff": {"terms": [{"exp": False, "re": 1.0, "im": 0.0}], "trunc": "inf"}}]),
            (HIRZ, [{"monomial_z": [0, 0, 0, 1], "extra_T": "1/2", "coeff": {"terms": [{"exp": 0, "re": 1.0, "im": 0.0}], "trunc": True}}]),
            ({**TRIANGLE, "facets": [*TRIANGLE["facets"][:2], {"normal": [-1, -1], "constant": float("inf")}]}, None),
        ],
        ids=[
            "facet-number", "normal-number", "constant-list", "correction-number", "corrections-file-number",
            "normal-fractional", "normal-bool", "dim-fractional", "dim-bool", "monomial-fractional",
            "monomial-bool", "correction-negative-exponent", "correction-negative-valuation",
            "constant-bool", "extra-t-bool", "coeff-exp-bool", "coeff-trunc-bool", "constant-infinite",
        ],
    )
    def test_malformed_polytope_json(self, capsys, tmp_path, polytope, corrections):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(polytope))
        argv = ["analyze", "--polytope", str(path)]
        if corrections is not None:
            corr = tmp_path / "c.json"
            corr.write_text(json.dumps(corrections))
            argv += ["--corrections", str(corr)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("invalid input: ") and err.count("\n") == 1

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("where", ["re", "im", "series"])
    def test_non_finite_coefficient_exits_2(self, capsys, tmp_path, value, where):
        if where == "series":
            coeff = {"terms": [{"exp": "0", "re": 1.0, "im": 0.0}, {"exp": "1/2", "re": value, "im": 0.0}]}
        else:
            coeff = {"re": 0.5, "im": 0.0, where: value}
        corr = tmp_path / "c.json"
        corr.write_text(json.dumps([{"monomial_z": [1, 0, 0], "extra_T": "1/10", "coeff": coeff}]))
        for fmt in ("json", "text"):
            argv = ["analyze", "--catalog", "simplex:2", "--corrections", str(corr), "--format", fmt]
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == "invalid input: correction 0 coefficient has a NaN or infinite term\n"

    def test_json_integers_read_without_loss_still_work(self, capsys, tmp_path):
        exact = {**HIRZ, "corrections": HIRZ_CORR}
        written = {
            "dim": "2",
            "facets": [
                {**f, "normal": [float(x) for x in f["normal"]]} for f in HIRZ["facets"]
            ],
            "corrections": [{**HIRZ_CORR[0], "monomial_z": [0.0, "0", 0, 1.0]}],
        }
        outs = []
        for k, polytope in enumerate((exact, written)):
            path = tmp_path / f"p{k}.json"
            path.write_text(json.dumps(polytope))
            outs.append(run(capsys, "analyze", "--polytope", str(path), "--format", "json"))
        assert outs[0][0] == 0
        assert outs[1] == outs[0]

    def test_json_float_rationals_read_as_written(self, capsys, tmp_path):
        """0.1 in a polytope or correction file means 1/10, not the double
        nearest to it."""
        facets = [*TRIANGLE["facets"][:2], {"normal": [-1, -1], "constant": 0.1}]
        tri = tmp_path / "p.json"
        tri.write_text(json.dumps({**TRIANGLE, "facets": facets}))
        code, out, _ = run(capsys, "potential", "--polytope", str(tri), "--format", "json")
        assert code == 0
        assert json.loads(out)["terms"][2]["coeff"]["terms"][0]["exp"] == "1/10"
        code, out, _ = run(
            capsys, "lte", "--polytope", str(tri), "--u", "0.03,0.03", "--format", "json"
        )
        assert code == 0
        levels = json.loads(out)["frame"]["levels"]
        assert [lv["value"] for lv in levels] == ["0.03", "0.04"]
        # extra_T and the exponents of a series coefficient: 1/2 + 1/10 and
        # 1/2 + 1 + 1/10 on the facet with constant 1/2
        hirz = tmp_path / "h.json"
        hirz.write_text(json.dumps(HIRZ))
        corr = tmp_path / "c.json"
        series = {"terms": [{"exp": 0.1, "re": 1.0, "im": 0.0}], "trunc": "inf"}
        corr.write_text(
            json.dumps(
                [
                    {**HIRZ_CORR[0], "extra_T": 0.1},
                    {**HIRZ_CORR[0], "extra_T": 1, "coeff": series},
                ]
            )
        )
        argv = ["--polytope", str(hirz), "--corrections", str(corr), "--format", "json"]
        code, out, _ = run(capsys, "potential", *argv)
        assert code == 0
        exps = [t["exp"] for t in json.loads(out)["terms"][2]["coeff"]["terms"]]
        assert exps == ["1/2", "3/5", "8/5"]

    def test_numerical_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise NoConvergence("stuck")

        monkeypatch.setattr("toriclg.cli.find_critical_points", boom)
        code, _, err = run(capsys, "critical-points", "--catalog", "simplex:1")
        assert code == 3
        assert "numerical failure" in err


# the exit code of every package error, as it stands: ValueError kin,
# UnknownName (a KeyError) and OSError are invalid input, the rest are
# numerical failures
EXIT_CODES = {
    "NotInLambdaZero": 2,
    "ZeroLeadingCoefficient": 3,
    "InvalidPolytope": 2,
    "UnknownName": 2,
    "ParamOutOfRange": 2,
    "CorrectionNotPositive": 2,
    "PositiveDimensionalInitialLocus": 3,
    "EliminationFailed": 3,
    "SingularInitialJacobian": 3,
    "NoConvergence": 3,
    "NotInterior": 2,
    "IntegralityFailure": 3,
    "LevelUnderdetermined": 3,
    "SingularHessian": 3,
}


def test_every_package_error_has_its_exit_code(capsys, monkeypatch):
    classes = ToricLGError.__subclasses__()
    assert sorted(c.__name__ for c in classes) == sorted(EXIT_CODES)
    for cls in classes:

        def boom(*a, cls=cls, **k):
            raise cls("boom")

        monkeypatch.setattr("toriclg.cli.find_critical_points", boom)
        code, out, err = run(capsys, "critical-points", "--catalog", "simplex:1")
        assert code == EXIT_CODES[cls.__name__], cls
        prefix = "invalid input" if code == 2 else "numerical failure"
        assert err.startswith(prefix) and out == ""
