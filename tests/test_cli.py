"""Command line driver: subcommands, file inputs, exit codes, JSON contract."""

import json

import pytest

from toriclg import NoConvergence
from toriclg.cli import main

HIRZ = {
    "dim": 2,
    "facets": [
        {"normal": [1, 0], "constant": "0"},
        {"normal": [0, 1], "constant": "0"},
        {"normal": [-1, -2], "constant": "2"},
        {"normal": [0, -1], "constant": "1/2"},
    ],
}
HIRZ_CORR = [
    {"monomial_z": [0, 0, 0, 1], "extra_T": "1", "coeff": {"re": 1.0, "im": 0.0}}
]


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

    def test_series_fields_parse_back(self, capsys):
        from fractions import Fraction
        from toriclg import NovikovScalar

        code, out, _ = run(
            capsys, "critical-points", "--catalog", "simplex:1", "--format", "json"
        )
        doc = json.loads(out)
        y = NovikovScalar.from_json_dict(doc["points"][0]["y_local"][0])
        assert y.trunc == Fraction(5)


class TestExactWorkRunsOnce:
    def test_analyze_validates_once(self, capsys, monkeypatch):
        from toriclg.polytope import MomentPolytope

        calls = {"_validation_report": 0, "_fano_type_of_fan": 0}
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
        assert calls == {"_validation_report": 1, "_fano_type_of_fan": 1}
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
        with pytest.warns(UserWarning, match="fano"):
            code, out, _ = run(capsys, "potential", "--polytope", str(path))
        assert code == 0


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

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "potential", "--polytope", str(tmp_path / "absent.json")
        )
        assert code == 2

    def test_lte_needs_target(self, capsys):
        code, _, err = run(capsys, "lte", "--catalog", "simplex:2")
        assert code == 2
        assert "--u or --grid" in err

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

    def test_numerical_failure_maps_to_three(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise NoConvergence("stuck")

        monkeypatch.setattr("toriclg.cli.find_critical_points", boom)
        code, _, err = run(capsys, "critical-points", "--catalog", "simplex:1")
        assert code == 3
        assert "numerical failure" in err
