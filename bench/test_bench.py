"""Tests of the benchmark itself: its oracles, its tracer, its manifest.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import passrun  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

passrun.import_library(BENCH.parent)


def _analyze(spec: str) -> str:
    rc, text, _ = passrun.call(["analyze", "--catalog", spec, "--format", "json"])
    assert rc == 0
    return text


def _rows(spec: str):
    return passrun.facet_rows(workloads.Item(spec, "analyze", catalog=spec))


def test_betti_oracle_trips_on_a_deleted_point():
    text = _analyze("blowup1:1/3")
    good = oracles.check_analyze(text, 0, _rows("blowup1:1/3"))
    assert good.complete and not good.failed

    doc = json.loads(text)
    del doc["critical"]["points"][0]
    planted = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    bad = oracles.check_analyze(planted, 0, _rows("blowup1:1/3"))
    assert not bad.complete
    assert any("points sum to 3 of 4" in why for why in bad.wrong)


def test_known_defect_fails_without_being_wrong():
    v = oracles.check_analyze(_analyze("blowup2:1/3,1/3"), 0, _rows("blowup2:1/3,1/3"))
    assert v.failed and not v.wrong and not v.complete


def test_self_times_on_nested_spans():
    t = Tracer()
    root = t.record("root", 0.0, 10.0)
    t.record("a", 1.0, 3.0, root)
    b = t.record("b", 4.0, 8.0, root)
    t.record("a", 5.0, 6.0, b)
    s = t.summary()
    assert s["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert s["b"] == {"calls": 1, "total_s": 4.0, "self_s": 3.0}
    assert s["a"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


def test_wrapped_calls_nest_and_self_times_add_up():
    t = Tracer()
    inner = t.wrap(lambda: sum(range(1000)), "inner")
    outer = t.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    s = t.summary()
    assert s["inner"]["calls"] == 3 and s["outer"]["calls"] == 1
    assert list(t.parents) == [-1, 0, 0, 0]
    total_self = s["inner"]["self_s"] + s["outer"]["self_s"]
    assert abs(total_self - s["outer"]["total_s"]) < 1e-12


def test_manifest_lists_the_metrics_the_runs_print():
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in manifest["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in manifest["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == list(
        passrun.LAYER_METRICS
    )
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)


def test_generated_polytopes_are_valid_and_seeded():
    from toriclg import MomentPolytope

    for seed in range(3):
        for workload in ("analyze-small", "analyze-series"):
            first = workloads.items(workload, seed)
            assert first == workloads.items(workload, seed)
            for item in first:
                if item.rows is not None:
                    p = MomentPolytope.from_inequalities(item.rows)
                    assert p.validate().ok, item.id
