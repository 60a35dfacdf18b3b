"""Benchmark of the toriclg command line pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a closed loop with one
client: passes over the workload's input list run one after another, each
in a fresh single-threaded child process, until the next pass would end
after S seconds, and at least MIN_PASSES of them.  With tracing, plain and
traced passes alternate.  A fresh process per pass is what a command line
user pays, and it keeps caches from turning later passes into lookups.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Lines before it
summarise the run for a reader.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from passrun import LAYER_METRICS, REFERENCE_SEEDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HARD_LIMIT_S = 165  # the whole run, set-up included, ends well before 180 s
# the medians below need three samples per item; with tracing that is two
# plain and one traced pass
MIN_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("complete_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TORICLG_CONFIG", None)  # defaults only; the benchmark never sets one
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def one_pass(workload: str, seed: int, traced: bool, workdir: Path, deadline: float) -> dict:
    out = workdir / "pass.json"
    out.unlink(missing_ok=True)
    t_spawn = time.monotonic()
    cmd = [sys.executable, str(BENCH / "passrun.py"), str(ROOT), workload, str(seed),
           "1" if traced else "0", str(workdir), str(out), repr(t_spawn)]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=max(deadline - t_spawn, 1.0))
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"pass process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(out.read_text())
    result["wall_s"] = time.monotonic() - t_spawn
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> list[dict]:
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    passes: list[dict] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(one_pass(workload, seed, traced, workdir, deadline))
        enough = len(passes) >= MIN_PASSES
        next_end = time.monotonic() + passes[-1]["wall_s"]
        if enough and next_end - start > seconds:
            return passes


def item_latencies(passes: list[dict]) -> list[float]:
    """Each item's median latency over the passes.  Every pass runs the same
    items in the same order; the median drops the calls that a busy
    moment of the machine slowed down."""
    return [statistics.median(rs) for rs in zip(*(
        [r["latency_s"] for r in p["items"]] for p in passes))]


def end_to_end(passes: list[dict]) -> dict:
    lat = item_latencies(passes)
    items = [r for p in passes for r in p["items"]]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_p90_ms": 1000 * statistics.quantiles(lat, n=10, method="inclusive")[8],
        "complete_share": sum(r["complete"] for r in items) / len(items),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if "layers" in p]
    plain = [p for p in passes if "layers" not in p]
    values = {  # median_low keeps counts whole when there are two traced passes
        name: statistics.median_low(p["layers"][name] for p in traced)
        for name, _, _ in LAYER_METRICS
        if name in traced[0]["layers"]
    }
    # cross-checks of the host-speed correction, from the plain passes
    values["check.wall_pass_s"] = statistics.median(p["wall_pass_s"] for p in plain)
    values["check.speed_factor"] = statistics.median(p["speed_factor"] for p in plain)
    values["trace.overhead_s"] = (
        statistics.median(p["pass_s"] for p in traced)
        - statistics.median(p["pass_s"] for p in plain)
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in LAYER_METRICS}


def summarise(workload: str, passes: list[dict]) -> None:
    items = [r for p in passes for r in p["items"]]
    failed = sorted({(r["id"], "; ".join(r["failed"])) for r in items if r["failed"]})
    incomplete = sorted({r["id"] for r in items if not r["complete"] and not r["failed"]})
    print(f"workload {workload}: {len(passes)} passes, {len(items)} items, "
          f"{len(items) // len(passes)} per pass")
    wall = statistics.median(p["wall_pass_s"] for p in passes)
    nominal = statistics.median(p["pass_s"] for p in passes)
    factor = statistics.median(p["speed_factor"] for p in passes)
    print(f"pass time: {wall:.3f} s wall, {nominal:.3f} s at nominal host speed "
          f"(speed factor {factor:.3f})")
    print(f"fail_share {sum(1 for r in items if r['failed']) / len(items):.4f}")
    for item_id, why in failed:
        print(f"  failed: {item_id}: {why}")
    for item_id in incomplete:
        print(f"  incomplete: {item_id}")
    print(f"outputs changed from the reference: {passes[-1]['output_changed']}")
    unreferenced = passes[-1]["output_unreferenced"]
    if unreferenced:
        seeds = REFERENCE_SEEDS
        print(f"NOTE: {unreferenced} items of this seed have no reference output; "
              f"reference.json holds seeds {seeds.start}-{seeds.stop - 1}, so "
              f"check.output_changed does not cover them")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "toriclg" / "__init__.py").is_file():
        print(f"no toriclg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run uses it

    summarise(args.workload, passes)
    items = [r for p in passes for r in p["items"]]
    for item_id, why in sorted({(r["id"], "; ".join(r["wrong"])) for r in items if r["wrong"]}):
        print(f"  WRONG: {item_id}: {why}")
    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    print(json.dumps({
        "correct": not any(r["wrong"] for r in items),
        "attempted": len(items),
        "failed": sum(1 for r in items if r["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
