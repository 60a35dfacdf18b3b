"""One pass over a workload, run in a fresh process by ``run.py``.

    python3 bench/passrun.py ROOT WORKLOAD SEED TRACE WORKDIR OUT T_SPAWN

Set-up imports ``toriclg`` from ``ROOT/src`` and writes the generated
polytopes to ``WORKDIR``.  The pass then calls ``toriclg.cli.main`` once
per item, in-process with stdout captured, resetting the run-wide
configuration before each call because ``main`` mutates it.  Only those
calls are timed; the oracles run afterwards.  With TRACE=1 the layers are
wrapped for the pass and the per-layer numbers are added.  The result is
written to OUT as JSON.  T_SPAWN is the parent's ``time.monotonic()``
just before it started this process; set-up time counts from there.
Times are corrected for the host's speed (see ``speedometer.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from speedometer import Speedometer  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

REFERENCE = BENCH / "reference.json"
# the seeds whose items ``reference.json`` holds; items that only other
# seeds generate are unreferenced, and ``check.output_changed`` cannot see them
REFERENCE_SEEDS = range(0, 64)

# spans reported as ``<name>.calls`` and ``<name>.self_s``
SPAN_METRICS = tuple(n for n in TARGETS if n not in ("tropical.candidates", "tropical.find"))
# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS: tuple[tuple[str, str, str], ...] = (
    tuple(
        m
        for n in SPAN_METRICS
        for m in ((f"{n}.calls", "count", "lower"), (f"{n}.self_s", "s", "lower"))
    )
    + (
        ("tropical.candidates.self_s", "s", "lower"),
        ("tropical.find.self_s", "s", "lower"),
        ("novikov.terms_out", "count", "lower"),
        ("tropical.candidates.points", "count", "higher"),
        ("tropical.candidates.cells", "count", "lower"),
        ("tropical.newton_lift.failed", "count", "lower"),
        ("polysolve.solve.roots", "count", "higher"),
        ("polysolve.solve.positive_dim", "count", "lower"),
        ("lte.verdicts.balanced", "count", "higher"),
        ("lte.verdicts.unbalanced", "count", "lower"),
        ("lte.verdicts.unknown", "count", "lower"),
        ("jacres.trace_residual_max", "ratio", "lower"),
        ("check.fail_share", "ratio", "lower"),
        ("check.output_changed", "count", "lower"),
        ("check.output_unreferenced", "count", "lower"),
        ("check.wall_pass_s", "s", "lower"),
        ("check.speed_factor", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    )
)


def import_library(root: Path):
    """Import toriclg from the checkout, never from an installed copy."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import toriclg

    if Path(toriclg.__file__).resolve().parent != (src / "toriclg").resolve():
        raise ImportError(f"toriclg came from {toriclg.__file__}, not {src}")
    return toriclg


def _catalog_entry(spec: str):
    from toriclg import catalog

    name, _, rest = spec.partition(":")
    return catalog(name, *(Fraction(x) for x in rest.split(",") if x))


def facet_rows(item: workloads.Item):
    if item.rows is not None:
        return item.rows
    return [(f.normal, f.constant) for f in _catalog_entry(item.catalog).polytope.facets]


def prepare(item_list, workdir: Path) -> list[list[str]]:
    """Command lines of the items; generated polytopes go to files."""
    argvs = []
    for k, item in enumerate(item_list):
        if item.rows is not None:
            path = workdir / f"item{k}.json"
            path.write_text(json.dumps(workloads.polytope_json(item.rows)))
            source = ["--polytope", str(path), "--assume-fano"]
        else:
            source = ["--catalog", item.catalog]
        extra = ["--grid", str(item.grid)] if item.command == "lte" else []
        argvs.append([item.command, *source, *extra, "--format", "json"])
    return argvs


def call(argv: list[str], speed: Speedometer | None = None) -> tuple[int | None, str, float]:
    """One call of the command line front end: exit code, output and
    seconds taken (at nominal speed when a speedometer runs)."""
    from toriclg import RunConfig, cli, set_config

    set_config(RunConfig())
    out, err = io.StringIO(), io.StringIO()
    t0 = speed.mark() if speed else time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed item, not a failed pass
        rc, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    dt = speed.nominal(t0) if speed else time.monotonic() - t0
    return rc, out.getvalue() or err.getvalue(), dt


def check(item: workloads.Item, rc, text: str) -> oracles.Verdict:
    if item.command == "lte":
        from toriclg import build_potential

        entry = _catalog_entry(item.catalog)
        pot = build_potential(entry.polytope, corrections=entry.corrections)
        return oracles.check_lte(text, rc, pot)
    return oracles.check_analyze(text, rc, facet_rows(item))


def _hooks(tracer: Tracer) -> dict:
    from toriclg.errors import PositiveDimensionalInitialLocus
    from toriclg.novikov import NovikovScalar

    c = tracer.counters

    def terms_out(r):
        if isinstance(r, NovikovScalar):
            c["novikov.terms_out"] += len(r.terms)

    def candidates(r):
        c["tropical.candidates.points"] += len(r[0])
        c["tropical.candidates.cells"] += len(r[1])

    def lift_failed(exc):
        c["tropical.newton_lift.failed"] += 1

    def roots(r):
        c["polysolve.solve.roots"] += len(r.roots)

    def positive_dim(exc):
        if isinstance(exc, PositiveDimensionalInitialLocus):
            c["polysolve.solve.positive_dim"] += 1

    ops = (terms_out, None)
    return {
        "novikov.mul": ops,
        "novikov.invert": ops,
        "novikov.add": ops,
        "novikov.exp": ops,
        "tropical.candidates": (candidates, None),
        "tropical.newton_lift": (None, lift_failed),
        "polysolve.solve": (roots, positive_dim),
    }


def layer_metrics(tracer: Tracer, item_list, outputs, verdicts, changed, unreferenced) -> dict:
    spans = tracer.summary()
    m: dict[str, float] = {}
    for n in SPAN_METRICS:
        rec = spans.get(n, {"calls": 0, "self_s": 0.0})
        m[f"{n}.calls"] = rec["calls"]
        m[f"{n}.self_s"] = rec["self_s"]
    for n in ("tropical.candidates", "tropical.find"):
        m[f"{n}.self_s"] = spans.get(n, {"self_s": 0.0})["self_s"]
    for name, _, _ in LAYER_METRICS:
        if name not in m:
            m[name] = tracer.counters.get(name, 0)
    residuals = [0.0]
    for item, (rc, text, _) in zip(item_list, outputs):
        if rc != 0:
            continue
        doc = json.loads(text)
        if item.command == "lte":
            for r in doc["verdicts"]:
                m[f"lte.verdicts.{r['status']}"] += 1
        elif doc["residue"]["trace_residual"] is not None:
            residuals.append(doc["residue"]["trace_residual"])
    m["jacres.trace_residual_max"] = max(residuals)
    m["check.fail_share"] = sum(1 for v in verdicts if v.failed) / len(verdicts)
    m["check.output_changed"] = changed
    m["check.output_unreferenced"] = unreferenced
    return m


def run_pass(root: Path, workload: str, seed: int, traced: bool, workdir: Path,
             t_spawn: float) -> dict:
    speed = Speedometer()
    speed.start()
    import_library(root)
    item_list = workloads.items(workload, seed)
    argvs = prepare(item_list, workdir)
    tracer = None
    if traced:
        tracer = Tracer()
        tracer.install(_hooks(tracer))
    first = speed.mark()
    outputs = [call(argv, speed) for argv in argvs]
    last = speed.mark()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed.stop()
    if tracer is not None:
        tracer.uninstall()

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    verdicts, records = [], []
    changed = unreferenced = 0
    for item, (rc, text, dt) in zip(item_list, outputs):
        v = check(item, rc, text)
        verdicts.append(v)
        if item.id not in reference:
            unreferenced += 1
        elif rc != 0 or not oracles.same_output(
            oracles.fingerprint(item.command, text), reference[item.id]
        ):
            changed += 1
        records.append({"id": item.id, "latency_s": dt, "failed": v.failed,
                        "wrong": v.wrong, "complete": v.complete})
    result = {
        "setup_s": speed.nominal((t_spawn, 0, 0.0, 0.0), first),
        "pass_s": speed.nominal(first, last),
        "wall_pass_s": last[0] - first[0],
        "speed_factor": speed.factor(first, last),
        "probe_s": speed.times[first[1]:last[1]],
        "rss_mb": rss_mb,
        "items": records,
        "output_changed": changed,
        "output_unreferenced": unreferenced,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, item_list, outputs, verdicts,
                                         changed, unreferenced)
    return result


def main(argv: list[str]) -> int:
    root, workload, seed, trace, workdir, out, t_spawn = argv
    result = run_pass(Path(root), workload, int(seed), trace == "1", Path(workdir),
                      float(t_spawn))
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
