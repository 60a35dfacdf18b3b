"""Check that the host-speed factor does not depend on the workload.

    python3 bench/speed_check.py

Run from the repository root.  Runs ROUNDS rounds of one plain pass per
workload, interleaved so that every workload sees the same host.  The host
this was written on switches between a fast and a slow state, with probe
times about 1.7 times apart, every few seconds; which states a pass happens
to see decides its factor, not the workload.  So the check compares the
probe time of the fast state, the 5th percentile of all probes a workload
took, across the workloads, and exits with code 1 when two differ by more
than TOLERANCE of their mean: then the probe's speed depends on what the
program around it does.  It also prints each workload's median factor and
wall pass time.  Run it again after a change to the library's arithmetic.
"""

from __future__ import annotations

import shutil
import statistics
import sys
import time

import run
from workloads import WORKLOADS

ROUNDS = 8
TOLERANCE = 0.03
SEED = 0


def main() -> int:
    workdir = run.ROOT / ".bench_work" / "speed-check"
    workdir.mkdir(parents=True, exist_ok=True)
    factors: dict[str, list[float]] = {w: [] for w in WORKLOADS}
    walls: dict[str, list[float]] = {w: [] for w in WORKLOADS}
    probes: dict[str, list[float]] = {w: [] for w in WORKLOADS}
    try:
        for _ in range(ROUNDS):
            for w in WORKLOADS:
                p = run.one_pass(w, SEED, False, workdir, time.monotonic() + run.HARD_LIMIT_S)
                factors[w].append(p["speed_factor"])
                walls[w].append(p["wall_pass_s"])
                probes[w] += p["probe_s"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fast = {w: statistics.quantiles(probes[w], n=20)[0] for w in WORKLOADS}
    for w in WORKLOADS:
        print(f"{w:16s} fast-state probe {1e6 * fast[w]:.2f} us "
              f"({len(probes[w])} probes), factor {statistics.median(factors[w]):.4f}, "
              f"wall pass {statistics.median(walls[w]):.3f} s")
    gap = (max(fast.values()) - min(fast.values())) / statistics.fmean(fast.values())
    print(f"largest gap between workloads: {gap:.4f} of the mean (tolerance {TOLERANCE})")
    return 0 if gap <= TOLERANCE else 1


if __name__ == "__main__":
    sys.exit(main())
