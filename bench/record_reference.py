"""Record the output fingerprints that later runs compare against.

    python3 bench/record_reference.py

Runs every item of every workload for the seeds in
``passrun.REFERENCE_SEEDS`` once, untimed, and writes
``bench/reference.json``: one fingerprint per item id.  Record it again
only on purpose, when a change of answers has been accepted; the
``check.output_changed`` count of the traced run compares against it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import passrun
import workloads


def main() -> int:
    passrun.import_library(passrun.BENCH.parent)

    unique: dict[str, workloads.Item] = {}
    for workload in workloads.WORKLOADS:
        for seed in passrun.REFERENCE_SEEDS:
            for item in workloads.items(workload, seed):
                unique.setdefault(item.id, item)

    reference = {}
    with tempfile.TemporaryDirectory(dir=passrun.BENCH) as tmp:
        for item_id, item in sorted(unique.items()):
            (argv,) = passrun.prepare([item], Path(tmp))
            rc, text, _ = passrun.call(argv)
            if rc == 0:
                reference[item_id] = passrun.oracles.fingerprint(item.command, text)
            print(f"{rc} {item_id}", file=sys.stderr)
    lines = ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
        for k, v in sorted(reference.items())
    )
    passrun.REFERENCE.write_text("{\n" + lines + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
