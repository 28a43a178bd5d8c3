"""Recompute the pinned per-op digests in ``perfbench/digests.json``.

Run from the root of a checkout, at the commit whose outputs are the
reference (a change that keeps the bit-identity contract never needs
to)::

    PYTHONPATH=src python3 perfbench/pin.py

Every op of every workload is run once per size for the default
workload seed and one held-out seed; an op that fails its output check
aborts the pin.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

# worker pins the BLAS pools, so it must be imported before NumPy.
from worker import DIGESTS_PATH, OUT_DIR, Runner
from workloads import WORKLOADS

#: The default workload seed of run.py, and one held out of development.
PINNED_SEEDS = (1, 1001)


def main() -> int:
    table = {}
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for size in ("full", "tiny"):
            for name, workload in WORKLOADS.items():
                for seed in PINNED_SEEDS:
                    runner = Runner(workload(seed, size, workdir), None)
                    _, digests = runner.run_pass()
                    if runner.failed:
                        print(f"{size} {name} seed {seed}: an op failed",
                              file=sys.stderr)
                        return 1
                    table.setdefault(size, {}).setdefault(name, {})[
                        str(seed)
                    ] = digests
                    print(f"{size} {name} seed {seed}: {len(digests)} ops")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
