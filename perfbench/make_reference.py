"""Record the reference outputs that ``match_frac`` compares against.

    python3 perfbench/make_reference.py [workload ...]

For each workload (default: all) and each seed in SEEDS, runs one unit
and stores the links and total SE of every (epoch, scheme) evaluation
in ``reference/<workload>.json``.  Record references only from code
whose outputs are known good: a reference taken from changed code
would hide the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from run import BLAS_ENV

os.environ.update(BLAS_ENV)  # before numpy is imported

import worker  # noqa: E402  (puts src/ on the import path)
import workloads  # noqa: E402

SEEDS = range(0, 11)


def main(names: list[str]) -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        seeds = {}
        for seed in SEEDS:
            cfg = workloads.make_config(workload, seed)
            with tempfile.TemporaryDirectory(dir=workloads.REFERENCE_DIR) as out_dir:
                records, _ = workloads.run_unit(workload, cfg, out_dir)
            seeds[str(seed)] = workloads.reference_records(records)
            print(f"{name} seed {seed}: {len(records)} evaluations", flush=True)
        payload = {"workload": name, "commit": worker.environment(0)["commit"],
                   "seeds": seeds}
        workloads.reference_path(name).write_text(
            json.dumps(payload, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
