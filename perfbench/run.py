"""coopsat benchmark.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Runs each workload in a fresh worker process with single-threaded BLAS,
one workload at a time and one unit of work at a time (a closed loop
with no concurrency).  The worker repeats the workload's unit of work
for ``--seconds`` and checks every output.  Set-up time is the median
over several fresh processes.  Times are read at the reference host
speed (see hostspeed.py).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The last line of the output
is one JSON object: correct, attempted, failed and metrics.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk", "full-epoch", "wide-array", "oracle")
# The program does only small matrix work from Python loops; BLAS thread
# hand-off would otherwise dominate the run-to-run spread.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 10
TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def _run_worker(args: list[str], timeout: float) -> tuple[float, str]:
    """Run a worker to its end.  Returns the time until it reported that
    it is set up, and the rest of its output.  The worker is killed and
    waited for on every way out of here."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env={**os.environ, **BLAS_ENV})
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=timeout - (time.perf_counter() - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if line.strip() != "ready":
        raise BenchError(f"worker failed during set-up (exit {proc.returncode})")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    return setup_s, out


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the worker's result with set-up time."""
    start = time.perf_counter()
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup_s, out = _run_worker(base + ["--setup-only"], 10.0)
            setups.append((setup_s, float(out)))  # (raw time, host speed)
    _, out = _run_worker(
        base + ["--seconds", str(seconds), "--trace", str(int(trace))],
        TIMEOUT_S - (time.perf_counter() - start))
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(t * speed for t, speed in setups),
            "unit": "s"}
        result["host"]["raw_setup_s"] = statistics.median(t for t, _ in setups)
    return result


def report(workload: str, seconds: float, trace: bool, result: dict) -> None:
    """Human-readable lines, then the JSON result line."""
    correct = result["failed"] == 0
    print(f"workload {workload}: {result['units']} unit(s) in {seconds:g} s, "
          f"closed loop, 1 process, reference "
          f"{'recorded' if result['reference'] else 'absent: invariants only'}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print("host " + json.dumps(result["host"], sort_keys=True))
    if trace:
        wall = result["metrics"]["trace.wall_s"]["value"]
        print(f"{'span':<28}{'self_s':>10}{'incl_s':>10}{'calls':>10}{'self%':>8}")
        for name, self_s, total_s, calls in sorted(result["table"],
                                                   key=lambda row: -row[1]):
            print(f"{name:<28}{self_s:>10.4f}{total_s:>10.4f}{calls:>10.0f}"
                  f"{100.0 * self_s / wall:>7.1f}%")
    for name, metric in result["metrics"].items():
        print(f"{name:<34}{metric['value']:>14.6g} {metric['unit']}")
    for name, value in result["quality"].items():
        print(f"{name:<34}{value:>14.6g}")
    for problem in result["problems"]:
        print(f"MISMATCH {problem}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}),
          flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that the running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "coopsat" / "__init__.py").is_file():
        print(f"error: coopsat sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = bench(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, args.seconds, bool(args.trace), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
