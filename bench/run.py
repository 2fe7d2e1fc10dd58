"""pqk benchmark: run one workload and print its metrics as one JSON line.

Usage, from the root of a pqk checkout:

    python3 bench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Workloads: chain, branching, shots, fuzz (see bench/README.md).  With
--trace 0 the result holds the end-to-end metrics; with --trace 1 the
per-layer metrics of a separate traced run.  The last line of standard
output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

The workload runs in a fresh child process with hash randomisation fixed and
BLAS pinned to one thread.  Set-up time is the median over several fresh
processes, since importing pqk happens once per process.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("chain", "branching", "shots", "fuzz")
SETUP_REPEATS = 8  # set-up-only processes, besides the measured one
DEADLINE_S = 170.0

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path("src").resolve()), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], env=child_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="smallest sizes, one set-up")
    args = ap.parse_args(argv)

    if not (Path("src/pqk/__init__.py").is_file() and Path("programs").is_dir()):
        print("run from the root of a pqk checkout (src/pqk and programs/ not found)", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    try:
        setups = []
        if not args.trace and not args.smoke:
            for _ in range(SETUP_REPEATS):
                setups.append(run_worker(common + ["--setup-only"], DEADLINE_S)["setup_s"])
        remaining = DEADLINE_S - (time.monotonic() - started)
        result = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], remaining)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    metrics = dict(result["metrics"])
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}
    else:
        metrics["setup_s"] = statistics.median(setups + [result["setup_s"]])
        metrics = {k: {"value": metrics[k], "unit": u} for k, u in UNITS.items()}
    out = {"correct": not result["problems"], "attempted": result["attempted"],
           "failed": result["failed"], "metrics": metrics}
    line = json.dumps(out)
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
