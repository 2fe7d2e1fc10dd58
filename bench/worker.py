"""One workload in one fresh process: set-up, warm-up, timed loop, checks.

Started by run.py; prints one JSON object as its last line of output.  The
process is a closed loop with one client: the next operation starts only
after the previous one has finished and been checked.  Only the operation
itself is timed; garbage is collected and outputs are checked between
operations, outside the timed region.

With --trace 1 the loop first runs untraced for a third of the run length,
then replays the same operations with the layer wrappers on, so the tracing
overhead is the difference between two timings of identical work.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"
# The 90th percentile needs at least ten samples beyond it.
MIN_OPS = 100


class Loop:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, op, tracer=None) -> float | None:
        """Run, time and check one operation; the latency, or None if it raised."""
        gc.collect()
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.on = True
            t0 = time.perf_counter()
            try:
                out = self.workload.run(op)
            finally:
                latency = time.perf_counter() - t0
                if tracer is not None:
                    tracer.on = False
        except Exception:
            self.failed += 1
            print(f"{op.kind}: operation failed", file=sys.stderr)
            traceback.print_exc()
            return None
        try:
            self.problems += [f"{op.kind}: {p}" for p in self.workload.check(op, out)]
        except Exception as exc:
            self.problems.append(f"{op.kind}: output check raised {exc!r}")
        return latency

    def rounds(self, seconds: float, min_ops: int = 0) -> tuple[list, list[float]]:
        """Whole rounds until the timed operations add up to `seconds`, and to `min_ops`."""
        ops, latencies = [], []
        while sum(latencies) < seconds or len(latencies) < min_ops:
            done = len(latencies)
            for op in self.workload.next_round():
                latency = self.execute(op)
                if latency is not None:
                    ops.append(op)
                    latencies.append(latency)
            if len(latencies) == done:
                raise RuntimeError("every operation of a round failed")
        return ops, latencies


def end_to_end(latencies: list[float]) -> dict[str, float]:
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    start = time.perf_counter()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="smallest sizes, for the smoke test")
    args = ap.parse_args(argv)

    import workloads  # imports pqk and numpy: part of the set-up time

    sizes = workloads.SMOKE[args.workload] if args.smoke else {}
    workload = workloads.WORKLOADS[args.workload](args.seed, **sizes)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    loop = Loop(workload)
    for op in workload.warmup():
        loop.execute(op)
    result = {"setup_s": setup_s}
    if args.trace:
        import tracing

        ops, untraced = loop.rounds(args.seconds / 3)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_all = [loop.execute(op, tracer) for op in ops]
        finally:
            tracer.uninstall()
        traced = [t for t in traced_all if t is not None]
        result["metrics"] = tracer.metrics(len(traced), sum(traced), sum(untraced))
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "ops": len(traced),
            "functions": tracer.functions(),
            "spans": [{"kind": op.kind, "untraced_s": u, "traced_s": t}
                      for op, u, t in zip(ops, untraced, traced_all)],
        }, indent=1))
    else:
        ops, latencies = loop.rounds(args.seconds, MIN_OPS)
        result["metrics"] = end_to_end(latencies)
    loop.problems += workload.check_run()
    result.update(attempted=loop.attempted, failed=loop.failed, problems=loop.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
