"""Smoke test of the benchmark itself.

Runs every workload at its smallest size through bench/run.py, checks the
printed result against BENCHMARK.json, and shows that each workload's output
check rejects a planted wrong output.  Run from the repository root:

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402
from pqk.circuit import Circuit, GateApp, MLabel  # noqa: E402
from pqk.fuzz import Finding  # noqa: E402
from pqk.interp import Done, RightConfig  # noqa: E402
from pqk.trees import Assignment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


def test_refuses_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and not proc.stdout.strip()


def first_op(name: str):
    wl = workloads.WORKLOADS[name](5, **workloads.SMOKE[name])
    op = wl.next_round()[-1]
    out = wl.run(op)
    assert wl.check(op, out) == []
    return wl, op, out


def with_circuit(outcome: Done, instructions) -> Done:
    c = outcome.config.circuit
    return Done(RightConfig(Circuit(c.input, tuple(instructions)), outcome.config.value))


def test_chain_rejects_an_extra_gate():
    wl, op, (typing, outcome) = first_op("chain")
    c = outcome.config.circuit
    _, qubit_of = workloads.follow_wires(c, workloads.CHAIN_QUBITS)
    label = next(iter(qubit_of))
    extra = GateApp(Assignment.of(), "X", MLabel(label), MLabel("planted"))
    problems = wl.check(op, (typing, with_circuit(outcome, c.instructions + (extra,))))
    assert any("gate sequence" in p for p in problems)


def test_chain_rejects_a_wrong_state(monkeypatch):
    wl, op, out = first_op("chain")
    simulate = workloads.pqk.simulator.simulate

    def skewed(*args, **kwargs):
        trace = simulate(*args, **kwargs)
        amps = trace.state.amplitudes.reshape(-1).copy()
        amps[np.argmin(abs(amps))] += 0.5
        amps = (amps / np.linalg.norm(amps)).reshape(trace.state.amplitudes.shape)
        return dataclasses.replace(trace, state=dataclasses.replace(trace.state, amplitudes=amps))

    monkeypatch.setattr(workloads.pqk.simulator, "simulate", skewed)
    assert any("fidelity" in p for p in wl.check(op, out))


def test_branching_rejects_an_extra_correction():
    wl, op, (typing, outcome, env) = first_op("branching")
    ones = {f"u{i}": 1 for i in range(1, op.input + 1)}
    carried = workloads.lifted_at(outcome.config.value, ones).name
    extra = GateApp(Assignment.of(ones), "X", MLabel(carried), MLabel("planted"))
    c = outcome.config.circuit
    problems = wl.check(op, (typing, with_circuit(outcome, c.instructions + (extra,)), env))
    assert any("X on path" in p for p in problems)


def test_branching_rejects_findings():
    wl, op, (typing, outcome, env) = first_op("branching")
    env.findings.append("branch-independence: planted")
    assert any("findings" in p for p in wl.check(op, (typing, outcome, env)))


def test_shots_rejects_skewed_counts():
    wl = workloads.Shots(5)
    op = workloads.Op("teleport", 1)
    counts = wl.run(op)
    assert wl.check(op, counts) == []
    first = min(counts, key=str)
    skewed = {p: (wl.cases["teleport"].shots if p == first else 0) for p in counts}
    assert any("expected" in p for p in wl.check(op, skewed))
    short = dict(counts)
    short[first] += 1
    assert any("sum" in p for p in wl.check(op, short))


def test_shots_rejects_counts_skewed_over_the_run():
    wl = workloads.Shots(5)
    lopsided = {Assignment.of({"u": 0}): wl.cases["ghz16"].shots, Assignment.of({"u": 1}): 0}
    for seed in range(60):
        assert wl.check(workloads.Op("ghz16", seed), lopsided) == []
    assert any("ghz16 over the run" in p for p in wl.check_run())


def test_shots_rejects_a_wrong_teleported_state():
    wl = workloads.Shots(5, **workloads.SMOKE["shots"])
    assert wl.check_run() == []
    wl.psi = wl.psi[::-1].copy()
    assert any("teleported qubit fidelity" in p for p in wl.check_run())


def test_fuzz_rejects_findings_and_missing_lifts():
    wl, op, report = first_op("fuzz")
    planted = Finding("return *", "subject-reduction", "planted")
    assert wl.check(op, dataclasses.replace(report, sr_findings=[planted]))
    assert wl.check(op, dataclasses.replace(report, progress_findings=[planted]))
    assert wl.check(op, dataclasses.replace(report, fuel_exhausted=1))
    fresh = workloads.Fuzz(5, **workloads.SMOKE["fuzz"])
    fresh.check(op, dataclasses.replace(report, lifting_apply_fraction=0.0))
    assert fresh.check_run()
