"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import math
import pathlib
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from pqk.circuit import check_signature, rename_circuit
from pqk.errors import VariableClash
from pqk.fuzz import GenConfig, check_progress, check_sr, count_lifting_applies, gen_corpus
from pqk.interp import Done, run_closed
from pqk.parser import boxed_from_circuit, parse_circuit_text, parse_program, parse_type_text
from pqk.simulator import QuantumState, branch_distribution, fidelity, simulate
from pqk.syntax import Boxed
from pqk.trees import (
    Assignment,
    EMPTY_ASSIGNMENT,
    EMPTY_TREE,
    Renaming,
    LiftedNode,
    Sub,
    compose,
    flatten,
    graft,
    lookup,
    path_set,
    to_map,
)
from pqk.typecheck import check_closed_value

from circuit_gen import random_circuit
from oracles import assignment_set, boxed_equiv, flatten_map, graft_map, random_lifted, random_tree, rename_signature
from mutants import skip_let_flatten

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"
REPO = PROGRAMS.parent


def a(**kw):
    return Assignment.of(**kw)


def report(n: int, label: str, started: float):
    print(f"\nACCEPTANCE {n} PASS — {label} ({time.monotonic() - started:.2f}s)")


# -- corpus shared by criteria 5 and 6 (generated once)

_CORPUS = None


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = gen_corpus(GenConfig(seed=2024, max_depth=6), 500)
    return _CORPUS


class TestAcceptance:
    def test_1_golden_typing(self):
        started = time.monotonic()
        main = parse_program((PROGRAMS / "one_way.pqk").read_text()).main
        got = check_closed_value(main)
        expected = parse_type_text("Qubit -o Qubit -o <u ? Qubit | Bit>")
        assert got == expected  # exact, including the lifted variable name u
        assert time.monotonic() - started < 1.0
        report(1, "one-way program types to Qubit -o Qubit -o <u ? Qubit | Bit>", started)

    def test_2_golden_circuits(self):
        started = time.monotonic()

        t0 = time.monotonic()
        out = run_closed(parse_program((PROGRAMS / "alice_box.pqk").read_text()).main)
        assert isinstance(out, Done)
        alice = lookup(out.config.value, EMPTY_ASSIGNMENT)
        assert isinstance(alice, Boxed)
        alice_golden = boxed_from_circuit(parse_circuit_text("""
            input(q0:Qubit, a0:Qubit);
            CNOT(q0, a0) -> (q1, a1);
            H(q1) -> q2;
            Meas2(q2, a1) -> (x, y);
        """))
        assert boxed_equiv(alice.boxed, alice_golden)
        assert time.monotonic() - t0 < 1.0

        t0 = time.monotonic()
        out = run_closed(parse_program((PROGRAMS / "teleport_box.pqk").read_text()).main)
        assert isinstance(out, Done)
        teleport = lookup(out.config.value, EMPTY_ASSIGNMENT)
        # branch-expanded reference: the four conditional X/Z corrections of
        # teleportation, one per measurement outcome
        teleport_golden = boxed_from_circuit(parse_circuit_text("""
            input(b0:Qubit, q0:Qubit, a0:Qubit);
            CNOT(q0, a0) -> (q1, a1);
            H(q1) -> q2;
            Meas2(q2, a1) -> (x, y);
            lift(x) => u;
            lift(y) => s;
            (u = 1; s = 0) ? Z(b0) -> b1;
            (u = 0; s = 1) ? X(b0) -> b2;
            (u = 1; s = 1) ? X(b0) -> b3;
            (u = 1; s = 1) ? Z(b3) -> b4;
        """))
        assert boxed_equiv(teleport.boxed, teleport_golden)
        conditional_xz = [
            ins for ins in teleport.boxed.circuit.instructions
            if getattr(ins, "gate", None) in ("X", "Z") and ins.cond
        ]
        assert len(conditional_xz) == 4
        assert time.monotonic() - t0 < 1.0
        report(2, "alice and teleportation boxes match the CRL listings", started)

    def test_3_signature_golden(self):
        started = time.monotonic()
        circuit = parse_circuit_text("""
            input(b0:Qubit, q0:Qubit, a0:Qubit);
            CNOT(q0, a0) -> (q1, a1);
            H(q1) -> q2;
            Meas2(q2, a1) -> (x, y);
            lift(x) => u;
            lift(y) => s;
            (s = 1) ? X(b0) -> b1;
            (u = 1; s = 0) ? Z(b0) -> b2;
            (u = 1; s = 1) ? Z(b1) -> b3;
        """)
        sig = check_signature(circuit)
        s_node = LiftedNode("s", EMPTY_TREE, EMPTY_TREE)
        assert sig.tree == LiftedNode("u", s_node, s_node)
        from pqk.circuit import LabelContext
        from pqk.syntax import QUBIT

        assert lookup(sig.outputs, a(u=0, s=0)) == LabelContext.of({"b0": QUBIT})
        assert lookup(sig.outputs, a(u=0, s=1)) == LabelContext.of({"b1": QUBIT})
        assert lookup(sig.outputs, a(u=1, s=0)) == LabelContext.of({"b2": QUBIT})
        assert lookup(sig.outputs, a(u=1, s=1)) == LabelContext.of({"b3": QUBIT})
        report(3, "teleportation-dl signature: tree <u?<s?.|.>|<s?.|.>>, outputs b0..b3", started)

    def test_4_lifting_tree_oracle_suite(self):
        started = time.monotonic()
        pool = ["u", "s", "w", "v"]
        rng = random.Random(404)

        for _ in range(1000):  # compose
            obj = random_lifted(rng, pool, 4, lambda r: r.randrange(100))
            ps = path_set(obj)
            assert len(ps) <= 16
            index = [p for p in ps if rng.random() < 0.5]
            family = {p: rng.randrange(1000) for p in index}
            got = compose(obj, family, index)
            expected = dict(to_map(obj))
            expected.update(family)
            assert to_map(got) == expected

        done = 0  # flatten
        while done < 1000:
            obj = random_lifted(rng, pool, 3, lambda r: r.randrange(100))
            family = {}
            for p in path_set(obj):
                if rng.random() < 0.6:
                    family[p] = random_lifted(rng, ["z1", "z2"] + pool[:2], 2,
                                              lambda r: r.randrange(100))
            tagged = compose(obj, {p: Sub(s) for p, s in family.items()}, family.keys())
            try:
                expected = flatten_map(tagged)
            except AssertionError:
                with pytest.raises(VariableClash):
                    flatten(tagged)
                continue
            assert to_map(flatten(tagged)) == expected
            done += 1

        done = 0  # graft
        while done < 1000:
            t = random_tree(rng, pool, 3)
            cond = rng.choice(sorted(assignment_set(t), key=str))
            r = random_tree(rng, ["z1", "z2", "u"], 2)
            try:
                expected = graft_map(t, cond, r)
            except AssertionError:
                with pytest.raises(VariableClash):
                    graft(t, cond, r)
                continue
            assert set(path_set(graft(t, cond, r))) == expected
            done += 1

        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        report(4, "compose/flatten/graft agree with the path-map oracle on 3x1000 instances", started)

    def test_5_subject_reduction_fuzz(self):
        started = time.monotonic()
        terms = corpus()
        assert len(terms) == 500
        lifting = sum(1 for t in terms if count_lifting_applies(t) > 0)
        assert lifting >= 50  # >= 10% carry a lifting apply
        findings = []
        for term in terms:
            finding = check_sr(term, shrink=False)
            if finding:
                findings.append(finding)
        assert findings == []
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        report(5, f"500 generated programs: every Done re-typechecks ({lifting} with lifts)", started)

    def test_6_progress_fuzz_and_mutation(self, monkeypatch):
        started = time.monotonic()
        for term in corpus():
            finding = check_progress(term, fuel=10**6)
            assert finding is None
        # mutation check: disabling the let-rule flatten must be caught
        crafted = parse_program((PROGRAMS / "measure_when.pqk").read_text()).main
        skip_let_flatten(monkeypatch)
        findings = [check_sr(crafted)]
        for term in corpus()[:50]:
            f = check_sr(term, shrink=False)
            if f:
                findings.append(f)
        assert any(f is not None for f in findings)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0
        report(6, "zero stuck outcomes at fuel 1e6; let-flatten mutation produces findings", started)

    def test_7_renaming_coherence(self):
        started = time.monotonic()
        rng = random.Random(777)
        rho = Renaming({f"w{i}": f"rl{i}" for i in range(3)} |
                       {f"f{i}": f"rf{i}" for i in range(1, 40)})
        pi = Renaming({f"v{i}": f"rv{i}" for i in range(1, 40)})
        for i in range(200):
            c = random_circuit(rng, steps=8)
            sig = check_signature(c)
            relabeled = check_signature(rename_circuit(c, rho))
            assert relabeled == rename_signature(sig, rho), f"label renaming {i}"
            revared = check_signature(rename_circuit(c, pi=pi))
            assert revared == rename_signature(sig, pi=pi), f"lifted renaming {i}"
        report(7, "signatures commute with label and lifted-variable renamings (200 circuits)", started)

    def test_8_simulator(self):
        started = time.monotonic()
        teleport = parse_circuit_text("""
            input(q0:Qubit);
            Init0() -> b';
            Init0() -> a';
            H(b') -> b'';
            CNOT(b'', a') -> (b0, a0);
            CNOT(q0, a0) -> (q1, a1);
            H(q1) -> q2;
            Meas2(q2, a1) -> (x, y);
            lift(x) => u;
            lift(y) => s;
            (u = 1; s = 0) ? Z(b0) -> b1;
            (u = 0; s = 1) ? X(b0) -> b2;
            (u = 1; s = 1) ? X(b0) -> b3;
            (u = 1; s = 1) ? Z(b3) -> b4;
        """)
        state_rng = np.random.default_rng(808)
        for trial in range(20):
            vec = state_rng.normal(size=2) + 1j * state_rng.normal(size=2)
            vec = vec / np.linalg.norm(vec)
            init = QuantumState.product(teleport.input, {"q0": vec})
            reference = QuantumState(("out",), np.asarray(vec, dtype=complex))
            for seed in range(10):
                trace = simulate(teleport, init, seed=seed)
                got = QuantumState(("out",), trace.state.amplitudes)
                assert fidelity(reference, got) >= 1 - 1e-9

        shots = 10**4
        init = QuantumState.product(teleport.input, {"q0": "+"})
        counts = branch_distribution(teleport, init, shots=shots, seed=51)
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for path, count in counts.items():
            assert abs(count - shots * 0.25) <= 5 * sigma, (path, count)

        one_way = parse_circuit_text("""
            input(q:Qubit, k:Qubit);
            H(q) -> q2;
            Meas(q2) -> x;
            lift(x) => u;
            (u = 1) ? Meas(k) -> m;
        """)
        counts = branch_distribution(one_way, shots=shots, seed=52)
        sigma = math.sqrt(shots * 0.25)
        assert abs(counts[a(u=0)] - shots / 2) <= 5 * sigma
        assert abs(counts[a(u=1)] - shots / 2) <= 5 * sigma

        elapsed = time.monotonic() - started
        assert elapsed < 30.0
        report(8, "teleportation fidelity >= 1-1e-9 (200 runs); branch stats within 5 sigma", started)

    def test_9_determinism(self):
        started = time.monotonic()

        def invoke(*argv):
            return subprocess.run(
                [sys.executable, "-m", "pqk.cli", *argv],
                capture_output=True, cwd=REPO, check=True,
            ).stdout

        run1 = invoke("run", str(PROGRAMS / "teleport_box.pqk"), "--json")
        run2 = invoke("run", str(PROGRAMS / "teleport_box.pqk"), "--json")
        assert run1 == run2
        fuzz1 = invoke("fuzz", "--count", "15", "--seed", "6", "--depth", "5")
        fuzz2 = invoke("fuzz", "--count", "15", "--seed", "6", "--depth", "5")
        assert fuzz1 == fuzz2
        report(9, "pqk run and pqk fuzz byte-identical across consecutive invocations", started)
