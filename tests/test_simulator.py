from __future__ import annotations

import math
import random

import numpy as np
import pytest

import pqk.simulator
from pqk.circuit import LabelContext, check_signature
from pqk.errors import SimulationError, UnsupportedGate
from pqk.fuzz import GenConfig, gen_corpus
from pqk.interp import Done, EvalEnv, run_closed
from pqk.parser import parse_circuit_text
from pqk.syntax import BIT, QUBIT
from pqk.simulator import (
    QuantumState,
    branch_distribution,
    branch_states,
    fidelity,
    parse_init_spec,
    simulate,
)
from pqk.trees import Assignment, path_set

from circuit_gen import random_circuit
from oracles import dense_branches


def a(**kw):
    return Assignment.of(**kw)


HADAMARD = parse_circuit_text("input(q:Qubit); H(q) -> q2;")

MEAS_LIFT = parse_circuit_text("""
input(q:Qubit);
H(q) -> q2;
Meas(q2) -> x;
lift(x) => u;
""")

# teleportation core prefixed with the Bell-pair preamble entangling a and b
TELEPORT = parse_circuit_text("""
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


class TestBasics:
    def test_hadamard_amplitudes(self):
        trace = simulate(HADAMARD, seed=1)
        amps = trace.state.vector()
        assert np.allclose(amps, np.array([1, 1]) / math.sqrt(2))
        assert trace.path == a()

    def test_no_lift_circuit_single_branch(self):
        counts = branch_distribution(HADAMARD, shots=50, seed=3)
        assert counts == {a(): 50}

    def test_meas2_on_00(self):
        c = parse_circuit_text(
            "input(q:Qubit, r:Qubit); Meas2(q, r) -> (x, y);"
        )
        trace = simulate(c, seed=5)
        assert trace.state.classical == {"x": 0, "y": 0}

    def test_seed_determinism(self):
        t1 = simulate(MEAS_LIFT, seed=42)
        t2 = simulate(MEAS_LIFT, seed=42)
        assert t1.path == t2.path
        assert np.array_equal(t1.state.amplitudes, t2.state.amplitudes)

    def test_sampled_path_is_a_path(self):
        for seed in range(20):
            trace = simulate(MEAS_LIFT, seed=seed)
            assert trace.path in (a(u=0), a(u=1))
            assert trace.outputs == LabelContext()

    def test_unsupported_gate(self):
        from pqk.circuit import Gate, GateSet, DEFAULT_GATES
        from pqk.syntax import QUBIT_TYPE

        exotic = GateSet([Gate("Sqrt", QUBIT_TYPE, QUBIT_TYPE)] + [
            DEFAULT_GATES.get(n) for n in DEFAULT_GATES.names()
        ])
        c = parse_circuit_text("input(q:Qubit); Sqrt(q) -> q2;", exotic)
        with pytest.raises(UnsupportedGate):
            simulate(c)

    def test_init_spec_parsing(self):
        assert parse_init_spec("q=0, a=+") == {"q": "0", "a": "+"}
        with pytest.raises(SimulationError):
            parse_init_spec("nonsense")

    def test_bad_initial_state(self):
        with pytest.raises(SimulationError):
            simulate(HADAMARD, QuantumState.product(LabelContext.of({"z": QUBIT})))

    def test_conditional_skipped_on_other_branch(self):
        c = parse_circuit_text("""
        input(q:Qubit, r:Qubit);
        Meas(q) -> x;
        lift(x) => u;
        (u = 1) ? X(r) -> r1;
        (u = 0) ? Z(r) -> r2;
        """)
        trace = simulate(c, seed=0)
        live = trace.outputs.domain()
        assert live == {"r1"} if trace.path == a(u=1) else live == {"r2"}


def random_qubit(rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=2) + 1j * rng.normal(size=2)
    return vec / np.linalg.norm(vec)


class TestTeleportation:
    def test_fidelity_every_seed(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            psi = random_qubit(rng)
            init = QuantumState.product(TELEPORT.input, {"q0": psi})
            reference = QuantumState(("out",), np.asarray(psi, dtype=complex))
            for seed in range(5):
                trace = simulate(TELEPORT, init, seed=seed)
                got = QuantumState(("out",), trace.state.amplitudes)
                assert fidelity(reference, got) >= 1 - 1e-9

    def test_branches_uniform(self):
        rng = np.random.default_rng(11)
        psi = random_qubit(rng)
        init = QuantumState.product(TELEPORT.input, {"q0": psi})
        shots = 2000
        counts = branch_distribution(TELEPORT, init, shots=shots, seed=13)
        sigma = math.sqrt(shots * 0.25 * 0.75)
        for path, count in counts.items():
            assert abs(count - shots * 0.25) <= 5 * sigma, (path, count)


class TestConditionalMeasurement:
    def test_one_way_balanced(self):
        shots = 2000
        counts = branch_distribution(MEAS_LIFT, shots=shots, seed=17)
        sigma = math.sqrt(shots * 0.25)
        assert abs(counts[a(u=0)] - shots / 2) <= 5 * sigma
        assert abs(counts[a(u=1)] - shots / 2) <= 5 * sigma


class TestStateHelpers:
    def test_product_with_bits(self):
        ctx = LabelContext.of({"q": QUBIT, "b": BIT})
        state = QuantumState.product(ctx, {"q": "+", "b": 1})
        assert state.classical == {"b": 1}
        assert np.allclose(state.vector(), np.array([1, 1]) / math.sqrt(2))

    def test_fidelity_ignores_global_phase(self):
        s1 = QuantumState(("q",), np.array([1, 0], dtype=complex))
        s2 = QuantumState(("q",), np.exp(1j * 0.7) * np.array([1, 0], dtype=complex))
        assert fidelity(s1, s2) == pytest.approx(1.0)

    def test_fidelity_aligns_wire_order(self):
        bell = np.zeros((2, 2), dtype=complex)
        bell[0, 1] = 1.0
        s1 = QuantumState(("a", "b"), bell)
        s2 = QuantumState(("b", "a"), bell.T)
        assert fidelity(s1, s2) == pytest.approx(1.0)


def random_init(c, rng: np.random.Generator) -> QuantumState:
    spec = {name: random_qubit(rng) if wire is QUBIT else int(rng.integers(2))
            for name, wire in c.input.entries}
    return QuantumState.product(c.input, spec)


def path_probabilities(c, init=None) -> dict[Assignment, float]:
    probs: dict[Assignment, float] = {}
    for trace in branch_states(c, init):
        probs[trace.path] = probs.get(trace.path, 0.0) + trace.probability
    return probs


# Branches below this probability are rounding noise (an amplitude that
# should cancel to 0 but leaves ~1e-17); the walk and the dense reference
# may keep or drop them differently.
NEGLIGIBLE = 1e-12


def assert_matches_dense(c, init: QuantumState):
    got = branch_states(c, init)
    assert abs(sum(t.probability for t in got) - 1.0) <= 1e-9
    pending = [r for r in dense_branches(c, list(init.qubit_order), init.amplitudes.reshape(-1), init.classical)
               if r.probability > NEGLIGIBLE]
    for trace in got:
        if trace.probability <= NEGLIGIBLE:
            continue
        same_outcome = [
            (fidelity(trace.state, QuantumState(tuple(r.register), r.vector.reshape([2] * len(r.register)))), r)
            for r in pending
            if Assignment.of(r.lifted) == trace.path and r.classical == trace.state.classical
            and set(r.register) == set(trace.state.qubit_order)
        ]
        assert same_outcome, f"no reference branch for {trace.path} {trace.state.classical}"
        fid, ref = min(same_outcome, key=lambda fr: abs(fr[1].probability - trace.probability) + 1 - fr[0])
        assert abs(ref.probability - trace.probability) <= 1e-9, (trace.path, ref.probability, trace.probability)
        assert fid >= 1 - 1e-9, (trace.path, fid)
        pending.remove(ref)
    assert pending == [], f"reference branches the walk lacks: {pending}"


class TestExactWalk:
    def test_matches_dense_reference_on_random_circuits(self):
        rng = random.Random(505)
        state_rng = np.random.default_rng(505)
        for _ in range(200):
            c = random_circuit(rng, steps=8)
            assert_matches_dense(c, random_init(c, state_rng))

    def test_matches_dense_reference_on_examples(self):
        state_rng = np.random.default_rng(506)
        for c in (TELEPORT, MEAS_LIFT):
            for _ in range(5):
                assert_matches_dense(c, random_init(c, state_rng))

    def test_teleportation_quarter_per_path(self):
        psi = random_qubit(np.random.default_rng(19))
        init = QuantumState.product(TELEPORT.input, {"q0": psi})
        traces = branch_states(TELEPORT, init)
        assert sorted(str(t.path) for t in traces) == sorted(str(p) for p in path_set(check_signature(TELEPORT).tree))
        reference = QuantumState(("out",), np.asarray(psi, dtype=complex))
        for trace in traces:
            assert trace.probability == pytest.approx(0.25, abs=1e-9)
            assert trace.shots is None
            assert fidelity(reference, QuantumState(("out",), trace.state.amplitudes)) >= 1 - 1e-9

    def test_meas_lift_half_per_path(self):
        assert path_probabilities(MEAS_LIFT) == pytest.approx({a(u=0): 0.5, a(u=1): 0.5}, abs=1e-9)

    def test_certain_outcome_is_one_branch(self):
        c = parse_circuit_text("input(q:Qubit); Meas(q) -> x; lift(x) => u;")
        init = QuantumState.product(c.input, {"q": "1"})
        assert path_probabilities(c, init) == {a(u=1): 1.0}

    def test_unlifted_measurement_keeps_both_outcomes(self):
        c = parse_circuit_text("input(q:Qubit); H(q) -> q1; Meas(q1) -> x;")
        traces = branch_states(c)
        assert [(t.path, t.state.classical) for t in traces] == [(a(), {"x": 0}), (a(), {"x": 1})]
        assert [t.probability for t in traces] == pytest.approx([0.5, 0.5])

    def test_condition_reads_the_path_at_the_instruction(self):
        # v is lifted on both branches of u, but on u = 1 only after the
        # (v = 0) gate, which therefore does not act there.
        c = parse_circuit_text("""
        input(q:Qubit, r:Qubit, k:Qubit);
        H(q) -> q1;
        Meas(q1) -> x;
        lift(x) => u;
        (u = 0) ? Meas(r) -> y;
        (u = 0) ? lift(y) => v;
        (v = 0) ? X(k) -> k1;
        (u = 1) ? Meas(r) -> z;
        (u = 1) ? lift(z) => v;
        """)
        exact = {t.path: (t.probability, t.outputs.domain()) for t in branch_states(c)}
        assert exact == {a(u=0, v=0): (0.5, {"k1"}), a(u=1, v=0): (0.5, {"k"})}
        for seed in range(10):
            trace = simulate(c, seed=seed)
            assert trace.outputs.domain() == exact[trace.path][1]

    def test_fuzz_corpus_probabilities_sum_to_one(self):
        lifting = branching = 0
        for term in gen_corpus(GenConfig(seed=31, max_depth=6), 100):
            outcome = run_closed(term, EvalEnv())
            assert isinstance(outcome, Done)
            circuit = outcome.config.circuit
            traces = branch_states(circuit)
            assert abs(sum(t.probability for t in traces) - 1.0) <= 1e-9
            lifting += len(path_set(check_signature(circuit).tree)) > 1
            branching += len(traces) > 1
        assert lifting >= 20 and branching >= 2


class TestShotSplitting:
    @pytest.fixture
    def gate_calls(self, monkeypatch):
        calls = [0]
        apply_gate = pqk.simulator._apply_gate

        def counted(*args):
            calls[0] += 1
            return apply_gate(*args)

        monkeypatch.setattr(pqk.simulator, "_apply_gate", counted)
        return calls

    def test_gate_applications_do_not_grow_with_shots(self, gate_calls):
        init = QuantumState.product(TELEPORT.input, {"q0": "+"})

        def applications(run):
            before = gate_calls[0]
            run()
            return gate_calls[0] - before

        few = applications(lambda: branch_distribution(TELEPORT, init, shots=100, seed=3))
        many = applications(lambda: branch_distribution(TELEPORT, init, shots=10_000, seed=3))
        exact = applications(lambda: branch_states(TELEPORT, init))
        assert few == many <= exact

    def test_seeded_counts_repeat_and_sum_to_shots(self):
        counts = branch_distribution(TELEPORT, shots=777, seed=23)
        assert counts == branch_distribution(TELEPORT, shots=777, seed=23)
        assert sum(counts.values()) == 777
        assert all(type(n) is int for n in counts.values())

    def test_counts_within_five_sigma_of_exact(self):
        rng = random.Random(606)
        state_rng = np.random.default_rng(606)
        shots = 2000
        for i in range(20):
            c = random_circuit(rng, steps=8)
            init = random_init(c, state_rng)
            exact = path_probabilities(c, init)
            counts = branch_distribution(c, init, shots=shots, seed=i)
            assert set(counts) == set(path_set(check_signature(c).tree))
            for path, count in counts.items():
                p = min(exact.get(path, 0.0), 1.0)
                sigma = math.sqrt(shots * p * (1 - p))
                assert abs(count - shots * p) <= 5 * sigma + 1e-6, (i, path, count, p)

    def test_shot_counts_zero_negative_and_too_large(self):
        assert branch_distribution(MEAS_LIFT, shots=0) == {a(u=0): 0, a(u=1): 0}
        for shots in (-1, 2**63):
            with pytest.raises(SimulationError):
                branch_distribution(MEAS_LIFT, shots=shots)
