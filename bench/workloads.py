"""The four benchmark workloads: seeded inputs, the timed operation, output checks.

Each workload is built from a seed (its set-up), hands out operations in whole
rounds, runs one operation through pqk's public functions, and checks the
operation's output against an independent computation or a property the
paper requires.  Checks return a list of problems; an empty list means the
output is correct.  Nothing here compares against a saved copy of pqk's output.

Module functions are looked up through their modules at call time
(``pqk.parser.parse_program``, not a name bound at import), so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pqk.circuit
import pqk.fuzz
import pqk.interp
import pqk.parser
import pqk.simulator
import pqk.typecheck
from pqk.circuit import GateApp, LiftInstr, mvalue_labels
from pqk.simulator import QuantumState
from pqk.syntax import QUBIT_TYPE, LabelVal, Pair, TensorType
from pqk.trees import LiftedLeaf, LiftedNode, TreeLeaf, TreeNode

REPO = Path(__file__).resolve().parent.parent
FIDELITY_TOLERANCE = 1e-9
# Counts may sit this many binomial standard deviations (plus one) from the
# exact expectation; wide enough that a correct sampler never trips it.
BINOMIAL_SIGMAS = 6.0


def rng_for(workload: str, seed: int) -> random.Random:
    """A generator that depends only on the workload and the seed."""
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# Independent views of pqk's data (no pqk.trees algebra)


def tree_paths(t) -> list[dict[str, int]]:
    """Root-to-leaf paths of a lifting tree, walked directly."""
    if isinstance(t, TreeLeaf):
        return [{}]
    assert isinstance(t, TreeNode)
    return [{t.var: bit, **rest} for bit, sub in ((0, t.zero), (1, t.one)) for rest in tree_paths(sub)]


def lifted_at(obj, path: dict[str, int]):
    """The payload of a lifted object on a path, walked directly."""
    while isinstance(obj, LiftedNode):
        obj = obj.one if path[obj.var] else obj.zero
    assert isinstance(obj, LiftedLeaf)
    return obj.value


def fires(ins, path: dict[str, int]) -> bool:
    return all(path.get(v) == b for v, b in ins.cond.bindings)


def full_assignments(names: list[str]) -> list[dict[str, int]]:
    out = [{}]
    for name in names:
        out = [{**p, name: bit} for p in out for bit in (0, 1)]
    return out


def canon(path: dict[str, int]) -> tuple:
    return tuple(sorted(path.items()))


def binomial_problems(what: str, counts: dict[tuple, int], shots: int, probs: dict[tuple, float]) -> list[str]:
    """Paths whose count lies outside the binomial bound around its exact expectation."""
    problems = []
    for path, p in probs.items():
        c = counts.get(path, 0)
        slack = BINOMIAL_SIGMAS * math.sqrt(shots * p * (1 - p)) + 1
        if abs(c - shots * p) > slack:
            problems.append(f"{what}: {c} of {shots} shots on {path}, expected {shots * p:.1f}")
    return problems


# Dense reference simulator: full 2^n x 2^n matrices built with kron, qubit 0
# the most significant bit.  Independent of pqk.simulator's axis bookkeeping.
_I2 = np.eye(2, dtype=complex)
_GATES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def reference_state(n: int, gates: list[tuple[str, tuple[int, ...]]]) -> np.ndarray:
    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for name, qubits in gates:
        if name == "CNOT":
            c, t = qubits
            perm = np.arange(2**n)
            for i in range(2**n):
                if (i >> (n - 1 - c)) & 1:
                    perm[i] = i ^ (1 << (n - 1 - t))
            state = state[perm]
        else:
            full = np.array([[1.0]], dtype=complex)
            for q in range(n):
                full = np.kron(full, _GATES[name] if q == qubits[0] else _I2)
            state = full @ state
    return state


def aligned_fidelity(ref: np.ndarray, state: QuantumState, labels: list[str]) -> float:
    """|<ref|state>|^2 with the state's wires reordered to `labels` (qubit 0 first)."""
    perm = [state.qubit_order.index(name) for name in labels]
    amps = np.transpose(state.amplitudes, perm).reshape(-1)
    return float(abs(np.vdot(ref, amps)) ** 2)


def follow_wires(circuit, n_qubits: int) -> tuple[list[tuple[str, tuple[int, ...]]], dict[str, int]]:
    """Gate sequence of an unconditional circuit, wires named by logical qubit.

    Init0 outputs are numbered 0, 1, ... in order of appearance; every gate's
    outputs inherit the qubit numbers of its inputs.
    """
    qubit_of: dict[str, int] = {}
    seq = []
    allocated = 0
    for ins in circuit.instructions:
        if not isinstance(ins, GateApp) or ins.cond.bindings:
            raise ValueError(f"unexpected instruction `{ins}` in a straight-line circuit")
        ins_labels = mvalue_labels(ins.inputs)
        out_labels = mvalue_labels(ins.outputs)
        if ins.gate == "Init0":
            qubits = (allocated,)
            allocated += 1
            seq.append(("Init0", ()))
        else:
            qubits = tuple(qubit_of.pop(name) for name in ins_labels)
            seq.append((ins.gate, qubits))
        for name, q in zip(out_labels, qubits):
            qubit_of[name] = q
    if sorted(qubit_of.values()) != list(range(n_qubits)):
        raise ValueError(f"live wires {qubit_of} do not cover {n_qubits} qubits")
    return seq, qubit_of


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Op:
    """One timed operation: a kind (for reports) and its input."""

    kind: str
    input: object


class Workload:
    name = ""

    def warmup(self) -> list[Op]:
        """Operations run once before timing starts, checked but not timed."""
        raise NotImplementedError

    def next_round(self) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def check_run(self) -> list[str]:
        """Checks made once per run, outside the timed region."""
        return []


CHAIN_HEADER = """circuit INIT = crl { input(); Init0() -> q; }
circuit HAD = crl { input(l:Qubit); H(l) -> l2; }
circuit XG = crl { input(l:Qubit); X(l) -> l2; }
circuit ZG = crl { input(l:Qubit); Z(l) -> l2; }
circuit CX = crl { input(l1:Qubit, l2:Qubit); CNOT(l1,l2) -> (k1,k2); }
"""
_CHAIN_CONST = {"H": "HAD", "X": "XG", "Z": "ZG"}
# A few qubits keep the reference state vector small; one CNOT in four
# entangles them without making the programs mostly pair lets.
CHAIN_QUBITS = 3
CNOT_SHARE = 0.25


@dataclass
class ChainProgram:
    n: int
    text: str
    gates: list[tuple[str, tuple[int, ...]]]  # after the Init0s


def chain_program(n: int, rng: random.Random) -> ChainProgram:
    """A straight-line program: CHAIN_QUBITS allocations, then n gate applications."""
    lines = [CHAIN_HEADER]
    lines += [f"let q{i} = apply(INIT, *) in" for i in range(CHAIN_QUBITS)]
    gates = []
    for _ in range(n):
        if rng.random() < CNOT_SHARE:
            c, t = rng.sample(range(CHAIN_QUBITS), 2)
            lines.append(f"let p = apply(CX, (q{c}, q{t})) in let (q{c}, q{t}) = p in")
            gates.append(("CNOT", (c, t)))
        else:
            g = rng.choice("HXZ")
            q = rng.randrange(CHAIN_QUBITS)
            lines.append(f"let q{q} = apply({_CHAIN_CONST[g]}, q{q}) in")
            gates.append((g, (q,)))
    result = f"q{CHAIN_QUBITS - 1}"
    for i in reversed(range(CHAIN_QUBITS - 1)):
        result = f"(q{i}, {result})"
    lines.append(f"return {result}")
    return ChainProgram(n, "\n".join(lines), gates)


class Chain(Workload):
    """Parse, check and run straight-line programs (what `pqk run` does).

    Each round holds `round_size` programs whose sizes are stratified over
    [n_min, n_max): program j of a round draws its size from the j-th of
    `round_size` equal slices, so every round covers the range evenly.  Sizes
    stay well below the depth where the parser's recursion fails.
    """

    name = "chain"

    def __init__(self, seed: int, n_min: int = 24, n_max: int = 96,
                 round_size: int = 10, pool_rounds: int = 6):
        rng = rng_for(self.name, seed)
        width = (n_max - n_min) / round_size
        self.pool: list[list[Op]] = []
        for _ in range(pool_rounds):
            sizes = [n_min + int(width * j + rng.random() * width) for j in range(round_size)]
            rng.shuffle(sizes)
            self.pool.append([Op(f"n{n}", chain_program(n, rng)) for n in sizes])
        self._warm = [Op("warmup", chain_program(n_min, rng)) for _ in range(2)]
        self._next = 0

    def warmup(self) -> list[Op]:
        return self._warm

    def next_round(self) -> list[Op]:
        ops = self.pool[self._next % len(self.pool)]
        self._next += 1
        return ops

    def run(self, op: Op):
        program = pqk.parser.parse_program(op.input.text)
        typing = pqk.typecheck.check_closed_term(program.main)
        env = pqk.interp.EvalEnv()
        return typing, pqk.interp.run_closed(program.main, env)

    def expected_type(self):
        t = QUBIT_TYPE
        for _ in range(CHAIN_QUBITS - 1):
            t = TensorType(QUBIT_TYPE, t)
        return t

    def check(self, op: Op, out) -> list[str]:
        prog: ChainProgram = op.input
        typing, outcome = out
        problems = []
        if not (isinstance(typing.tree, TreeLeaf) and isinstance(typing.type, LiftedLeaf)
                and typing.type.value == self.expected_type()):
            problems.append(f"checked type {typing} is not {self.expected_type()}")
        if not isinstance(outcome, pqk.interp.Done):
            return problems + [f"evaluation ended {outcome!r}"]
        circuit = outcome.config.circuit
        try:
            seq, qubit_of = follow_wires(circuit, CHAIN_QUBITS)
        except (ValueError, KeyError) as exc:
            return problems + [f"circuit wiring: {exc}"]
        expected = [("Init0", ())] * CHAIN_QUBITS + prog.gates
        if seq != expected:
            problems.append(f"gate sequence differs from the program's ({len(seq)} vs {len(expected)} gates)")
            return problems
        labels = [None] * CHAIN_QUBITS
        for name, q in qubit_of.items():
            labels[q] = name
        value = outcome.config.value
        returned = []
        v = value.value if isinstance(value, LiftedLeaf) else None
        while isinstance(v, Pair):
            returned.append(v.left)
            v = v.right
        returned.append(v)
        if [x.name if isinstance(x, LabelVal) else x for x in returned] != labels:
            problems.append(f"returned wires {value} are not the live wires {labels}")
        trace = pqk.simulator.simulate(circuit, seed=0)
        f = aligned_fidelity(reference_state(CHAIN_QUBITS, prog.gates), trace.state, labels)
        if f < 1 - FIDELITY_TOLERANCE:
            problems.append(f"final state fidelity {f} against the reference")
        return problems


BRANCHING_HEADER = """circuit INIT = crl { input(); Init0() -> q; }
circuit HAD = crl { input(l:Qubit); H(l) -> l2; }
circuit XG = crl { input(l:Qubit); X(l) -> l2; }
circuit ML = crl { input(l:Qubit); Meas(l) -> l2; lift(l2) => u; }
"""


def branching_program(k: int) -> str:
    """k sequential measure-and-lift steps; the rest of the program follows in both arms."""

    def steps(i: int) -> str:
        if i > k:
            return "return c"
        rest = steps(i + 1)
        return (f"let q = apply(INIT, *) in let q = apply(HAD, q) in let _ = apply[u{i}](ML, q) in\n"
                f"case u{i} {{ 0 => {rest} | 1 => let c = apply(XG, c) in {rest} }}")

    return BRANCHING_HEADER + "let c = apply(INIT, *) in\n" + steps(1)


class Branching(Workload):
    """Parse, check and run programs with k sequential lifts (2^k branches).

    A round holds a fixed multiset of k values in seeded order: 11 of k = 2,
    8 of k = 3 and one k = 4, which loads the many-branch path at a bounded
    cost.  The shares put the median near the top of the k = 2 band and the
    90th percentile near the top of the k = 3 band.  The spread of one
    program's latency comes only from the machine, whose speed drifts within
    a run; a percentile near the top of a band follows the slow phases, which
    repeat from run to run, where one lower in the band follows how much of
    the run happened to be fast.
    """

    name = "branching"

    def __init__(self, seed: int, mix: dict[int, int] | None = None):
        self.mix = mix or {2: 11, 3: 8, 4: 1}
        self.texts = {k: branching_program(k) for k in self.mix}
        self.rng = rng_for(self.name, seed)
        self._warm = [Op(f"k{k}", k) for k in sorted(self.mix)[:2]]

    def warmup(self) -> list[Op]:
        return self._warm

    def next_round(self) -> list[Op]:
        ks = [k for k, count in self.mix.items() for _ in range(count)]
        self.rng.shuffle(ks)
        return [Op(f"k{k}", k) for k in ks]

    def run(self, op: Op):
        program = pqk.parser.parse_program(self.texts[op.input])
        typing = pqk.typecheck.check_closed_term(program.main)
        env = pqk.interp.EvalEnv()
        return typing, pqk.interp.run_closed(program.main, env), env

    def check(self, op: Op, out) -> list[str]:
        k = op.input
        typing, outcome, env = out
        names = [f"u{i}" for i in range(1, k + 1)]
        want = sorted(canon(p) for p in full_assignments(names))
        problems = []
        if sorted(canon(p) for p in tree_paths(typing.tree)) != want:
            problems.append(f"checker tree {typing.tree} lacks the 2^{k} paths over {names}")
        if not isinstance(outcome, pqk.interp.Done):
            return problems + [f"evaluation ended {outcome!r}"]
        if env.findings:
            problems.append(f"branch-independence findings: {env.findings[:3]}")
        circuit = outcome.config.circuit
        sig = pqk.circuit.check_signature(circuit)
        if sorted(canon(p) for p in tree_paths(sig.tree)) != want:
            problems.append(f"signature tree {sig.tree} lacks the 2^{k} paths over {names}")
        first = circuit.instructions[0]
        if not (isinstance(first, GateApp) and first.gate == "Init0"):
            return problems + [f"first instruction `{first}` does not allocate the carried qubit"]
        for path in full_assignments(names):
            carried = mvalue_labels(first.outputs)[0]
            flips = 0
            for ins in circuit.instructions[1:]:
                if not fires(ins, path):
                    continue
                touched = [ins.wire] if isinstance(ins, LiftInstr) else mvalue_labels(ins.inputs)
                if carried not in touched:
                    continue
                if not (isinstance(ins, GateApp) and ins.gate == "X"):
                    problems.append(f"`{ins}` touches the carried qubit on {path}")
                    break
                flips += 1
                carried = mvalue_labels(ins.outputs)[0]
            if flips != sum(path.values()):
                problems.append(f"carried qubit gets {flips} X on path {path}, expected {sum(path.values())}")
            result = lifted_at(outcome.config.value, path)
            if not (isinstance(result, LabelVal) and result.name == carried):
                problems.append(f"result {result} on path {path} is not the carried wire {carried}")
        return problems


def ghz_circuit_text(n: int, rng: random.Random) -> tuple[str, dict[tuple, list[str]]]:
    """A GHZ chain over n qubits in seeded order, the last one measured and lifted.

    On the 1 branch every other qubit gets an X, so both branches end in |0...0>.
    Returns the CRL text and, per branch, the labels of the n - 1 qubits live
    at the end.
    """
    order = list(range(n))
    rng.shuffle(order)
    lines = ["input()"] + [f"Init0() -> a{i}" for i in range(n)]
    lines.append(f"H(a{order[0]}) -> b{order[0]}")
    prev = order[0]
    for q in order[1:]:
        lines.append(f"CNOT(b{prev},a{q}) -> (c{prev},b{q})")
        prev = q
    lines.append(f"Meas(b{prev}) -> m")
    lines.append("lift(m) => u")
    for q in order[:-1]:
        lines.append(f"(u = 1) ? X(c{q}) -> d{q}")
    live = {canon({"u": 0}): [f"c{q}" for q in order[:-1]], canon({"u": 1}): [f"d{q}" for q in order[:-1]]}
    return "; ".join(lines) + ";", live


@dataclass
class ShotsCase:
    circuit: object
    init: QuantumState | None
    shots: int
    probs: dict[tuple, float]  # exact path probabilities


class Shots(Workload):
    """branch_distribution on circuits built during set-up.

    Narrow circuits with lifts run at hundreds of shots, GHZ circuits of 12 to
    16 qubits at a few.  A round weights the kinds so that, ordered by cost,
    the median falls inside the teleportation band and the 90th percentile
    inside the GHZ-16 band; every operation draws fresh shot seeds.

    A GHZ operation takes too few shots for the binomial bound to reject
    anything, so the counts of each kind are also pooled over the run, one
    entry per distinct operation (the traced run replays operations), and
    checked against the bound once at the end.
    """

    name = "shots"
    ROUND = [("ghz12", 1), ("one_way", 2), ("measure_when", 2), ("teleport", 4), ("ghz14", 1), ("ghz16", 2)]
    SHOTS = {"teleport": 150, "one_way": 200, "measure_when": 250, "ghz12": 16, "ghz14": 16, "ghz16": 5}

    def __init__(self, seed: int, shots: dict[str, int] | None = None):
        shots = shots or self.SHOTS
        self.rng = rng_for(self.name, seed)
        self.cases: dict[str, ShotsCase] = {}
        half = {canon({"u": 0}): 0.5, canon({"u": 1}): 0.5}

        box = self._evaluate("teleport_box.pqk").value.value.boxed
        b, q, a = mvalue_labels(box.in_tuple)
        psi = np.array([self.rng.gauss(0, 1) + 1j * self.rng.gauss(0, 1) for _ in range(2)])
        self.psi = psi / np.linalg.norm(psi)
        bell = np.array([[1, 0], [0, 1]], dtype=complex) / math.sqrt(2)  # indices (b, a)
        amps = np.einsum("ba,q->bqa", bell, self.psi)
        init = QuantumState((b, q, a), amps)
        quarter = {canon(p): 0.25 for p in full_assignments(["u", "s"])}
        self.cases["teleport"] = ShotsCase(box.circuit, init, shots["teleport"], quarter)
        for kind, file in (("one_way", "one_way_run.pqk"), ("measure_when", "measure_when.pqk")):
            self.cases[kind] = ShotsCase(self._evaluate(file).circuit, None, shots[kind], half)
        self.ghz_live: dict[str, dict[tuple, list[str]]] = {}
        for n in (12, 14, 16):
            text, live = ghz_circuit_text(n, self.rng)
            kind = f"ghz{n}"
            self.cases[kind] = ShotsCase(pqk.parser.parse_circuit_text(text), None, shots[kind], half)
            self.ghz_live[kind] = live
        self._warm = [Op(kind, self.rng.randrange(2**31)) for kind, _ in self.ROUND]
        self.counted: dict[tuple[str, int], dict[tuple, int]] = {}

    @staticmethod
    def _evaluate(file: str):
        program = pqk.parser.parse_program((REPO / "programs" / file).read_text())
        pqk.typecheck.check_closed_term(program.main)
        outcome = pqk.interp.run_closed(program.main, pqk.interp.EvalEnv())
        if not isinstance(outcome, pqk.interp.Done):
            raise RuntimeError(f"{file} did not evaluate: {outcome!r}")
        return outcome.config

    def warmup(self) -> list[Op]:
        return self._warm

    def next_round(self) -> list[Op]:
        return [Op(kind, self.rng.randrange(2**31)) for kind, count in self.ROUND for _ in range(count)]

    def run(self, op: Op):
        case = self.cases[op.kind]
        return pqk.simulator.branch_distribution(case.circuit, case.init, case.shots, op.input)

    def check(self, op: Op, out) -> list[str]:
        case = self.cases[op.kind]
        counts = {canon(dict(a.bindings)): c for a, c in out.items()}
        problems = []
        if set(counts) != set(case.probs):
            problems.append(f"{op.kind}: counted paths {sorted(counts)} are not the tree's {sorted(case.probs)}")
        if sum(counts.values()) != case.shots or min(counts.values(), default=0) < 0:
            problems.append(f"{op.kind}: counts {counts} do not sum to {case.shots} shots")
        self.counted[(op.kind, op.input)] = counts
        return problems + binomial_problems(op.kind, counts, case.shots, case.probs)

    def _per_path_runs(self, kind: str):
        """One simulate run per path of the case, found by trying seeds in order."""
        case = self.cases[kind]
        runs = {}
        for s in range(64):
            trace = pqk.simulator.simulate(case.circuit, case.init, seed=s)
            runs.setdefault(canon(dict(trace.path.bindings)), trace)
            if len(runs) == len(case.probs):
                break
        return runs

    def check_run(self) -> list[str]:
        problems = []
        for kind, case in self.cases.items():
            pooled = Counter()
            for (k, _), counts in self.counted.items():
                if k == kind:
                    pooled.update(counts)
            problems += binomial_problems(f"{kind} over the run", pooled, sum(pooled.values()), case.probs)
        runs = self._per_path_runs("teleport")
        if len(runs) != 4:
            problems.append(f"teleportation reached only paths {sorted(runs)}")
        for path, trace in runs.items():
            if len(trace.state.qubit_order) != 1:
                problems.append(f"teleportation leaves qubits {trace.state.qubit_order} on {path}")
                continue
            f = float(abs(np.vdot(self.psi, trace.state.amplitudes)) ** 2)
            if f < 1 - FIDELITY_TOLERANCE:
                problems.append(f"teleported qubit fidelity {f} on path {path}")
        for kind, live in self.ghz_live.items():
            runs = self._per_path_runs(kind)
            if len(runs) != 2:
                problems.append(f"{kind} reached only paths {sorted(runs)}")
            for path, trace in runs.items():
                ref = np.zeros(2 ** len(live[path]), dtype=complex)
                ref[0] = 1.0
                f = aligned_fidelity(ref, trace.state, live[path])
                if f < 1 - FIDELITY_TOLERANCE:
                    problems.append(f"{kind} final state fidelity {f} against |0...0> on path {path}")
        return problems


class Fuzz(Workload):
    """run_fuzz on batches of generated programs, one seeded batch per operation."""

    name = "fuzz"

    def __init__(self, seed: int, batch: int = 25):
        self.batch = batch
        self.rng = rng_for(self.name, seed)
        self._warm = [Op("batch", self.rng.randrange(2**31))]
        self.lifting_programs = 0.0

    def warmup(self) -> list[Op]:
        return self._warm

    def next_round(self) -> list[Op]:
        return [Op("batch", self.rng.randrange(2**31))]

    def run(self, op: Op):
        return pqk.fuzz.run_fuzz(pqk.fuzz.GenConfig(seed=op.input), self.batch)

    def check(self, op: Op, out) -> list[str]:
        problems = []
        if out.count != self.batch:
            problems.append(f"batch reports {out.count} programs, expected {self.batch}")
        if out.sr_findings:
            problems.append(f"subject-reduction findings: {[f.diagnostic for f in out.sr_findings[:2]]}")
        if out.progress_findings:
            problems.append(f"progress findings: {[f.diagnostic for f in out.progress_findings[:2]]}")
        if out.fuel_exhausted:
            problems.append(f"{out.fuel_exhausted} programs exhausted their fuel")
        self.lifting_programs += out.lifting_apply_fraction * out.count
        return problems

    def check_run(self) -> list[str]:
        if not self.lifting_programs > 0:
            return ["no generated program applies a lifting circuit"]
        return []


WORKLOADS = {w.name: w for w in (Chain, Branching, Shots, Fuzz)}

# Smallest sizes, for the smoke test.
SMOKE = {
    "chain": dict(n_min=4, n_max=8, round_size=2, pool_rounds=1),
    "branching": dict(mix={2: 1}),
    "shots": dict(shots={"teleport": 8, "one_way": 8, "measure_when": 8, "ghz12": 1, "ghz14": 1, "ghz16": 1}),
    "fuzz": dict(batch=3),
}
