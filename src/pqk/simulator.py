"""Shot-splitting state-vector execution of CRL circuits.

One walk visits each instruction of a circuit once and keeps a list of live
branches.  A branch is one history of measurement outcomes: a dense state
vector over its live qubit wires, a classical bit per live Bit wire, the
lifted bits so far (its path), its exact Born probability and, when shots are
drawn, its share of the shots.  An instruction acts on the branches whose
path satisfies its condition, lift moves a bit into the branch's path, and a
measurement splits a branch into its two Born-weighted outcomes.

With a shot count, a branch holding n shots sends a binomial(n, p1) draw of
them to outcome 1 and the rest to outcome 0, and an outcome left with no
shots is dropped.  The shot counts per path then have the law of that many
independent runs, while the work grows with the branches that hold shots,
never with the shots.  Without a shot count the walk is exact and returns
every outcome branch with its probability; `simulate` is the one-shot walk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    Circuit,
    CircuitSignature,
    GateApp,
    LabelContext,
    LiftInstr,
    check_signature,
    mvalue_labels,
)
from .errors import InvalidBranch, SimulationError, UnsupportedGate
from .syntax import BIT, QUBIT
from .trees import Assignment, lookup, path_set

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_ONE_QUBIT = {"H": _H, "X": _X, "Z": _Z}

_BASIS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
}

NORM_TOLERANCE = 1e-12
DEFAULT_MAX_QUBITS = 20
MAX_SHOTS = np.iinfo(np.int64).max  # the largest count numpy's binomial draw takes


@dataclass
class QuantumState:
    """Dense state over named qubit wires plus named classical bits."""

    qubit_order: tuple[str, ...]
    amplitudes: np.ndarray  # shape (2,) * len(qubit_order)
    classical: dict[str, int] = field(default_factory=dict)

    @staticmethod
    def product(ctx: LabelContext, spec: dict[str, object] | None = None) -> QuantumState:
        """Product state over a label context.

        spec maps labels to "0" | "1" | "+" | "-" or a length-2 amplitude
        vector for qubits, and to 0/1 for bits; everything defaults to 0.
        """
        spec = dict(spec or {})
        order: list[str] = []
        vectors: list[np.ndarray] = []
        classical: dict[str, int] = {}
        for name, wire in ctx.entries:
            value = spec.pop(name, None)
            if wire is QUBIT:
                if value is None:
                    vec = _BASIS["0"]
                elif isinstance(value, str):
                    if value not in _BASIS:
                        raise SimulationError(f"unknown basis state {value!r} for {name}")
                    vec = _BASIS[value]
                else:
                    vec = np.asarray(value, dtype=complex)
                    if vec.shape != (2,):
                        raise SimulationError(f"qubit {name} needs a length-2 amplitude vector")
                    norm = np.linalg.norm(vec)
                    if abs(norm - 1.0) > 1e-9:
                        vec = vec / norm
                order.append(name)
                vectors.append(vec)
            else:
                bit = int(value) if value is not None else 0
                if bit not in (0, 1):
                    raise SimulationError(f"bit wire {name} must start as 0 or 1")
                classical[name] = bit
        if spec:
            raise SimulationError(f"initial state names unknown wires {sorted(spec)}")
        state = np.array(1.0, dtype=complex)
        for vec in vectors:
            state = np.tensordot(state, vec, axes=0)
        return QuantumState(tuple(order), state, classical)

    def vector(self) -> np.ndarray:
        return self.amplitudes.reshape(-1)

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector()))


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|^2 with b's wires aligned onto a's order (global phase ignored)."""
    if set(a.qubit_order) != set(b.qubit_order):
        raise SimulationError("states live on different wires")
    perm = [b.qubit_order.index(name) for name in a.qubit_order]
    amps = np.transpose(b.amplitudes, perm) if b.qubit_order else b.amplitudes
    return float(abs(np.vdot(a.amplitudes.reshape(-1), amps.reshape(-1))) ** 2)


@dataclass
class RunTrace:
    """One outcome branch at the end of a walk.

    probability is the exact Born probability of the branch's measurement
    outcomes; shots is its share of the shots drawn, or None in exact mode.
    """

    path: Assignment
    lift_bits: dict[str, int]
    outputs: LabelContext
    state: QuantumState
    probability: float = 1.0
    shots: int | None = None


class _Branch:
    """One live branch of a walk: state, classical bits, path, weight."""

    def __init__(self, order: list[str], state: np.ndarray, classical: dict[str, int],
                 lifted: dict[str, int], probability: float, shots: int | None):
        self.order = order
        self.state = state
        self.classical = classical
        self.lifted = lifted
        self.probability = probability
        self.shots = shots

    def satisfies(self, cond: Assignment) -> bool:
        return all(self.lifted.get(v) == b for v, b in cond.bindings)

    def _axis(self, label: str) -> int:
        try:
            return self.order.index(label)
        except ValueError:
            raise SimulationError(f"wire {label} is not a live qubit") from None

    def _check_norm(self):
        norm = np.linalg.norm(self.state.reshape(-1))
        if abs(norm - 1.0) > NORM_TOLERANCE:
            raise SimulationError(f"state norm drifted to {norm}")

    def apply_1q(self, matrix: np.ndarray, src: str, dst: str):
        axis = self._axis(src)
        self.state = np.moveaxis(
            np.tensordot(matrix, self.state, axes=([1], [axis])), 0, axis
        )
        self.order[axis] = dst
        self._check_norm()

    def apply_cnot(self, control: str, target: str, out_c: str, out_t: str):
        c = self._axis(control)
        t = self._axis(target)
        state = np.moveaxis(self.state, c, 0)
        t_shift = t if t < c else t - 1
        flipped = np.moveaxis(
            np.tensordot(_X, state[1], axes=([1], [t_shift])), 0, t_shift
        )
        self.state = np.moveaxis(np.stack([state[0], flipped]), 0, c)
        self.order[c] = out_c
        self.order[t] = out_t
        self._check_norm()

    def measure(self, src: str, out_bit: str, rng: np.random.Generator) -> list[_Branch]:
        """Split into the outcomes that keep a nonzero probability, or shots."""
        axis = self._axis(src)
        state = np.moveaxis(self.state, axis, 0)
        weights = [float(np.sum(np.abs(state[bit]) ** 2)) for bit in (0, 1)]
        probs = [w / (weights[0] + weights[1]) for w in weights]
        if self.shots is None:
            shares = [None, None]
        else:
            ones = int(rng.binomial(self.shots, probs[1]))
            shares = [self.shots - ones, ones]
        children = []
        for bit in (0, 1):
            if shares[bit] is None and probs[bit] == 0 or shares[bit] == 0:
                continue  # an outcome that cannot happen, or that no shot took
            if probs[bit] <= 0:  # pragma: no cover
                raise SimulationError("measured an outcome of probability zero")
            child = _Branch(self.order[:axis] + self.order[axis + 1:], state[bit] / math.sqrt(weights[bit]),
                            {**self.classical, out_bit: bit}, dict(self.lifted),
                            self.probability * probs[bit], shares[bit])
            child._check_norm()
            children.append(child)
        return children

    def init_qubit(self, label: str, bit: int, max_qubits: int):
        if len(self.order) + 1 > max_qubits:
            raise SimulationError(f"more than {max_qubits} live qubits")
        vec = _BASIS["1"] if bit else _BASIS["0"]
        self.state = np.tensordot(self.state, vec, axes=0)
        self.order.append(label)

    def discard(self, label: str):
        if label not in self.classical:
            raise SimulationError(f"wire {label} is not a live bit")
        del self.classical[label]

    def lift(self, wire: str, var: str):
        if wire not in self.classical:
            raise SimulationError(f"lift of non-live bit {wire}")
        self.lifted[var] = self.classical.pop(wire)


def branch_states(
    c: Circuit,
    init: QuantumState | None = None,
    shots: int | None = None,
    seed: int | np.random.Generator = 0,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> list[RunTrace]:
    """The outcome branches of c, from one walk over its instructions.

    With shots=None the walk is exact: it returns every measurement-outcome
    branch of nonzero probability with its Born probability and final state,
    and the probabilities sum to 1.  A measured bit that is never lifted
    keeps its two outcomes as separate branches with the same path, because
    the state on that path is a mixture of them.

    With a shot count, each measurement sends rng.binomial(n, p1) of a
    branch's n shots to outcome 1 and the rest to outcome 0, from one
    generator seeded by seed, and drops an outcome that gets no shots.  The
    branches returned hold every shot, and at most min(shots, outcome
    branches) of them are ever live.
    """
    return _walk(c, check_signature(c), init, shots, seed, max_qubits)


def simulate(
    c: Circuit,
    init: QuantumState | None = None,
    seed: int | np.random.Generator = 0,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> RunTrace:
    """Execute one run of c, sampling measurement outcomes: the one-shot walk."""
    (trace,) = branch_states(c, init, 1, seed, max_qubits)
    return trace


def branch_distribution(
    c: Circuit,
    init: QuantumState | None = None,
    shots: int = 1024,
    seed: int = 0,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> dict[Assignment, int]:
    """Shot counts per path of the lifting tree, zero counts included.

    The counts have the law of that many independent runs: a multinomial
    over the paths with their exact Born probabilities.
    """
    sig = check_signature(c)
    counts: dict[Assignment, int] = {p: 0 for p in path_set(sig.outputs)}
    for trace in _walk(c, sig, init, shots, seed, max_qubits):
        counts[trace.path] += trace.shots
    return counts


def _walk(
    c: Circuit,
    sig: CircuitSignature,
    init: QuantumState | None,
    shots: int | None,
    seed: int | np.random.Generator,
    max_qubits: int,
) -> list[RunTrace]:
    if shots is not None and not 0 <= shots <= MAX_SHOTS:
        raise SimulationError(f"shot count must be between 0 and {MAX_SHOTS}, got {shots}")
    if init is None:
        init = QuantumState.product(c.input)
    in_qubits = {n for n, w in c.input.entries if w is QUBIT}
    in_bits = {n for n, w in c.input.entries if w is BIT}
    if set(init.qubit_order) != in_qubits or set(init.classical) != in_bits:
        raise SimulationError("initial state does not cover the circuit inputs")
    if len(in_qubits) > max_qubits:
        raise SimulationError(f"more than {max_qubits} input qubits")
    rng = np.random.default_rng(seed)
    order = list(init.qubit_order)
    state = init.amplitudes.astype(complex).reshape([2] * len(order))
    live = [_Branch(order, state, dict(init.classical), {}, 1.0, shots)] if shots != 0 else []
    for ins in c.instructions:
        after: list[_Branch] = []
        for branch in live:
            if not branch.satisfies(ins.cond):
                after.append(branch)
            elif isinstance(ins, LiftInstr):
                branch.lift(ins.wire, ins.var)
                after.append(branch)
            else:
                after.extend(_apply_gate(branch, ins, rng, max_qubits))
        live = after
    return [_finish(branch, sig) for branch in live]


def _apply_gate(branch: _Branch, ins: GateApp, rng: np.random.Generator, max_qubits: int) -> list[_Branch]:
    """Apply one gate to one branch; returns the branches it leaves."""
    name = ins.gate
    ins_labels = mvalue_labels(ins.inputs)
    out_labels = mvalue_labels(ins.outputs)
    if name in _ONE_QUBIT:
        branch.apply_1q(_ONE_QUBIT[name], ins_labels[0], out_labels[0])
    elif name == "CNOT":
        branch.apply_cnot(ins_labels[0], ins_labels[1], out_labels[0], out_labels[1])
    elif name == "Meas":
        return branch.measure(ins_labels[0], out_labels[0], rng)
    elif name == "Meas2":
        return [
            second
            for first in branch.measure(ins_labels[0], out_labels[0], rng)
            for second in first.measure(ins_labels[1], out_labels[1], rng)
        ]
    elif name in ("Init0", "Init1"):
        branch.init_qubit(out_labels[0], 1 if name == "Init1" else 0, max_qubits)
    elif name == "Discard":
        branch.discard(ins_labels[0])
    else:
        raise UnsupportedGate(f"no semantics for gate {name}")
    return [branch]


def _finish(branch: _Branch, sig: CircuitSignature) -> RunTrace:
    """Check a branch's live wires against the signature at its path."""
    path = Assignment.of(branch.lifted)
    try:
        expected = lookup(sig.outputs, path)
    except InvalidBranch:  # pragma: no cover - signature guarantees it
        raise SimulationError(f"branch assignment {path} is not a path of the lifting tree") from None
    live = set(branch.order) | set(branch.classical)
    if live != expected.domain():  # pragma: no cover - signature guarantees it
        raise SimulationError(f"live wires {sorted(live)} differ from signature {expected}")
    final = QuantumState(tuple(branch.order), branch.state, branch.classical)
    return RunTrace(path, branch.lifted, expected, final, branch.probability, branch.shots)


def parse_init_spec(text: str) -> dict[str, object]:
    """CLI syntax: comma-separated label=state with state in 0,1,+,-."""
    out: dict[str, object] = {}
    if not text.strip():
        return out
    for part in text.split(","):
        if "=" not in part:
            raise SimulationError(f"bad init spec fragment {part!r}")
        name, value = part.split("=", 1)
        out[name.strip()] = value.strip()
    return out
