"""Branch-sampling state-vector execution of CRL circuits.

One run holds a dense state vector over the live qubit wires plus a classical
bit per live Bit wire.  Measurement collapses per the Born rule using a seeded
generator; lift binds the classical bit to its variable, and an instruction
fires exactly when its condition agrees with the bits sampled so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (
    BIT,
    QUBIT,
    Circuit,
    DEFAULT_GATES,
    GateApp,
    GateSet,
    LabelContext,
    LiftInstr,
    check_signature,
    mvalue_labels,
)
from .errors import InvalidBranch, SimulationError, UnsupportedGate
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
    path: Assignment
    lift_bits: dict[str, int]
    outputs: LabelContext
    state: QuantumState


class _Run:
    def __init__(self, init: QuantumState, rng: np.random.Generator, max_qubits: int):
        self.order: list[str] = list(init.qubit_order)
        self.state = init.amplitudes.astype(complex).reshape([2] * len(self.order))
        self.classical = dict(init.classical)
        self.rng = rng
        self.max_qubits = max_qubits

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

    def measure(self, src: str, out_bit: str):
        axis = self._axis(src)
        state = np.moveaxis(self.state, axis, 0)
        p1 = float(np.sum(np.abs(state[1]) ** 2))
        bit = 1 if self.rng.random() < p1 else 0
        prob = p1 if bit else 1.0 - p1
        if prob <= 0:  # pragma: no cover
            raise SimulationError("measured an outcome of probability zero")
        self.state = state[bit] / math.sqrt(prob)
        self.order.pop(axis)
        self.classical[out_bit] = bit
        self._check_norm()

    def init_qubit(self, label: str, bit: int):
        if len(self.order) + 1 > self.max_qubits:
            raise SimulationError(f"more than {self.max_qubits} live qubits")
        vec = _BASIS["1"] if bit else _BASIS["0"]
        self.state = np.tensordot(self.state, vec, axes=0)
        self.order.append(label)

    def discard(self, label: str):
        if label not in self.classical:
            raise SimulationError(f"wire {label} is not a live bit")
        del self.classical[label]


def simulate(
    c: Circuit,
    init: QuantumState | None = None,
    seed: int | np.random.Generator = 0,
    gateset: GateSet = DEFAULT_GATES,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> RunTrace:
    """Execute one run of c, sampling measurement outcomes."""
    sig = check_signature(c, gateset)
    if init is None:
        init = QuantumState.product(c.input)
    in_qubits = {n for n, w in c.input.entries if w is QUBIT}
    in_bits = {n for n, w in c.input.entries if w is BIT}
    if set(init.qubit_order) != in_qubits or set(init.classical) != in_bits:
        raise SimulationError("initial state does not cover the circuit inputs")
    if len(in_qubits) > max_qubits:
        raise SimulationError(f"more than {max_qubits} input qubits")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    run = _Run(init, rng, max_qubits)

    sampled: dict[str, int] = {}
    fired: list[bool] = []
    for ins in c.instructions:
        fires = all(sampled.get(v) == b for v, b in ins.cond.bindings)
        fired.append(fires)
        if not fires:
            continue
        if isinstance(ins, LiftInstr):
            if ins.wire not in run.classical:
                raise SimulationError(f"lift of non-live bit {ins.wire}")
            sampled[ins.var] = run.classical.pop(ins.wire)
            continue
        _apply_gate(run, ins)

    path = Assignment.of(sampled)
    try:
        expected = lookup(sig.outputs, path)
    except InvalidBranch:  # pragma: no cover - signature guarantees it
        raise SimulationError(f"sampled assignment {path} is not a path of the lifting tree") from None
    for ins, did_fire in zip(c.instructions, fired):
        assert did_fire == path.extends(ins.cond), "condition bookkeeping diverged"
    live = set(run.order) | set(run.classical)
    if live != expected.domain():  # pragma: no cover - signature guarantees it
        raise SimulationError(f"live wires {sorted(live)} differ from signature {expected}")
    final = QuantumState(tuple(run.order), run.state, dict(run.classical))
    return RunTrace(path, dict(sampled), expected, final)


def _apply_gate(run: _Run, ins: GateApp):
    name = ins.gate
    ins_labels = mvalue_labels(ins.inputs)
    out_labels = mvalue_labels(ins.outputs)
    if name in _ONE_QUBIT:
        run.apply_1q(_ONE_QUBIT[name], ins_labels[0], out_labels[0])
    elif name == "CNOT":
        run.apply_cnot(ins_labels[0], ins_labels[1], out_labels[0], out_labels[1])
    elif name == "Meas":
        run.measure(ins_labels[0], out_labels[0])
    elif name == "Meas2":
        run.measure(ins_labels[0], out_labels[0])
        run.measure(ins_labels[1], out_labels[1])
    elif name in ("Init0", "Init1"):
        run.init_qubit(out_labels[0], 1 if name == "Init1" else 0)
    elif name == "Discard":
        run.discard(ins_labels[0])
    else:
        raise UnsupportedGate(f"no semantics for gate {name}")


def branch_distribution(
    c: Circuit,
    init: QuantumState | None = None,
    shots: int = 1024,
    seed: int = 0,
    gateset: GateSet = DEFAULT_GATES,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> dict[Assignment, int]:
    """Empirical distribution of sampled paths over a number of shots."""
    sig = check_signature(c, gateset)
    counts: dict[Assignment, int] = {p: 0 for p in path_set(sig.tree)}
    streams = np.random.SeedSequence(seed).spawn(shots)
    for stream in streams:
        trace = simulate(c, init, np.random.default_rng(stream), gateset, max_qubits)
        counts[trace.path] += 1
    return counts


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
