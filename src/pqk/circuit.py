"""The circuit representation language: labels, gates, circuits and signatures.

A circuit is an input header followed by conditional gate applications and
conditional lift instructions.  Signature checking assigns every valid
circuit a lifting tree together with branch-indexed output label contexts.
Gates are typed by M-types and applied to label tuples, which are the term
language's first-order types and values (see `syntax`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from . import trees
from .errors import (
    DuplicateLabel,
    GateArityMismatch,
    InvalidBranch,
    LeftoverLabel,
    NonFreshOutput,
    PreconditionViolated,
    StaleLiftedVar,
    UnboundLabel,
    UnknownGate,
    WrongWireType,
)
from .syntax import (
    BIT,
    BIT_TYPE,
    QUBIT_TYPE,
    UNIT_TYPE,
    CircType,
    LabelVal,
    Pair,
    PqkType,
    TensorType,
    Unit,
    UnitType,
    Value,
    WireT,
    WireType,
)
from .trees import (
    EMPTY_ASSIGNMENT,
    IDENTITY,
    Assignment,
    Lifted,
    Renaming,
    all_vars,
    is_consistent,
    leaf,
    lookup,
    map_leaves,
    rename_lifted,
    update_under,
    var_set,
    var_sort_key,
)

# ---------------------------------------------------------------------------
# Label tuples

# An old name of LabelVal, kept only because bench/test_bench.py imports it.
MLabel = LabelVal


def mvalue_labels(v: Value) -> list[str]:
    """The labels of a label tuple, left to right."""
    if isinstance(v, Unit):
        return []
    if isinstance(v, LabelVal):
        return [v.name]
    assert isinstance(v, Pair)
    return mvalue_labels(v.left) + mvalue_labels(v.right)


def mtuple(labels: Iterable[str]) -> Value:
    """Right-nested tuple of labels; * when empty, bare label when singleton."""
    names = list(labels)
    if not names:
        return Unit()
    if len(names) == 1:
        return LabelVal(names[0])
    return Pair(LabelVal(names[0]), mtuple(names[1:]))


# ---------------------------------------------------------------------------
# Label contexts


@dataclass(frozen=True)
class LabelContext:
    """Finite map from wire labels to wire types (insertion-ordered)."""

    entries: tuple[tuple[str, WireType], ...] = ()

    @staticmethod
    def of(mapping: Mapping[str, WireType] | Iterable[tuple[str, WireType]] = (), **kw: WireType) -> LabelContext:
        items = list(dict(mapping).items()) + list(kw.items())
        seen = set()
        for name, _ in items:
            if name in seen:
                raise DuplicateLabel(f"label {name} bound twice")
            seen.add(name)
        return LabelContext(tuple(items))

    def domain(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.entries)

    def get(self, name: str) -> WireType | None:
        for n, w in self.entries:
            if n == name:
                return w
        return None

    def merge(self, other: LabelContext) -> LabelContext:
        overlap = self.domain() & other.domain()
        if overlap:
            raise DuplicateLabel(f"label contexts overlap on {sorted(overlap)}")
        return LabelContext(self.entries + other.entries)

    def remove(self, names: Iterable[str]) -> LabelContext:
        gone = set(names)
        missing = gone - self.domain()
        if missing:
            raise UnboundLabel(f"labels {sorted(missing)} not present")
        return LabelContext(tuple(p for p in self.entries if p[0] not in gone))

    def rename(self, rho: Renaming) -> LabelContext:
        return LabelContext(tuple((rho(n), w) for n, w in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelContext):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    def __hash__(self) -> int:
        return hash(frozenset(self.entries))

    def __str__(self) -> str:
        return ", ".join(f"{n}:{w}" for n, w in self.entries) or "·"

    __repr__ = __str__


EMPTY_CONTEXT = LabelContext()


def type_mvalue(q: LabelContext, v: Value) -> PqkType:
    """Type a label tuple against a label context, consuming it exactly."""
    names = mvalue_labels(v)
    dup = {n for n in names if names.count(n) > 1}
    if dup:
        raise DuplicateLabel(f"labels {sorted(dup)} repeated in tuple")
    missing = set(names) - q.domain()
    if missing:
        raise UnboundLabel(f"labels {sorted(missing)} not in context")
    extra = q.domain() - set(names)
    if extra:
        raise LeftoverLabel(f"labels {sorted(extra)} left unconsumed")
    return _mvalue_type(q, v)


def _mvalue_type(q: LabelContext, v: Value) -> PqkType:
    if isinstance(v, Unit):
        return UNIT_TYPE
    if isinstance(v, LabelVal):
        w = q.get(v.name)
        assert w is not None
        return WireT(w)
    assert isinstance(v, Pair)
    return TensorType(_mvalue_type(q, v.left), _mvalue_type(q, v.right))


def context_of_mvalue(v: Value, t: PqkType) -> LabelContext:
    """Label context making v have type t; shape mismatch raises GateArityMismatch."""
    out: list[tuple[str, WireType]] = []

    def walk(v: Value, t: PqkType):
        if isinstance(v, Unit) and isinstance(t, UnitType):
            return
        if isinstance(v, LabelVal) and isinstance(t, WireT):
            out.append((v.name, t.wire))
            return
        if isinstance(v, Pair) and isinstance(t, TensorType):
            walk(v.left, t.left)
            walk(v.right, t.right)
            return
        raise GateArityMismatch(f"tuple {v} does not match shape {t}")

    walk(v, t)
    return LabelContext.of(out)


# ---------------------------------------------------------------------------
# Gates


@dataclass(frozen=True)
class Gate:
    name: str
    in_type: PqkType  # an M-type
    out_type: PqkType  # an M-type


class GateSet:
    def __init__(self, gates: Iterable[Gate]):
        self._by_name = {g.name: g for g in gates}

    def get(self, name: str) -> Gate:
        g = self._by_name.get(name)
        if g is None:
            raise UnknownGate(f"gate {name} is not in the gate set")
        return g

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return sorted(self._by_name)


_Q2 = TensorType(QUBIT_TYPE, QUBIT_TYPE)
_B2 = TensorType(BIT_TYPE, BIT_TYPE)

DEFAULT_GATES = GateSet([
    Gate("H", QUBIT_TYPE, QUBIT_TYPE),
    Gate("X", QUBIT_TYPE, QUBIT_TYPE),
    Gate("Z", QUBIT_TYPE, QUBIT_TYPE),
    Gate("CNOT", _Q2, _Q2),
    Gate("Meas", QUBIT_TYPE, BIT_TYPE),
    Gate("Meas2", _Q2, _B2),
    # convenience extensions beyond the core set
    Gate("Init0", UNIT_TYPE, QUBIT_TYPE),
    Gate("Init1", UNIT_TYPE, QUBIT_TYPE),
    Gate("Discard", BIT_TYPE, UNIT_TYPE),
])


# ---------------------------------------------------------------------------
# Circuits


@dataclass(frozen=True)
class GateApp:
    cond: Assignment
    gate: str
    inputs: Value  # a label tuple
    outputs: Value  # a label tuple

    def __str__(self) -> str:
        prefix = f"{self.cond} ? " if self.cond else ""
        return f"{prefix}{self.gate}{_args(self.inputs)} -> {self.outputs}"

    __repr__ = __str__


@dataclass(frozen=True)
class LiftInstr:
    cond: Assignment
    wire: str
    var: str

    def __str__(self) -> str:
        prefix = f"{self.cond} ? " if self.cond else ""
        return f"{prefix}lift({self.wire}) => {self.var}"

    __repr__ = __str__


Instruction = GateApp | LiftInstr


def _args(v: Value) -> str:
    if isinstance(v, Pair):
        return str(v)
    return f"({v})"


@dataclass(frozen=True)
class Circuit:
    """An input header followed by instructions, over the gate set that types them.

    The parser fixes a `crl` literal's gate set, and a circuit built from
    another keeps its set, except that `append` onto a circuit with no
    instructions takes the body's.  A circuit carries one signature state (see
    `SignatureState`), computed at most once per circuit object: by folding
    `extend_signature` over every instruction on the first `check_signature`,
    or, for a circuit returned by `append`, by extending the input circuit's
    state with only the appended instructions.  Neither the gate set nor the
    carried state takes part in equality or hashing.
    """

    input: LabelContext
    instructions: tuple[Instruction, ...] = ()
    gateset: GateSet = field(default=DEFAULT_GATES, repr=False, compare=False)
    _carried: SignatureState | None = field(default=None, init=False, repr=False, compare=False)

    def extended(self, instr: Instruction) -> Circuit:
        return Circuit(self.input, self.instructions + (instr,), self.gateset)

    def all_labels(self) -> dict[str, None]:
        """Every label of the circuit, in order of first occurrence."""
        out = dict.fromkeys(n for n, _ in self.input.entries)
        for ins in self.instructions:
            if isinstance(ins, GateApp):
                out.update(dict.fromkeys(mvalue_labels(ins.inputs) + mvalue_labels(ins.outputs)))
            else:
                out[ins.wire] = None
        return out

    def __str__(self) -> str:
        return format_circuit(self)


def format_circuit(c: Circuit) -> str:
    head = f"input({c.input})" if c.input else "input()"
    parts = [head] + [str(ins) for ins in c.instructions]
    return ";\n".join(parts) + ";"


# ---------------------------------------------------------------------------
# Signature checking


@dataclass(frozen=True)
class CircuitSignature:
    input: LabelContext
    outputs: Lifted  # of LabelContext

    @property
    def tree(self) -> Lifted:
        """The circuit's lifting tree: the shape of its output contexts."""
        return self.outputs.tree()


class SignatureState:
    """The state of the signature fold after a prefix of a circuit.

    `outputs` are the prefix's branch-indexed output contexts, whose shape is
    the prefix's lifting tree; `labels` is every label the prefix has used (its
    input labels and every gate output), against which a new output must be
    fresh.  A state stored on a circuit is never changed again: `append`
    extends a copy of it.
    """

    __slots__ = ("outputs", "labels")

    def __init__(self, outputs: Lifted, labels: set[str]):
        self.outputs = outputs
        self.labels = labels

    def copy(self) -> SignatureState:
        return SignatureState(self.outputs, set(self.labels))


def extend_signature(state: SignatureState, ins: Instruction, gateset: GateSet) -> None:
    """Extend state in place by one instruction, or raise a specific CircuitError.

    This is one step of the signature fold.  It reads only the state, never
    the earlier instructions, so its cost depends on the lifting tree and the
    live labels, not on the length of the circuit so far.
    """
    if not is_consistent(state.outputs, ins.cond):
        raise InvalidBranch(f"condition {ins.cond} is not consistent with the lifted state at `{ins}`")
    if isinstance(ins, GateApp):
        gate = gateset.get(ins.gate)
        consumed = context_of_mvalue(ins.inputs, gate.in_type)
        produced = context_of_mvalue(ins.outputs, gate.out_type)
        stale = produced.domain() & state.labels
        if stale:
            raise NonFreshOutput(f"output labels {sorted(stale)} already occur in the circuit at `{ins}`")

        def apply_gate(b: Assignment, ctx: LabelContext) -> Lifted:
            for name, wire in consumed.entries:
                have = ctx.get(name)
                if have is None:
                    raise UnboundLabel(f"label {name} is not live on branch {b} at `{ins}`")
                if have != wire:
                    raise WrongWireType(f"label {name} is {have}, gate {gate.name} expects {wire} (branch {b})")
            return leaf(ctx.remove(consumed.domain()).merge(produced))

        state.outputs = update_under(state.outputs, ins.cond, apply_gate)
        state.labels.update(produced.domain())
        return
    assert isinstance(ins, LiftInstr)
    if ins.var in var_set(state.outputs, ins.cond):
        raise StaleLiftedVar(f"lifted variable {ins.var} already live on branch {ins.cond}")

    def split(b: Assignment, ctx: LabelContext) -> Lifted:
        have = ctx.get(ins.wire)
        if have is None:
            raise UnboundLabel(f"label {ins.wire} is not live on branch {b} at `{ins}`")
        if have != BIT:
            raise WrongWireType(f"lift needs a Bit wire, {ins.wire} is {have} (branch {b})")
        reduced = leaf(ctx.remove([ins.wire]))
        return trees.LiftedNode(ins.var, reduced, reduced)

    state.outputs = update_under(state.outputs, ins.cond, split)


def _signature_state(c: Circuit) -> SignatureState:
    """c's carried state, folding its instructions on first use."""
    state = c._carried
    if state is None:
        state = SignatureState(leaf(c.input), set(c.input.domain()))
        for ins in c.instructions:
            extend_signature(state, ins, c.gateset)
        object.__setattr__(c, "_carried", state)
    return state


def check_signature(c: Circuit) -> CircuitSignature:
    """Derive the unique signature of c, or raise a specific CircuitError.

    The signature is the fold of `extend_signature` over c's instructions,
    under c's gate set.
    c carries the result, so only the first call on a circuit object does
    that work (linear in c's length); later calls, and calls on a circuit
    that `append` returned, cost O(1).  A failed check carries nothing and
    raises again on every call.
    """
    state = _signature_state(c)
    return CircuitSignature(c.input, state.outputs)


# ---------------------------------------------------------------------------
# Renamings


def rename_mvalue(v: Value, rho: Renaming) -> Value:
    if isinstance(v, Unit):
        return v
    if isinstance(v, LabelVal):
        return LabelVal(rho(v.name))
    assert isinstance(v, Pair)
    return Pair(rename_mvalue(v.left, rho), rename_mvalue(v.right, rho))


def _rewrite(ins: Instruction, rho: Renaming, pi: Renaming, a: Assignment = EMPTY_ASSIGNMENT) -> Instruction:
    """ins with labels renamed by rho, lifted variables by pi, and a joined to its condition."""
    cond = a.union(ins.cond.rename(pi))
    if isinstance(ins, GateApp):
        return GateApp(cond, ins.gate, rename_mvalue(ins.inputs, rho), rename_mvalue(ins.outputs, rho))
    return LiftInstr(cond, rho(ins.wire), pi(ins.var))


def rename_circuit(c: Circuit, rho: Renaming = IDENTITY, pi: Renaming = IDENTITY) -> Circuit:
    """c with its labels renamed by rho and its lifted variables by pi."""
    return Circuit(c.input.rename(rho), tuple(_rewrite(ins, rho, pi) for ins in c.instructions), c.gateset)


# ---------------------------------------------------------------------------
# Boxed circuits


@dataclass(frozen=True)
class BoxedCircuit:
    """First-class circuit datum: input tuple, circuit, branch-indexed output tuples.

    The lifted variables of the tree are binding occurrences: `append`
    instantiates them with fresh variables at every use.  A boxed circuit
    carries its Circ type once the checker has typed it (see
    `typecheck.Checker`), so each boxed circuit object is typed at most once;
    a failed typing carries nothing.  The carried type takes no part in
    equality or hashing.
    """

    in_tuple: Value  # a label tuple
    circuit: Circuit
    out_tuples: Lifted  # of label tuples
    _circ_type: CircType | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def tree(self) -> Lifted:
        return self.out_tuples.tree()

    def binder_order(self) -> list[str]:
        """Abstracted lifted variables in the sorted-enumeration order."""
        return sorted(all_vars(self.out_tuples), key=var_sort_key)

    def __str__(self) -> str:
        return f"({self.in_tuple}, {{{format_circuit(self.circuit)}}}, {self.out_tuples})"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# Insertion and append


def insert(c: Circuit, a: Assignment, d: Circuit, rho: Renaming = IDENTITY, pi: Renaming = IDENTITY) -> Circuit:
    """Append d's instructions to c, each condition unioned with a (C ::_a D),
    under c's gate set, or d's if c has no instructions (none to type).

    Each of d's instructions first has its labels renamed by rho and its
    lifted variables by pi, in the same rewrite.
    """
    added = tuple(_rewrite(ins, rho, pi, a) for ins in d.instructions)
    return Circuit(c.input, c.instructions + added, c.gateset if c.instructions else d.gateset)


class FreshLabels:
    """Monotone source of fresh wire labels (%0, %1, ...)."""

    PREFIX = "%"

    def __init__(self, start: int = 0):
        self._next = start

    def fresh(self) -> str:
        name = f"{self.PREFIX}{self._next}"
        self._next += 1
        return name

    @classmethod
    def above(cls, *label_sets: Iterable[str]) -> FreshLabels:
        top = 0
        for names in label_sets:
            for n in names:
                if n.startswith(cls.PREFIX) and n[1:].isdigit():
                    top = max(top, int(n[1:]) + 1)
        return cls(top)


def fresh_labels_for(t: PqkType, source: FreshLabels) -> tuple[LabelContext, Value]:
    """(Q, tuple) with Q |= tuple : t for an M-type t, labels drawn from source."""
    if isinstance(t, UnitType):
        return EMPTY_CONTEXT, Unit()
    if isinstance(t, WireT):
        name = source.fresh()
        return LabelContext.of({name: t.wire}), LabelVal(name)
    assert isinstance(t, TensorType)
    q1, v1 = fresh_labels_for(t.left, source)
    q2, v2 = fresh_labels_for(t.right, source)
    return q1.merge(q2), Pair(v1, v2)


def match_tuples(pattern: Value, target: Value) -> dict[str, str]:
    """Label mapping sending pattern onto target; shapes must agree."""
    out: dict[str, str] = {}

    def walk(p: Value, t: Value):
        if isinstance(p, Unit) and isinstance(t, Unit):
            return
        if isinstance(p, LabelVal) and isinstance(t, LabelVal):
            if p.name in out and out[p.name] != t.name:
                raise PreconditionViolated(f"label {p.name} maps two ways")
            out[p.name] = t.name
            return
        if isinstance(p, Pair) and isinstance(t, Pair):
            walk(p.left, t.left)
            walk(p.right, t.right)
            return
        raise PreconditionViolated(f"tuple {t} does not have the boxed circuit's input shape {p}")

    walk(pattern, target)
    return out


def append(
    c: Circuit,
    a: Assignment,
    target: Value,
    boxed: BoxedCircuit,
    fresh_vars: list[str],
    labels: FreshLabels | None = None,
) -> tuple[Circuit, Lifted]:
    """Unbox `boxed` onto the wires `target` of c on branch a.

    Implements the three steps: pick an equivalent boxed circuit whose input
    tuple is `target` and whose other labels are fresh in c, instantiate its
    abstracted lifted variables with fresh_vars (positionally against the
    sorted binder order), and insert the result on branch a.  The three steps
    are one rewrite of each body instruction (see `insert`): no renamed copy
    of the boxed circuit is built.  Returns the new circuit and the
    instantiated output tuples.

    The preconditions are checked against c's carried signature state, and
    the new circuit carries that state extended by the inserted instructions
    alone, so the signature work of an append is proportional to the boxed
    circuit, not to c (only copying c's instruction tuple and used-label set
    is linear in c).  The new circuit's gate set (see `insert`) types the
    inserted instructions; a non-empty body under another set object is a
    precondition failure.  An inserted body that does not extend the
    signature raises its CircuitError here.
    """
    body = boxed.circuit
    if c.instructions and body.instructions and body.gateset is not c.gateset:
        raise PreconditionViolated(
            f"the boxed circuit's gate set {body.gateset.names()} is not the circuit's {c.gateset.names()}")
    state = _signature_state(c)
    try:
        out_ctx = lookup(state.outputs, a)
    except InvalidBranch:
        raise PreconditionViolated(f"branch {a} is not a path of the circuit's lifting tree") from None
    target_labels = mvalue_labels(target)
    dup = {n for n in target_labels if target_labels.count(n) > 1}
    if dup:
        raise PreconditionViolated(f"target labels {sorted(dup)} repeated")
    missing = set(target_labels) - out_ctx.domain()
    if missing:
        raise PreconditionViolated(f"target labels {sorted(missing)} are not outputs on branch {a}")

    binders = boxed.binder_order()
    if len(fresh_vars) != len(binders):
        raise PreconditionViolated(
            f"expected {len(binders)} fresh lifted variables, got {len(fresh_vars)}"
        )
    if len(set(fresh_vars)) != len(fresh_vars):
        raise PreconditionViolated("fresh lifted variables must be pairwise distinct")
    live = var_set(state.outputs, a)
    stale = set(fresh_vars) & live
    if stale:
        raise PreconditionViolated(f"lifted variables {sorted(stale)} already live on branch {a}")

    # step 1: relabel the boxed circuit onto the target wires, everything else fresh
    # (the target labels are live, so they are among the used labels)
    mapping = match_tuples(boxed.in_tuple, target)
    boxed_labels = body.all_labels()
    if labels is None:
        labels = FreshLabels.above(state.labels, boxed_labels)
    for name in sorted(boxed_labels.keys() | mvalue_labels(boxed.in_tuple)):
        if name not in mapping:
            fresh = labels.fresh()
            while fresh in state.labels:
                fresh = labels.fresh()
            mapping[name] = fresh
    if len(set(mapping.values())) != len(mapping):
        raise PreconditionViolated("relabeling is not injective")
    rho = Renaming(mapping)

    # step 2: instantiate the abstracted lifted variables
    pi = Renaming(dict(zip(binders, fresh_vars)))

    # step 3: insert on branch a, with steps 1 and 2 in the same rewrite, and
    # extend the carried state by the new instructions
    out = insert(c, a, body, rho, pi)
    extended = state.copy()
    for ins in out.instructions[len(c.instructions):]:
        extend_signature(extended, ins, out.gateset)
    object.__setattr__(out, "_carried", extended)
    return out, rename_lifted(map_leaves(boxed.out_tuples, lambda v: rename_mvalue(v, rho)), pi)


# ---------------------------------------------------------------------------
# JSON and DOT export


def mvalue_to_json(v: Value) -> Any:
    if isinstance(v, Unit):
        return None
    if isinstance(v, LabelVal):
        return v.name
    assert isinstance(v, Pair)
    return [mvalue_to_json(v.left), mvalue_to_json(v.right)]


def context_to_json(q: LabelContext) -> Any:
    return {n: str(w) for n, w in q.entries}


def assignment_to_json(a: Assignment) -> Any:
    return {v: b for v, b in a.bindings}


def circuit_to_json(c: Circuit) -> Any:
    out = {"input": context_to_json(c.input), "instructions": []}
    for ins in c.instructions:
        if isinstance(ins, GateApp):
            out["instructions"].append({
                "kind": "gate",
                "cond": assignment_to_json(ins.cond),
                "gate": ins.gate,
                "in": mvalue_to_json(ins.inputs),
                "out": mvalue_to_json(ins.outputs),
            })
        else:
            out["instructions"].append({
                "kind": "lift",
                "cond": assignment_to_json(ins.cond),
                "wire": ins.wire,
                "var": ins.var,
            })
    return out


def signature_to_json(sig: CircuitSignature) -> Any:
    return {
        "tree": trees.lifted_to_json(sig.tree, lambda _: None),
        "input": context_to_json(sig.input),
        "outputs": trees.lifted_to_json(sig.outputs, context_to_json),
    }


def _dot_quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def circuit_to_dot(c: Circuit) -> str:
    """Graphviz rendering: wires flow left to right between instruction nodes."""
    lines = ["digraph circuit {", "  rankdir=LR;", "  node [shape=box];"]
    lines.append('  in [label="input", shape=cds];')
    producer = {name: "in" for name in c.input.domain()}
    groups: dict[Assignment, list[str]] = {}
    edges: list[str] = []
    for i, ins in enumerate(c.instructions):
        nid = f"n{i}"
        if isinstance(ins, GateApp):
            label = ins.gate
            shape = "box"
            ins_in = mvalue_labels(ins.inputs)
            ins_out = mvalue_labels(ins.outputs)
        else:
            label = f"lift => {ins.var}"
            shape = "cds"
            ins_in = [ins.wire]
            ins_out = []
        groups.setdefault(ins.cond, []).append(f"    {nid} [label={_dot_quote(label)}, shape={shape}];")
        for name in ins_in:
            src = producer.get(name, "in")
            edges.append(f"  {src} -> {nid} [label={_dot_quote(name)}];")
        for name in ins_out:
            producer[name] = nid
    for k, (cond, nodes) in enumerate(sorted(groups.items(), key=lambda p: str(p[0]))):
        if cond:
            lines.append(f"  subgraph cluster_{k} {{")
            lines.append(f"    label={_dot_quote(str(cond))};")
            lines.append("    style=dashed;")
            lines.extend(nodes)
            lines.append("  }")
        else:
            lines.extend("  " + n.strip() for n in nodes)
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines) + "\n"
