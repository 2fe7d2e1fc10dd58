"""Independent reference implementations for the property tests.

The map-view operations manipulate the path-map view (Assignment -> payload)
directly and never touch the tree recursion they are used to check.  The dense
simulator enumerates measurement outcomes with full Kronecker-product matrices
and never touches pqk.simulator's axis bookkeeping.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from pqk.circuit import Circuit, CircuitSignature, LiftInstr, mvalue_labels

from pqk.errors import InvalidBranch
from pqk.trees import (
    EMPTY_ASSIGNMENT,
    EMPTY_TREE,
    IDENTITY,
    Assignment,
    Lifted,
    LiftedLeaf,
    LiftedNode,
    Renaming,
    Sub,
    all_vars,
    is_consistent,
    map_leaves,
    path_set,
    rename_lifted,
    to_map,
)


def assignment_set(t: Lifted) -> frozenset[Assignment]:
    """All assignments consistent with t (A_t); exponential."""
    if isinstance(t, LiftedLeaf):
        return frozenset({EMPTY_ASSIGNMENT})
    assert isinstance(t, LiftedNode)
    zero = assignment_set(t.zero)
    one = assignment_set(t.one)
    out = set(zero) | set(one)
    out.update(Assignment.of({t.var: 0}).union(a) for a in zero)
    out.update(Assignment.of({t.var: 1}).union(b) for b in one)
    return frozenset(out)


def extending_paths(t: Lifted, a: Assignment) -> list[Assignment]:
    """The paths of t that extend a (P_t^a)."""
    if not is_consistent(t, a):
        raise InvalidBranch(f"{a} is not consistent with tree {t.tree()}")
    return [p for p in path_set(t) if p.extends(a)]


def compose_map(obj_map, family, index):
    out = dict(obj_map)
    for a in index:
        assert a in out, f"{a} not a path"
        out[a] = family[a]
    return out


def flatten_map(obj: Lifted):
    """Map view of the flattened object: concatenate outer and inner paths.

    Returns (mapping, set-of-result-paths).  Raises AssertionError when the
    side condition (inner variables disjoint from the outer path) fails.
    """
    out = {}
    for a, value in to_map(obj).items():
        if isinstance(value, Sub):
            inner = value.inner
            assert not (all_vars(inner.tree()) & a.domain()), "variable clash"
            for b, v in to_map(inner).items():
                out[a.union(b)] = v
        else:
            out[a] = value
    return out


def graft_map(t: Lifted, a: Assignment, r: Lifted):
    """Path set of t graft_a r computed on paths alone."""
    out = set()
    for p in path_set(t):
        if p.extends(a):
            assert not (all_vars(r) & p.domain()), "variable clash"
            for q in path_set(r):
                out.add(p.union(q))
        else:
            out.add(p)
    return out


def rename_signature(sig: CircuitSignature, rho: Renaming = IDENTITY, pi: Renaming = IDENTITY) -> CircuitSignature:
    """sig with its labels renamed by rho and its lifted variables by pi."""
    return CircuitSignature(sig.input.rename(rho), rename_lifted(map_leaves(sig.outputs, lambda q: q.rename(rho)), pi))


# ---------------------------------------------------------------------------
# Random instance generators


def random_tree(rng: random.Random, pool: list[str], max_depth: int) -> Lifted:
    if max_depth == 0 or not pool or rng.random() < 0.35:
        return EMPTY_TREE
    var = rng.choice(pool)
    rest = [v for v in pool if v != var]
    return LiftedNode(var, random_tree(rng, rest, max_depth - 1), random_tree(rng, rest, max_depth - 1))


def random_lifted(rng: random.Random, pool: list[str], max_depth: int, payload) -> Lifted:
    if max_depth == 0 or not pool or rng.random() < 0.35:
        return LiftedLeaf(payload(rng))
    var = rng.choice(pool)
    rest = [v for v in pool if v != var]
    return LiftedNode(
        var,
        random_lifted(rng, rest, max_depth - 1, payload),
        random_lifted(rng, rest, max_depth - 1, payload),
    )


# ---------------------------------------------------------------------------
# Dense reference simulator: the register is a list of qubit labels, qubit 0
# the most significant bit of the 2^n-dimensional vector.  Every gate is a
# full matrix built with kron; a measurement applies both projectors and keeps
# each outcome of nonzero probability.

_I2 = np.eye(2, dtype=complex)
_PROJECTORS = (np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex))
_DENSE_1Q = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass
class DenseBranch:
    register: list[str]
    vector: np.ndarray
    classical: dict[str, int]
    lifted: dict[str, int]
    probability: float


def kron_at(n: int, ops: dict[int, np.ndarray]) -> np.ndarray:
    """The 2^n x 2^n operator acting as ops[k] on qubit k and as I elsewhere."""
    full = np.eye(1, dtype=complex)
    for k in range(n):
        full = np.kron(full, ops.get(k, _I2))
    return full


def dense_branches(c: Circuit, register: list[str], vector: np.ndarray,
                   classical: dict[str, int]) -> list[DenseBranch]:
    """Every measurement-outcome branch of c with its probability and state."""
    branches = [DenseBranch(list(register), np.asarray(vector, dtype=complex), dict(classical), {}, 1.0)]
    for ins in c.instructions:
        after = []
        for br in branches:
            if any(br.lifted.get(v) != b for v, b in ins.cond.bindings):
                after.append(br)
            elif isinstance(ins, LiftInstr):
                bits = dict(br.classical)
                after.append(DenseBranch(br.register, br.vector, bits, {**br.lifted, ins.var: bits.pop(ins.wire)},
                                         br.probability))
            elif ins.gate in ("Meas", "Meas2"):
                outcomes = [br]
                for src, dst in zip(mvalue_labels(ins.inputs), mvalue_labels(ins.outputs)):
                    outcomes = [child for o in outcomes for child in _dense_measure(o, src, dst)]
                after.extend(outcomes)
            else:
                after.append(_dense_gate(br, ins.gate, mvalue_labels(ins.inputs), mvalue_labels(ins.outputs)))
        branches = after
    return branches


def _dense_gate(br: DenseBranch, gate: str, ins: list[str], outs: list[str]) -> DenseBranch:
    reg, vec, bits = list(br.register), br.vector, dict(br.classical)
    n = len(reg)
    if gate in _DENSE_1Q:
        k = reg.index(ins[0])
        vec = kron_at(n, {k: _DENSE_1Q[gate]}) @ vec
        reg[k] = outs[0]
    elif gate == "CNOT":
        c, t = reg.index(ins[0]), reg.index(ins[1])
        vec = (kron_at(n, {c: _PROJECTORS[0]}) + kron_at(n, {c: _PROJECTORS[1], t: _DENSE_1Q["X"]})) @ vec
        reg[c], reg[t] = outs
    elif gate in ("Init0", "Init1"):
        vec = np.kron(vec, _I2[1 if gate == "Init1" else 0])
        reg.append(outs[0])
    elif gate == "Discard":
        del bits[ins[0]]
    else:
        raise ValueError(f"no dense semantics for {gate}")
    return DenseBranch(reg, vec, bits, br.lifted, br.probability)


def _dense_measure(br: DenseBranch, src: str, dst: str) -> list[DenseBranch]:
    n = len(br.register)
    k = br.register.index(src)
    out = []
    for bit in (0, 1):
        projected = kron_at(n, {k: _PROJECTORS[bit]}) @ br.vector
        p = float(np.vdot(projected, projected).real)
        if p == 0:
            continue
        # the entries whose qubit k reads `bit` are the state of the rest
        rows = [i for i in range(2**n) if (i >> (n - 1 - k)) & 1 == bit]
        out.append(DenseBranch(br.register[:k] + br.register[k + 1:], projected[rows] / math.sqrt(p),
                               {**br.classical, dst: bit}, br.lifted, br.probability * p))
    return out
