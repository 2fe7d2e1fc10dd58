"""Random well-signed CRL circuits for property tests."""

from __future__ import annotations

import random

from pqk.circuit import (
    BIT,
    QUBIT,
    Circuit,
    GateApp,
    LabelContext,
    LiftInstr,
    check_signature,
)
from pqk.syntax import LabelVal, Pair, Unit
from pqk.trees import lookup, var_set

from oracles import assignment_set, extending_paths


def random_circuit(rng: random.Random, steps: int = 8, max_inputs: int = 3) -> Circuit:
    n_in = rng.randrange(max_inputs + 1)
    ctx = LabelContext.of({f"w{i}": rng.choice([BIT, QUBIT]) for i in range(n_in)})
    c = Circuit(ctx)
    counter = [0]
    var_counter = [0]

    def fresh_label():
        counter[0] += 1
        return f"f{counter[0]}"

    for _ in range(steps):
        sig = check_signature(c)
        conds = sorted(assignment_set(sig.tree), key=str)
        rng.shuffle(conds)
        placed = False
        for cond in conds:
            branches = extending_paths(sig.tree, cond)
            common = None
            for b in branches:
                entries = set(lookup(sig.outputs, b).entries)
                common = entries if common is None else common & entries
            common = common or set()
            qubits = sorted(n for n, w in common if w is QUBIT)
            bits = sorted(n for n, w in common if w is BIT)
            moves = []
            if qubits:
                moves += ["1q", "meas"]
            if len(qubits) >= 2:
                moves += ["2q", "meas2"]
            if bits:
                moves += ["discard", "lift"]
            moves += ["init"]
            move = rng.choice(moves)
            if move == "1q":
                g = rng.choice(["H", "X", "Z"])
                c = c.extended(GateApp(cond, g, LabelVal(rng.choice(qubits)), LabelVal(fresh_label())))
            elif move == "2q":
                a, b = rng.sample(qubits, 2)
                c = c.extended(GateApp(cond, "CNOT", Pair(LabelVal(a), LabelVal(b)),
                                       Pair(LabelVal(fresh_label()), LabelVal(fresh_label()))))
            elif move == "meas":
                c = c.extended(GateApp(cond, "Meas", LabelVal(rng.choice(qubits)), LabelVal(fresh_label())))
            elif move == "meas2":
                a, b = rng.sample(qubits, 2)
                c = c.extended(GateApp(cond, "Meas2", Pair(LabelVal(a), LabelVal(b)),
                                       Pair(LabelVal(fresh_label()), LabelVal(fresh_label()))))
            elif move == "discard":
                c = c.extended(GateApp(cond, "Discard", LabelVal(rng.choice(bits)), Unit()))
            elif move == "init":
                g = rng.choice(["Init0", "Init1"])
                c = c.extended(GateApp(cond, g, Unit(), LabelVal(fresh_label())))
            else:
                live = var_set(sig.tree, cond)
                var_counter[0] += 1
                var = f"v{var_counter[0]}"
                while var in live:
                    var_counter[0] += 1
                    var = f"v{var_counter[0]}"
                c = c.extended(LiftInstr(cond, rng.choice(bits), var))
            placed = True
            break
        if not placed:  # pragma: no cover
            break
    check_signature(c)
    return c
