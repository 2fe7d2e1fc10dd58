"""The signature a circuit carries through `append` and evaluation.

A circuit returned by `append` carries its signature state, extended by the
appended instructions alone.  These tests check that the carried signature is
the one a fresh fold derives, that evaluation does signature work linear in
the circuit it builds, and that `append` rejects a body that does not extend
the signature.
"""

from __future__ import annotations

import random

import pytest

import pqk.circuit
from pqk.circuit import (
    BoxedCircuit,
    Circuit,
    GateApp,
    LabelContext,
    LiftInstr,
    append,
    check_signature,
)
from pqk.errors import WrongWireType
from pqk.interp import Done, EvalEnv, LeftConfig, Stuck, eval_config, run_closed
from pqk.parser import parse_program
from pqk.syntax import BIT, QUBIT, Apply, Boxed, LabelVal, Unit
from pqk.trees import EMPTY_ASSIGNMENT, LiftedNode, leaf, lookup, path_set, var_set
from pqk.typecheck import check_closed_term

from circuit_gen import random_circuit

E = EMPTY_ASSIGNMENT


def ctx(**kw):
    return LabelContext.of(kw)


def hadamard_box() -> BoxedCircuit:
    c = Circuit(ctx(l=QUBIT), (GateApp(E, "H", LabelVal("l"), LabelVal("l2")),))
    return BoxedCircuit(LabelVal("l"), c, leaf(LabelVal("l2")))


def meas_lift_box() -> BoxedCircuit:
    c = Circuit(
        ctx(l=QUBIT),
        (GateApp(E, "Meas", LabelVal("l"), LabelVal("b")), LiftInstr(E, "b", "u")),
    )
    return BoxedCircuit(LabelVal("l"), c, LiftedNode("u", leaf(Unit()), leaf(Unit())))


def identity_box() -> BoxedCircuit:
    return BoxedCircuit(LabelVal("l"), Circuit(ctx(l=QUBIT)), leaf(LabelVal("l")))


@pytest.fixture
def extended_instrs(monkeypatch):
    """Count the instructions that pass through extend_signature."""
    count = [0]
    original = pqk.circuit.extend_signature

    def counting(state, ins, gateset=pqk.circuit.DEFAULT_GATES):
        count[0] += 1
        return original(state, ins, gateset)

    monkeypatch.setattr(pqk.circuit, "extend_signature", counting)
    return count


class TestCarriedEqualsFresh:
    def test_random_append_chains_match_a_fresh_fold(self, extended_instrs):
        rng = random.Random(78)
        boxes = [hadamard_box(), meas_lift_box(), identity_box()]
        steps = 0
        for _ in range(30):
            c = random_circuit(rng, steps=5)
            for k in range(6):
                sig = check_signature(c)
                choices = []
                for p in path_set(sig.tree):
                    for n, w in lookup(sig.outputs, p).entries:
                        if w is QUBIT:
                            choices.append((p, n))
                if not choices:
                    break
                branch, target = rng.choice(choices)
                box = rng.choice(boxes)
                live = var_set(sig.tree, branch)
                fresh = [v for v in (f"ap{k}", f"aq{k}") if v not in live][: len(box.binder_order())]
                c, _ = append(c, branch, LabelVal(target), box, fresh)

                before = extended_instrs[0]
                carried = check_signature(c)
                assert extended_instrs[0] == before, "the appended circuit was folded again"
                refolded = check_signature(Circuit(c.input, c.instructions))
                assert carried.tree == refolded.tree
                assert carried.input == refolded.input
                assert carried.outputs == refolded.outputs
                steps += 1
        assert steps >= 60


def _h_chain(n: int) -> str:
    lines = [
        "circuit INIT = crl { input(); Init0() -> q; }",
        "circuit HAD = crl { input(l:Qubit); H(l) -> l2; }",
        "let q = apply(INIT, *) in",
    ]
    lines += ["let q = apply(HAD, q) in"] * n
    lines.append("return q")
    return "\n".join(lines)


class TestLinearSignatureWork:
    def _signature_work(self, n: int, count: list[int]) -> tuple[int, int]:
        count[0] = 0
        term = parse_program(_h_chain(n)).main
        check_closed_term(term)
        out = run_closed(term, EvalEnv())
        assert isinstance(out, Done)
        return count[0], len(out.config.circuit.instructions)

    def test_straight_line_evaluation_checks_each_instruction_a_bounded_number_of_times(
        self, extended_instrs
    ):
        work40, size40 = self._signature_work(40, extended_instrs)
        work80, size80 = self._signature_work(80, extended_instrs)
        assert size40 == 41 and size80 == 81
        assert work40 <= 2 * size40
        assert work80 <= 2 * size80
        assert work80 <= 2.2 * work40


class TestAppendChecksItsBody:
    def bad_box(self) -> BoxedCircuit:
        # H on a Bit wire: the body has no signature
        body = Circuit(
            ctx(l=QUBIT),
            (GateApp(E, "Meas", LabelVal("l"), LabelVal("b")),
             GateApp(E, "H", LabelVal("b"), LabelVal("c"))),
        )
        return BoxedCircuit(LabelVal("l"), body, leaf(LabelVal("c")))

    def test_append_raises_at_the_append(self):
        with pytest.raises(WrongWireType):
            append(Circuit(ctx(q=QUBIT, k=BIT)), E, LabelVal("q"), self.bad_box(), [])

    def test_evaluation_is_stuck_at_the_apply(self):
        start = Circuit(ctx(q=QUBIT))
        term = Apply((), Boxed(self.bad_box()), LabelVal("q"))
        out = eval_config(LeftConfig(start, E, term), EvalEnv())
        assert isinstance(out, Stuck)
        assert out.reason.startswith("AppendPrecondition")
