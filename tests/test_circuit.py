from __future__ import annotations

import random

import pytest

from pqk.circuit import (
    BIT,
    QUBIT,
    BoxedCircuit,
    Circuit,
    EMPTY_CONTEXT,
    FreshLabels,
    GateApp,
    LabelContext,
    LiftInstr,
    append,
    boxed_equiv,
    check_signature,
    circuit_from_json,
    circuit_to_dot,
    circuit_to_json,
    format_circuit,
    insert,
    mtuple,
    mvalue_labels,
    rename_boxed,
    rename_circuit,
    type_mvalue,
)
from pqk.errors import (
    AssignmentClash,
    DuplicateLabel,
    InvalidBranch,
    LeftoverLabel,
    NonFreshOutput,
    PreconditionViolated,
    StaleLiftedVar,
    UnboundLabel,
    UnknownGate,
    WrongWireType,
)
from pqk.syntax import BIT_TYPE, QUBIT_TYPE, UNIT_TYPE, LabelVal, Pair, TensorType, Unit
from pqk.trees import (
    EMPTY_ASSIGNMENT,
    EMPTY_TREE,
    Assignment,
    LiftedNode,
    Renaming,
    leaf,
    lookup,
    rename_lifted,
)

from circuit_gen import random_circuit
from oracles import rename_signature


def a(**kw):
    return Assignment.of(**kw)


def ctx(**kw):
    return LabelContext.of({k: v for k, v in kw.items()})


class TestTypeMValue:
    def test_unit(self):
        assert type_mvalue(EMPTY_CONTEXT, Unit()) == UNIT_TYPE

    def test_label(self):
        assert type_mvalue(ctx(l=QUBIT), LabelVal("l")) == QUBIT_TYPE

    def test_pair(self):
        q = ctx(l=QUBIT, k=BIT)
        assert type_mvalue(q, Pair(LabelVal("l"), LabelVal("k"))) == TensorType(QUBIT_TYPE, BIT_TYPE)

    def test_unbound(self):
        with pytest.raises(UnboundLabel):
            type_mvalue(EMPTY_CONTEXT, LabelVal("l"))

    def test_duplicate(self):
        with pytest.raises(DuplicateLabel):
            type_mvalue(ctx(l=QUBIT), Pair(LabelVal("l"), LabelVal("l")))

    def test_leftover(self):
        with pytest.raises(LeftoverLabel):
            type_mvalue(ctx(l=QUBIT, k=BIT), LabelVal("l"))


def teleportation_dl() -> Circuit:
    return Circuit(
        LabelContext.of({"b0": QUBIT, "q0": QUBIT, "a0": QUBIT}),
        (
            GateApp(EMPTY_ASSIGNMENT, "CNOT", Pair(LabelVal("q0"), LabelVal("a0")),
                    Pair(LabelVal("q1"), LabelVal("a1"))),
            GateApp(EMPTY_ASSIGNMENT, "H", LabelVal("q1"), LabelVal("q2")),
            GateApp(EMPTY_ASSIGNMENT, "Meas2", Pair(LabelVal("q2"), LabelVal("a1")),
                    Pair(LabelVal("x"), LabelVal("y"))),
            LiftInstr(EMPTY_ASSIGNMENT, "x", "u"),
            LiftInstr(EMPTY_ASSIGNMENT, "y", "s"),
            GateApp(a(s=1), "X", LabelVal("b0"), LabelVal("b1")),
            GateApp(a(u=1, s=0), "Z", LabelVal("b0"), LabelVal("b2")),
            GateApp(a(u=1, s=1), "Z", LabelVal("b1"), LabelVal("b3")),
        ),
    )


class TestCheckSignature:
    def test_identity_circuit(self):
        q = ctx(q=QUBIT)
        sig = check_signature(Circuit(q))
        assert sig.tree == EMPTY_TREE
        assert sig.input == q
        assert sig.outputs == leaf(q)

    def test_teleportation_dl_golden(self):
        sig = check_signature(teleportation_dl())
        s_node = LiftedNode("s", EMPTY_TREE, EMPTY_TREE)
        assert sig.tree == LiftedNode("u", s_node, s_node)
        assert lookup(sig.outputs, a(u=0, s=0)) == ctx(b0=QUBIT)
        assert lookup(sig.outputs, a(u=0, s=1)) == ctx(b1=QUBIT)
        assert lookup(sig.outputs, a(u=1, s=0)) == ctx(b2=QUBIT)
        assert lookup(sig.outputs, a(u=1, s=1)) == ctx(b3=QUBIT)

    def test_condition_on_unknown_var(self):
        c = Circuit(ctx(q=QUBIT), (GateApp(a(u=1), "H", LabelVal("q"), LabelVal("q1")),))
        with pytest.raises(InvalidBranch):
            check_signature(c)

    def test_unknown_gate(self):
        c = Circuit(ctx(q=QUBIT), (GateApp(EMPTY_ASSIGNMENT, "Toffoli", LabelVal("q"), LabelVal("r")),))
        with pytest.raises(UnknownGate):
            check_signature(c)

    def test_non_fresh_output(self):
        c = Circuit(ctx(q=QUBIT), (GateApp(EMPTY_ASSIGNMENT, "H", LabelVal("q"), LabelVal("q")),))
        with pytest.raises(NonFreshOutput):
            check_signature(c)

    def test_wrong_wire_type(self):
        c = Circuit(ctx(b=BIT), (GateApp(EMPTY_ASSIGNMENT, "H", LabelVal("b"), LabelVal("b1")),))
        with pytest.raises(WrongWireType):
            check_signature(c)

    def test_lift_requires_bit(self):
        c = Circuit(ctx(q=QUBIT), (LiftInstr(EMPTY_ASSIGNMENT, "q", "u"),))
        with pytest.raises(WrongWireType):
            check_signature(c)

    def test_stale_lifted_var(self):
        c = Circuit(
            ctx(b1=BIT, b2=BIT),
            (LiftInstr(EMPTY_ASSIGNMENT, "b1", "u"), LiftInstr(EMPTY_ASSIGNMENT, "b2", "u")),
        )
        with pytest.raises(StaleLiftedVar):
            check_signature(c)

    def test_gate_on_consumed_label(self):
        c = Circuit(
            ctx(q=QUBIT),
            (GateApp(EMPTY_ASSIGNMENT, "Meas", LabelVal("q"), LabelVal("b")),
             GateApp(EMPTY_ASSIGNMENT, "H", LabelVal("q"), LabelVal("q1"))),
        )
        with pytest.raises(UnboundLabel):
            check_signature(c)

    def test_conditional_gate_consumes_only_on_branches(self):
        c = Circuit(
            ctx(b=BIT, q=QUBIT),
            (LiftInstr(EMPTY_ASSIGNMENT, "b", "u"),
             GateApp(a(u=1), "Meas", LabelVal("q"), LabelVal("m"))),
        )
        sig = check_signature(c)
        assert lookup(sig.outputs, a(u=0)) == ctx(q=QUBIT)
        assert lookup(sig.outputs, a(u=1)) == ctx(m=BIT)


class TestRenameCommutes:
    def test_label_renaming_commutes_with_signature(self):
        rng = random.Random(42)
        rho = Renaming({f"w{i}": f"r{i}" for i in range(3)} | {f"f{i}": f"g{i}" for i in range(1, 30)})
        for _ in range(40):
            c = random_circuit(rng)
            sig = check_signature(c)
            lhs = check_signature(rename_circuit(c, rho))
            assert lhs == rename_signature(sig, rho)

    def test_lifted_renaming_commutes_with_signature(self):
        rng = random.Random(43)
        pi = Renaming({f"v{i}": f"n{i}" for i in range(1, 30)})
        for _ in range(40):
            c = random_circuit(rng)
            sig = check_signature(c)
            lhs = check_signature(rename_circuit(c, pi=pi))
            assert lhs == rename_signature(sig, pi=pi)


def hadamard_box() -> BoxedCircuit:
    c = Circuit(ctx(l=QUBIT), (GateApp(EMPTY_ASSIGNMENT, "H", LabelVal("l"), LabelVal("l2")),))
    return BoxedCircuit(LabelVal("l"), c, leaf(LabelVal("l2")))


def meas_lift_box() -> BoxedCircuit:
    c = Circuit(
        ctx(l=QUBIT),
        (GateApp(EMPTY_ASSIGNMENT, "Meas", LabelVal("l"), LabelVal("l2")),
         LiftInstr(EMPTY_ASSIGNMENT, "l2", "u")),
    )
    return BoxedCircuit(LabelVal("l"), c, LiftedNode("u", leaf(Unit()), leaf(Unit())))


def identity_box() -> BoxedCircuit:
    return BoxedCircuit(LabelVal("l"), Circuit(ctx(l=QUBIT)), leaf(LabelVal("l")))


class TestBoxedEquiv:
    def test_reflexive(self):
        b = meas_lift_box()
        assert boxed_equiv(b, b)

    def test_identity_boxes_with_different_labels(self):
        b1 = identity_box()
        b2 = rename_boxed(b1, Renaming({"l": "k"}))
        assert boxed_equiv(b1, b2)

    def test_lifted_variable_alpha(self):
        b1 = meas_lift_box()
        b2 = BoxedCircuit(
            b1.in_tuple,
            rename_circuit(b1.circuit, pi=Renaming({"u": "w"})),
            rename_lifted(b1.out_tuples, Renaming({"u": "w"})),
        )
        assert boxed_equiv(b1, b2)

    def test_gate_order_matters(self):
        q = ctx(l=QUBIT, k=QUBIT)
        c1 = Circuit(q, (
            GateApp(EMPTY_ASSIGNMENT, "H", LabelVal("l"), LabelVal("l2")),
            GateApp(EMPTY_ASSIGNMENT, "X", LabelVal("k"), LabelVal("k2")),
        ))
        c2 = Circuit(q, (
            GateApp(EMPTY_ASSIGNMENT, "X", LabelVal("k"), LabelVal("k2")),
            GateApp(EMPTY_ASSIGNMENT, "H", LabelVal("l"), LabelVal("l2")),
        ))
        pair = Pair(LabelVal("l"), LabelVal("k"))
        out = Pair(LabelVal("l2"), LabelVal("k2"))
        b1 = BoxedCircuit(pair, c1, leaf(out))
        b2 = BoxedCircuit(pair, c2, leaf(out))
        assert not boxed_equiv(b1, b2)

    def test_equivalence_is_symmetric_transitive(self):
        b = hadamard_box()
        b2 = rename_boxed(b, Renaming({"l": "x", "l2": "y"}))
        b3 = rename_boxed(b2, Renaming({"x": "p", "y": "q"}))
        assert boxed_equiv(b2, b)
        assert boxed_equiv(b, b3)


class TestInsert:
    def test_insert_identity_circuit(self):
        c = Circuit(ctx(q=QUBIT))
        assert insert(c, EMPTY_ASSIGNMENT, Circuit(ctx(z=QUBIT))) == c

    def test_insert_empty_on_empty(self):
        d = Circuit(EMPTY_CONTEXT, (GateApp(EMPTY_ASSIGNMENT, "Init0", Unit(), LabelVal("q")),))
        got = insert(Circuit(EMPTY_CONTEXT), EMPTY_ASSIGNMENT, d)
        assert got.instructions == d.instructions

    def test_conditions_compose(self):
        d = Circuit(ctx(q=QUBIT), (GateApp(a(s=1), "H", LabelVal("q"), LabelVal("q1")),))
        got = insert(Circuit(ctx(q=QUBIT)), a(u=0), d)
        assert got.instructions[0].cond == a(u=0, s=1)

    def test_overlapping_condition_rejected(self):
        d = Circuit(ctx(q=QUBIT), (GateApp(a(u=1), "H", LabelVal("q"), LabelVal("q1")),))
        with pytest.raises(AssignmentClash):
            insert(Circuit(ctx(q=QUBIT)), a(u=0), d)


class TestAppend:
    def test_identity_box_is_noop(self):
        c = Circuit(ctx(k=QUBIT))
        got, out = append(c, EMPTY_ASSIGNMENT, LabelVal("k"), identity_box(), [])
        assert got == c
        assert out == leaf(LabelVal("k"))

    def test_meas_lift_example(self):
        # measuring a target qubit then lifting: gains Meas and lift instructions
        c = Circuit(ctx(l=QUBIT, k=QUBIT))
        got, out = append(c, EMPTY_ASSIGNMENT, LabelVal("l"), meas_lift_box(), ["u"])
        assert len(got.instructions) == 2
        meas, lift = got.instructions
        assert meas == GateApp(EMPTY_ASSIGNMENT, "Meas", LabelVal("l"), LabelVal("%0"))
        assert lift == LiftInstr(EMPTY_ASSIGNMENT, "%0", "u")
        assert out == LiftedNode("u", leaf(Unit()), leaf(Unit()))
        sig = check_signature(got)
        assert sig.tree == LiftedNode("u", EMPTY_TREE, EMPTY_TREE)
        assert lookup(sig.outputs, a(u=0)) == ctx(k=QUBIT)

    def test_append_on_branch(self):
        c = Circuit(
            ctx(b=BIT, q=QUBIT),
            (LiftInstr(EMPTY_ASSIGNMENT, "b", "u"),),
        )
        got, out = append(c, a(u=1), LabelVal("q"), hadamard_box(), [])
        assert got.instructions[-1] == GateApp(a(u=1), "H", LabelVal("q"), LabelVal("%0"))
        assert out == leaf(LabelVal("%0"))

    def test_append_fresh_var_collision_rejected(self):
        c = Circuit(ctx(b=BIT, q=QUBIT), (LiftInstr(EMPTY_ASSIGNMENT, "b", "u"),))
        with pytest.raises(PreconditionViolated):
            append(c, a(u=1), LabelVal("q"), meas_lift_box(), ["u"])

    def test_append_nonpath_branch_rejected(self):
        c = Circuit(ctx(q=QUBIT))
        with pytest.raises(PreconditionViolated):
            append(c, a(u=1), LabelVal("q"), hadamard_box(), [])

    def test_append_missing_target_rejected(self):
        c = Circuit(ctx(q=QUBIT))
        with pytest.raises(PreconditionViolated):
            append(c, EMPTY_ASSIGNMENT, LabelVal("z"), hadamard_box(), [])

    def test_insertion_signature_property(self):
        # appending preserves signature-checkability and grafts the tree at the branch
        c = Circuit(ctx(b=BIT, q=QUBIT), (LiftInstr(EMPTY_ASSIGNMENT, "b", "w"),))
        got, out = append(c, a(w=0), LabelVal("q"), meas_lift_box(), ["u"])
        sig = check_signature(got)
        assert sig.tree == LiftedNode("w", LiftedNode("u", EMPTY_TREE, EMPTY_TREE), EMPTY_TREE)
        assert lookup(sig.outputs, a(w=0, u=0)) == EMPTY_CONTEXT
        assert lookup(sig.outputs, a(w=1)) == ctx(q=QUBIT)


class TestFreshLabels:
    def test_above_scans_counters(self):
        src = FreshLabels.above({"%3", "x", "%10"}, {"%4"})
        assert src.fresh() == "%11"

    def test_sequence(self):
        src = FreshLabels()
        assert [src.fresh() for _ in range(3)] == ["%0", "%1", "%2"]


class TestSerialization:
    def test_circuit_json_round_trip(self):
        c = teleportation_dl()
        assert circuit_from_json(circuit_to_json(c)) == c

    def test_random_circuit_json_round_trip(self):
        rng = random.Random(9)
        for _ in range(25):
            c = random_circuit(rng)
            assert circuit_from_json(circuit_to_json(c)) == c

    def test_format_mentions_conditions(self):
        text = format_circuit(teleportation_dl())
        assert "input(b0:Qubit, q0:Qubit, a0:Qubit)" in text
        assert "(s = 1) ? X(b0) -> b1" in text
        assert "(s = 0; u = 1) ? Z(b0) -> b2" in text
        assert "lift(x) => u" in text

    def test_dot_output_shape(self):
        dot = circuit_to_dot(teleportation_dl())
        assert dot.startswith("digraph circuit {")
        assert "lift => u" in dot
        assert "subgraph cluster_" in dot
        assert dot.count("->") >= 8


class TestMTuple:
    def test_shapes(self):
        assert mtuple([]) == Unit()
        assert mtuple(["a"]) == LabelVal("a")
        assert mtuple(["a", "b", "c"]) == Pair(LabelVal("a"), Pair(LabelVal("b"), LabelVal("c")))


class TestCanonicalForm:
    def test_canonical_is_fixpoint(self):
        from pqk.circuit import canonical_boxed

        for box in (hadamard_box(), meas_lift_box(), identity_box()):
            canon = canonical_boxed(box)
            assert canonical_boxed(canon) == canon


class TestAppendSignatureProperty:
    def test_random_appends_stay_well_signed(self):
        # after append, the signature exists and the returned tuples type
        # against the new outputs at every refined path (the apply case of
        # subject reduction, seen from the circuit layer)
        import random as _random

        from pqk.circuit import type_mvalue
        from pqk.trees import lookup as _lookup, path_set as _paths, var_set as _vs

        rng = _random.Random(77)
        boxes = {"had": hadamard_box(), "ml": meas_lift_box(), "id": identity_box()}
        done = 0
        while done < 60:
            c = random_circuit(rng, steps=6)
            sig = check_signature(c)
            paths = _paths(sig.tree)
            branch = rng.choice(paths)
            ctx_at = _lookup(sig.outputs, branch)
            qubits = [n for n, w in ctx_at.entries if w is QUBIT]
            if not qubits:
                continue
            target = LabelVal(rng.choice(qubits))
            name, box = rng.choice(sorted(boxes.items()))
            n_vars = len(box.binder_order())
            fresh = []
            k = 0
            while len(fresh) < n_vars:
                cand = f"ap{k}"
                k += 1
                if cand not in _vs(sig.tree, branch):
                    fresh.append(cand)
            new_c, out = append(c, branch, target, box, fresh)
            new_sig = check_signature(new_c)
            # outputs at every path refining the branch type the returned tuples
            for p in _paths(new_sig.tree):
                if not p.extends(branch):
                    continue
                sub = p
                for v, _ in branch.bindings:
                    sub = sub.without(v)
                tup = _lookup(out, sub)
                got_ctx = _lookup(new_sig.outputs, p)
                labels = set(mvalue_labels(tup))
                sub_ctx = LabelContext.of(
                    {n: w for n, w in got_ctx.entries if n in labels}
                )
                type_mvalue(sub_ctx, tup)  # raises on mismatch
            done += 1


class TestTextRoundTrip:
    def test_random_circuits_round_trip_through_text(self):
        from pqk.parser import parse_circuit_text

        rng = random.Random(15)
        for _ in range(50):
            c = random_circuit(rng)
            assert parse_circuit_text(format_circuit(c)) == c


class TestCrossBranchConsumption:
    def test_gate_needs_operand_on_every_extending_path(self):
        # q is consumed on the (u=1) branch only; an unconditional gate on q
        # afterwards must fail on that branch
        c = Circuit(
            ctx(b=BIT, q=QUBIT),
            (LiftInstr(EMPTY_ASSIGNMENT, "b", "u"),
             GateApp(a(u=1), "Meas", LabelVal("q"), LabelVal("m")),
             GateApp(EMPTY_ASSIGNMENT, "H", LabelVal("q"), LabelVal("q2"))),
        )
        with pytest.raises(UnboundLabel):
            check_signature(c)

    def test_gate_on_the_surviving_branch_is_fine(self):
        c = Circuit(
            ctx(b=BIT, q=QUBIT),
            (LiftInstr(EMPTY_ASSIGNMENT, "b", "u"),
             GateApp(a(u=1), "Meas", LabelVal("q"), LabelVal("m")),
             GateApp(a(u=0), "H", LabelVal("q"), LabelVal("q2"))),
        )
        sig = check_signature(c)
        assert lookup(sig.outputs, a(u=0)) == ctx(q2=QUBIT)
        assert lookup(sig.outputs, a(u=1)) == ctx(m=BIT)
