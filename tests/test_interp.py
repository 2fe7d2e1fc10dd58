from __future__ import annotations

import pathlib

import pytest

from pqk.circuit import (
    Circuit,
    LiftInstr,
    LabelContext,
    QUBIT,
    boxed_equiv,
    check_signature,
    format_circuit,
)
from pqk.interp import (
    DEFAULT_FUEL,
    Done,
    EvalEnv,
    FuelExhausted,
    LeftConfig,
    Stuck,
    eval_config,
    run_closed,
)
from pqk.parser import boxed_from_circuit, parse_circuit_text, parse_program
from pqk.syntax import Boxed, LabelVal, Force, Return, Unit, format_lifted_value, substitute
from pqk.trees import EMPTY_ASSIGNMENT, Assignment, LiftedNode, EMPTY_TREE, leaf, lookup, path_set
from pqk.typecheck import check_closed_term, typecheck_closed_right_config

from mutants import skip_let_flatten

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"


def a(**kw):
    return Assignment.of(**kw)


def load(name: str):
    return parse_program((PROGRAMS / name).read_text()).main


class TestBasics:
    def test_return_value(self):
        out = run_closed(Return(Unit()))
        assert isinstance(out, Done)
        assert out.config.circuit == Circuit(LabelContext())
        assert out.config.value == leaf(Unit())

    def test_force_unit_is_stuck(self):
        out = run_closed(Force(Unit()))
        assert isinstance(out, Stuck)
        assert out.reason == "ForceNonLift"

    def test_fuel_zero(self):
        out = run_closed(Return(Unit()), EvalEnv(fuel=0))
        assert isinstance(out, FuelExhausted)


class TestExampleLet:
    def make_term(self):
        src = """
        circuit HAD = crl { input(l:Qubit); H(l) -> l2; }
        circuit ML = crl { input(l:Qubit); Meas(l) -> l2; lift(l2) => u; }
        let _ = apply[u](ML, l) in
        when u = 1 do apply(HAD, k)
        """
        term = parse_program(src).main
        term = substitute(term, LabelVal("l"), "l")
        return substitute(term, LabelVal("k"), "k")

    def test_circuit_and_value(self):
        circuit = Circuit(LabelContext.of({"l": QUBIT, "k": QUBIT}))
        out = eval_config(LeftConfig(circuit, EMPTY_ASSIGNMENT, self.make_term()), EvalEnv())
        assert isinstance(out, Done)
        instrs = out.config.circuit.instructions
        assert [type(i).__name__ for i in instrs] == ["GateApp", "LiftInstr", "GateApp"]
        meas, lift, had = instrs
        assert meas.gate == "Meas" and meas.inputs == LabelVal("l")
        assert lift.var == "u"
        assert had.gate == "H" and had.cond == a(u=1) and had.inputs == LabelVal("k")
        # value: k untouched on the 0 branch, the fresh H output on the 1 branch
        assert lookup(out.config.value, a(u=0)) == LabelVal("k")
        assert lookup(out.config.value, a(u=1)) == LabelVal(had.outputs.name)


class TestGoldenCircuits:
    def test_alice_box(self):
        out = run_closed(load("alice_box.pqk"))
        assert isinstance(out, Done)
        val = lookup(out.config.value, EMPTY_ASSIGNMENT)
        assert isinstance(val, Boxed)
        golden = boxed_from_circuit(parse_circuit_text("""
            input(q0:Qubit, a0:Qubit);
            CNOT(q0, a0) -> (q1, a1);
            H(q1) -> q2;
            Meas2(q2, a1) -> (x, y);
        """))
        assert boxed_equiv(val.boxed, golden)

    def test_teleport_box(self):
        out = run_closed(load("teleport_box.pqk"))
        assert isinstance(out, Done)
        val = lookup(out.config.value, EMPTY_ASSIGNMENT)
        golden = boxed_from_circuit(parse_circuit_text("""
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
        assert boxed_equiv(val.boxed, golden)

    def test_one_way_run(self):
        out = run_closed(load("one_way_run.pqk"))
        assert isinstance(out, Done)
        sig = check_signature(out.config.circuit)
        assert sig.tree == LiftedNode("u", EMPTY_TREE, EMPTY_TREE)
        assert set(path_set(out.config.value)) == {a(u=0), a(u=1)}


class TestEvalProperties:
    def test_determinism(self):
        term = load("teleport_box.pqk")
        out1 = run_closed(term, EvalEnv())
        out2 = run_closed(term, EvalEnv())
        assert out1 == out2
        assert format_circuit(out1.config.circuit) == format_circuit(out2.config.circuit)

    def test_fuel_monotonicity(self):
        term = load("one_way_run.pqk")
        baseline = None
        needed = None
        for fuel in range(0, 60):
            out = run_closed(term, EvalEnv(fuel=fuel))
            if isinstance(out, Done):
                needed = fuel
                baseline = out
                break
        assert baseline is not None
        for fuel in (needed + 1, needed + 7, DEFAULT_FUEL):
            again = run_closed(term, EvalEnv(fuel=fuel))
            assert again == baseline

    def test_circuit_growth_is_prefix(self):
        term = self_measuring_term()
        start = Circuit(LabelContext.of({"l": QUBIT, "k": QUBIT}))
        out = eval_config(LeftConfig(start, EMPTY_ASSIGNMENT, term), EvalEnv())
        assert isinstance(out, Done)
        got = out.config.circuit
        assert got.input == start.input
        assert got.instructions[: len(start.instructions)] == start.instructions

    def test_subject_reduction_on_fixtures(self):
        for name in ("alice_box.pqk", "teleport_box.pqk", "one_way_run.pqk", "measure_when.pqk"):
            term = load(name)
            expected = check_closed_term(term)
            out = run_closed(term)
            assert isinstance(out, Done), name
            report = typecheck_closed_right_config(out.config.circuit, out.config.value, expected)
            assert report.ok, (name, report.failures)

    def test_mutated_let_breaks_subject_reduction(self, monkeypatch):
        term = load("measure_when.pqk")
        expected = check_closed_term(term)
        skip_let_flatten(monkeypatch)
        out = run_closed(term, EvalEnv())
        assert isinstance(out, Done)
        report = typecheck_closed_right_config(out.config.circuit, out.config.value, expected)
        assert not report.ok


def self_measuring_term():
    src = """
    circuit ML = crl { input(l:Qubit); Meas(l) -> l2; lift(l2) => u; }
    circuit MEAS = crl { input(l:Qubit); Meas(l) -> l2; }
    let _ = apply[u](ML, l) in
    case u { 0 => apply(MEAS, k) | 1 => apply(MEAS, k) }
    """
    term = parse_program(src).main
    term = substitute(term, LabelVal("l"), "l")
    return substitute(term, LabelVal("k"), "k")


class TestFreshLabels:
    def test_shapes(self):
        from pqk.syntax import UNIT_TYPE, QUBIT_TYPE, BIT_TYPE, TensorType, Pair
        from pqk.interp import EvalEnv, freshlabels

        env = EvalEnv()
        q, v = freshlabels(env, UNIT_TYPE)
        assert not q and v == Unit()
        q, v = freshlabels(env, QUBIT_TYPE)
        assert v == LabelVal("%0") and q.get("%0") is not None
        q, v = freshlabels(env, TensorType(QUBIT_TYPE, BIT_TYPE))
        assert v == Pair(LabelVal("%1"), LabelVal("%2"))
        assert [n for n, _ in q.entries] == ["%1", "%2"]


class TestBinderOrderAgreement:
    # lift order and name order disagree; typing and append must still agree
    SRC = """
    circuit WEIRD = crl {
      input(l1:Qubit, l2:Qubit);
      Meas2(l1,l2) -> (b1,b2);
      lift(b1) => z;
      lift(b2) => a;
    }
    circuit INIT = crl { input(); Init0() -> q; }
    circuit MEAS = crl { input(l:Qubit); Meas(l) -> l2; }

    let q1 = apply(INIT, *) in
    let q2 = apply(INIT, *) in
    let k = apply(INIT, *) in
    let _ = apply[p, w](WEIRD, (q1, q2)) in
    case w {
      0 => case p { 0 => apply(MEAS, k) | 1 => apply(MEAS, k) }
    | 1 => case p { 0 => apply(MEAS, k) | 1 => apply(MEAS, k) }
    }
    """

    def test_subject_reduction_with_unsorted_lift_order(self):
        term = parse_program(self.SRC).main
        expected = check_closed_term(term)
        # sorted binders [a, z] bind positionally to [p, w]: first lift -> w
        assert expected.tree == LiftedNode(
            "w",
            LiftedNode("p", EMPTY_TREE, EMPTY_TREE),
            LiftedNode("p", EMPTY_TREE, EMPTY_TREE),
        )
        out = run_closed(term)
        assert isinstance(out, Done)
        report = typecheck_closed_right_config(out.config.circuit, out.config.value, expected)
        assert report.ok, report.failures
        lift_vars = [ins.var for ins in out.config.circuit.instructions
                     if isinstance(ins, LiftInstr)]
        assert lift_vars == ["w", "p"]


class TestOneWayBoxed:
    # boxing a wrapper that applies the one-way function to its tuple
    # components produces the conditional-measurement circuit itself
    SRC = """
    circuit HAD = crl { input(l:Qubit); H(l) -> l2; }
    circuit ML = crl { input(l:Qubit); Meas(l) -> l2; lift(l2) => u; }
    circuit MEAS = crl { input(l:Qubit); Meas(l) -> l2; }

    box[Qubit * Qubit] (lift return fun (p : Qubit * Qubit) ->
      let (q, a) = p in
      let f = (fun (q : Qubit) ->
        return fun (a : Qubit) ->
          let q = apply(HAD, q) in
          let _ = apply[u](ML, q) in
          case u { 0 => return a | 1 => apply(MEAS, a) }) q in
      f a)
    """

    def test_box_produces_one_way_circuit(self):
        out = run_closed(parse_program(self.SRC).main)
        assert isinstance(out, Done)
        val = lookup(out.config.value, EMPTY_ASSIGNMENT)
        assert isinstance(val, Boxed)
        golden = boxed_from_circuit(parse_circuit_text("""
            input(q0:Qubit, a0:Qubit);
            H(q0) -> q1;
            Meas(q1) -> x;
            lift(x) => u;
            (u = 1) ? Meas(a0) -> m;
        """))
        assert boxed_equiv(val.boxed, golden)
