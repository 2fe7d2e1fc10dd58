"""One lifted-object core: a lifting tree is a lifted object with empty payloads.

Also the linear branch-independence check, the single evaluation per fuzz
program, and the structured name of an unbound-variable error.
"""

from __future__ import annotations

import random

import pytest

import pqk.fuzz
from pqk.errors import KIND_NON_PARAMETER_UNDER_LIFT, KIND_UNBOUND_VAR, TypeCheckError, VariableClash
from pqk.fuzz import FuzzReport, GenConfig, check_progress, check_sr, count_lifting_applies, gen_corpus, run_fuzz
from pqk.interp import EvalEnv, FuelExhausted, run_closed
from pqk.parser import parse_program
from pqk.syntax import QUBIT_TYPE, LiftV, Return, Var
from pqk.trees import (
    EMPTY_TREE,
    Assignment,
    LiftedLeaf,
    LiftedNode,
    all_vars,
    graft,
    leaf,
    lifted_to_json,
)
from pqk.typecheck import EMPTY_TYPING_CONTEXT, TypingContext, type_value

from oracles import assignment_set, random_lifted, random_tree

POOL = ["u", "s", "w", "v"]


def walked_vars(t) -> frozenset[str]:
    if isinstance(t, LiftedLeaf):
        return frozenset()
    return frozenset({t.var}) | walked_vars(t.zero) | walked_vars(t.one)


class TestOneRepresentation:
    def test_tree_names_are_the_lifted_classes(self):
        assert EMPTY_TREE == LiftedLeaf(None)
        assert str(EMPTY_TREE) == "_"
        assert str(LiftedNode("u", EMPTY_TREE, EMPTY_TREE)) == "<u ? _ | _>"
        assert lifted_to_json(EMPTY_TREE, lambda _: None) == {"leaf": None}

    def test_tree_is_shape_with_empty_payloads(self):
        obj = LiftedNode("u", leaf(1), LiftedNode("s", leaf(2), leaf(3)))
        assert obj.tree() == LiftedNode("u", EMPTY_TREE, LiftedNode("s", EMPTY_TREE, EMPTY_TREE))

    def test_stored_var_set_equals_walk(self):
        rng = random.Random(21)
        for _ in range(300):
            t = random_tree(rng, POOL, 4)
            obj = random_lifted(rng, POOL, 4, lambda r: r.randrange(10))
            assert all_vars(t) == walked_vars(t)
            assert all_vars(obj) == walked_vars(obj)
            assert all_vars(obj.tree()) == all_vars(obj)

    def test_stored_var_set_outside_equality_and_repr(self):
        a = LiftedNode("u", leaf(1), leaf(2))
        b = LiftedNode("u", leaf(1), leaf(2))
        assert a == b and hash(a) == hash(b)
        assert "_vars" not in repr(a)

    def test_payload_node_rejects_variable_below(self):
        with pytest.raises(VariableClash):
            LiftedNode("u", leaf("x"), LiftedNode("s", leaf("y"), LiftedNode("u", leaf(1), leaf(2))))
        with pytest.raises(VariableClash):
            LiftedNode("u", LiftedNode("u", leaf("x"), leaf("y")), leaf("z"))

    def test_graft_on_object_has_graft_on_tree_as_shape(self):
        rng = random.Random(22)
        count = 0
        while count < 300:
            obj = random_lifted(rng, POOL, 3, lambda r: r.randrange(10))
            cond = rng.choice(sorted(assignment_set(obj.tree()), key=str))
            r = random_tree(rng, ["z1", "z2", "u"], 2)
            try:
                got = graft(obj, cond, r)
            except VariableClash:
                with pytest.raises(VariableClash):
                    graft(obj.tree(), cond, r)
                continue
            assert got.tree() == graft(obj.tree(), cond, r)
            count += 1


def h_chain(n: int) -> str:
    lines = ["circuit INIT = crl { input(); Init0() -> q; }",
             "circuit HAD = crl { input(l:Qubit); H(l) -> l2; }",
             "let q = apply(INIT, *) in"]
    lines += ["let q = apply(HAD, q) in"] * n
    lines.append("return q")
    return "\n".join(lines)


def extends_calls(n: int, monkeypatch) -> int:
    main = parse_program(h_chain(n)).main
    calls = [0]
    original = Assignment.extends

    def counted(self, other):
        calls[0] += 1
        return original(self, other)

    with monkeypatch.context() as m:
        m.setattr(Assignment, "extends", counted)
        outcome = run_closed(main)
    assert not isinstance(outcome, FuelExhausted)
    assert outcome.config.circuit.instructions
    return calls[0]


def test_branch_independence_check_is_linear(monkeypatch):
    at_40 = extends_calls(40, monkeypatch)
    at_80 = extends_calls(80, monkeypatch)
    assert at_80 <= 2.2 * at_40


class TestRunFuzzOnce:
    def per_program(self, cfg: GenConfig, count: int, fuel: int) -> FuzzReport:
        sr, progress, exhausted = [], [], 0
        corpus = gen_corpus(cfg, count)
        for term in corpus:
            outcome = run_closed(term, EvalEnv(fuel=fuel))
            exhausted += isinstance(outcome, FuelExhausted)
            f = check_sr(term, fuel)
            if f:
                sr.append(f)
            f = check_progress(term, fuel)
            if f:
                progress.append(f)
        with_lifts = sum(1 for t in corpus if count_lifting_applies(t) > 0)
        return FuzzReport(count, sr, progress, exhausted, with_lifts / count)

    @pytest.mark.parametrize("fuel", [10**6, 10])
    def test_one_evaluation_per_program_same_report(self, fuel, monkeypatch):
        cfg = GenConfig(seed=3, max_depth=5)
        calls = [0]
        original = pqk.fuzz.run_closed

        def counted(term, env=None):
            calls[0] += 1
            return original(term, env)

        with monkeypatch.context() as m:
            m.setattr(pqk.fuzz, "run_closed", counted)
            report = run_fuzz(cfg, 20, fuel=fuel)
        assert calls[0] == 20
        if fuel == 10:
            assert report.fuel_exhausted > 0
        assert report == self.per_program(cfg, 20, fuel)


class TestUnboundVarName:
    def test_error_carries_name(self):
        with pytest.raises(TypeCheckError) as err:
            type_value(EMPTY_TYPING_CONTEXT, Var("x"))
        assert err.value.kind == KIND_UNBOUND_VAR
        assert err.value.name == "x"

    def test_lift_reads_name_not_message(self):
        ctx = TypingContext.of({"x": QUBIT_TYPE})
        with pytest.raises(TypeCheckError) as err:
            type_value(ctx, LiftV(Return(Var("x"))))
        assert err.value.kind == KIND_NON_PARAMETER_UNDER_LIFT
        assert "linear variable x" in err.value.message
        # an unbound name that is not a linear variable stays UnboundVar
        with pytest.raises(TypeCheckError) as err:
            type_value(ctx, LiftV(Return(Var("y"))))
        assert err.value.kind == KIND_UNBOUND_VAR
        assert err.value.name == "y"
