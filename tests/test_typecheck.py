from __future__ import annotations

import pathlib

import pytest

from pqk.circuit import (
    Circuit,
    GateApp,
    LabelContext,
    mtuple,
    type_mvalue,
)
from pqk.errors import (
    KIND_BRANCH_ARITY,
    KIND_FLATTEN_CLASH,
    KIND_LEFTOVER_LINEAR,
    KIND_LIFTED_VAR_NOT_FRESH,
    KIND_LINEARITY,
    KIND_NON_PARAMETER_UNDER_LIFT,
    KIND_TYPE_MISMATCH,
    KIND_UNBOUND_VAR,
    TypeCheckError,
)
from pqk.parser import boxed_from_circuit, parse_program, parse_term, parse_type_text
from pqk.syntax import (
    Apply,
    BangType,
    BIT,
    BIT_TYPE,
    Boxed,
    LabelVal,
    Lam,
    LiftV,
    Pair,
    QUBIT,
    QUBIT_TYPE,
    Return,
    Term,
    Unit,
    UNIT_TYPE,
    Var,
    types_equal,
)
from pqk.trees import EMPTY_ASSIGNMENT, EMPTY_TREE, Assignment, LiftedNode, leaf, lookup
from pqk.typecheck import (
    Checker,
    ComputationTyping,
    EMPTY_TYPING_CONTEXT,
    TypingContext,
    check_closed_term,
    check_closed_value,
    type_term,
    type_value,
)

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"


def a(**kw):
    return Assignment.of(**kw)


def ctx(vars=None, labels=None):
    return TypingContext.of(vars, LabelContext.of(labels or {}))


class TestValues:
    def test_var(self):
        ty, leftover = type_value(ctx({"x": QUBIT_TYPE}), Var("x"))
        assert ty == QUBIT_TYPE
        assert leftover.vars == ()

    def test_label(self):
        ty, leftover = type_value(ctx(labels={"l": QUBIT}), LabelVal("l"))
        assert ty == QUBIT_TYPE
        assert not leftover.labels

    def test_unit(self):
        ty, leftover = type_value(EMPTY_TYPING_CONTEXT, Unit())
        assert ty == UNIT_TYPE

    def test_lift_of_return_unit(self):
        ty = check_closed_value(LiftV(Return(Unit())))
        assert ty == BangType(leaf(UNIT_TYPE))

    def test_unbound_var(self):
        with pytest.raises(TypeCheckError) as err:
            type_value(EMPTY_TYPING_CONTEXT, Var("x"))
        assert err.value.kind == KIND_UNBOUND_VAR

    def test_linear_var_used_twice(self):
        with pytest.raises(TypeCheckError) as err:
            type_value(ctx({"x": QUBIT_TYPE}), Pair(Var("x"), Var("x")))
        assert err.value.kind == KIND_LINEARITY

    def test_duplicable_parameter(self):
        b = BangType(leaf(UNIT_TYPE))
        ty, leftover = type_value(ctx({"x": b}), Pair(Var("x"), Var("x")))
        assert leftover.get("x") == b

    def test_lambda_must_consume_linear_binder(self):
        with pytest.raises(TypeCheckError) as err:
            check_closed_value(Lam("x", QUBIT_TYPE, Return(Unit())))
        assert err.value.kind == KIND_LEFTOVER_LINEAR

    def test_lift_rejects_linear_capture(self):
        with pytest.raises(TypeCheckError) as err:
            type_value(ctx({"x": QUBIT_TYPE}), LiftV(Return(Var("x"))))
        assert err.value.kind == KIND_NON_PARAMETER_UNDER_LIFT

    def test_lift_rejects_labels(self):
        with pytest.raises(TypeCheckError) as err:
            type_value(ctx(labels={"l": QUBIT}), LiftV(Return(LabelVal("l"))))
        assert err.value.kind == KIND_NON_PARAMETER_UNDER_LIFT


class TestParameterWeakening:
    def test_extra_parameter_vars_change_nothing(self):
        term = parse_term("return *")
        plain = type_term(EMPTY_TYPING_CONTEXT, term)[0]
        widened = type_term(ctx({"p": BangType(leaf(UNIT_TYPE))}), term)[0]
        assert plain == widened


FIXTURE_HEADER = """
circuit HAD = crl { input(l:Qubit); H(l) -> l2; }
circuit ML = crl { input(l:Qubit); Meas(l) -> l2; lift(l2) => u; }
circuit MEAS = crl { input(l:Qubit); Meas(l) -> l2; }
circuit MEASD2 = crl { input(l:Qubit); Meas(l) -> b; Discard(b) -> *; }
circuit INIT = crl { input(); Init0() -> q; }
"""


def parse_fixture(body: str):
    return parse_program(FIXTURE_HEADER + body).main


class TestTerms:
    def test_return_unit(self):
        result, leftover = type_term(EMPTY_TYPING_CONTEXT, Return(Unit()))
        assert result == ComputationTyping(leaf(UNIT_TYPE))

    def test_one_way_golden_type(self):
        src = (PROGRAMS / "one_way.pqk").read_text()
        main = parse_program(src).main
        got = check_closed_value(main)
        expected = parse_type_text("Qubit -o Qubit -o <u ? Qubit | Bit>")
        assert got == expected
        # and up to alpha on the lifted variable
        renamed = parse_type_text("Qubit -o Qubit -o <w ? Qubit | Bit>")
        assert not types_equal(got, renamed)

    def test_example_let_program(self):
        # under a label context {k:Qubit}: measure-lift a fresh qubit, H on k when u=1
        body = parse_fixture(
            "let q = apply(INIT, *) in\n"
            "let _ = apply[u](ML, q) in\n"
            "case u { 0 => return k | 1 => apply(HAD, k) }"
        )
        from pqk.syntax import substitute

        term = substitute(body, LabelVal("k"), "k")
        result, leftover = type_term(ctx(labels={"k": QUBIT}), term)
        assert result.tree == LiftedNode("u", EMPTY_TREE, EMPTY_TREE)
        assert result.type == LiftedNode("u", leaf(QUBIT_TYPE), leaf(QUBIT_TYPE))
        assert not leftover.labels

    def test_apply_renaming_coherence(self):
        # the computation's tree and type are the Circ annotation renamed
        term = parse_fixture("apply[w](ML, q)")
        from pqk.syntax import substitute

        term = substitute(term, LabelVal("q"), "q")
        result, _ = type_term(ctx(labels={"q": QUBIT}), term)
        assert result.tree == LiftedNode("w", EMPTY_TREE, EMPTY_TREE)
        assert result.type == LiftedNode("w", leaf(UNIT_TYPE), leaf(UNIT_TYPE))

    def test_apply_wrong_var_count(self):
        term = parse_fixture("apply(ML, q)")
        from pqk.syntax import substitute

        term = substitute(term, LabelVal("q"), "q")
        with pytest.raises(TypeCheckError) as err:
            type_term(ctx(labels={"q": QUBIT}), term)
        assert err.value.kind == KIND_LIFTED_VAR_NOT_FRESH

    def test_apply_duplicate_vars(self):
        term = Apply(("u", "u"), Var("c"), Unit())
        circ_ty = parse_type_text("Circ[<u ? <s ? _ | _> | <s ? _ | _>>](Unit, <u ? <s ? Unit | Unit> | <s ? Unit | Unit>>)")
        with pytest.raises(TypeCheckError) as err:
            type_term(ctx({"c": circ_ty}), term)
        assert err.value.kind == KIND_LIFTED_VAR_NOT_FRESH

    def test_let_branch_arity_mismatch(self):
        term = parse_fixture(
            "let q = apply(INIT, *) in\n"
            "let _ = apply[u](ML, q) in\n"
            "return *"
        )
        with pytest.raises(TypeCheckError) as err:
            check_closed_term(term)
        assert err.value.kind == KIND_BRANCH_ARITY

    def test_let_branches_must_consume_same_resources(self):
        term = parse_fixture(
            "let q = apply(INIT, *) in\n"
            "let k = apply(INIT, *) in\n"
            "let _ = apply[u](ML, q) in\n"
            "case u { 0 => apply(MEAS, k) | 1 => return * }"
        )
        with pytest.raises(TypeCheckError) as err:
            check_closed_term(term)
        assert err.value.kind == KIND_LINEARITY

    def test_linear_duplicate_fixture_rejected(self):
        src = (PROGRAMS / "bad_dup_use.pqk").read_text()
        with pytest.raises(TypeCheckError) as err:
            check_closed_term(parse_program(src).main)
        assert err.value.kind == KIND_LINEARITY

    def test_force_strips_bang(self):
        term = parse_fixture("force (lift apply[w](ML, q))")
        # ill-typed: lift body uses a label-typed variable; embed via closed form instead
        with pytest.raises(TypeCheckError):
            check_closed_term(term)
        ok = parse_fixture("force (lift return *)")
        result, _ = type_term(EMPTY_TYPING_CONTEXT, ok)
        assert result == ComputationTyping(leaf(UNIT_TYPE))

    def test_force_restores_effect_tree(self):
        # lift a computation with a genuine lifting effect (no labels needed)
        term = parse_fixture(
            "force (lift (let q = apply(INIT, *) in let _ = apply[u](ML, q) in"
            " case u { 0 => return * | 1 => return * }))"
        )
        result = check_closed_term(term)
        assert result.tree == LiftedNode("u", EMPTY_TREE, EMPTY_TREE)

    def test_box_golden(self):
        src = (PROGRAMS / "alice_box.pqk").read_text()
        result = check_closed_term(parse_program(src).main)
        assert result.tree == EMPTY_TREE
        got = lookup(result.type, EMPTY_ASSIGNMENT)
        expected = parse_type_text("Circ[_](Qubit * Qubit, Bit * Bit)")
        assert types_equal(got, expected)

    def test_box_rejects_non_mtype_codomain(self):
        term = parse_fixture("box[Qubit] (lift return fun (x : Qubit) -> return (lift return x))")
        with pytest.raises(TypeCheckError) as err:
            check_closed_term(term)
        assert err.value.kind in (KIND_TYPE_MISMATCH, KIND_NON_PARAMETER_UNDER_LIFT)

    def test_teleport_fixture_type(self):
        src = (PROGRAMS / "teleport_box.pqk").read_text()
        result = check_closed_term(parse_program(src).main)
        got = lookup(result.type, EMPTY_ASSIGNMENT)
        expected = parse_type_text(
            "Circ[<u ? <s ? _ | _> | <s ? _ | _>>]"
            "(Qubit * Qubit * Qubit, <u ? <s ? Qubit | Qubit> | <s ? Qubit | Qubit>>)"
        )
        assert types_equal(got, expected)


class TestLiftedJudgments:
    def test_single_leaf_behaves_as_type_term(self):
        mu = leaf(Return(Unit()))
        results, leftover = Checker().check_lifted_term(EMPTY_TYPING_CONTEXT, mu)
        assert lookup(results, EMPTY_ASSIGNMENT) == ComputationTyping(leaf(UNIT_TYPE))

    def test_branch_sub_derivations_of_one_way(self):
        # the two branch continuations of the one-way program: leaf types Qubit / Bit
        meas = boxed_from_circuit(
            Circuit(LabelContext.of({"l": QUBIT}),
                    (GateApp(EMPTY_ASSIGNMENT, "Meas", LabelVal("l"), LabelVal("l2")),))
        )
        mu = LiftedNode(
            "u",
            leaf(Return(Var("a"))),
            leaf(Apply((), Boxed(meas), Var("a"))),
        )
        results, _ = Checker().check_lifted_term(ctx({"a": QUBIT_TYPE}), mu)
        zero = lookup(results, a(u=0))
        one = lookup(results, a(u=1))
        assert zero.type == leaf(QUBIT_TYPE)
        assert one.type == leaf(BIT_TYPE)

    def test_shape_mismatch(self):
        mu = leaf(Return(Unit()))
        with pytest.raises(TypeCheckError) as err:
            Checker().check_lifted_term(EMPTY_TYPING_CONTEXT, mu, expected_tree=LiftedNode("u", EMPTY_TREE, EMPTY_TREE))
        assert err.value.kind == KIND_BRANCH_ARITY


class TestMJudgmentBridge:
    def test_unit(self):
        assert type_mvalue(LabelContext(), Unit()) == UNIT_TYPE

    def test_label(self):
        assert type_mvalue(LabelContext.of({"l": BIT}), LabelVal("l")).wire == BIT

    def test_agrees_with_type_value_on_mvalues(self):
        import random

        rng = random.Random(31)
        for _ in range(200):
            n = rng.randrange(0, 4)
            labels = {f"l{i}": rng.choice([BIT, QUBIT]) for i in range(n)}
            q = LabelContext.of(labels)
            names = list(labels)
            rng.shuffle(names)
            value = mtuple(names)
            got = type_mvalue(q, value)
            ty, leftover = type_value(TypingContext(labels=q), value)
            assert types_equal(ty, got)
            assert not leftover.labels


class TestDeterminism:
    def test_same_input_same_result(self):
        src = (PROGRAMS / "teleport_box.pqk").read_text()
        term = parse_program(src).main
        r1 = check_closed_term(term)
        r2 = check_closed_term(term)
        assert r1 == r2


class TestConfigChecks:
    def test_trivial_left_config(self):
        from pqk.circuit import Circuit
        from pqk.trees import EMPTY_ASSIGNMENT, const, leaf
        from pqk.typecheck import typecheck_config
        from pqk.syntax import Return, Unit, UNIT_TYPE

        report = typecheck_config(
            Circuit(LabelContext()), EMPTY_ASSIGNMENT, Return(Unit()),
            input_ctx=LabelContext(),
            ty=leaf(UNIT_TYPE), outputs=leaf(LabelContext()),
        )
        assert report.ok, report.failures

    def test_stale_branch_fails_first_conjunct(self):
        from pqk.circuit import Circuit
        from pqk.trees import leaf
        from pqk.typecheck import typecheck_config
        from pqk.syntax import Return, Unit, UNIT_TYPE

        report = typecheck_config(
            Circuit(LabelContext()), a(u=1), Return(Unit()),
            input_ctx=LabelContext(),
            ty=leaf(UNIT_TYPE), outputs=leaf(LabelContext()),
        )
        assert not report.ok
        assert "not a path" in report.failures[0]

    def test_right_config_from_eval(self):
        from pqk.interp import Done, run_closed
        from pqk.typecheck import typecheck_closed_right_config

        term = parse_program((PROGRAMS / "measure_when.pqk").read_text()).main
        expected = check_closed_term(term)
        out = run_closed(term)
        assert isinstance(out, Done)
        report = typecheck_closed_right_config(out.config.circuit, out.config.value, expected)
        assert report.ok, report.failures

    def test_left_config_reports_term_type_mismatch(self):
        from pqk.circuit import Circuit
        from pqk.trees import EMPTY_ASSIGNMENT, leaf
        from pqk.typecheck import typecheck_config
        from pqk.syntax import Return, Unit, QUBIT_TYPE

        report = typecheck_config(
            Circuit(LabelContext()), EMPTY_ASSIGNMENT, Return(Unit()),
            input_ctx=LabelContext(),
            ty=leaf(QUBIT_TYPE), outputs=leaf(LabelContext()),
        )
        assert not report.ok


def closed_report(circuit_text, value, ty):
    from pqk.parser import parse_circuit_text
    from pqk.typecheck import typecheck_closed_right_config

    return typecheck_closed_right_config(
        parse_circuit_text(circuit_text), value, ComputationTyping(ty)
    )


def config_report(circuit_text, branch, body, ty, outputs):
    from pqk.parser import parse_circuit_text
    from pqk.typecheck import typecheck_config

    return typecheck_config(parse_circuit_text(circuit_text), branch, body, ty, outputs)


LIFT_U = "input(); Init0() -> q; Init0() -> k; Meas(q) -> b; lift(b) => u;"
K_QUBIT = LabelContext.of({"k": QUBIT})
SPLIT_UNIT = LiftedNode("u", leaf(UNIT_TYPE), leaf(UNIT_TYPE))


class TestConfigConjuncts:
    """Each conjunct of the configuration judgment fails on its own, as a
    report line and not as an exception."""

    @pytest.mark.parametrize("circuit, value, ty, text", [
        ("input(); H(q) -> q2;", leaf(Unit()), leaf(UNIT_TYPE), "circuit has no signature"),
        ("input(); Init0() -> q; Meas(q) -> b; lift(b) => u;", leaf(Unit()), leaf(UNIT_TYPE),
         "circuit tree"),
        ("input(l:Qubit);", leaf(LabelVal("l")), leaf(QUBIT_TYPE), "circuit input context mismatch"),
        ("input();", leaf(LabelVal("l")), leaf(QUBIT_TYPE), "ill-typed on branch ()"),
        ("input();", leaf(Unit()), leaf(QUBIT_TYPE), "has type Unit, expected Qubit"),
        ("input(); Init0() -> q;", leaf(Unit()), leaf(UNIT_TYPE), "does not consume its labels"),
        ("input();", leaf(Unit()), SPLIT_UNIT, "value tree _ differs from the future tree"),
    ], ids=["no-signature", "circuit-tree", "input-context", "ill-typed", "wrong-type",
            "unconsumed-labels", "value-tree"])
    def test_closed_right_config(self, circuit, value, ty, text):
        report = closed_report(circuit, value, ty)
        assert not report.ok
        assert any(text in line for line in report.failures), report.failures

    def test_branch_is_not_a_path(self):
        outputs = LiftedNode("u", leaf(K_QUBIT), leaf(K_QUBIT))
        report = config_report(LIFT_U, a(w=0), leaf(Unit()), leaf(UNIT_TYPE), outputs)
        assert not report.ok
        assert "is not a path" in report.failures[0]

    def test_term_on_a_node_of_the_past_tree(self):
        outputs = LiftedNode("u", leaf(K_QUBIT), leaf(K_QUBIT))
        report = config_report(LIFT_U, EMPTY_ASSIGNMENT, Return(Unit()), leaf(UNIT_TYPE), outputs)
        assert not report.ok
        assert "below branch ()" in report.failures[0]

    def test_future_tree_reuses_a_live_lifted_variable(self):
        outputs = LiftedNode("u", leaf(K_QUBIT), leaf(K_QUBIT))
        report = config_report(LIFT_U, a(u=0), Return(Unit()), SPLIT_UNIT, outputs)
        assert not report.ok
        assert "reuses live lifted variables" in report.failures[0]

    def test_outputs_do_not_extend_the_expected_context(self):
        report = config_report("input();", EMPTY_ASSIGNMENT, Return(Unit()), leaf(UNIT_TYPE),
                               leaf(K_QUBIT))
        assert report.failures == ["outputs at () do not extend the expected context"]

    def test_untouched_branch(self):
        # on (u = 1) the term consumes k; (u = 0) keeps it
        term = Return(LabelVal("k"))
        kept = LiftedNode("u", leaf(K_QUBIT), leaf(LabelContext()))
        assert config_report(LIFT_U, a(u=1), term, leaf(QUBIT_TYPE), kept).ok
        dropped = LiftedNode("u", leaf(LabelContext()), leaf(LabelContext()))
        report = config_report(LIFT_U, a(u=1), term, leaf(QUBIT_TYPE), dropped)
        assert report.failures == ["outputs differ on untouched branch (u = 0)"]


class TestConfigJudgmentOnRealConfigurations:
    """Every well-typed program's root left configuration and the right
    configuration its evaluation ends in are well typed."""

    @staticmethod
    def well_typed_terms():
        terms = []
        for path in sorted(PROGRAMS.glob("*.pqk")):
            main = parse_program(path.read_text()).main
            try:
                if not isinstance(main, Term):
                    continue
                check_closed_term(main)
            except TypeCheckError:
                continue
            terms.append((path.name, main))
        from pqk.fuzz import GenConfig, gen_corpus

        terms += [(f"corpus[{i}]", t) for i, t in enumerate(gen_corpus(GenConfig(seed=1), 200))]
        return terms

    def test_root_and_final_configurations(self):
        from pqk.interp import Done, run_closed
        from pqk.trees import const
        from pqk.typecheck import typecheck_config

        terms = self.well_typed_terms()
        assert len(terms) > 200
        done = 0
        for name, term in terms:
            ty = check_closed_term(term).type
            root = typecheck_config(Circuit(LabelContext()), EMPTY_ASSIGNMENT, term, ty,
                                    leaf(LabelContext()))
            assert root.ok, (name, root.failures)
            out = run_closed(term)
            if isinstance(out, Done):
                done += 1
                final = typecheck_config(out.config.circuit, EMPTY_ASSIGNMENT, out.config.value, ty,
                                         const(ty, LabelContext()))
                assert final.ok, (name, final.failures)
        assert done == len(terms)


class TestBranchVariableReuse:
    def test_reusing_a_live_lifted_var_is_a_flatten_clash(self):
        term = parse_fixture(
            "let q1 = apply(INIT, *) in\n"
            "let q2 = apply(INIT, *) in\n"
            "let _ = apply[u](ML, q1) in\n"
            "case u { 0 => let _ = apply[u](ML, q2) in"
            " case u { 0 => return * | 1 => return * }"
            " | 1 => apply(MEASD2, q2) }"
        )
        with pytest.raises(TypeCheckError) as err:
            check_closed_term(term)
        assert err.value.kind == KIND_FLATTEN_CLASH

    def test_fresh_var_in_branch_is_fine(self):
        term = parse_fixture(
            "let q1 = apply(INIT, *) in\n"
            "let q2 = apply(INIT, *) in\n"
            "let _ = apply[u](ML, q1) in\n"
            "case u { 0 => let _ = apply[w](ML, q2) in"
            " case w { 0 => return * | 1 => return * }"
            " | 1 => apply(MEASD2, q2) }"
        )
        result = check_closed_term(term)
        assert result.tree == LiftedNode(
            "u", LiftedNode("w", EMPTY_TREE, EMPTY_TREE), EMPTY_TREE
        )
