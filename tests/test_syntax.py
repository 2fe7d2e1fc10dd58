from __future__ import annotations

import dataclasses
import pathlib
import random

import pytest

from pqk.circuit import Circuit, GateApp, LabelContext
from pqk.errors import PqkSyntaxError
from pqk.parser import (
    boxed_from_circuit,
    parse_circuit_text,
    parse_program,
    parse_term,
    parse_type_text,
    parse_value,
    tokenize,
)
from pqk.syntax import (
    App,
    Apply,
    ArrowType,
    BangType,
    Box,
    Boxed,
    CircType,
    Force,
    Lam,
    LabelVal,
    Let,
    LetPair,
    LiftV,
    Pair,
    QUBIT,
    QUBIT_TYPE,
    BIT_TYPE,
    Return,
    TensorType,
    Term,
    UNIT_TYPE,
    Unit,
    Value,
    Var,
    children,
    format_term,
    format_type,
    format_value,
    free_labels,
    free_lifted_vars,
    free_vars,
    map_children,
    substitute,
    types_equal,
)
from pqk.trees import EMPTY_ASSIGNMENT, EMPTY_TREE, LiftedNode, leaf


def lam(x, ann, body):
    return Lam(x, ann, body)


def ret(v):
    return Return(v)


class TestParseBasics:
    def test_return_unit(self):
        assert parse_term("return *") == Return(Unit())

    def test_let_case(self):
        src = "let x = return * in case u { 0 => return x | 1 => return * }"
        t = parse_term(src)
        assert isinstance(t, Let)
        assert t.branches == LiftedNode("u", leaf(Return(Var("x"))), leaf(Return(Unit())))

    def test_letpair(self):
        t = parse_term("let (x, y) = (*, *) in return (x, y)")
        assert isinstance(t, LetPair)
        assert t.value == Pair(Unit(), Unit())

    def test_lambda_value(self):
        v = parse_value("fun (x : Qubit) -> return x")
        assert v == Lam("x", QUBIT_TYPE, Return(Var("x")))

    def test_application(self):
        t = parse_term("(fun (x : Unit) -> return x) *")
        assert isinstance(t, App)

    def test_apply_with_vars(self):
        t = parse_term("apply[u, s](f, (a, b))")
        assert t == Apply(("u", "s"), Var("f"), Pair(Var("a"), Var("b")))

    def test_box(self):
        t = parse_term("box[Qubit] (lift return fun (x : Qubit) -> return x)")
        assert isinstance(t, Box)
        assert isinstance(t.value, LiftV)

    def test_force(self):
        t = parse_term("force (lift return *)")
        assert t == Force(LiftV(Return(Unit())))

    def test_bare_value_is_not_a_term(self):
        with pytest.raises(PqkSyntaxError):
            parse_term("let x = return * in x")

    def test_syntax_error_has_position(self):
        with pytest.raises(PqkSyntaxError) as err:
            parse_term("let x = = in return *")
        assert err.value.line == 1
        assert err.value.col > 0

    @pytest.mark.parametrize("src, line, col", [
        ("// comment\nreturn $", 2, 8),
        ("return *\n\n\n  @", 4, 3),
        ("return\t#", 1, 8),
    ])
    def test_unexpected_character_position(self, src, line, col):
        with pytest.raises(PqkSyntaxError, match="unexpected character") as err:
            parse_term(src)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize("src, line, col", [
        ("let x = return * in", 1, 20),
        ("let x = return * in\n  ", 2, 3),
        ("apply(f", 1, 8),
    ])
    def test_end_of_input_position(self, src, line, col):
        with pytest.raises(PqkSyntaxError, match="expected") as err:
            parse_term(src)
        assert (err.value.line, err.value.col) == (line, col)

    def test_first_token_positions_of_a_program(self):
        src = (pathlib.Path(__file__).resolve().parent.parent / "programs" / "teleport_box.pqk").read_text()
        got = [(t.kind, t.text, t.line, t.col) for t in tokenize(src)[:6]]
        assert got == [
            ("ident", "circuit", 3, 1), ("ident", "CNOTC", 3, 9), ("sym", "=", 3, 15),
            ("ident", "crl", 3, 17), ("sym", "{", 3, 21), ("ident", "input", 3, 23),
        ]

    def test_when_sugar(self):
        t = parse_term("let x = return * in when u = 1 do apply(f, y)")
        assert t.branches == LiftedNode(
            "u", leaf(Return(Var("y"))), leaf(Apply((), Var("f"), Var("y")))
        )

    def test_when_sugar_zero_branch(self):
        t = parse_term("let x = return * in when u = 0 do apply(f, y)")
        assert t.branches == LiftedNode(
            "u", leaf(Apply((), Var("f"), Var("y"))), leaf(Return(Var("y")))
        )

    def test_when_sugar_rejects_non_application(self):
        with pytest.raises(PqkSyntaxError):
            parse_term("let x = return * in when u = 1 do return *")

    def test_comments(self):
        assert parse_term("// c\nreturn * // trailing") == Return(Unit())


class TestParseTypes:
    def test_atoms(self):
        assert parse_type_text("Unit") == UNIT_TYPE
        assert parse_type_text("Bit") == BIT_TYPE
        assert parse_type_text("Qubit") == QUBIT_TYPE

    def test_arrow_with_lifted_codomain(self):
        t = parse_type_text("Qubit -o <u ? Qubit | Bit>")
        assert t == ArrowType(QUBIT_TYPE, LiftedNode("u", leaf(QUBIT_TYPE), leaf(BIT_TYPE)))

    def test_arrow_annotation_checked(self):
        t = parse_type_text("Qubit -o[<u ? _ | _>] <u ? Qubit | Bit>")
        assert isinstance(t, ArrowType)
        with pytest.raises(PqkSyntaxError):
            parse_type_text("Qubit -o[<s ? _ | _>] <u ? Qubit | Bit>")

    def test_bang(self):
        t = parse_type_text("!(Qubit -o Qubit)")
        assert isinstance(t, BangType)
        t2 = parse_type_text("!<u ? Unit | Unit>")
        assert t2 == BangType(LiftedNode("u", leaf(UNIT_TYPE), leaf(UNIT_TYPE)))

    def test_circ(self):
        t = parse_type_text("Circ[<u ? _ | _>](Qubit, <u ? Unit | Unit>)")
        assert isinstance(t, CircType)
        assert t.tree == LiftedNode("u", EMPTY_TREE, EMPTY_TREE)

    def test_circ_shape_mismatch(self):
        with pytest.raises(PqkSyntaxError):
            parse_type_text("Circ[_](Qubit, <u ? Unit | Unit>)")

    def test_tensor_right_assoc(self):
        t = parse_type_text("Qubit * Bit * Unit")
        assert t == TensorType(QUBIT_TYPE, TensorType(BIT_TYPE, UNIT_TYPE))


class TestCircuitDefs:
    def test_circuit_constant_resolution(self):
        prog = parse_program(
            "circuit HAD = crl { input(l:Qubit); H(l) -> l2; }\n"
            "apply(HAD, q)"
        )
        t = prog.main
        assert isinstance(t, Apply)
        assert isinstance(t.boxed, Boxed)
        assert "HAD" in prog.circuits

    def test_shadowed_constant_stays_a_variable(self):
        prog = parse_program(
            "circuit HAD = crl { input(l:Qubit); H(l) -> l2; }\n"
            "(fun (HAD : Qubit) -> return HAD) q"
        )
        body = prog.main.fn.body
        assert body == Return(Var("HAD"))

    def test_binder_shadows_only_its_own_constant(self):
        prog = parse_program(
            "circuit HAD = crl { input(l:Qubit); H(l) -> l2; }\n"
            "circuit XG = crl { input(l:Qubit); X(l) -> l2; }\n"
            "let (HAD, k) = p in apply(XG, HAD)"
        )
        body = prog.main.body
        assert body.arg == Var("HAD")
        assert body.boxed == Boxed(prog.circuits["XG"])

    def test_inline_crl_literal(self):
        t = parse_term("apply(crl { input(l:Qubit); H(l) -> l2; }, q)")
        assert isinstance(t.boxed, Boxed)

    def test_bad_circuit_literal(self):
        with pytest.raises(PqkSyntaxError):
            parse_term("apply(crl { input(l:Qubit); H(l) -> l; }, q)")


RESOLVE_HEADER = (
    "circuit HAD = crl { input(l:Qubit); H(l) -> l2; }\n"
    "circuit ML = crl { input(l:Qubit); Meas(l) -> b; lift(b) => u; }\n"
)


class TestParseTimeResolution:
    """A constant's name resolves while parsing, unless a binder in scope shadows it."""

    def parse(self, src):
        prog = parse_program(RESOLVE_HEADER + src)
        return prog.main, Boxed(prog.circuits["HAD"]), Boxed(prog.circuits["ML"])

    def test_rebound_by_let(self):
        # the binder scopes over the branches, not over the bound term
        t, had, _ = self.parse("let HAD = apply(HAD, q) in return HAD")
        assert t == Let("HAD", Apply((), had, Var("q")), leaf(Return(Var("HAD"))))

    def test_rebound_by_pair_destructor(self):
        t, had, _ = self.parse("let (HAD, k) = (HAD, q) in apply(HAD, k)")
        assert t == LetPair("HAD", "k", Pair(had, Var("q")), Apply((), Var("HAD"), Var("k")))

    def test_rebound_by_lambda_and_used_after_its_scope(self):
        t, had, _ = self.parse("(fun (HAD : Qubit) -> return HAD) HAD")
        assert t == App(lam("HAD", QUBIT_TYPE, ret(Var("HAD"))), had)

    def test_used_after_a_let_scope_ends(self):
        t, had, _ = self.parse("let x = (let HAD = return q in return HAD) in apply(HAD, x)")
        inner = Let("HAD", Return(Var("q")), leaf(Return(Var("HAD"))))
        assert t == Let("x", inner, leaf(Apply((), had, Var("x"))))

    def test_both_case_arms(self):
        t, had, ml = self.parse(
            "let x = apply[u](ML, q) in"
            " case u { 0 => apply(HAD, x) | 1 => let HAD = return x in return HAD }"
        )
        arms = LiftedNode(
            "u",
            leaf(Apply((), had, Var("x"))),
            leaf(Let("HAD", Return(Var("x")), leaf(Return(Var("HAD"))))),
        )
        assert t == Let("x", Apply(("u",), ml, Var("q")), arms)

    def test_under_when(self):
        t, had, ml = self.parse("let x = apply[u](ML, q) in when u = 1 do apply(HAD, x)")
        arms = LiftedNode("u", leaf(Return(Var("x"))), leaf(Apply((), had, Var("x"))))
        assert t == Let("x", Apply(("u",), ml, Var("q")), arms)
        t, _, _ = self.parse("let x = apply[u](ML, q) in when u = 0 do (fun (HAD : Qubit) -> return HAD) x")
        shadowed = App(lam("HAD", QUBIT_TYPE, ret(Var("HAD"))), Var("x"))
        assert t.branches == LiftedNode("u", leaf(shadowed), leaf(Return(Var("x"))))

    def test_uses_share_one_boxed_circuit(self):
        prog = parse_program(RESOLVE_HEADER + "let x = apply(HAD, q) in apply(HAD, x)")
        first, second = prog.main.bound.boxed, prog.main.branches.value.boxed
        assert first is second
        assert first.boxed is prog.circuits["HAD"]


class TestFreeNames:
    def test_free_labels(self):
        assert free_labels(LabelVal("l")) == {"l"}
        boxed = boxed_from_circuit(
            Circuit(LabelContext.of({"l": QUBIT}),
                    (GateApp(EMPTY_ASSIGNMENT, "H", LabelVal("l"), LabelVal("k")),))
        )
        assert free_labels(Boxed(boxed)) == frozenset()

    def test_free_vars_through_binders(self):
        t = parse_term("let x = return y in return (x, z)")
        assert free_vars(t) == {"y", "z"}

    def test_free_lifted_vars_of_apply(self):
        t = parse_term("apply[v1](f, x)")
        assert "v1" in free_lifted_vars(t)

    def test_case_tree_vars_are_free(self):
        t = parse_term("let x = return * in case u { 0 => return x | 1 => return x }")
        assert "u" in free_lifted_vars(t)

    def test_free_lifted_vars_of_fun_annotation(self):
        # the lifted codomain of a binder's annotation names u freely
        t = parse_term("(fun (f : Qubit -o <u ? Qubit | Bit>) -> return *) *")
        assert free_lifted_vars(t) == {"u"}
        assert free_vars(t) == frozenset()


class TestSubstitution:
    def test_var_hit(self):
        assert substitute(Var("x"), Unit(), "x") == Unit()

    def test_var_miss(self):
        assert substitute(Var("y"), Unit(), "x") == Var("y")

    def test_shadowing_lambda(self):
        v = lam("x", QUBIT_TYPE, ret(Var("x")))
        assert substitute(v, Unit(), "x") == v

    def test_boxed_transparent(self):
        b = Boxed(boxed_from_circuit(Circuit(LabelContext.of({"l": QUBIT}))))
        assert substitute(b, Unit(), "x") == b

    def test_capture_avoided(self):
        # substituting a value mentioning y under a y-binder must freshen the binder
        m = lam("y", QUBIT_TYPE, ret(Pair(Var("x"), Var("y"))))
        out = substitute(m, Var("y"), "x")
        assert isinstance(out, Lam)
        assert out.var != "y"
        assert free_vars(out) == {"y"}

    def test_capture_avoided_under_let(self):
        # fresh names are drawn from the bound term first, then for the let's
        # binder, then from the branches
        m = parse_term(
            "let y = (fun (y : Unit) -> return (x, y)) x in"
            " case u { 0 => (fun (y : Unit) -> return (x, y)) y | 1 => return (x, y) }"
        )
        out = substitute(m, Var("y"), "x")
        assert format_term(out) == (
            "let y_2 = (fun (y_1 : Unit) -> return (y, y_1)) y in"
            " case u { 0 => (fun (y_3 : Unit) -> return (y, y_3)) y_2 | 1 => return (y, y_2) }"
        )

    def test_capture_avoided_under_both_pair_binders(self):
        m = parse_term("let (a, b) = (x, *) in return ((x, a), b)")
        out = substitute(m, Pair(Var("a"), Var("b")), "x")
        assert format_term(out) == "let (a_1, b_1) = ((a, b), *) in return (((a, b), a_1), b_1)"

    def test_pair_binder_freshening_order(self):
        # body first, then the two binders, then the destructured value
        m = parse_term("let (a, b) = (fun (a : Unit) -> return (x, a), x) in (fun (b : Unit) -> return (x, b)) a")
        out = substitute(m, Pair(Var("a"), Var("b")), "x")
        assert format_term(out) == (
            "let (a_1, b_2) = (fun (a_2 : Unit) -> return ((a, b), a_2), (a, b)) in"
            " (fun (b_1 : Unit) -> return ((a, b), b_1)) a_1"
        )

    def test_free_vars_contract(self):
        rng = random.Random(13)
        for _ in range(50):
            m = random_ast(rng, 3)
            fv = sorted(free_vars(m))
            if not fv:
                continue
            x = rng.choice(fv)
            out = substitute(m, Var("fresh_z"), x)
            assert free_vars(out) <= (free_vars(m) - {x}) | {"fresh_z"}


def _concrete_subclasses(base):
    out = set()
    for sub in base.__subclasses__():
        out.add(sub)
        out |= _concrete_subclasses(sub)
    return out


class TestChildren:
    # one instance of every constructor, each with all its subterm fields filled
    SAMPLES = {
        Unit: Unit(),
        Var: Var("x"),
        LabelVal: LabelVal("l"),
        Lam: parse_value("fun (x : Qubit -o <u ? Qubit | Bit>) -> return x"),
        LiftV: parse_value("lift return *"),
        Boxed: Boxed(boxed_from_circuit(Circuit(LabelContext.of({"l": QUBIT})))),
        Pair: parse_value("(x, l)"),
        App: parse_term("f x"),
        Let: parse_term("let x = return * in case s { 0 => return x | 1 => case u { 0 => return * | 1 => f x } }"),
        LetPair: parse_term("let (x, y) = z in return (y, x)"),
        Force: parse_term("force f"),
        Box: parse_term("box[Qubit] f"),
        Apply: parse_term("apply[u](f, x)"),
        Return: parse_term("return x"),
    }

    def test_every_constructor_has_a_sample(self):
        assert set(self.SAMPLES) == _concrete_subclasses(Term) | _concrete_subclasses(Value)

    @pytest.mark.parametrize("cls", sorted(SAMPLES, key=lambda c: c.__name__))
    def test_children_and_map_children_agree(self, cls):
        x = self.SAMPLES[cls]
        assert map_children(x, lambda y: y) == x
        seen = []
        map_children(x, lambda y: seen.append(y) or y)
        assert sorted(map(repr, seen)) == sorted(map(repr, children(x)))
        # f's results take the children's places; binders and annotations stay
        stub = lambda y: Return(Unit()) if isinstance(y, Term) else Unit()
        mapped = map_children(x, stub)
        assert list(children(mapped)) == [stub(y) for y in children(x)]
        kids = {id(y) for y in children(x)}
        for f in dataclasses.fields(x):
            old = getattr(x, f.name)
            if f.name == "branches":
                assert mapped.branches.tree() == old.tree()
            elif id(old) not in kids:
                assert getattr(mapped, f.name) == old, f.name

    def test_let_children_list_branches_in_path_order(self):
        m = parse_term("let x = f * in case u { 0 => return x | 1 => case s { 0 => return * | 1 => f x } }")
        assert [format_term(y) for y in children(m)] == ["f *", "return *", "f x", "return x"]


class TestAlphaEquiv:
    """Types are equal up to renaming of the lifted variables that a Circ
    type abstracts; terms compare by ==."""

    def test_circ_types_up_to_renaming(self):
        a = parse_type_text("Circ[<u ? _ | _>](Qubit, <u ? Unit | Unit>)")
        b = parse_type_text("Circ[<s ? _ | _>](Qubit, <s ? Unit | Unit>)")
        assert types_equal(a, b)

    def test_arrow_codomain_vars_are_free(self):
        a = parse_type_text("Qubit -o <u ? Qubit | Bit>")
        b = parse_type_text("Qubit -o <s ? Qubit | Bit>")
        assert not types_equal(a, b)

    def test_preserved_by_substitution(self):
        m1 = parse_term("let x = return z in return x")
        m2 = parse_term("let y = return z in return y")
        assert substitute(m1, Unit(), "z") == parse_term("let x = return * in return x")
        assert substitute(m2, Unit(), "z") == parse_term("let y = return * in return y")


def random_ast(rng: random.Random, depth: int):
    """Random well-formed (not necessarily well-typed) terms in surface syntax."""
    vars_pool = ["x", "y", "z", "w"]
    lifted_pool = ["u", "s", "v1"]

    def value(d):
        k = rng.randrange(6 if d > 0 else 3)
        if k == 0:
            return Unit()
        if k == 1:
            return Var(rng.choice(vars_pool))
        if k == 2:
            return Pair(value(d - 1), value(d - 1)) if d > 0 else Unit()
        if k == 3:
            return Lam(rng.choice(vars_pool), random_type(rng, d - 1), term(d - 1))
        if k == 4:
            return LiftV(term(d - 1))
        return Pair(value(d - 1), value(d - 1))

    def term(d):
        if d <= 0:
            return Return(value(0))
        k = rng.randrange(7)
        if k == 0:
            return Return(value(d - 1))
        if k == 1:
            return App(value(d - 1), value(d - 1))
        if k == 2:
            var = rng.choice(lifted_pool)
            branches = LiftedNode(var, leaf(term(d - 1)), leaf(term(d - 1)))
            if rng.random() < 0.5:
                branches = leaf(term(d - 1))
            return Let(rng.choice(vars_pool), term(d - 1), branches)
        if k == 3:
            return LetPair("x", "y", value(d - 1), term(d - 1))
        if k == 4:
            return Force(value(d - 1))
        if k == 5:
            return Box(QUBIT_TYPE, value(d - 1))
        return Apply(tuple(rng.sample(lifted_pool, rng.randrange(2))), value(d - 1), value(d - 1))

    return term(depth)


def random_type(rng: random.Random, depth: int):
    if depth <= 0:
        return rng.choice([UNIT_TYPE, BIT_TYPE, QUBIT_TYPE])
    k = rng.randrange(4)
    if k == 0:
        return TensorType(random_type(rng, depth - 1), random_type(rng, depth - 1))
    if k == 1:
        return ArrowType(random_type(rng, depth - 1), leaf(random_type(rng, depth - 1)))
    if k == 2:
        return BangType(leaf(random_type(rng, depth - 1)))
    return rng.choice([UNIT_TYPE, BIT_TYPE, QUBIT_TYPE])


class TestRoundTrip:
    def test_random_terms_round_trip(self):
        rng = random.Random(21)
        for _ in range(300):
            m = random_ast(rng, 4)
            text = format_term(m)
            again = parse_term(text)
            assert again == m, text

    def test_random_types_round_trip(self):
        rng = random.Random(22)
        for _ in range(200):
            t = random_type(rng, 3)
            assert parse_type_text(format_type(t)) == t

    def test_fixture_programs_round_trip(self):
        programs = pathlib.Path(__file__).resolve().parent.parent / "programs"
        for path in sorted(programs.glob("*.pqk")):
            if "bad" in path.name:
                continue
            main = parse_program(path.read_text()).main
            if isinstance(main, (Var, Unit, Pair, Lam, LiftV, Boxed, LabelVal)):
                text = format_value(main)
                assert parse_program(text).main == main
            else:
                text = format_term(main)
                assert parse_program(text).main == main

    def test_crl_text_round_trip(self):
        from pqk.circuit import format_circuit

        src = """
        input(b0:Qubit, q0:Qubit);
        CNOT(q0, b0) -> (q1, b1);
        Meas(q1) -> x;
        lift(x) => u;
        (u = 1) ? Z(b1) -> b2;
        """
        c = parse_circuit_text(src)
        assert parse_circuit_text(format_circuit(c)) == c
