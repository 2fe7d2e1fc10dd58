"""The path-free lifted-object operations.

`update_under` against the map-view oracle, the one-walk `flatten_family` and
`graft` against their compose-based definitions, and a deterministic guard
that signature checking enumerates no path set.
"""

from __future__ import annotations

import pathlib
import random
import sys
from collections import Counter

import pytest

import pqk.circuit
import pqk.trees
from pqk.circuit import check_signature
from pqk.errors import InvalidBranch, VariableClash, WrongWireType
from pqk.interp import Done, EvalEnv, run_closed
from pqk.parser import parse_circuit_text, parse_program
from pqk.trees import (
    Assignment,
    LiftedNode,
    Sub,
    compose,
    const,
    flatten,
    flatten_family,
    graft,
    is_consistent,
    leaf,
    lookup,
    node,
    path_set,
    to_map,
    update_under,
)
from pqk.typecheck import check_closed_term

from oracles import extending_paths, random_lifted, random_tree

POOL = ["u", "s", "w", "v", "u2"]
PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"


def random_cond(rng: random.Random) -> Assignment:
    """A condition over the pool: it may bind variables that some paths, or
    the whole tree, never bind."""
    names = rng.sample(POOL + ["z"], rng.randrange(4))
    return Assignment.of({v: rng.randrange(2) for v in names})


def update_map(obj, cond, fn):
    """update_under on the map view: each path extending cond is replaced by
    the paths of fn's result, appended to it."""
    out = {}
    for p, value in to_map(obj).items():
        if p.extends(cond):
            for q, w in to_map(fn(p, value)).items():
                out[p.union(q)] = w
        else:
            out[p] = value
    return out


def replacement(rng: random.Random):
    """A random fn for update_under: a new leaf, or a fresh node over two leaves."""
    if rng.random() < 0.5:
        return lambda p, v: leaf((str(p), v))
    return lambda p, v: node("fresh", leaf(v), leaf(str(p)))


class TestUpdateUnder:
    def test_matches_map_oracle(self):
        rng = random.Random(7)
        for _ in range(600):
            obj = random_lifted(rng, POOL, 4, lambda r: r.randrange(10))
            cond = random_cond(rng)
            fn = replacement(rng)
            assert to_map(update_under(obj, cond, fn)) == update_map(obj, cond, fn)

    def test_variable_missing_from_some_paths(self):
        # s is bound under u = 0 only: the leaf at (u = 1) does not extend (s = 1)
        obj = node("u", node("s", leaf("a"), leaf("b")), leaf("c"))
        got = update_under(obj, Assignment.of(s=1), lambda p, v: leaf(v.upper()))
        assert to_map(got) == {
            Assignment.of(u=0, s=0): "a",
            Assignment.of(u=0, s=1): "B",
            Assignment.of(u=1): "c",
        }

    def test_fn_called_once_per_extending_leaf(self):
        rng = random.Random(11)
        for _ in range(400):
            obj = random_lifted(rng, POOL, 4, lambda r: r.randrange(10))
            cond = random_cond(rng)
            calls = []
            update_under(obj, cond, lambda p, v: calls.append((p, v)) or leaf(v))
            want = [(p, v) for p, v in to_map(obj).items() if p.extends(cond)]
            assert Counter(calls) == Counter(want)

    def test_untouched_subtrees_are_shared(self):
        rng = random.Random(13)

        def check(orig, new, prefix, cond):
            below = [p for p in to_map(orig) if Assignment.of(dict(prefix) | dict(p.bindings)).extends(cond)]
            if not below:
                assert new is orig
            elif isinstance(orig, LiftedNode):
                assert isinstance(new, LiftedNode) and new.var == orig.var
                check(orig.zero, new.zero, prefix + [(orig.var, 0)], cond)
                check(orig.one, new.one, prefix + [(orig.var, 1)], cond)

        for _ in range(300):
            obj = random_lifted(rng, POOL, 4, lambda r: r.randrange(10))
            cond = random_cond(rng)
            check(obj, update_under(obj, cond, lambda p, v: leaf(-1)), [], cond)

    def test_no_extending_leaf_returns_obj(self):
        obj = node("u", leaf(0), leaf(1))
        assert update_under(obj, Assignment.of(s=0), lambda p, v: leaf(9)) is obj


# ---------------------------------------------------------------------------
# flatten_family and graft against their compose-based definitions


class TestIsConsistent:
    def test_matches_path_set_oracle(self):
        rng = random.Random(17)
        verdicts = Counter()
        for _ in range(3000):
            t = random_tree(rng, POOL, 4)
            if rng.random() < 0.5:
                # a restriction of a path, with one bit flipped now and then
                bindings = [b for b in rng.choice(path_set(t)).bindings if rng.random() < 0.7]
                if bindings and rng.random() < 0.3:
                    i = rng.randrange(len(bindings))
                    bindings[i] = (bindings[i][0], 1 - bindings[i][1])
                cond = Assignment.of(bindings)
            else:
                cond = random_cond(rng)
            want = any(p.extends(cond) for p in path_set(t))
            assert is_consistent(t, cond) == want, (t, cond)
            verdicts[want] += 1
        assert min(verdicts[True], verdicts[False]) > 500


def old_flatten_family(obj, family):
    return flatten(compose(obj, {a: Sub(sub) for a, sub in family.items()}, family.keys()))


def old_graft(obj, a, r):
    return old_flatten_family(obj, {p: const(r, lookup(obj, p)) for p in extending_paths(obj, a)})


def outcome(f, *args):
    try:
        return f(*args)
    except (InvalidBranch, VariableClash) as exc:
        return type(exc)


class TestAgainstComposeDefinitions:
    def test_flatten_family(self):
        rng = random.Random(17)
        clashes = 0
        for _ in range(600):
            obj = random_lifted(rng, POOL, 3, lambda r: r.randrange(10))
            paths = path_set(obj)
            keys = rng.sample(paths, rng.randrange(len(paths) + 1))
            family = {p: random_lifted(rng, ["u", "z1", "z2"], 2, lambda r: r.randrange(10)) for p in keys}
            want = outcome(old_flatten_family, obj, family)
            clashes += want is VariableClash
            assert outcome(flatten_family, obj, family) == want
        assert clashes > 0

    def test_flatten_family_non_path_key(self):
        obj = node("u", leaf(0), leaf(1))
        family = {Assignment.of(u=0, s=1): leaf(5)}
        assert outcome(flatten_family, obj, family) is InvalidBranch
        assert outcome(old_flatten_family, obj, family) is InvalidBranch

    def test_flatten_family_unfolds_existing_subs(self):
        obj = node("u", leaf(Sub(node("s", leaf(1), leaf(2)))), leaf(3))
        family = {Assignment.of(u=1): node("w", leaf(4), leaf(5))}
        assert flatten_family(obj, family) == old_flatten_family(obj, family)

    def test_graft(self):
        rng = random.Random(19)
        outcomes = Counter()
        for _ in range(600):
            obj = random_lifted(rng, POOL, 3, lambda r: r.randrange(10))
            cond = random_cond(rng)
            r = random_tree(rng, ["u", "z1"], 2)
            want = outcome(old_graft, obj, cond, r)
            outcomes[want if isinstance(want, type) else "ok"] += 1
            assert outcome(graft, obj, cond, r) == want
        assert set(outcomes) == {"ok", InvalidBranch, VariableClash}


# ---------------------------------------------------------------------------
# Signature work follows the touched branches


HEADER = """circuit INIT = crl { input(); Init0() -> q; }
circuit HAD = crl { input(l:Qubit); H(l) -> l2; }
circuit XG = crl { input(l:Qubit); X(l) -> l2; }
circuit ML = crl { input(l:Qubit); Meas(l) -> l2; lift(l2) => u; }
"""


def lifts_program(k: int) -> str:
    """k sequential measure-and-lift steps, the rest of the program in both arms."""

    def steps(i: int) -> str:
        if i > k:
            return "return c"
        rest = steps(i + 1)
        return (f"let q = apply(INIT, *) in let q = apply(HAD, q) in let _ = apply[u{i}](ML, q) in\n"
                f"case u{i} {{ 0 => {rest} | 1 => let c = apply(XG, c) in {rest} }}")

    return HEADER + "let c = apply(INIT, *) in\n" + steps(1)


class TestSixLifts:
    def test_signature_steps_enumerate_no_path_set(self, monkeypatch):
        original_path_set = pqk.trees.path_set
        original_extend = pqk.circuit.extend_signature
        inside = [0]
        calls_inside = [0]

        def counting_path_set(t):
            calls_inside[0] += inside[0] > 0
            return original_path_set(t)

        def tracked_extend(*args, **kwargs):
            inside[0] += 1
            try:
                return original_extend(*args, **kwargs)
            finally:
                inside[0] -= 1

        # every pqk module name bound to path_set, so an import of it counts too
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "pqk" and getattr(module, "path_set", None) is original_path_set:
                monkeypatch.setattr(module, "path_set", counting_path_set)
        monkeypatch.setattr(pqk.circuit, "extend_signature", tracked_extend)
        program = parse_program(lifts_program(6))
        out = run_closed(program.main, EvalEnv())
        assert isinstance(out, Done)
        assert len(check_signature(out.config.circuit).tree.paths()) == 64
        assert calls_inside[0] == 0

    def test_parses_checks_and_runs_with_64_paths(self):
        text = lifts_program(6)
        program = parse_program(text)
        assert program.main == parse_program((PROGRAMS / "six_lifts.pqk").read_text()).main
        typing = check_closed_term(program.main)
        assert len(path_set(typing.tree)) == 64
        out = run_closed(program.main, EvalEnv())
        assert isinstance(out, Done)
        sig = check_signature(out.config.circuit)
        assert sig.tree == typing.tree
        assert len(out.config.value.paths()) == 64
        assert len(out.config.circuit.instructions) == 316


def test_error_names_first_bad_branch_in_tree_order():
    # w is the root; a is bound under w = 1 only.  The canonical path order
    # puts (a = 0; w = 1) first, the tree order (w = 0).
    c = parse_circuit_text("""
        input(x:Qubit, y:Qubit, r:Qubit);
        Meas(x) -> bx; lift(bx) => w;
        (w = 1) ? Meas(y) -> by; (w = 1) ? lift(by) => a;
        Discard(r) -> *;
    """)
    with pytest.raises(WrongWireType, match=r"branch \(w = 0\)"):
        check_signature(c)
