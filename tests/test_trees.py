from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqk.errors import AssignmentClash, InvalidBranch, VariableClash
from pqk.trees import (
    EMPTY_ASSIGNMENT,
    EMPTY_TREE,
    Assignment,
    LiftedLeaf,
    LiftedNode,
    Renaming,
    Sub,
    all_vars,
    compose,
    flatten,
    flatten_family,
    from_map,
    graft,
    is_consistent,
    leaf,
    lifted_from_json,
    lifted_to_json,
    lookup,
    path_set,
    rename_lifted,
    to_map,
    var_set,
    var_sort_key,
)

from oracles import assignment_set, compose_map, extending_paths, flatten_map, graft_map, random_lifted, random_tree


def a(**kw):
    return Assignment.of(**kw)


U_S = LiftedNode("u", LiftedNode("s", EMPTY_TREE, EMPTY_TREE), EMPTY_TREE)
U_ONLY = LiftedNode("u", EMPTY_TREE, EMPTY_TREE)


class TestAssignment:
    def test_canonical_order(self):
        assert a(u=0, s=1).bindings == (("s", 1), ("u", 0))
        assert Assignment.of({"u2": 0, "u10": 1}).bindings == (("u2", 0), ("u10", 1))

    def test_union_disjoint(self):
        assert a(u=0).union(a(s=1)) == a(u=0, s=1)

    def test_union_clash(self):
        with pytest.raises(AssignmentClash):
            a(u=0).union(a(u=1))

    def test_extends(self):
        assert a(u=0, s=1).extends(a(u=0))
        assert a(u=0, s=1).extends(EMPTY_ASSIGNMENT)
        assert not a(u=0).extends(a(u=1))
        assert not a(u=0).extends(a(s=0))

    def test_sort_key_numeric_suffix(self):
        names = ["u10", "u2", "s", "u"]
        assert sorted(names, key=var_sort_key) == ["s", "u", "u2", "u10"]


class TestTreeWellFormedness:
    def test_node_var_in_subtree_rejected(self):
        with pytest.raises(VariableClash):
            LiftedNode("u", LiftedNode("u", EMPTY_TREE, EMPTY_TREE), EMPTY_TREE)

    def test_shared_var_across_siblings_ok(self):
        t = LiftedNode("u", LiftedNode("s", EMPTY_TREE, EMPTY_TREE), LiftedNode("s", EMPTY_TREE, EMPTY_TREE))
        assert all_vars(t) == {"u", "s"}


class TestVarSet:
    def test_leaf_is_empty(self):
        assert var_set(EMPTY_TREE, a(u=1)) == frozenset()

    def test_two_level_tree_all_vars(self):
        assert var_set(U_S, EMPTY_ASSIGNMENT) == {"u", "s"}

    def test_branch_selects_subtree(self):
        assert var_set(U_S, a(u=1)) == {"u"}
        assert var_set(U_S, a(u=0)) == {"u", "s"}


class TestAssignmentSet:
    def test_leaf(self):
        assert assignment_set(EMPTY_TREE) == {EMPTY_ASSIGNMENT}

    def test_single_node(self):
        assert assignment_set(U_ONLY) == {EMPTY_ASSIGNMENT, a(u=0), a(u=1)}

    def test_two_level(self):
        got = assignment_set(U_S)
        expected = {
            EMPTY_ASSIGNMENT,
            a(u=0), a(u=1), a(s=0), a(s=1),
            a(u=0, s=0), a(u=0, s=1),
        }
        assert got == expected

    def test_maximal_elements_are_paths(self):
        got = assignment_set(U_S)
        maximal = {
            x for x in got
            if not any(y != x and y.extends(x) for y in got)
        }
        assert maximal == set(path_set(U_S))


class TestPathSet:
    def test_leaf(self):
        assert path_set(EMPTY_TREE) == [EMPTY_ASSIGNMENT]

    def test_three_paths_of_skewed_tree(self):
        assert set(path_set(U_S)) == {a(u=0, s=0), a(u=0, s=1), a(u=1)}

    def test_single_node(self):
        assert path_set(U_ONLY) == [a(u=0), a(u=1)]

    def test_path_domains_equal_var_set(self):
        for p in path_set(U_S):
            assert p.domain() == var_set(U_S, p)


class TestConsistency:
    def test_extending_paths(self):
        assert set(extending_paths(U_S, a(u=0))) == {a(u=0, s=0), a(u=0, s=1)}
        assert extending_paths(U_S, EMPTY_ASSIGNMENT) == path_set(U_S)
        assert extending_paths(U_ONLY, a(u=1)) == [a(u=1)]

    def test_inconsistent_assignment_rejected(self):
        with pytest.raises(InvalidBranch):
            extending_paths(U_S, a(u=1, s=0))
        with pytest.raises(InvalidBranch):
            extending_paths(U_ONLY, a(w=0))


class TestCompose:
    def setup_method(self):
        # overwrite one leaf of <u ? <s ? q0 | c1> | c2>
        self.delta = LiftedNode(
            "u",
            LiftedNode("s", leaf("q0:Qubit"), leaf("c1:Bit")),
            leaf("c2:Bit"),
        )

    def test_single_leaf_overwrite(self):
        got = compose(self.delta, {a(u=0, s=0): "c0:Bit"}, [a(u=0, s=0)])
        assert got == LiftedNode(
            "u",
            LiftedNode("s", leaf("c0:Bit"), leaf("c1:Bit")),
            leaf("c2:Bit"),
        )

    def test_empty_index_is_identity(self):
        assert compose(self.delta, {}, []) == self.delta

    def test_full_overwrite_reads_back(self):
        family = {p: ("new", p) for p in path_set(self.delta)}
        got = compose(self.delta, family, family.keys())
        for p in path_set(self.delta):
            assert lookup(got, p) == ("new", p)

    def test_non_path_index_rejected(self):
        with pytest.raises(InvalidBranch):
            compose(self.delta, {a(u=0): "x"}, [a(u=0)])


class TestFlatten:
    def test_all_plain_is_identity(self):
        obj = LiftedNode("u", leaf(1), leaf(2))
        assert flatten(obj) == obj

    def test_tagged_leaf_unfolds_into_subtree(self):
        # <u ? <s ? c0 | c1> | sub(<s ? c2 | c3>)>  flattens to the four-leaf tree
        inner = LiftedNode("s", leaf("c2"), leaf("c3"))
        obj = LiftedNode("u", LiftedNode("s", leaf("c0"), leaf("c1")), leaf(Sub(inner)))
        got = flatten(obj)
        assert got == LiftedNode(
            "u",
            LiftedNode("s", leaf("c0"), leaf("c1")),
            LiftedNode("s", leaf("c2"), leaf("c3")),
        )
        assert got.tree() == LiftedNode(
            "u",
            LiftedNode("s", EMPTY_TREE, EMPTY_TREE),
            LiftedNode("s", EMPTY_TREE, EMPTY_TREE),
        )

    def test_variable_clash_rejected(self):
        inner = LiftedNode("u", leaf(1), leaf(2))
        obj = LiftedNode("u", leaf(Sub(inner)), leaf(3))
        with pytest.raises(VariableClash):
            flatten(obj)


class TestGraft:
    def test_graft_on_empty_tree(self):
        r = LiftedNode("s", EMPTY_TREE, EMPTY_TREE)
        assert graft(EMPTY_TREE, EMPTY_ASSIGNMENT, r) == r

    def test_graft_empty_subtree_is_identity(self):
        assert graft(U_ONLY, a(u=1), EMPTY_TREE) == U_ONLY

    def test_graft_one_branch(self):
        r = LiftedNode("s", EMPTY_TREE, EMPTY_TREE)
        assert graft(U_ONLY, a(u=1), r) == LiftedNode("u", EMPTY_TREE, r)

    def test_graft_partial_assignment_hits_all_extending_paths(self):
        r = LiftedNode("w", EMPTY_TREE, EMPTY_TREE)
        got = graft(U_S, a(u=0), r)
        assert got == LiftedNode("u", LiftedNode("s", r, r), EMPTY_TREE)

    def test_graft_obj_duplicates_payload(self):
        obj = LiftedNode("u", leaf("x"), leaf("y"))
        r = LiftedNode("s", EMPTY_TREE, EMPTY_TREE)
        got = graft(obj, a(u=1), r)
        assert got == LiftedNode("u", leaf("x"), LiftedNode("s", leaf("y"), leaf("y")))


class TestRenaming:
    def test_identity(self):
        pi = Renaming({})
        assert rename_lifted(U_S, pi) == U_S

    def test_single_swap(self):
        pi = Renaming({"u": "s2"})
        assert rename_lifted(U_ONLY, pi) == LiftedNode("s2", EMPTY_TREE, EMPTY_TREE)

    def test_round_trip_random(self):
        rng = random.Random(7)
        pool = ["u", "s", "w", "v1", "v2"]
        for _ in range(50):
            t = random_tree(rng, pool, 4)
            pi = Renaming({"u": "x1", "s": "x2", "w": "x3"})
            assert rename_lifted(rename_lifted(t, pi), pi.inverse()) == t

    def test_var_set_commutes_with_renaming(self):
        rng = random.Random(11)
        pool = ["u", "s", "w"]
        pi = Renaming({"u": "a1", "s": "b1", "w": "c1"})
        for _ in range(50):
            t = random_tree(rng, pool, 3)
            for p in path_set(t):
                lhs = var_set(rename_lifted(t, pi), p.rename(pi))
                rhs = frozenset(pi(v) for v in var_set(t, p))
                assert lhs == rhs

    def test_non_injective_rejected(self):
        with pytest.raises(ValueError):
            Renaming({"u": "x", "s": "x"})


class TestMapViewOracle:
    POOL = ["u", "s", "w", "v"]

    def test_compose_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(300):
            obj = random_lifted(rng, self.POOL, 4, lambda r: r.randrange(100))
            ps = path_set(obj)
            index = [p for p in ps if rng.random() < 0.5]
            family = {p: rng.randrange(1000) for p in index}
            got = compose(obj, family, index)
            assert to_map(got) == compose_map(to_map(obj), family, index)
            assert got.tree() == obj.tree()

    def test_flatten_matches_oracle(self):
        rng = random.Random(4)
        count = 0
        while count < 300:
            obj = random_lifted(rng, self.POOL, 3, lambda r: r.randrange(100))
            sub_pool = ["z1", "z2"] + self.POOL[:2]
            family = {}
            for p in path_set(obj):
                if rng.random() < 0.6:
                    family[p] = random_lifted(rng, sub_pool, 2, lambda r: r.randrange(100))
            tagged = compose(obj, {p: Sub(s) for p, s in family.items()}, family.keys())
            try:
                expected = flatten_map(tagged)
            except AssertionError:
                with pytest.raises(VariableClash):
                    flatten(tagged)
                continue
            got = flatten(tagged)
            assert to_map(got) == expected
            count += 1

    def test_graft_matches_oracle(self):
        rng = random.Random(5)
        count = 0
        while count < 300:
            t = random_tree(rng, self.POOL, 3)
            aset = sorted(assignment_set(t), key=str)
            cond = rng.choice(aset)
            r = random_tree(rng, ["z1", "z2", "u"], 2)
            try:
                expected = graft_map(t, cond, r)
            except AssertionError:
                with pytest.raises(VariableClash):
                    graft(t, cond, r)
                continue
            got = graft(t, cond, r)
            assert set(path_set(got)) == expected
            count += 1

    def test_from_map_round_trip(self):
        rng = random.Random(6)
        for _ in range(100):
            obj = random_lifted(rng, self.POOL, 4, lambda r: r.randrange(100))
            assert from_map(obj.tree(), to_map(obj)) == obj


class TestFlattenFamily:
    def test_let_shape(self):
        obj = LiftedNode("u", leaf("a"), leaf("b"))
        fam = {
            a(u=0): leaf("a'"),
            a(u=1): LiftedNode("s", leaf("b0"), leaf("b1")),
        }
        got = flatten_family(obj, fam)
        assert got == LiftedNode("u", leaf("a'"), LiftedNode("s", leaf("b0"), leaf("b1")))

    def test_tree_family(self):
        fam = {
            a(u=0): EMPTY_TREE,
            a(u=1): LiftedNode("s", EMPTY_TREE, EMPTY_TREE),
        }
        assert flatten_family(U_ONLY, fam) == LiftedNode(
            "u", EMPTY_TREE, LiftedNode("s", EMPTY_TREE, EMPTY_TREE)
        )


class TestJson:
    def test_tree_round_trip(self):
        for t in (EMPTY_TREE, U_ONLY, U_S):
            assert lifted_from_json(lifted_to_json(t, lambda _: None), lambda _: None) == t

    def test_lifted_round_trip(self):
        obj = LiftedNode("u", leaf(3), LiftedNode("s", leaf(1), leaf(2)))
        data = lifted_to_json(obj, lambda x: x)
        assert lifted_from_json(data, lambda x: x) == obj


names = st.sampled_from(["u", "s", "w", "v", "u1", "u2"])


@st.composite
def trees(draw, max_depth=4):
    def build(pool, depth):
        if depth == 0 or not pool or draw(st.booleans()):
            return EMPTY_TREE
        var = draw(st.sampled_from(sorted(pool)))
        rest = pool - {var}
        return LiftedNode(var, build(rest, depth - 1), build(rest, depth - 1))

    pool = frozenset(draw(st.sets(names, min_size=1, max_size=5)))
    return build(pool, max_depth)


@settings(max_examples=200, deadline=None)
@given(trees())
def test_path_count_equals_leaf_count(t):
    def count_leaves(t):
        if isinstance(t, LiftedLeaf):
            return 1
        return count_leaves(t.zero) + count_leaves(t.one)

    assert len(path_set(t)) == count_leaves(t)


@settings(max_examples=200, deadline=None)
@given(trees(max_depth=3))
def test_paths_are_maximal_consistent(t):
    ps = set(path_set(t))
    aset = assignment_set(t)
    assert ps <= aset
    for p in ps:
        assert p.domain() == var_set(t, p)
        assert is_consistent(t, p)
    maximal = {x for x in aset if not any(y != x and y.extends(x) for y in aset)}
    assert maximal == ps
