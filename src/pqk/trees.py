"""Lifted objects, lifting trees and assignments.

A lifted object records the branching structure produced by dynamic lifting
and decorates its leaves with payload values: a leaf, or a node carrying a
lifted-variable name with a zero- and a one-subtree.  A lifting tree is the
lifted object whose payloads are all None (its leaves print as ``_``), and
``tree()`` gives the shape of any lifted object, so one set of operations
serves both.  Equivalently a lifted object is a finite map from root-to-leaf
paths (assignments) to payloads: the tree form is primary, the map view
(``to_map``/``from_map``) serves as an oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping

from .errors import AssignmentClash, InvalidBranch, VariableClash

# ---------------------------------------------------------------------------
# Variable names

_NAME_RE = re.compile(r"^(.*?)(\d*)$")


@lru_cache(maxsize=None)
def var_sort_key(name: str) -> tuple[str, int, str]:
    """Total order on lifted-variable names: stem, then numeric suffix."""
    m = _NAME_RE.match(name)
    assert m is not None
    stem, digits = m.group(1), m.group(2)
    return (stem, int(digits) if digits else -1, name)


# ---------------------------------------------------------------------------
# Assignments


@dataclass(frozen=True)
class Assignment:
    """Finite partial map from lifted variables to bits, canonically sorted."""

    bindings: tuple[tuple[str, int], ...]

    @staticmethod
    def of(mapping: Mapping[str, int] | Iterable[tuple[str, int]] = (), **kw: int) -> Assignment:
        items = dict(mapping)
        items.update(kw)
        for v, b in items.items():
            if b not in (0, 1):
                raise ValueError(f"assignment binds {v} to non-bit {b!r}")
        return Assignment(tuple(sorted(items.items(), key=lambda p: var_sort_key(p[0]))))

    def domain(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.bindings)

    def get(self, var: str) -> int | None:
        for v, b in self.bindings:
            if v == var:
                return b
        return None

    def without(self, var: str) -> Assignment:
        return Assignment(tuple(p for p in self.bindings if p[0] != var))

    def union(self, other: Assignment) -> Assignment:
        overlap = self.domain() & other.domain()
        if overlap:
            raise AssignmentClash(f"assignments overlap on {sorted(overlap)}")
        return Assignment.of(dict(self.bindings) | dict(other.bindings))

    def extends(self, other: Assignment) -> bool:
        """True when self agrees with other on all of other's domain."""
        return all(self.get(v) == b for v, b in other.bindings)

    def rename(self, pi: Renaming) -> Assignment:
        return Assignment.of({pi(v): b for v, b in self.bindings})

    def __len__(self) -> int:
        return len(self.bindings)

    def __bool__(self) -> bool:
        return bool(self.bindings)

    def __str__(self) -> str:
        if not self.bindings:
            return "()"
        return "(" + "; ".join(f"{v} = {b}" for v, b in self.bindings) + ")"

    __repr__ = __str__


EMPTY_ASSIGNMENT = Assignment.of()


# ---------------------------------------------------------------------------
# Renamings (finite-support permutations of a name space)


class Renaming:
    """Finite-support permutation of names.

    Built from an injective mapping; completed to a permutation by pairing the
    unmatched values back onto the unmatched keys in sorted order (so a single
    pair u->s completes to the swap u<->s).
    """

    def __init__(self, mapping: Mapping[str, str]):
        values = list(mapping.values())
        if len(set(values)) != len(values):
            raise ValueError("renaming is not injective")
        perm = dict(mapping)
        loose_values = [v for v in values if v not in mapping]
        loose_keys = [k for k in mapping if k not in set(values)]
        for v, k in zip(sorted(loose_values, key=var_sort_key), sorted(loose_keys, key=var_sort_key)):
            perm[v] = k
        if sorted(perm) != sorted(perm.values()):
            raise ValueError("mapping does not complete to a permutation")
        self._perm = {k: v for k, v in perm.items() if k != v}

    def __call__(self, name: str) -> str:
        return self._perm.get(name, name)

    def inverse(self) -> Renaming:
        return Renaming({v: k for k, v in self._perm.items()})

    def support(self) -> frozenset[str]:
        return frozenset(self._perm)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}/{k}" for k, v in sorted(self._perm.items()))
        return f"Renaming({inner})"


IDENTITY = Renaming({})


# ---------------------------------------------------------------------------
# Lifted objects and lifting trees


class Lifted:
    """Lifting tree whose leaves carry payload values."""

    __slots__ = ()


@dataclass(frozen=True)
class LiftedLeaf(Lifted):
    value: Any

    def tree(self) -> Lifted:
        return EMPTY_TREE

    def __str__(self) -> str:
        return "_" if self.value is None else f"leaf({self.value})"

    __repr__ = __str__


@dataclass(frozen=True)
class LiftedNode(Lifted):
    var: str
    zero: Lifted
    one: Lifted
    # V(t) of this node, computed once from the subtrees' stored sets.
    _vars: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        below = all_vars(self.zero) | all_vars(self.one)
        if self.var in below:
            raise VariableClash(f"node variable {self.var} occurs in a subtree")
        object.__setattr__(self, "_vars", below | {self.var})

    def tree(self) -> Lifted:
        """The shape of this object: the same nodes with empty payloads."""
        return LiftedNode(self.var, self.zero.tree(), self.one.tree())

    def __str__(self) -> str:
        return f"<{self.var} ? {self.zero} | {self.one}>"

    __repr__ = __str__


# Old names of the two classes, kept only because bench/workloads.py imports them.
TreeLeaf = LiftedLeaf
TreeNode = LiftedNode
# A lifting tree is a lifted object whose payloads are None.
EMPTY_TREE = LiftedLeaf(None)
_NO_VARS: frozenset[str] = frozenset()


def leaf(value: Any) -> LiftedLeaf:
    return LiftedLeaf(value)


def all_vars(t: Lifted) -> frozenset[str]:
    """Every lifted variable mentioned in t (V(t))."""
    return t._vars if isinstance(t, LiftedNode) else _NO_VARS


def preorder_vars(t: Lifted) -> list[str]:
    """The distinct variables of t, in pre-order of their first occurrence."""
    order: dict[str, None] = {}

    def walk(t: Lifted):
        if isinstance(t, LiftedNode):
            order.setdefault(t.var)
            walk(t.zero)
            walk(t.one)

    walk(t)
    return list(order)


def var_set(t: Lifted, a: Assignment) -> frozenset[str]:
    """The variable set of t on branch a (V_a(t)); unknown variables in a are ignored."""
    if isinstance(t, LiftedLeaf):
        return _NO_VARS
    assert isinstance(t, LiftedNode)
    bit = a.get(t.var)
    if bit == 0:
        rest = var_set(t.zero, a)
    elif bit == 1:
        rest = var_set(t.one, a)
    else:
        rest = var_set(t.zero, a) | var_set(t.one, a)
    return frozenset({t.var}) | rest


def path_items(obj: Lifted) -> list[tuple[Assignment, Any]]:
    """(path, payload) pairs of obj in path_set order, from one walk and one sort."""
    keyed = []

    def walk(t: Lifted, trail: tuple[tuple[str, int], ...]):
        if isinstance(t, LiftedNode):
            walk(t.zero, trail + ((t.var, 0),))
            walk(t.one, trail + ((t.var, 1),))
            return
        a = _trail_path(trail)
        keyed.append((tuple((var_sort_key(v), b) for v, b in a.bindings), a, t.value))

    walk(obj, ())
    keyed.sort(key=itemgetter(0))
    return [(a, value) for _, a, value in keyed]


def _trail_path(trail: Iterable[tuple[str, int]]) -> Assignment:
    """The path spelled by a root-to-leaf trail of (variable, bit) steps."""
    return Assignment(tuple(sorted(trail, key=lambda p: var_sort_key(p[0]))))


def path_set(t: Lifted) -> list[Assignment]:
    """Root-to-leaf paths of t, in lexicographic order of canonical assignments."""
    return [a for a, _ in path_items(t)]


def is_consistent(t: Lifted, a: Assignment) -> bool:
    """a belongs to A_t, i.e. a is a restriction of some root-to-leaf path.

    One descent, pruned as in `update_under`: at a node that a binds it
    follows a's bit, elsewhere it tries both children, and it gives up on a
    subtree that lacks a still-unbound variable of a.
    """
    bits = dict(a.bindings)

    def walk(t: Lifted, unbound: frozenset[str]) -> bool:
        if not unbound:
            return True
        if not unbound <= all_vars(t):
            return False
        bit = bits.get(t.var)
        if bit is None:
            return walk(t.zero, unbound) or walk(t.one, unbound)
        return walk(t.one if bit else t.zero, unbound - {t.var})

    return walk(t, frozenset(bits))


def update_under(obj: Lifted, cond: Assignment, fn: Callable[[Assignment, Any], Lifted]) -> Lifted:
    """obj with each leaf whose path extends cond replaced by fn(path, payload).

    One descent: at a node that cond binds it follows cond's bit, elsewhere it
    visits both children.  A leaf whose path leaves some variable of cond
    unbound is kept, and every subtree without a replaced leaf is shared.
    """
    bits = dict(cond.bindings)

    def walk(t: Lifted, trail: tuple[tuple[str, int], ...], unbound: frozenset[str]) -> Lifted:
        if not unbound <= all_vars(t):
            return t  # no path below binds every variable of cond
        if isinstance(t, LiftedLeaf):
            return fn(_trail_path(trail), t.value)
        bit, rest = bits.get(t.var), unbound - {t.var}
        zero = t.zero if bit == 1 else walk(t.zero, trail + ((t.var, 0),), rest)
        one = t.one if bit == 0 else walk(t.one, trail + ((t.var, 1),), rest)
        return t if zero is t.zero and one is t.one else LiftedNode(t.var, zero, one)

    return walk(obj, (), frozenset(bits))


def subtree_at(t: Lifted, a: Assignment) -> Lifted:
    """Subtree reached by following a from the root; a must spell a node prefix."""
    if not a:
        return t
    if isinstance(t, LiftedLeaf):
        raise InvalidBranch(f"{a} descends below a leaf")
    assert isinstance(t, LiftedNode)
    bit = a.get(t.var)
    if bit is None:
        raise InvalidBranch(f"{a} does not bind {t.var}")
    return subtree_at(t.zero if bit == 0 else t.one, a.without(t.var))


def lookup(obj: Lifted, a: Assignment) -> Any:
    """Read the map view: the payload at path a."""
    bits = dict(a.bindings)
    while isinstance(obj, LiftedNode):
        bit = bits.pop(obj.var, None)
        if bit is None:
            raise InvalidBranch(f"path does not bind {obj.var}")
        obj = obj.one if bit else obj.zero
    if bits:
        raise InvalidBranch(f"{Assignment.of(bits)} leftover below a leaf")
    return obj.value


def to_map(obj: Lifted) -> dict[Assignment, Any]:
    """The lifted object as a finite map from paths to payloads."""
    return dict(path_items(obj))


def from_map(t: Lifted, mapping: Mapping[Assignment, Any]) -> Lifted:
    """Rebuild the tree form of a map view over t's shape."""
    if isinstance(t, LiftedLeaf):
        return LiftedLeaf(mapping[EMPTY_ASSIGNMENT])
    assert isinstance(t, LiftedNode)

    def restrict(bit: int) -> dict[Assignment, Any]:
        return {
            a.without(t.var): v
            for a, v in mapping.items()
            if a.get(t.var) == bit
        }

    return LiftedNode(t.var, from_map(t.zero, restrict(0)), from_map(t.one, restrict(1)))


def const(t: Lifted, value: Any) -> Lifted:
    """Lifted object over t's shape carrying the same payload at every leaf."""
    if isinstance(t, LiftedLeaf):
        return LiftedLeaf(value)
    assert isinstance(t, LiftedNode)
    return LiftedNode(t.var, const(t.zero, value), const(t.one, value))


def map_leaves(obj: Lifted, fn: Callable[[Any], Any]) -> Lifted:
    if isinstance(obj, LiftedLeaf):
        return LiftedLeaf(fn(obj.value))
    assert isinstance(obj, LiftedNode)
    return LiftedNode(obj.var, map_leaves(obj.zero, fn), map_leaves(obj.one, fn))


def leaves(obj: Lifted) -> list[Any]:
    """Payloads in path order."""
    return [value for _, value in path_items(obj)]


def rename_lifted(obj: Lifted, pi: Renaming) -> Lifted:
    """Rename node variables; leaf payloads are kept."""
    if isinstance(obj, LiftedLeaf):
        return obj
    assert isinstance(obj, LiftedNode)
    return LiftedNode(pi(obj.var), rename_lifted(obj.zero, pi), rename_lifted(obj.one, pi))


# ---------------------------------------------------------------------------
# Composition, flattening, grafting


# No caller in pqk: kept only because bench/tracing.py traces it.
def compose(obj: Lifted, family: Mapping[Assignment, Any], index: Iterable[Assignment]) -> Lifted:
    """Overwrite the leaves at the paths in index with the family's values."""
    index = set(index)
    valid = set(path_set(obj))
    for a in index:
        if a not in valid:
            raise InvalidBranch(f"{a} is not a path of {obj.tree()}")
        if a not in family:
            raise KeyError(f"family undefined on {a}")
    return update_under(obj, EMPTY_ASSIGNMENT, lambda p, v: LiftedLeaf(family[p] if p in index else v))


@dataclass(frozen=True)
class Sub:
    """Explicit tag marking a leaf payload as a nested lifted object to unfold."""

    inner: Lifted

    def __str__(self) -> str:
        return f"sub({self.inner})"

    __repr__ = __str__


def flatten(obj: Lifted) -> Lifted:
    """Unfold Sub-tagged leaves into subtrees (the accumulator-set definition)."""
    return flatten_family(obj, {})


def flatten_family(obj: Lifted, family: Mapping[Assignment, Lifted]) -> Lifted:
    """The let-shape operation: stick a lifted object under each listed path, then flatten.

    On a lifting tree with a family of trees this is the tree of the let.  One
    walk carries each leaf's trail and builds its path once, for the lookup.
    """
    found = set()

    def walk(t: Lifted, trail: tuple[tuple[str, int], ...]) -> Lifted:
        if isinstance(t, LiftedNode):
            return LiftedNode(t.var, walk(t.zero, trail + ((t.var, 0),)), walk(t.one, trail + ((t.var, 1),)))
        a = _trail_path(trail)
        if a in family:
            found.add(a)
            inner = family[a]
        elif isinstance(t.value, Sub):
            inner = t.value.inner
        else:
            return t
        clash = all_vars(inner) & {v for v, _ in trail}
        if clash:
            raise VariableClash(f"flattening reuses {sorted(clash)} already on the path")
        return inner

    out = walk(obj, ())
    missing = family.keys() - found
    if missing:
        raise InvalidBranch(f"{next(iter(missing))} is not a path of {obj.tree()}")
    return out


def graft(obj: Lifted, a: Assignment, r: Lifted) -> Lifted:
    """obj with a copy of r's shape grafted at every path extending a (obj graft_a r).

    Each grafted copy carries the payload of the leaf it replaces, so on a
    lifting tree the result is the grafted tree.  A variable of r already on
    such a path makes the node above the copy raise VariableClash.
    """
    if not is_consistent(obj, a):
        raise InvalidBranch(f"{a} is not consistent with tree {obj.tree()}")
    return update_under(obj, a, lambda path, value: const(r, value))


# ---------------------------------------------------------------------------
# JSON form (a lifting tree's leaves encode as {"leaf": null})


def lifted_to_json(obj: Lifted, leaf_to_json: Callable[[Any], Any]) -> Any:
    if isinstance(obj, LiftedLeaf):
        return {"leaf": leaf_to_json(obj.value)}
    assert isinstance(obj, LiftedNode)
    return {
        "var": obj.var,
        "zero": lifted_to_json(obj.zero, leaf_to_json),
        "one": lifted_to_json(obj.one, leaf_to_json),
    }


def lifted_from_json(data: Any, leaf_from_json: Callable[[Any], Any]) -> Lifted:
    if "leaf" in data:
        return LiftedLeaf(leaf_from_json(data["leaf"]))
    return LiftedNode(
        data["var"],
        lifted_from_json(data["zero"], leaf_from_json),
        lifted_from_json(data["one"], leaf_from_json),
    )
