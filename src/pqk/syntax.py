"""Abstract syntax of the calculus: types, terms, values.

Values are syntactically separated from (effectful) terms, and computation
types are lifted objects over types.  The first-order types Unit, Bit, Qubit
and `*` (the M-types) and the values `*`, labels and pairs of them (the label
tuples) are also the circuit language's types and tuples.  Also here:
free-variable collection, capture-avoiding substitution, type equality up
to renaming and the pretty printer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping

from . import circuit as crl  # used at call time only: circuit imports this module's classes
from . import trees
from .errors import CircuitError
from .trees import (
    Lifted,
    LiftedLeaf,
    LiftedNode,
    Renaming,
    all_vars,
    map_leaves,
    preorder_vars,
    rename_lifted,
)


@dataclass(frozen=True)
class Span:
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


# ---------------------------------------------------------------------------
# Types


class WireType(Enum):
    BIT = "Bit"
    QUBIT = "Qubit"

    def __str__(self) -> str:
        return self.value


BIT = WireType.BIT
QUBIT = WireType.QUBIT


class PqkType:
    __slots__ = ()


@dataclass(frozen=True)
class UnitType(PqkType):
    __slots__ = ()

    def __str__(self) -> str:
        return "Unit"

    __repr__ = __str__


@dataclass(frozen=True)
class WireT(PqkType):
    wire: WireType

    def __str__(self) -> str:
        return str(self.wire)

    __repr__ = __str__


@dataclass(frozen=True)
class ArrowType(PqkType):
    dom: PqkType
    cod: Lifted  # of PqkType

    def __str__(self) -> str:
        return format_type(self)

    __repr__ = __str__


@dataclass(frozen=True)
class BangType(PqkType):
    inner: Lifted  # of PqkType

    def __str__(self) -> str:
        return format_type(self)

    __repr__ = __str__


@dataclass(frozen=True)
class CircType(PqkType):
    in_type: PqkType  # an M-type
    out: Lifted  # of M-types

    @property
    def tree(self) -> Lifted:
        return self.out.tree()

    def __str__(self) -> str:
        return format_type(self)

    __repr__ = __str__


@dataclass(frozen=True)
class TensorType(PqkType):
    left: PqkType
    right: PqkType

    def __str__(self) -> str:
        return format_type(self)

    __repr__ = __str__


UNIT_TYPE = UnitType()
BIT_TYPE = WireT(BIT)
QUBIT_TYPE = WireT(QUBIT)


def is_mtype(a: PqkType) -> bool:
    """M-types are built from Unit, Bit and Qubit by `*`."""
    if isinstance(a, TensorType):
        return is_mtype(a.left) and is_mtype(a.right)
    return isinstance(a, (UnitType, WireT))


def is_parameter(a: PqkType) -> bool:
    """Parameter types are freely duplicable and droppable."""
    if isinstance(a, (UnitType, BangType, CircType)):
        return True
    if isinstance(a, TensorType):
        return is_parameter(a.left) and is_parameter(a.right)
    return False


# ---------------------------------------------------------------------------
# Terms and values


class Value:
    __slots__ = ()

    def __str__(self) -> str:
        return format_value(self)


class Term:
    __slots__ = ()


def _span_field():
    return field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Unit(Value):
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Var(Value):
    name: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class LabelVal(Value):
    name: str
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Lam(Value):
    var: str
    ann: PqkType
    body: Term
    span: Span | None = _span_field()


@dataclass(frozen=True)
class LiftV(Value):
    body: Term
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Boxed(Value):
    boxed: crl.BoxedCircuit
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Pair(Value):
    left: Value
    right: Value
    span: Span | None = _span_field()


@dataclass(frozen=True)
class App(Term):
    fn: Value
    arg: Value
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Let(Term):
    var: str
    bound: Term
    branches: Lifted  # of Term
    span: Span | None = _span_field()


@dataclass(frozen=True)
class LetPair(Term):
    var1: str
    var2: str
    value: Value
    body: Term
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Force(Term):
    value: Value
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Box(Term):
    mtype: PqkType  # an M-type
    value: Value
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Apply(Term):
    vars: tuple[str, ...]
    boxed: Value
    arg: Value
    span: Span | None = _span_field()


@dataclass(frozen=True)
class Return(Term):
    value: Value
    span: Span | None = _span_field()


def is_label_tuple(v: Value) -> bool:
    """Label tuples are built from * and labels by pairing."""
    if isinstance(v, Pair):
        return is_label_tuple(v.left) and is_label_tuple(v.right)
    return isinstance(v, (Unit, LabelVal))


# ---------------------------------------------------------------------------
# Subterms: the one place that knows which fields of a constructor are terms


def _no_children(x) -> tuple:
    return ()


def _same(x, f):
    return x


_CHILDREN = {
    Unit: _no_children,
    Var: _no_children,
    LabelVal: _no_children,
    Boxed: _no_children,  # boxed circuits are closed
    Lam: lambda x: (x.body,),
    LiftV: lambda x: (x.body,),
    Pair: lambda x: (x.left, x.right),
    App: lambda x: (x.fn, x.arg),
    Let: lambda x: (x.bound, *trees.leaves(x.branches)),
    LetPair: lambda x: (x.value, x.body),
    Force: lambda x: (x.value,),
    Box: lambda x: (x.value,),
    Apply: lambda x: (x.boxed, x.arg),
    Return: lambda x: (x.value,),
}

_MAP_CHILDREN = {
    Unit: _same,
    Var: _same,
    LabelVal: _same,
    Boxed: _same,
    Lam: lambda x, f: Lam(x.var, x.ann, f(x.body), x.span),
    LiftV: lambda x, f: LiftV(f(x.body), x.span),
    Pair: lambda x, f: Pair(f(x.left), f(x.right), x.span),
    App: lambda x, f: App(f(x.fn), f(x.arg), x.span),
    Let: lambda x, f: Let(x.var, f(x.bound), map_leaves(x.branches, f), x.span),
    LetPair: lambda x, f: LetPair(x.var1, x.var2, f(x.value), f(x.body), x.span),
    Force: lambda x, f: Force(f(x.value), x.span),
    Box: lambda x, f: Box(x.mtype, f(x.value), x.span),
    Apply: lambda x, f: Apply(x.vars, f(x.boxed), f(x.arg), x.span),
    Return: lambda x, f: Return(f(x.value), x.span),
}


def children(x: Term | Value) -> tuple:
    """The immediate subterms and subvalues of x; a let's branches in path order."""
    return _CHILDREN[type(x)](x)


def map_children(x: Term | Value, f):
    """x with f applied to each immediate subterm and subvalue, fields in
    order and a let's branches left to right; binders and annotations are kept."""
    return _MAP_CHILDREN[type(x)](x, f)


def _union(sets) -> frozenset[str]:
    return frozenset().union(*sets)


# ---------------------------------------------------------------------------
# Free names


def free_vars(x: Term | Value) -> frozenset[str]:
    t = type(x)
    if t is Var:
        return frozenset({x.name})
    if t is Lam:
        return free_vars(x.body) - {x.var}
    if t is Let:
        branch_fv = _union(map(free_vars, trees.leaves(x.branches)))
        return free_vars(x.bound) | (branch_fv - {x.var})
    if t is LetPair:
        return free_vars(x.value) | (free_vars(x.body) - {x.var1, x.var2})
    return _union(map(free_vars, children(x)))


def bound_vars(x: Term | Value) -> frozenset[str]:
    out = _union(map(bound_vars, children(x)))
    t = type(x)
    if t is Lam or t is Let:
        return out | {x.var}
    if t is LetPair:
        return out | {x.var1, x.var2}
    return out


def free_labels(x: Term | Value) -> frozenset[str]:
    """Labels occurring free; boxed circuits are label-closed."""
    if type(x) is LabelVal:
        return frozenset({x.name})
    return _union(map(free_labels, children(x)))


def type_free_lifted_vars(a: PqkType) -> frozenset[str]:
    if isinstance(a, (UnitType, WireT)):
        return frozenset()
    if isinstance(a, ArrowType):
        out = all_vars(a.cod)
        for t in trees.leaves(a.cod):
            out |= type_free_lifted_vars(t)
        return type_free_lifted_vars(a.dom) | out
    if isinstance(a, BangType):
        out = all_vars(a.inner)
        for t in trees.leaves(a.inner):
            out |= type_free_lifted_vars(t)
        return frozenset(out)
    if isinstance(a, CircType):
        return frozenset()  # abstracted
    assert isinstance(a, TensorType)
    return type_free_lifted_vars(a.left) | type_free_lifted_vars(a.right)


def free_lifted_vars(x: Term | Value) -> frozenset[str]:
    """Lifted variables occurring free; boxed circuits abstract theirs."""
    out = _union(map(free_lifted_vars, children(x)))
    t = type(x)
    if t is Lam:
        return type_free_lifted_vars(x.ann) | out
    if t is Let:
        return all_vars(x.branches) | out
    if t is Apply:
        return frozenset(x.vars) | out
    return out


# ---------------------------------------------------------------------------
# Substitution


class _FreshNames:
    def __init__(self, avoid: Iterable[str]):
        self.avoid = set(avoid)

    def fresh(self, base: str) -> str:
        for i in itertools.count(1):
            cand = f"{base}_{i}"
            if cand not in self.avoid:
                self.avoid.add(cand)
                return cand
        raise AssertionError  # pragma: no cover


def substitute(m, v: Value, x: str):
    """Capture-avoiding substitution of the value v for x in a term or value.

    Binders in m that collide with v's free variables are freshened first,
    then the clause-by-clause definition applies; boxed circuits are
    substitution-transparent.
    """
    clash = free_vars(v)
    if clash and clash & bound_vars(m):
        m = _freshen(m, clash, _FreshNames(clash | free_vars(m) | bound_vars(m)))
    return _subst(m, {x: v})


def _freshen(m, avoid: frozenset[str], names: _FreshNames):
    """m with every binder in avoid renamed to a fresh name.

    The names are drawn in a fixed order, since they show in the output: a
    lambda's before its body, a let's after its bound term and before its
    branches, and a pair destructor's after its body and before its value.
    """

    def rec(m):
        t = type(m)
        if t is Lam and m.var in avoid:
            new = names.fresh(m.var)
            return Lam(new, m.ann, _subst(rec(m.body), {m.var: Var(new)}), m.span)
        if t is Let and m.var in avoid:
            bound = rec(m.bound)
            new = names.fresh(m.var)
            branches = map_leaves(m.branches, lambda n: _subst(rec(n), {m.var: Var(new)}))
            return Let(new, bound, branches, m.span)
        if t is LetPair:
            v1, v2, body = m.var1, m.var2, rec(m.body)
            if v1 in avoid:
                new = names.fresh(v1)
                body = _subst(body, {v1: Var(new)})
                v1 = new
            if v2 in avoid:
                new = names.fresh(v2)
                body = _subst(body, {v2: Var(new)})
                v2 = new
            return LetPair(v1, v2, rec(m.value), body, m.span)
        return map_children(m, rec)

    return rec(m)


def _subst(m, sub: Mapping[str, Value]):
    """m with sub[x] for the free occurrences of each name x in sub, at once,
    without freshening binders; a binder stops the substitution of its name."""

    def rec(m):
        t = type(m)
        if t is Var:
            return sub.get(m.name, m)
        if t is Lam:
            if m.var in sub:
                return Lam(m.var, m.ann, _shadowed(m.body, sub, (m.var,)), m.span)
        elif t is Let:
            if m.var in sub:
                branches = map_leaves(m.branches, lambda n: _shadowed(n, sub, (m.var,)))
                return Let(m.var, rec(m.bound), branches, m.span)
        elif t is LetPair:
            if m.var1 in sub or m.var2 in sub:
                return LetPair(m.var1, m.var2, rec(m.value), _shadowed(m.body, sub, (m.var1, m.var2)), m.span)
        return map_children(m, rec)

    return rec(m) if sub else m


def _shadowed(m, sub: Mapping[str, Value], binders: tuple[str, ...]):
    """_subst inside the scope of binders, which shadow their names in sub."""
    return _subst(m, {x: v for x, v in sub.items() if x not in binders})


# ---------------------------------------------------------------------------
# Alpha-equivalence and type equality


def _lifted_equal(a: Lifted, b: Lifted, leaf_eq) -> bool:
    if isinstance(a, LiftedLeaf) and isinstance(b, LiftedLeaf):
        return leaf_eq(a.value, b.value)
    if isinstance(a, LiftedNode) and isinstance(b, LiftedNode):
        return (
            a.var == b.var
            and _lifted_equal(a.zero, b.zero, leaf_eq)
            and _lifted_equal(a.one, b.one, leaf_eq)
        )
    return False


def _canonical_lifted(obj: Lifted) -> Lifted:
    """obj with its variables renamed ~c0, ~c1, ... in pre-order of first occurrence."""
    return rename_lifted(obj, Renaming({v: f"~c{i}" for i, v in enumerate(preorder_vars(obj))}))


def types_equal(a: PqkType, b: PqkType) -> bool:
    """Type equality: Circ trees up to renaming, other lifted variables by name."""
    if isinstance(a, (UnitType, WireT)) or isinstance(b, (UnitType, WireT)):
        return a == b
    if isinstance(a, ArrowType) and isinstance(b, ArrowType):
        return types_equal(a.dom, b.dom) and _lifted_equal(a.cod, b.cod, types_equal)
    if isinstance(a, BangType) and isinstance(b, BangType):
        return _lifted_equal(a.inner, b.inner, types_equal)
    if isinstance(a, CircType) and isinstance(b, CircType):
        return a.in_type == b.in_type and _canonical_lifted(a.out) == _canonical_lifted(b.out)
    if isinstance(a, TensorType) and isinstance(b, TensorType):
        return types_equal(a.left, b.left) and types_equal(a.right, b.right)
    return False


def lifted_types_equal(a: Lifted, b: Lifted) -> bool:
    return _lifted_equal(a, b, types_equal)


# ---------------------------------------------------------------------------
# Pretty printing (surface syntax)


def _format_lifted(obj: Lifted, fmt_leaf) -> str:
    if isinstance(obj, LiftedLeaf):
        return fmt_leaf(obj.value)
    assert isinstance(obj, LiftedNode)
    return f"<{obj.var} ? {_format_lifted(obj.zero, fmt_leaf)} | {_format_lifted(obj.one, fmt_leaf)}>"


def format_lifted_type(obj: Lifted) -> str:
    return _format_lifted(obj, format_type)


def _type_atom(a: PqkType) -> str:
    s = format_type(a)
    if isinstance(a, (ArrowType, TensorType)):
        return f"({s})"
    return s


def format_type(a: PqkType) -> str:
    if isinstance(a, UnitType):
        return "Unit"
    if isinstance(a, WireT):
        return str(a.wire)
    if isinstance(a, ArrowType):
        cod = _format_lifted(a.cod, format_type)
        return f"{_type_atom(a.dom)} -o {cod}"
    if isinstance(a, BangType):
        if isinstance(a.inner, LiftedLeaf):
            return f"!{_type_atom(a.inner.value)}"
        return f"!{_format_lifted(a.inner, _type_atom)}"
    if isinstance(a, CircType):
        out = _format_lifted(a.out, format_type)
        return f"Circ[{a.tree}]({format_type(a.in_type)}, {out})"
    assert isinstance(a, TensorType)
    left = format_type(a.left)
    if isinstance(a.left, (ArrowType, TensorType)):
        left = f"({left})"
    right = format_type(a.right)
    if isinstance(a.right, ArrowType):
        right = f"({right})"
    return f"{left} * {right}"


def format_value(v: Value) -> str:
    if isinstance(v, Unit):
        return "*"
    if isinstance(v, (Var, LabelVal)):
        return v.name
    if isinstance(v, Lam):
        return f"fun ({v.var} : {format_type(v.ann)}) -> {format_term(v.body)}"
    if isinstance(v, LiftV):
        return f"lift {format_term(v.body)}"
    if isinstance(v, Boxed):
        return format_boxed(v.boxed)
    assert isinstance(v, Pair)
    return f"({format_value(v.left)}, {format_value(v.right)})"


def _value_atom(v: Value) -> str:
    s = format_value(v)
    if isinstance(v, (Lam, LiftV)):
        return f"({s})"
    return s


def format_term(m: Term) -> str:
    if isinstance(m, App):
        return f"{_value_atom(m.fn)} {_value_atom(m.arg)}"
    if isinstance(m, Let):
        # a leaf continuation is formatted in this frame: one frame per `let`
        if isinstance(m.branches, LiftedLeaf):
            branches = format_term(m.branches.value)
        else:
            branches = _format_lifted_term(m.branches)
        return f"let {m.var} = {format_term(m.bound)} in {branches}"
    if isinstance(m, LetPair):
        return f"let ({m.var1}, {m.var2}) = {format_value(m.value)} in {format_term(m.body)}"
    if isinstance(m, Force):
        return f"force {_value_atom(m.value)}"
    if isinstance(m, Box):
        return f"box[{format_type(m.mtype)}] {_value_atom(m.value)}"
    if isinstance(m, Apply):
        vars_part = f"[{', '.join(m.vars)}]" if m.vars else ""
        return f"apply{vars_part}({format_value(m.boxed)}, {format_value(m.arg)})"
    assert isinstance(m, Return)
    return f"return {_value_atom(m.value)}"


def _format_lifted_term(obj: Lifted) -> str:
    if isinstance(obj, LiftedLeaf):
        return format_term(obj.value)
    assert isinstance(obj, LiftedNode)
    return (
        f"case {obj.var} {{ 0 => {_format_lifted_term(obj.zero)}"
        f" | 1 => {_format_lifted_term(obj.one)} }}"
    )


def format_boxed(b: crl.BoxedCircuit) -> str:
    """Inline crl literal when the layout convention reconstructs b, else a
    non-parseable debug rendering."""
    from .parser import boxed_from_circuit  # cycle-free at call time

    try:
        if boxed_from_circuit(b.circuit) == b:
            body = crl.format_circuit(b.circuit).replace("\n", " ")
            return f"crl {{ {body} }}"
    except CircuitError:
        pass
    return f"<boxed {b.in_tuple} -> {_format_lifted(b.out_tuples, str)} of {{{crl.format_circuit(b.circuit)}}}>"


def format_lifted_value(obj: Lifted) -> str:
    return _format_lifted(obj, format_value)
