"""Left-over linear type-and-effect checking.

Value judgments return a type plus the unconsumed context; computation
judgments additionally return a lifting tree with a lifted result type.
A term is well-typed in the declarative sense exactly when the leftover
context contains only parameter entries and no labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .circuit import (
    BoxedCircuit,
    Circuit,
    DEFAULT_GATES,
    GateSet,
    LabelContext,
    check_signature,
    type_mvalue,
)
from .errors import (
    CircuitError,
    KIND_BRANCH_ARITY,
    KIND_FLATTEN_CLASH,
    KIND_LEFTOVER_LINEAR,
    KIND_LIFTED_VAR_NOT_FRESH,
    KIND_LINEARITY,
    KIND_NON_PARAMETER_UNDER_LIFT,
    KIND_NOT_AN_MVALUE,
    KIND_SIGNATURE,
    KIND_TYPE_MISMATCH,
    KIND_UNBOUND_LABEL,
    KIND_UNBOUND_VAR,
    TypeCheckError,
)
from .syntax import (
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
    PqkType,
    Return,
    TensorType,
    Term,
    Unit,
    UNIT_TYPE,
    Value,
    Var,
    WireT,
    free_labels,
    is_label_tuple,
    is_mtype,
    is_parameter,
    lifted_types_equal,
    types_equal,
)
from .trees import (
    Assignment,
    EMPTY_ASSIGNMENT,
    Lifted,
    LiftedLeaf,
    Renaming,
    all_vars,
    const,
    flatten_family,
    from_map,
    leaf,
    lookup,
    path_items,
    path_set,
    rename_lifted,
    subtree_at,
    var_set,
    var_sort_key,
)
from .errors import VariableClash


@dataclass(frozen=True)
class TypingContext:
    """Term variables with their types plus an ambient label context."""

    vars: tuple[tuple[str, PqkType], ...] = ()
    labels: LabelContext = LabelContext()

    @staticmethod
    def of(vars: Mapping[str, PqkType] | None = None, labels: LabelContext | None = None) -> TypingContext:
        return TypingContext(tuple((vars or {}).items()), labels or LabelContext())

    def get(self, name: str) -> PqkType | None:
        for n, t in self.vars:
            if n == name:
                return t
        return None

    def with_var(self, name: str, ty: PqkType) -> TypingContext:
        return TypingContext(tuple((n, t) for n, t in self.vars if n != name) + ((name, ty),), self.labels)

    def drop_var(self, name: str) -> TypingContext:
        return TypingContext(tuple((n, t) for n, t in self.vars if n != name), self.labels)

    def with_labels(self, labels: LabelContext) -> TypingContext:
        return TypingContext(self.vars, labels)

    def linear_names(self) -> frozenset[str]:
        return frozenset(n for n, t in self.vars if not is_parameter(t))

    def parameter_part(self) -> TypingContext:
        return TypingContext(tuple((n, t) for n, t in self.vars if is_parameter(t)), LabelContext())

    def residue_key(self):
        return (frozenset(n for n, _ in self.vars), frozenset(self.labels.entries))


EMPTY_TYPING_CONTEXT = TypingContext()


@dataclass(frozen=True)
class ComputationTyping:
    type: Lifted  # of PqkType

    @property
    def tree(self) -> Lifted:
        """The computation's lifting tree: the shape of its lifted type."""
        return self.type.tree()

    def __str__(self) -> str:
        from .syntax import format_lifted_type

        return f"({self.tree}, {format_lifted_type(self.type)})"

    __repr__ = __str__


class Checker:
    """One type-checking run (holds the gate set and consumption diagnostics)."""

    def __init__(self, gateset: GateSet = DEFAULT_GATES):
        self.gateset = gateset
        self._consumed_vars: set[str] = set()
        self._consumed_labels: set[str] = set()

    # -- values

    def check_value(self, ctx: TypingContext, v: Value) -> tuple[PqkType, TypingContext]:
        if isinstance(v, Unit):
            return UNIT_TYPE, ctx
        if isinstance(v, Var):
            ty = ctx.get(v.name)
            if ty is None:
                if v.name in self._consumed_vars:
                    raise TypeCheckError(
                        KIND_LINEARITY, f"variable {v.name} used more than once",
                        rule="var", span=v.span,
                    )
                raise TypeCheckError(KIND_UNBOUND_VAR, f"variable {v.name} is not in scope",
                                     rule="var", span=v.span, name=v.name)
            if is_parameter(ty):
                return ty, ctx
            self._consumed_vars.add(v.name)
            return ty, ctx.drop_var(v.name)
        if isinstance(v, LabelVal):
            wire = ctx.labels.get(v.name)
            if wire is None:
                if v.name in self._consumed_labels:
                    raise TypeCheckError(KIND_LINEARITY, f"label {v.name} used more than once",
                                         rule="label", span=v.span)
                raise TypeCheckError(KIND_UNBOUND_LABEL, f"label {v.name} is not in the label context",
                                     rule="label", span=v.span)
            self._consumed_labels.add(v.name)
            return WireT(wire), ctx.with_labels(ctx.labels.remove([v.name]))
        if isinstance(v, Lam):
            shadowed = ctx.get(v.var)
            inner = ctx.with_var(v.var, v.ann)
            result, leftover = self.check_term(inner, v.body)
            leftover = self._release_binder(leftover, v.var, v.ann, shadowed, rule="abs", span=v.span)
            return ArrowType(v.ann, result.type), leftover
        if isinstance(v, LiftV):
            labels = free_labels(v.body)
            if labels:
                raise TypeCheckError(
                    KIND_NON_PARAMETER_UNDER_LIFT,
                    f"lift body mentions labels {sorted(labels)}",
                    rule="lift", span=v.span,
                )
            param_ctx = ctx.parameter_part()
            linear = ctx.linear_names()
            try:
                result, _ = self.check_term(param_ctx, v.body)
            except TypeCheckError as exc:
                if exc.kind == KIND_UNBOUND_VAR and exc.name in linear:
                    raise TypeCheckError(
                        KIND_NON_PARAMETER_UNDER_LIFT,
                        f"lift body captures the linear variable {exc.name}",
                        rule="lift", span=v.span,
                    ) from exc
                raise
            return BangType(result.type), ctx
        if isinstance(v, Boxed):
            return self._check_boxed(v.boxed, span=v.span), ctx
        assert isinstance(v, Pair)
        left, ctx1 = self.check_value(ctx, v.left)
        right, ctx2 = self.check_value(ctx1, v.right)
        return TensorType(left, right), ctx2

    def _check_boxed(self, b: BoxedCircuit, span=None) -> CircType:
        try:
            sig = check_signature(b.circuit, self.gateset)
        except CircuitError as exc:
            raise TypeCheckError(KIND_SIGNATURE, f"boxed circuit has no signature: {exc}",
                                 rule="circ", span=span) from exc
        try:
            in_type = type_mvalue(sig.input, b.in_tuple)
        except CircuitError as exc:
            raise TypeCheckError(KIND_TYPE_MISMATCH, f"boxed input tuple: {exc}",
                                 rule="circ", span=span) from exc
        if b.out_tuples.tree() != sig.tree:
            raise TypeCheckError(
                KIND_BRANCH_ARITY,
                "boxed output tuples do not follow the circuit's lifting tree",
                rule="circ", span=span,
            )
        out_types = {}
        for p, q in path_items(sig.outputs):
            try:
                out_types[p] = type_mvalue(q, lookup(b.out_tuples, p))
            except CircuitError as exc:
                raise TypeCheckError(KIND_TYPE_MISMATCH, f"boxed outputs: {exc}",
                                     rule="circ", branch=p, span=span) from exc
        theta = from_map(sig.outputs, out_types)
        return CircType(in_type, theta)

    # -- terms

    def check_term(self, ctx: TypingContext, m: Term) -> tuple[ComputationTyping, TypingContext]:
        if isinstance(m, Return):
            ty, leftover = self.check_value(ctx, m.value)
            return ComputationTyping(leaf(ty)), leftover
        if isinstance(m, App):
            fn_ty, ctx1 = self.check_value(ctx, m.fn)
            if not isinstance(fn_ty, ArrowType):
                raise TypeCheckError(KIND_TYPE_MISMATCH, f"applied value has type {fn_ty}, not a function",
                                     rule="app", span=m.span)
            arg_ty, ctx2 = self.check_value(ctx1, m.arg)
            if not types_equal(arg_ty, fn_ty.dom):
                raise TypeCheckError(
                    KIND_TYPE_MISMATCH,
                    f"argument has type {arg_ty}, function expects {fn_ty.dom}",
                    rule="app", span=m.span,
                )
            return ComputationTyping(fn_ty.cod), ctx2
        if isinstance(m, Let):
            bound, ctx1 = self.check_term(ctx, m.bound)
            if m.branches.tree() != bound.tree:
                raise TypeCheckError(
                    KIND_BRANCH_ARITY,
                    f"continuation shape {m.branches.tree()} does not match the bound term's "
                    f"lifting tree {bound.tree}",
                    rule="let", span=m.span,
                )
            branch_types: dict[Assignment, Lifted] = {}
            residue: TypingContext | None = None
            for p, x_type in path_items(bound.type):
                shadowed = ctx1.get(m.var)
                inner = ctx1.with_var(m.var, x_type)
                result, leftover = self.check_term(inner, lookup(m.branches, p))
                leftover = self._release_binder(leftover, m.var, x_type, shadowed,
                                                rule="let", span=m.span, branch=p)
                branch_types[p] = result.type
                if residue is None:
                    residue = leftover
                elif residue.residue_key() != leftover.residue_key():
                    raise TypeCheckError(
                        KIND_LINEARITY,
                        "branches consume different linear resources",
                        rule="let", branch=p, span=m.span,
                    )
            assert residue is not None
            try:
                out_type = flatten_family(bound.type, branch_types)
            except VariableClash as exc:
                raise TypeCheckError(KIND_FLATTEN_CLASH, str(exc), rule="let", span=m.span) from exc
            return ComputationTyping(out_type), residue
        if isinstance(m, LetPair):
            pair_ty, ctx1 = self.check_value(ctx, m.value)
            if not isinstance(pair_ty, TensorType):
                raise TypeCheckError(KIND_TYPE_MISMATCH,
                                     f"destructured value has type {pair_ty}, not a pair",
                                     rule="dest", span=m.span)
            shadow1 = ctx1.get(m.var1)
            inner = ctx1.with_var(m.var1, pair_ty.left)
            shadow2 = inner.get(m.var2)
            inner = inner.with_var(m.var2, pair_ty.right)
            result, leftover = self.check_term(inner, m.body)
            leftover = self._release_binder(leftover, m.var2, pair_ty.right, shadow2,
                                            rule="dest", span=m.span)
            leftover = self._release_binder(leftover, m.var1, pair_ty.left, shadow1,
                                            rule="dest", span=m.span)
            return result, leftover
        if isinstance(m, Force):
            ty, ctx1 = self.check_value(ctx, m.value)
            if not isinstance(ty, BangType):
                raise TypeCheckError(KIND_TYPE_MISMATCH, f"forced value has type {ty}, not a !-type",
                                     rule="force", span=m.span)
            return ComputationTyping(ty.inner), ctx1
        if isinstance(m, Box):
            ty, ctx1 = self.check_value(ctx, m.value)
            shape_err = TypeCheckError(
                KIND_TYPE_MISMATCH,
                f"box expects a !-suspended function over label tuples, got {ty}",
                rule="box", span=m.span,
            )
            if not isinstance(ty, BangType) or not isinstance(ty.inner, LiftedLeaf):
                raise shape_err
            arrow = ty.inner.value
            if not isinstance(arrow, ArrowType):
                raise shape_err
            if not is_mtype(arrow.dom) or arrow.dom != m.mtype:
                raise TypeCheckError(
                    KIND_TYPE_MISMATCH,
                    f"box annotation {m.mtype} does not match the function domain {arrow.dom}",
                    rule="box", span=m.span,
                )
            for p, cod in path_items(arrow.cod):
                if not is_mtype(cod):
                    raise TypeCheckError(
                        KIND_TYPE_MISMATCH,
                        "boxed function must return label tuples on every branch",
                        rule="box", branch=p, span=m.span,
                    )
            return ComputationTyping(leaf(CircType(m.mtype, arrow.cod))), ctx1
        if isinstance(m, Apply):
            circ_ty, ctx1 = self.check_value(ctx, m.boxed)
            if not isinstance(circ_ty, CircType):
                raise TypeCheckError(KIND_TYPE_MISMATCH,
                                     f"apply expects a boxed circuit, got {circ_ty}",
                                     rule="apply", span=m.span)
            binders = sorted(all_vars(circ_ty.out), key=var_sort_key)
            if len(m.vars) != len(binders):
                raise TypeCheckError(
                    KIND_LIFTED_VAR_NOT_FRESH,
                    f"apply names {len(m.vars)} lifted variables, circuit abstracts {len(binders)}",
                    rule="apply", span=m.span,
                )
            if len(set(m.vars)) != len(m.vars):
                raise TypeCheckError(KIND_LIFTED_VAR_NOT_FRESH,
                                     "apply's lifted variables must be pairwise distinct",
                                     rule="apply", span=m.span)
            arg_ty, ctx2 = self.check_value(ctx1, m.arg)
            if not types_equal(arg_ty, circ_ty.in_type):
                raise TypeCheckError(
                    KIND_TYPE_MISMATCH,
                    f"apply target has type {arg_ty}, circuit expects {circ_ty.in_type}",
                    rule="apply", span=m.span,
                )
            out_type = rename_lifted(circ_ty.out, Renaming(dict(zip(binders, m.vars))))
            return ComputationTyping(out_type), ctx2
        raise TypeCheckError(KIND_TYPE_MISMATCH, f"not a term: {m!r}", rule="?")

    # -- helpers

    def _release_binder(self, leftover: TypingContext, name: str, ty: PqkType,
                        shadowed: PqkType | None, *, rule: str, span=None, branch=None) -> TypingContext:
        present = leftover.get(name)
        if present is not None and not is_parameter(present):
            raise TypeCheckError(
                KIND_LEFTOVER_LINEAR,
                f"linear variable {name} is not consumed",
                rule=rule, span=span, branch=branch,
            )
        out = leftover.drop_var(name)
        self._consumed_vars.discard(name)
        if shadowed is not None:
            out = out.with_var(name, shadowed)
        return out

    def check_lifted_term(
        self,
        ctx: TypingContext,
        mu: Lifted,
        expected_tree: Lifted | None = None,
    ) -> tuple[Lifted, TypingContext]:
        """Branchwise computation typing with constant non-lifted components.

        Returns the lifted object of per-branch ComputationTyping results and
        the common leftover context.
        """
        if expected_tree is not None and mu.tree() != expected_tree:
            raise TypeCheckError(
                KIND_BRANCH_ARITY,
                f"lifted term has shape {mu.tree()}, expected {expected_tree}",
                rule="lifted",
            )
        results = {}
        residue = None
        for p, term in path_items(mu):
            result, leftover = self.check_term(ctx, term)
            results[p] = result
            if residue is None:
                residue = leftover
            elif residue.residue_key() != leftover.residue_key():
                raise TypeCheckError(KIND_LINEARITY,
                                     "branches consume different linear resources",
                                     rule="lifted", branch=p)
        assert residue is not None
        return from_map(mu, results), residue


# ---------------------------------------------------------------------------
# Public entry points


def type_value(ctx: TypingContext, v: Value, gateset: GateSet = DEFAULT_GATES):
    return Checker(gateset).check_value(ctx, v)


def type_term(ctx: TypingContext, m: Term, gateset: GateSet = DEFAULT_GATES):
    return Checker(gateset).check_term(ctx, m)


def type_lifted_term(ctx: TypingContext, mu: Lifted, expected_tree: Lifted | None = None,
                     gateset: GateSet = DEFAULT_GATES):
    return Checker(gateset).check_lifted_term(ctx, mu, expected_tree)


def _require_duplicable(leftover: TypingContext, what: str):
    if leftover.linear_names() or leftover.labels:
        raise TypeCheckError(
            KIND_LEFTOVER_LINEAR, f"{what} leaves linear resources unconsumed", rule="top"
        )


def check_closed_term(m: Term, gateset: GateSet = DEFAULT_GATES) -> ComputationTyping:
    """Well-typedness of a closed program; only parameter entries may be left over."""
    result, leftover = type_term(EMPTY_TYPING_CONTEXT, m, gateset)
    _require_duplicable(leftover, "program")
    return result


def check_closed_value(v: Value, gateset: GateSet = DEFAULT_GATES) -> PqkType:
    ty, leftover = type_value(EMPTY_TYPING_CONTEXT, v, gateset)
    _require_duplicable(leftover, "value")
    return ty


# ---------------------------------------------------------------------------
# M-judgment bridge


def mjudgment_bridge(q: LabelContext, v: Value, gateset: GateSet = DEFAULT_GATES) -> PqkType:
    """The M-type of a closed value typed at an M-type, by the circuit
    language's judgment Q |= v : T.

    Closed values of M-type are syntactically label tuples; anything else
    raises NotAnMValue.
    """
    if not is_label_tuple(v):
        raise TypeCheckError(KIND_NOT_AN_MVALUE, f"{v} is not a label tuple", rule="m-bridge")
    try:
        return type_mvalue(q, v)
    except CircuitError as exc:
        raise TypeCheckError(KIND_NOT_AN_MVALUE, str(exc), rule="m-bridge") from exc


# ---------------------------------------------------------------------------
# Configuration well-typedness


@dataclass
class ConfigReport:
    ok: bool
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def typecheck_left_config(
    circuit: Circuit,
    branch: Assignment,
    term: Term,
    *,
    input_ctx: LabelContext,
    past_tree: Lifted,
    future_tree: Lifted,
    ty: Lifted,
    outputs: Lifted,
    gateset: GateSet = DEFAULT_GATES,
) -> ConfigReport:
    """The well-typed-left-configuration conjunction, reported conjunct by conjunct."""
    failures: list[str] = []
    if branch not in set(path_set(past_tree)):
        failures.append(f"branch {branch} is not a path of the past lifting tree")
        return ConfigReport(False, failures)
    if var_set(past_tree, branch) & all_vars(future_tree):
        failures.append("future lifting tree reuses live lifted variables")
    try:
        sig = check_signature(circuit, gateset)
    except CircuitError as exc:
        failures.append(f"circuit has no signature: {exc}")
        return ConfigReport(False, failures)
    if sig.tree != past_tree:
        failures.append(f"circuit tree {sig.tree} differs from past tree {past_tree}")
        return ConfigReport(False, failures)
    if sig.input != input_ctx:
        failures.append("circuit input context mismatch")
    term_labels = None
    for p, have in path_items(sig.outputs):
        want = lookup(outputs, p)
        if p == branch:
            missing = want.domain() - have.domain()
            if missing or any(have.get(n) != w for n, w in want.entries):
                failures.append(f"outputs at {p} do not extend the expected context")
            else:
                term_labels = have.remove(want.domain())
        elif have != want:
            failures.append(f"outputs differ on branch {p}")
    if term_labels is None:
        failures.append("no label context left for the term")
        return ConfigReport(False, failures)
    try:
        checker = Checker(gateset)
        result, leftover = checker.check_term(TypingContext(labels=term_labels), term)
    except TypeCheckError as exc:
        failures.append(f"term ill-typed: {exc}")
        return ConfigReport(False, failures)
    if leftover.linear_names() or leftover.labels:
        failures.append("term does not consume its label context")
    if result.tree != future_tree:
        failures.append(f"term effect tree {result.tree} differs from future tree {future_tree}")
    elif not lifted_types_equal(result.type, ty):
        failures.append(f"term type {result.type} differs from expected {ty}")
    return ConfigReport(not failures, failures)


def typecheck_right_config(
    circuit: Circuit,
    value: Lifted,
    *,
    input_ctx: LabelContext,
    overall_tree: Lifted,
    future_tree: Lifted,
    branch: Assignment,
    ty: Lifted,
    outputs: Lifted,
    gateset: GateSet = DEFAULT_GATES,
) -> ConfigReport:
    """The well-typed-right-configuration conjunction."""
    failures: list[str] = []
    try:
        grafted = subtree_at(overall_tree, branch)
    except Exception:
        grafted = None
    if grafted != future_tree:
        failures.append(
            f"overall tree does not decompose as the past tree grafted with {future_tree} at {branch}"
        )
        return ConfigReport(False, failures)
    if value.tree() != future_tree:
        failures.append(f"value tree {value.tree()} differs from the future tree {future_tree}")
        return ConfigReport(False, failures)
    try:
        sig = check_signature(circuit, gateset)
    except CircuitError as exc:
        failures.append(f"circuit has no signature: {exc}")
        return ConfigReport(False, failures)
    if sig.tree != overall_tree:
        failures.append(f"circuit tree {sig.tree} differs from overall tree {overall_tree}")
        return ConfigReport(False, failures)
    if sig.input != input_ctx:
        failures.append("circuit input context mismatch")
    for p, have in path_items(sig.outputs):
        want = lookup(outputs, p)
        if p.extends(branch):
            sub = _strip(p, branch)
            missing = want.domain() - have.domain()
            if missing or any(have.get(n) != w for n, w in want.entries):
                failures.append(f"outputs at {p} do not extend the expected context")
                continue
            value_labels = have.remove(want.domain())
            try:
                checker = Checker(gateset)
                got, leftover = checker.check_value(
                    TypingContext(labels=value_labels), lookup(value, sub)
                )
            except TypeCheckError as exc:
                failures.append(f"value ill-typed on branch {sub}: {exc}")
                continue
            if leftover.linear_names() or leftover.labels:
                failures.append(f"value does not consume its labels on branch {sub}")
            if not types_equal(got, lookup(ty, sub)):
                failures.append(
                    f"value on branch {sub} has type {got}, expected {lookup(ty, sub)}"
                )
        elif have != want:
            failures.append(f"outputs differ on untouched branch {p}")
    return ConfigReport(not failures, failures)


def _strip(p: Assignment, prefix: Assignment) -> Assignment:
    out = p
    for v, _ in prefix.bindings:
        out = out.without(v)
    return out


def typecheck_closed_right_config(
    circuit: Circuit,
    value: Lifted,
    expected: ComputationTyping,
    gateset: GateSet = DEFAULT_GATES,
) -> ConfigReport:
    """Right-configuration well-typedness for a computation that started from
    the empty circuit on the empty branch."""
    return typecheck_right_config(
        circuit,
        value,
        input_ctx=LabelContext(),
        overall_tree=expected.tree,
        future_tree=expected.tree,
        branch=EMPTY_ASSIGNMENT,
        ty=expected.type,
        outputs=const(expected.tree, LabelContext()),
        gateset=gateset,
    )
