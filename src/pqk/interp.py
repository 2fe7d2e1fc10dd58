"""Big-step evaluation of configurations.

A left configuration (circuit, branch, term) evaluates to a right
configuration (circuit, lifted value); the circuit grows as a side effect.
Divergence is approximated by a fuel budget: the calculus has no recursion,
so fuel exhaustion never occurs for well-typed programs at sane budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .circuit import (
    BoxedCircuit,
    Circuit,
    FreshLabels,
    LabelContext,
    append,
    fresh_labels_for,
)
from .errors import CircuitError, VariableClash
from .syntax import (
    App,
    Apply,
    Box,
    Boxed,
    Force,
    Lam,
    Let,
    LetPair,
    LiftV,
    Pair,
    Return,
    Term,
    Var,
    is_label_tuple,
    substitute,
)
from .trees import (
    Assignment,
    EMPTY_ASSIGNMENT,
    Lifted,
    flatten_family,
    leaf,
    leaves,
    lookup,
    path_items,
)

DEFAULT_FUEL = 10**6


@dataclass(frozen=True)
class LeftConfig:
    circuit: Circuit
    branch: Assignment
    term: Term

    def __str__(self) -> str:
        return f"[{self.circuit.instructions and '…' or 'input'}, {self.branch}, {self.term!r}]"


@dataclass(frozen=True)
class RightConfig:
    circuit: Circuit
    value: Lifted  # of Value


@dataclass(frozen=True)
class Done:
    config: RightConfig


@dataclass(frozen=True)
class FuelExhausted:
    pass


@dataclass(frozen=True)
class Stuck:
    reason: str
    config: LeftConfig


EvalOutcome = Done | FuelExhausted | Stuck


@dataclass
class EvalEnv:
    """Mutable per-evaluation state: fuel, the fresh-label counter and findings.
    The circuits it makes start empty and take the gate set of the first body
    appended to them (see `append`), which is that of the program's literals."""

    fuel: int = DEFAULT_FUEL
    labels: FreshLabels = field(default_factory=FreshLabels)
    findings: list[str] = field(default_factory=list)


def eval_config(cfg: LeftConfig, env: EvalEnv) -> EvalOutcome:
    if env.fuel <= 0:
        return FuelExhausted()
    env.fuel -= 1
    m = cfg.term

    if isinstance(m, Return):
        return Done(RightConfig(cfg.circuit, leaf(m.value)))

    if isinstance(m, App):
        if not isinstance(m.fn, Lam):
            return Stuck("AppNonLambda", cfg)
        body = substitute(m.fn.body, m.arg, m.fn.var)
        return eval_config(LeftConfig(cfg.circuit, cfg.branch, body), env)

    if isinstance(m, LetPair):
        if not isinstance(m.value, Pair):
            return Stuck("DestNonPair", cfg)
        body = substitute(m.body, m.value.left, m.var1)
        body = substitute(body, m.value.right, m.var2)
        return eval_config(LeftConfig(cfg.circuit, cfg.branch, body), env)

    if isinstance(m, Force):
        if not isinstance(m.value, LiftV):
            return Stuck("ForceNonLift", cfg)
        return eval_config(LeftConfig(cfg.circuit, cfg.branch, m.value.body), env)

    if isinstance(m, Box):
        if not isinstance(m.value, LiftV):
            return Stuck("BoxNonLift", cfg)
        q, in_tuple = fresh_labels_for(m.mtype, env.labels)
        sandbox_term = Let(
            "#box",
            m.value.body,
            leaf(App(Var("#box"), in_tuple)),
        )
        outcome = eval_config(LeftConfig(Circuit(q), EMPTY_ASSIGNMENT, sandbox_term), env)
        if isinstance(outcome, (FuelExhausted, Stuck)):
            return outcome
        inner = outcome.config
        if not all(map(is_label_tuple, leaves(inner.value))):
            return Stuck("BoxResultNotMValue", cfg)
        boxed = BoxedCircuit(in_tuple, inner.circuit, inner.value)
        return Done(RightConfig(cfg.circuit, leaf(Boxed(boxed))))

    if isinstance(m, Apply):
        if not isinstance(m.boxed, Boxed):
            return Stuck("ApplyNonBoxed", cfg)
        if not is_label_tuple(m.arg):
            return Stuck("ApplyTargetNotLabels", cfg)
        try:
            circuit, out_tuples = append(
                cfg.circuit, cfg.branch, m.arg, m.boxed.boxed,
                list(m.vars), env.labels,
            )
        except CircuitError as exc:
            return Stuck(f"AppendPrecondition: {exc}", cfg)
        # Every instruction this apply adds must extend its branch; an
        # enclosing let's branch is a restriction of it, so checking here
        # also covers every let around the apply.
        for ins in circuit.instructions[len(cfg.circuit.instructions):]:
            if not ins.cond.extends(cfg.branch):
                env.findings.append(
                    f"branch-independence: instruction `{ins}` added on branch {cfg.branch}"
                )
        return Done(RightConfig(circuit, out_tuples))

    if isinstance(m, Let):
        bound = eval_config(LeftConfig(cfg.circuit, cfg.branch, m.bound), env)
        if isinstance(bound, (FuelExhausted, Stuck)):
            return bound
        circuit = bound.config.circuit
        phi = bound.config.value
        if m.branches.tree() != phi.tree():
            return Stuck("LetBranchMismatch", cfg)
        results: dict[Assignment, Lifted] = {}
        for p, v in path_items(phi):
            branch_term = substitute(lookup(m.branches, p), v, m.var)
            sub = eval_config(LeftConfig(circuit, cfg.branch.union(p), branch_term), env)
            if isinstance(sub, (FuelExhausted, Stuck)):
                return sub
            circuit = sub.config.circuit
            results[p] = sub.config.value
        try:
            value = flatten_family(phi, results)
        except VariableClash:
            return Stuck("FlattenClash", cfg)
        return Done(RightConfig(circuit, value))

    raise TypeError(f"not a term: {m!r}")


def run_closed(m: Term, env: EvalEnv | None = None) -> EvalOutcome:
    """Evaluate a closed program from the empty circuit on the empty branch."""
    env = env or EvalEnv()
    return eval_config(LeftConfig(Circuit(LabelContext()), EMPTY_ASSIGNMENT, m), env)
