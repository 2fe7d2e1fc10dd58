"""Metatheory fuzzing: random well-typed closed programs and the executable
subject-reduction / progress checks.

Generation is top-down and type-directed: a resource map of typed variables
must be consumed exactly, so every emitted program is accepted by the checker
(asserted after generation).  A small library of seed boxed circuits makes
apply, box and multi-branch lets reachable.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import TypeCheckError
from .interp import DEFAULT_FUEL, Done, EvalEnv, FuelExhausted, Stuck, run_closed
from .parser import boxed_from_circuit, parse_circuit_text
from .syntax import (
    App,
    Apply,
    ArrowType,
    BIT_TYPE,
    BangType,
    Box,
    Boxed,
    CircType,
    Force,
    Lam,
    Let,
    LetPair,
    LiftV,
    Pair,
    PqkType,
    QUBIT_TYPE,
    Return,
    TensorType,
    Term,
    UNIT_TYPE,
    Unit,
    Value,
    Var,
    children,
    format_term,
    is_parameter,
    substitute,
)
from .trees import (
    Lifted,
    LiftedLeaf,
    LiftedNode,
    all_vars,
    flatten_family,
    from_map,
    leaf,
    leaves,
    path_items,
    update_under,
)
from .typecheck import (
    Checker,
    ComputationTyping,
    EMPTY_TYPING_CONTEXT,
    check_closed_term,
    typecheck_closed_right_config,
)

SEED_CIRCUITS = {
    "INIT": "input(); Init0() -> q;",
    "HAD": "input(l:Qubit); H(l) -> l2;",
    "MEASD": "input(l:Qubit); Meas(l) -> b; Discard(b) -> *;",
    "ML": "input(l:Qubit); Meas(l) -> b; lift(b) => u;",
    "ONEWAY": "input(l:Qubit, k:Qubit); Meas(l) -> b; lift(b) => u; (u = 1) ? Meas(k) -> m;",
}


def seed_boxes() -> dict[str, Boxed]:
    return dict(_parsed_seed_boxes())


@functools.cache
def _parsed_seed_boxes() -> tuple[tuple[str, Boxed], ...]:
    """The seed circuits, parsed and checked once per process."""
    return tuple(
        (name, Boxed(boxed_from_circuit(parse_circuit_text(text))))
        for name, text in SEED_CIRCUITS.items()
    )


MOVE_WEIGHTS = {
    "finish": 1.0,
    "let_apply": 2.5,
    "let_general": 1.0,
    "app": 1.0,
    "force": 0.7,
    "box": 0.7,
    "lam": 0.9,
    "call": 2.0,
}


@dataclass
class GenConfig:
    seed: int = 0
    max_depth: int = 6


@dataclass
class Finding:
    program: str
    prop: str
    diagnostic: str


@dataclass
class _GenOut:
    term: Term
    type: Lifted  # of PqkType


class Generator:
    def __init__(self, cfg: GenConfig, rng: random.Random):
        self.cfg = cfg
        self.rng = rng
        self.boxes = seed_boxes()
        self.var_n = 0
        self.lifted_n = 0

    def fresh_var(self) -> str:
        self.var_n += 1
        return f"x{self.var_n}"

    def fresh_lifted(self) -> str:
        self.lifted_n += 1
        return f"g{self.lifted_n}"

    def gen_closed(self, depth: int) -> Term:
        return self.gen_term({}, depth).term

    # -- core recursion

    def gen_term(self, res: dict[str, PqkType], depth: int) -> _GenOut:
        if depth <= 0:
            return self.finish(res)
        moves = ["finish", "let_general", "app", "let_apply", "box", "lam"]
        if not any(not is_parameter(t) for t in res.values()):
            moves.append("force")
        if self._callable_arrows(res):
            moves.append("call")
        move = self.rng.choices(moves, [MOVE_WEIGHTS[m] for m in moves])[0]
        if move == "finish":
            return self.finish(res)
        if move == "let_apply":
            return self.gen_let_apply(res, depth)
        if move == "let_general":
            return self.gen_let_general(res, depth)
        if move == "app":
            return self.gen_app(res, depth)
        if move == "force":
            return self.gen_force(res, depth)
        if move == "lam":
            return self.gen_lam_stmt(res, depth)
        if move == "call":
            return self.gen_call_stmt(res, depth)
        return self.gen_box_stmt(res, depth)

    def finish(self, res: dict[str, PqkType]) -> _GenOut:
        value, ty = self.pack(res)
        return _GenOut(Return(value), leaf(ty))

    def pack(self, res: dict[str, PqkType]) -> tuple[Value, PqkType]:
        names = sorted(res)
        self.rng.shuffle(names)
        if not names:
            choice = self.rng.randrange(4)
            if choice == 0:
                name = self.rng.choice(sorted(self.boxes))
                box = self.boxes[name]
                return box, self._box_type(box)
            if choice == 1:
                return LiftV(Return(Unit())), BangType(leaf(UNIT_TYPE))
            return Unit(), UNIT_TYPE
        value: Value = Var(names[-1])
        ty = res[names[-1]]
        for name in reversed(names[:-1]):
            value = Pair(Var(name), value)
            ty = TensorType(res[name], ty)
        return value, ty

    def _box_type(self, box: Boxed) -> PqkType:
        ty, _ = Checker().check_value(EMPTY_TYPING_CONTEXT, box)
        return ty

    def _qubit_vars(self, res: dict[str, PqkType]) -> list[str]:
        return sorted(n for n, t in res.items() if t == QUBIT_TYPE)

    def _split(self, res: dict[str, PqkType]) -> tuple[dict, dict]:
        left, right = {}, {}
        for name, ty in res.items():
            (left if self.rng.random() < 0.5 else right)[name] = ty
        return left, right

    # -- statements under a let

    def gen_let_apply(self, res: dict[str, PqkType], depth: int) -> _GenOut:
        rng = self.rng
        qubits = self._qubit_vars(res)
        circ_vars = sorted(
            n for n, t in res.items()
            if isinstance(t, CircType) and t.in_type == QUBIT_TYPE and not all_vars(t.out)
        )
        options = ["INIT"]
        if qubits:
            options += ["HAD", "MEASD", "ML", "ML"]
            if circ_vars:
                options += ["varcirc", "varcirc"]
        if len(qubits) >= 2:
            options += ["ONEWAY"]
        kind = rng.choice(options)
        consumed: dict[str, PqkType] = {}
        if kind == "INIT":
            stmt: Term = Apply((), self.boxes["INIT"], Unit())
            ty: Lifted = leaf(QUBIT_TYPE)
        elif kind == "varcirc":
            cname = rng.choice(circ_vars)
            target = rng.choice(qubits)
            consumed = {cname: res[cname], target: QUBIT_TYPE}
            stmt = Apply((), Var(cname), Var(target))
            ty = res[cname].out
        elif kind in ("HAD", "MEASD"):
            target = rng.choice(qubits)
            consumed = {target: QUBIT_TYPE}
            stmt = Apply((), self.boxes[kind], Var(target))
            ty = leaf(QUBIT_TYPE if kind == "HAD" else UNIT_TYPE)
        elif kind == "ML":
            target = rng.choice(qubits)
            consumed = {target: QUBIT_TYPE}
            var = self.fresh_lifted()
            stmt = Apply((var,), self.boxes["ML"], Var(target))
            ty = LiftedNode(var, leaf(UNIT_TYPE), leaf(UNIT_TYPE))
        else:  # ONEWAY
            t1, t2 = rng.sample(qubits, 2)
            consumed = {t1: QUBIT_TYPE, t2: QUBIT_TYPE}
            var = self.fresh_lifted()
            stmt = Apply((var,), self.boxes["ONEWAY"], Pair(Var(t1), Var(t2)))
            ty = LiftedNode(var, leaf(QUBIT_TYPE), leaf(BIT_TYPE))
        rest = {n: t for n, t in res.items() if n not in consumed}
        return self._wrap_let(stmt, ty, rest, depth)

    def gen_let_general(self, res: dict[str, PqkType], depth: int) -> _GenOut:
        left, right = self._split(res)
        bound = self.gen_term(left, depth - 1)
        return self._wrap_let(bound.term, bound.type, right, depth)

    def _wrap_let(self, stmt: Term, ty: Lifted, rest: dict[str, PqkType], depth: int) -> _GenOut:
        x = self.fresh_var()
        branch_terms: dict = {}
        branch_types: dict = {}
        for p, x_ty in path_items(ty):
            sub_res = dict(rest)
            sub_res[x] = x_ty
            sub = self.gen_term(sub_res, depth - 1)
            branch_terms[p] = sub.term
            branch_types[p] = sub.type
        return _GenOut(Let(x, stmt, from_map(ty, branch_terms)), flatten_family(ty, branch_types))

    def gen_app(self, res: dict[str, PqkType], depth: int) -> _GenOut:
        left, right = self._split(res)
        arg, arg_ty = self.pack(left)
        x = self.fresh_var()
        body = self._gen_binder_body(x, arg_ty, right, depth)
        return _GenOut(App(Lam(x, arg_ty, body.term), arg), body.type)

    def _gen_binder_body(self, x: str, ty: PqkType, rest: dict[str, PqkType], depth: int) -> _GenOut:
        """Body consuming x : ty plus rest; tensors are destructured first."""
        if isinstance(ty, TensorType) and self.rng.random() < 0.8:
            a, b = self.fresh_var(), self.fresh_var()
            res = dict(rest)
            res[a] = ty.left
            res[b] = ty.right
            inner = self.gen_term(res, depth - 1)
            return _GenOut(LetPair(a, b, Var(x), inner.term), inner.type)
        res = dict(rest)
        res[x] = ty
        return self.gen_term(res, depth - 1)

    def gen_force(self, res: dict[str, PqkType], depth: int) -> _GenOut:
        if res:
            return self.finish(res)
        inner = self.gen_term({}, min(depth - 1, 2))
        return _GenOut(Force(LiftV(inner.term)), inner.type)

    def _callable_arrows(self, res: dict[str, PqkType]) -> list[str]:
        """Arrow-typed resources whose argument we can synthesize right now."""
        out = []
        for name, ty in res.items():
            if not isinstance(ty, ArrowType):
                continue
            if ty.dom == UNIT_TYPE:
                out.append(name)
            elif ty.dom == QUBIT_TYPE and any(
                n != name and t == QUBIT_TYPE for n, t in res.items()
            ):
                out.append(name)
        return sorted(out)

    def gen_lam_stmt(self, res: dict[str, PqkType], depth: int) -> _GenOut:
        """Bind a lambda that may capture linear resources from the context."""
        captured = {}
        rest = {}
        for name, ty in res.items():
            (captured if self.rng.random() < 0.4 else rest)[name] = ty
        y = self.fresh_var()
        dom = self.rng.choice([QUBIT_TYPE, UNIT_TYPE])
        body_res = dict(captured)
        body_res[y] = dom
        body = self.gen_term(body_res, max(depth - 2, 0))
        lam_ty = ArrowType(dom, body.type)
        stmt = Return(Lam(y, dom, body.term))
        return self._wrap_let(stmt, leaf(lam_ty), rest, depth)

    def gen_call_stmt(self, res: dict[str, PqkType], depth: int) -> _GenOut:
        """Apply an arrow-typed resource variable to a synthesized argument."""
        fname = self.rng.choice(self._callable_arrows(res))
        fty = res[fname]
        assert isinstance(fty, ArrowType)
        consumed = {fname: fty}
        if fty.dom == UNIT_TYPE:
            arg: Value = Unit()
        else:
            qubits = [n for n, t in res.items() if n != fname and t == QUBIT_TYPE]
            target = self.rng.choice(sorted(qubits))
            consumed[target] = QUBIT_TYPE
            arg = Var(target)
        stmt = App(Var(fname), arg)
        rest = {n: t for n, t in res.items() if n not in consumed}
        return self._wrap_let(stmt, fty.cod, rest, depth)

    def gen_box_stmt(self, res: dict[str, PqkType], depth: int) -> _GenOut:
        y = self.fresh_var()
        if self.rng.random() < 0.5:
            fn = Lam(y, QUBIT_TYPE, Apply((), self.boxes["HAD"], Var(y)))
            stmt: Term = Box(QUBIT_TYPE, LiftV(Return(fn)))
            ty: PqkType = CircType(QUBIT_TYPE, leaf(QUBIT_TYPE))
        else:
            w = self.fresh_lifted()
            inner = Let(
                self.fresh_var(),
                Apply((w,), self.boxes["ML"], Var(y)),
                LiftedNode(w, leaf(Return(Unit())), leaf(Return(Unit()))),
            )
            fn = Lam(y, QUBIT_TYPE, inner)
            stmt = Box(QUBIT_TYPE, LiftV(Return(fn)))
            ty = CircType(QUBIT_TYPE, LiftedNode(w, leaf(UNIT_TYPE), leaf(UNIT_TYPE)))
        return self._wrap_let(stmt, leaf(ty), dict(res), depth)


# ---------------------------------------------------------------------------
# Corpus generation


def gen_corpus(cfg: GenConfig, count: int) -> list[Term]:
    """count generated programs, each checked by the type checker."""
    return [term for term, _ in _checked_programs(cfg, count)]


def _checked_programs(cfg: GenConfig, count: int) -> Iterator[tuple[Term, ComputationTyping]]:
    """gen_corpus's programs one at a time, each with its typing."""
    rng = random.Random(cfg.seed)
    for _ in range(count):
        term = Generator(cfg, rng).gen_closed(cfg.max_depth)
        yield term, check_closed_term(term)


def count_lifting_applies(term) -> int:
    """Number of apply occurrences naming at least one lifted variable."""
    return (type(term) is Apply and bool(term.vars)) + sum(map(count_lifting_applies, children(term)))


# ---------------------------------------------------------------------------
# Property checks


def check_sr(term: Term, fuel: int = DEFAULT_FUEL, shrink: bool = True) -> Finding | None:
    """Subject reduction: a Done result re-typechecks at the static typing."""
    expected = check_closed_term(term)
    return _sr_verdict(term, expected, run_closed(term, EvalEnv(fuel=fuel)), fuel, shrink)


def _sr_verdict(term: Term, expected, outcome, fuel: int, shrink: bool) -> Finding | None:
    """check_sr's verdict on the typing and the outcome of term."""
    if not isinstance(outcome, Done):
        return None  # FuelExhausted is not an SR counterexample; Stuck is progress's
    report = typecheck_closed_right_config(outcome.config.circuit, outcome.config.value, expected)
    if report.ok:
        return None
    if shrink:
        term = shrink_finding(term, _violated(lambda t: check_sr(t, fuel, shrink=False)))
    return Finding(format_term(term), "subject-reduction", "; ".join(report.failures))


def check_progress(term: Term, fuel: int = DEFAULT_FUEL) -> Finding | None:
    """Progress: evaluation of a well-typed program is never Stuck."""
    check_closed_term(term)
    return _progress_verdict(term, run_closed(term, EvalEnv(fuel=fuel)), fuel)


def _progress_verdict(term: Term, outcome, fuel: int, shrink: bool = True) -> Finding | None:
    """check_progress's verdict on the outcome of the well-typed term."""
    if not isinstance(outcome, Stuck):
        return None
    if shrink:
        def verdict(t: Term) -> Finding | None:
            check_closed_term(t)
            return _progress_verdict(t, run_closed(t, EvalEnv(fuel=fuel)), fuel, False)

        return verdict(shrink_finding(term, _violated(verdict)))  # evaluation is deterministic
    return Finding(format_term(term), "progress", f"stuck: {outcome.reason}")


def _violated(verdict) -> Callable[[Term], bool]:
    """Shrink predicate from a verdict run with shrinking off: a candidate the
    checker rejects is not a violation."""

    def still_fails(t: Term) -> bool:
        try:
            return verdict(t) is not None
        except TypeCheckError:
            return False

    return still_fails


# ---------------------------------------------------------------------------
# Shrinking


def shrink_candidates(term: Term):
    """Structural reductions tried by the shrinker (candidates may be ill-typed).

    A let's branches have its variable free, so besides the bound term and the
    branches themselves the let is also offered with its bound term, or one
    branch, replaced by each of that subterm's own candidates; a let of a
    returned value, and a pair destructor of a pair, are offered with the
    value substituted into the body.  A lambda's body is shrunk in place, both
    in a returned lambda and in the function of an application.
    """
    if isinstance(term, Let):
        yield term.bound
        yield from leaves(term.branches)
        if isinstance(term.bound, Return) and isinstance(term.branches, LiftedLeaf):
            yield substitute(term.branches.value, term.bound.value, term.var)
        for cand in shrink_candidates(term.bound):
            yield Let(term.var, cand, term.branches, term.span)
        for p, m in path_items(term.branches):
            for cand in shrink_candidates(m):
                branches = update_under(term.branches, p, lambda _p, _m: leaf(cand))
                yield Let(term.var, term.bound, branches, term.span)
    if isinstance(term, App) and isinstance(term.fn, Lam):
        yield substitute(term.fn.body, term.arg, term.fn.var)
        for lam in _shrink_lambda(term.fn):
            yield App(lam, term.arg, term.span)
    if isinstance(term, Return) and isinstance(term.value, Lam):
        for lam in _shrink_lambda(term.value):
            yield Return(lam, term.span)
    if isinstance(term, Force) and isinstance(term.value, LiftV):
        yield term.value.body
    if isinstance(term, LetPair):
        yield term.body
        if isinstance(term.value, Pair):
            body = substitute(term.body, term.value.left, term.var1)
            yield substitute(body, term.value.right, term.var2)
    yield Return(Unit())


def _shrink_lambda(lam: Lam):
    for cand in shrink_candidates(lam.body):
        yield Lam(lam.var, lam.ann, cand, lam.span)


def shrink_finding(term: Term, still_fails, max_steps: int = 200) -> Term:
    """Greedy shrink: take any candidate that preserves the violation."""
    steps = 0
    changed = True
    while changed and steps < max_steps:
        changed = False
        for cand in shrink_candidates(term):
            steps += 1
            if cand != term and still_fails(cand):
                term = cand
                changed = True
                break
    return term


# ---------------------------------------------------------------------------
# Harness


@dataclass
class FuzzReport:
    count: int
    sr_findings: list[Finding]
    progress_findings: list[Finding]
    fuel_exhausted: int
    lifting_apply_fraction: float

    def ok(self) -> bool:
        return not self.sr_findings and not self.progress_findings


def run_fuzz(cfg: GenConfig, count: int, fuel: int = DEFAULT_FUEL) -> FuzzReport:
    """Generate count programs and check subject reduction and progress on each.

    The programs are gen_corpus's.  Each is type-checked once, as it is
    generated, and evaluated once; both verdicts read that one typing and
    that one outcome (evaluation is deterministic), and only a finding is
    shrunk.
    """
    sr: list[Finding] = []
    progress: list[Finding] = []
    exhausted = 0
    with_lifts = 0
    for term, expected in _checked_programs(cfg, count):
        if count_lifting_applies(term) > 0:
            with_lifts += 1
        outcome = run_closed(term, EvalEnv(fuel=fuel))
        if isinstance(outcome, FuelExhausted):
            exhausted += 1
        finding = _sr_verdict(term, expected, outcome, fuel, shrink=True)
        if finding:
            sr.append(finding)
        finding = _progress_verdict(term, outcome, fuel)
        if finding:
            progress.append(finding)
    return FuzzReport(count, sr, progress, exhausted, with_lifts / max(count, 1))
