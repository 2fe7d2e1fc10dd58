"""Surface-syntax parser for .pqk programs and textual CRL circuits.

Terms: ``let x = M in case u { 0 => N0 | 1 => N1 }``, ``let (x,y) = V in M``,
``fun (x:A) -> M``, ``lift M``, ``force V``, ``box[T] V``,
``apply[u1,...,un](V, W)``, ``return V``, ``(V, W)``, ``*``.
Types: ``Unit | Bit | Qubit | A -o[t] beta | !alpha | Circ[t](T, theta) | A * B``
with trees written ``<u ? t0 | t1>`` and ``_`` for the empty tree.
Boxed-circuit literals: ``crl { input(l:Qubit); H(l) -> l2; }`` inline or via
top-level ``circuit NAME = crl { ... }`` definitions.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from . import trees
from .circuit import (
    BoxedCircuit,
    Circuit,
    DEFAULT_GATES,
    GateApp,
    GateSet,
    LabelContext,
    LiftInstr,
    check_signature,
    mtuple,
    mvalue_labels,
)
from .errors import CircuitError, PqkSyntaxError
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
    LabelVal,
    Lam,
    Let,
    LetPair,
    LiftV,
    Pair,
    PqkType,
    QUBIT_TYPE,
    Return,
    Span,
    TensorType,
    Term,
    Unit,
    UNIT_TYPE,
    Value,
    Var,
    WireT,
    WireType,
    format_type,
    is_mtype,
)
from .trees import (
    Assignment,
    EMPTY_ASSIGNMENT,
    Lifted,
    LiftedNode,
    leaf,
)

KEYWORDS = {
    "let", "in", "fun", "lift", "force", "box", "apply", "return",
    "case", "when", "do", "circuit", "crl", "input",
    "Unit", "Bit", "Qubit", "Circ",
}

# The keywords that start a term; any other term is an application of two values.
TERM_KEYWORDS = ("let", "force", "box", "apply", "return")

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<genlabel>%\d+)
  | (?P<number>\d+)
  | (?P<sym>=>|->|-o|[()\[\]{}<>!*,;:?|=])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # ident | genlabel | number | sym | eof
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col)


def tokenize(src: str) -> list[Token]:
    """src's tokens, then two eof tokens (text "") at the end of input: the
    parser looks at most one token ahead and never moves past an eof."""
    tokens = []
    line, line_start = 1, 0  # line_start: the offset just after the last newline
    for m in _TOKEN_RE.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "ws":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + text.rfind("\n") + 1
            continue
        col = m.start() - line_start + 1
        if kind == "bad":
            raise PqkSyntaxError(f"unexpected character {text!r}", line, col)
        tokens.append(Token(kind, text, line, col))
    eof = Token("eof", "", line, len(src) - line_start + 1)
    return tokens + [eof, eof]


@dataclass
class Program:
    main: Term | Value
    circuits: dict[str, BoxedCircuit]


class _Parser:
    def __init__(self, src: str, gateset: GateSet):
        self.tokens = tokenize(src)
        self.pos = 0
        self.gateset = gateset
        # the program's circuit constants, and how many binders in scope shadow each name
        self.constants: dict[str, Boxed] = {}
        self.binders: Counter[str] = Counter()

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def at_ident(self) -> bool:
        return self.peek().kind == "ident" and self.peek().text not in KEYWORDS

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise PqkSyntaxError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise PqkSyntaxError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        return self.next()

    def expect_label(self) -> Token:
        """Wire labels: user identifiers or machine-generated %n names."""
        tok = self.peek()
        if tok.kind == "genlabel":
            return self.next()
        return self.expect_ident("wire label")

    def expect_bit(self) -> int:
        tok = self.peek()
        if tok.kind != "number" or tok.text not in ("0", "1"):
            raise PqkSyntaxError(f"expected bit 0 or 1, found {tok.text!r}", tok.line, tok.col)
        self.next()
        return int(tok.text)

    def fail(self, message: str):
        tok = self.peek()
        raise PqkSyntaxError(message, tok.line, tok.col)

    # -- programs

    def parse_program(self) -> Program:
        """The circuit constants, then the main term or value, in which every
        use of a constant's name that no binder shadows is the constant's one
        shared Boxed node."""
        circuits: dict[str, BoxedCircuit] = {}
        while self.accept("circuit"):
            name = self.expect_ident("circuit name")
            self.expect("=")
            boxed = self.parse_crl_literal()
            if name.text in circuits:
                raise PqkSyntaxError(f"circuit {name.text} defined twice", name.line, name.col)
            circuits[name.text] = boxed
        self.constants = {name: Boxed(boxed) for name, boxed in circuits.items()}
        return Program(self.parse_term_or_value(), circuits)

    # -- terms

    def parse_term_or_value(self):
        tok = self.peek()
        if tok.text in TERM_KEYWORDS:
            return self.parse_term()
        value = self.parse_value()
        if self._at_value_atom():
            arg = self.parse_value_atom()
            return App(value, arg, span=tok.span)
        return value

    def parse_term(self) -> Term:
        tok = self.peek()
        if self.at("(") and self.peek(1).text in TERM_KEYWORDS:
            self.expect("(")
            inner = self.parse_term()
            self.expect(")")
            return inner
        if self.accept("let"):
            if self.accept("("):
                x = self.expect_ident("binder").text
                self.expect(",")
                y = self.expect_ident("binder").text
                self.expect(")")
                self.expect("=")
                value = self.parse_value()
                self.expect("in")
                self.binders[x] += 1
                self.binders[y] += 1
                body = self.parse_term()
                self.binders[x] -= 1
                self.binders[y] -= 1
                return LetPair(x, y, value, body, span=tok.span)
            x = self.expect_ident("binder").text
            self.expect("=")
            bound = self.parse_term()
            self.expect("in")
            self.binders[x] += 1
            # a plain continuation is read in this frame: one frame per `let`
            if self.at("case") or self.at("when"):
                branches = self.parse_lifted_term()
            else:
                branches = leaf(self.parse_term())
            self.binders[x] -= 1
            return Let(x, bound, branches, span=tok.span)
        if self.accept("force"):
            return Force(self.parse_value(), span=tok.span)
        if self.accept("box"):
            self.expect("[")
            mtype = self.parse_mtype()
            self.expect("]")
            return Box(mtype, self.parse_value(), span=tok.span)
        if self.accept("apply"):
            vars_: tuple[str, ...] = ()
            if self.accept("["):
                names = [self.expect_ident("lifted variable").text]
                while self.accept(","):
                    names.append(self.expect_ident("lifted variable").text)
                self.expect("]")
                vars_ = tuple(names)
            self.expect("(")
            boxed = self.parse_value()
            self.expect(",")
            arg = self.parse_value()
            self.expect(")")
            return Apply(vars_, boxed, arg, span=tok.span)
        if self.accept("return"):
            return Return(self.parse_value(), span=tok.span)
        term = self.parse_term_or_value()
        if not isinstance(term, App):
            self.fail("expected a term (a bare value needs `return`)")
        return term

    def parse_lifted_term(self) -> Lifted:
        tok = self.peek()
        if self.accept("case"):
            var = self.expect_ident("lifted variable").text
            self.expect("{")
            bit = self.expect_bit()
            if bit != 0:
                raise PqkSyntaxError("case arms must be written 0 first, then 1", tok.line, tok.col)
            self.expect("=>")
            zero = self.parse_lifted_term()
            self.expect("|")
            bit = self.expect_bit()
            if bit != 1:
                raise PqkSyntaxError("second case arm must be 1", tok.line, tok.col)
            self.expect("=>")
            one = self.parse_lifted_term()
            self.expect("}")
            return LiftedNode(var, zero, one)
        if self.accept("when"):
            var = self.expect_ident("lifted variable").text
            self.expect("=")
            bit = self.expect_bit()
            self.expect("do")
            body = self.parse_term()
            other = self._when_other_branch(body, tok)
            if bit == 1:
                return LiftedNode(var, leaf(other), leaf(body))
            return LiftedNode(var, leaf(body), leaf(other))
        return leaf(self.parse_term())

    def _when_other_branch(self, body: Term, tok: Token) -> Term:
        if isinstance(body, (Apply, App)):
            return Return(body.arg)
        raise PqkSyntaxError(
            "`when` sugar only applies to an application; write an explicit case",
            tok.line, tok.col,
        )

    # -- values

    def _at_value_atom(self) -> bool:
        tok = self.peek()
        return tok.text in ("*", "(", "crl") or self.at_ident()

    def parse_value(self) -> Value:
        tok = self.peek()
        if self.accept("fun"):
            self.expect("(")
            x = self.expect_ident("binder").text
            self.expect(":")
            ann = self.parse_type()
            self.expect(")")
            self.expect("->")
            self.binders[x] += 1
            body = self.parse_term()
            self.binders[x] -= 1
            return Lam(x, ann, body, span=tok.span)
        if self.accept("lift"):
            return LiftV(self.parse_term(), span=tok.span)
        return self.parse_value_atom()

    def parse_value_atom(self) -> Value:
        tok = self.peek()
        if self.accept("*"):
            return Unit(span=tok.span)
        if self.at("crl"):
            return Boxed(self.parse_crl_literal(), span=tok.span)
        if self.accept("("):
            value = self.parse_tuple(self.parse_value)
            self.expect(")")
            return value
        if self.at_ident():
            name = self.next()
            if name.text in self.constants and not self.binders[name.text]:
                return self.constants[name.text]
            return Var(name.text, span=name.span)
        self.fail(f"expected a value, found {tok.text!r}")

    def parse_tuple(self, parse_item: Callable[[], Value]) -> Value:
        """Comma-separated items that parse_item reads, right-nested into pairs."""
        items = [parse_item()]
        while self.accept(","):
            items.append(parse_item())
        value = items.pop()
        while items:
            value = Pair(items.pop(), value)
        return value

    # -- types

    def parse_type(self) -> PqkType:
        left = self.parse_tensor_type()
        if self.accept("-o"):
            annotated: Lifted | None = None
            if self.accept("["):
                annotated = self.parse_lifted(self.parse_hole)
                self.expect("]")
            cod = self.parse_lifted(self.parse_type)
            if annotated is not None and cod.tree() != annotated:
                self.fail("arrow annotation tree does not match the codomain's shape")
            return ArrowType(left, cod)
        return left

    def parse_tensor_type(self) -> PqkType:
        left = self.parse_type_atom()
        if self.accept("*"):
            return TensorType(left, self.parse_tensor_type())
        return left

    def parse_type_atom(self) -> PqkType:
        tok = self.peek()
        if self.accept("Unit"):
            return UNIT_TYPE
        if self.accept("Bit"):
            return BIT_TYPE
        if self.accept("Qubit"):
            return QUBIT_TYPE
        if self.accept("!"):
            if self.at("<"):
                return BangType(self.parse_lifted(self.parse_type))
            return BangType(leaf(self.parse_type_atom()))
        if self.accept("Circ"):
            self.expect("[")
            tree = self.parse_lifted(self.parse_hole)
            self.expect("]")
            self.expect("(")
            in_type = self.parse_mtype()
            self.expect(",")
            out = self.parse_lifted(self.parse_mtype)
            self.expect(")")
            if out.tree() != tree:
                self.fail("Circ annotation tree does not match the output shape")
            return CircType(in_type, out)
        if self.accept("("):
            inner = self.parse_type()
            self.expect(")")
            return inner
        self.fail(f"expected a type, found {tok.text!r}")

    def parse_lifted(self, parse_leaf: Callable[[], Any]) -> Lifted:
        """A lifted object ``<u ? a | b>`` whose leaves parse_leaf reads."""
        if not self.accept("<"):
            return leaf(parse_leaf())
        var = self.expect_ident("lifted variable").text
        self.expect("?")
        zero = self.parse_lifted(parse_leaf)
        self.expect("|")
        one = self.parse_lifted(parse_leaf)
        self.expect(">")
        return LiftedNode(var, zero, one)

    def parse_hole(self) -> None:
        """A lifting tree's leaf, written ``_``."""
        self.expect("_")

    def parse_mtype(self) -> PqkType:
        tok = self.peek()
        ty = self.parse_type()
        if not is_mtype(ty):
            raise PqkSyntaxError(f"expected an M-type, found {format_type(ty)}", tok.line, tok.col)
        return ty

    # -- CRL circuits

    def parse_crl_literal(self) -> BoxedCircuit:
        start = self.expect("crl")
        self.expect("{")
        circuit = self.parse_circuit_body("}")
        self.expect("}")
        try:
            return boxed_from_circuit(circuit)
        except CircuitError as exc:
            raise PqkSyntaxError(f"invalid circuit literal: {exc}", start.line, start.col) from exc

    def parse_circuit_body(self, stop: str | None) -> Circuit:
        self.expect("input")
        self.expect("(")
        entries = []
        if not self.at(")"):
            while True:
                name = self.expect_label().text
                self.expect(":")
                entries.append((name, self.parse_wiretype()))
                if not self.accept(","):
                    break
        self.expect(")")
        self.expect(";")
        circuit = Circuit(LabelContext.of(entries), gateset=self.gateset)
        while not (self.peek().kind == "eof" or (stop is not None and self.at(stop))):
            circuit = circuit.extended(self.parse_instruction())
        return circuit

    def parse_wiretype(self) -> WireType:
        tok = self.peek()
        ty = self.parse_type_atom()
        if not isinstance(ty, WireT):
            raise PqkSyntaxError("expected Bit or Qubit", tok.line, tok.col)
        return ty.wire

    def parse_instruction(self):
        cond = EMPTY_ASSIGNMENT
        if self.at("("):
            cond = self.parse_condition()
            self.expect("?")
        if self.accept("lift"):
            self.expect("(")
            wire = self.expect_label().text
            self.expect(")")
            self.expect("=>")
            var = self.expect_ident("lifted variable").text
            self.expect(";")
            return LiftInstr(cond, wire, var)
        gate = self.expect_ident("gate name").text
        self.expect("(")
        inputs = self.parse_mvalue_args()
        self.expect(")")
        self.expect("->")
        outputs = self.parse_mvalue()
        self.expect(";")
        return GateApp(cond, gate, inputs, outputs)

    def parse_condition(self) -> Assignment:
        self.expect("(")
        bindings = {}
        while True:
            name = self.expect_ident("lifted variable").text
            self.expect("=")
            bit = self.expect_bit()
            if name in bindings:
                self.fail(f"variable {name} bound twice in condition")
            bindings[name] = bit
            if not (self.accept(";") or self.accept(",")):
                break
        self.expect(")")
        return Assignment.of(bindings)

    def parse_mvalue_args(self) -> Value:
        return Unit() if self.at(")") else self.parse_tuple(self.parse_mvalue)

    def parse_mvalue(self) -> Value:
        if self.accept("*"):
            return Unit()
        if self.accept("("):
            inner = self.parse_mvalue_args()
            self.expect(")")
            return inner
        name = self.expect_label()
        return LabelVal(name.text)


def boxed_from_circuit(circuit: Circuit) -> BoxedCircuit:
    """Boxed-circuit layout convention for crl literals.

    The input tuple takes the input header's labels in declaration order; each
    branch's output tuple orders its labels by first introduction in the
    circuit text.
    """
    sig = check_signature(circuit)
    rank: dict[str, int] = {}
    for name, _ in circuit.input.entries:
        rank[name] = len(rank)
    for ins in circuit.instructions:
        if isinstance(ins, GateApp):
            for name in mvalue_labels(ins.outputs):
                rank[name] = len(rank)
    in_tuple = mtuple(name for name, _ in circuit.input.entries)
    out_tuples = trees.map_leaves(
        sig.outputs,
        lambda ctx: mtuple(sorted(ctx.domain(), key=lambda n: rank[n])),
    )
    return BoxedCircuit(in_tuple, circuit, out_tuples)


# ---------------------------------------------------------------------------
# Entry points


def _parse_whole(src: str, parse: Callable[[_Parser], Any], gateset: GateSet = DEFAULT_GATES) -> Any:
    """parse all of src: what parse reads, followed by the end of input."""
    p = _Parser(src, gateset)
    out = parse(p)
    tok = p.peek()
    if tok.kind != "eof":
        raise PqkSyntaxError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
    return out


def parse_program(src: str, gateset: GateSet = DEFAULT_GATES) -> Program:
    return _parse_whole(src, _Parser.parse_program, gateset)


def parse_term(src: str, gateset: GateSet = DEFAULT_GATES) -> Term:
    parsed = parse_program(src, gateset).main
    if not isinstance(parsed, Term):
        raise PqkSyntaxError("expected a term, found a value")
    return parsed


def parse_value(src: str, gateset: GateSet = DEFAULT_GATES) -> Value:
    parsed = parse_program(src, gateset).main
    if not isinstance(parsed, Value):
        raise PqkSyntaxError("expected a value, found a term")
    return parsed


def parse_circuit_text(src: str, gateset: GateSet = DEFAULT_GATES) -> Circuit:
    """Standalone textual CRL circuit: input header then instructions, over gateset."""
    return _parse_whole(src, lambda p: p.parse_circuit_body(stop=None), gateset)


def parse_type_text(src: str) -> PqkType:
    return _parse_whole(src, _Parser.parse_type)


def parse_mtype_text(src: str) -> PqkType:
    return _parse_whole(src, _Parser.parse_mtype)
