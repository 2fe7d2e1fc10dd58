"""A circuit carries the gate set it was made under: only the parser (which
makes `crl` literals) takes one, and every later judgment, the evaluator
included, reads it off the circuits."""

from __future__ import annotations

import dataclasses
import inspect
import pkgutil
from importlib import import_module

import pytest

import pqk
from pqk.circuit import DEFAULT_GATES, Gate, GateSet, check_signature, circuit_to_json, rename_circuit
from pqk.errors import UnknownGate
from pqk.interp import Done, Stuck, run_closed
from pqk.parser import parse_circuit_text, parse_program, parse_term, parse_value
from pqk.syntax import QUBIT_TYPE, TensorType, format_value, substitute
from pqk.trees import leaves
from pqk.typecheck import check_closed_term

from oracles import circuit_from_json

# The carried field, the signature fold step and the parser's entry points.
TAKES_A_GATESET = {
    "circuit.Circuit.gateset",
    "circuit.extend_signature",
    "parser._Parser.__init__",
    "parser._parse_whole",
    "parser.parse_program",
    "parser.parse_term",
    "parser.parse_value",
    "parser.parse_circuit_text",
}

_Q2 = TensorType(QUBIT_TYPE, QUBIT_TYPE)
WITH_SWAP = GateSet([Gate("SWAP", _Q2, _Q2)] + [DEFAULT_GATES.get(n) for n in DEFAULT_GATES.names()])

SWAP_PROGRAM = """
circuit INIT = crl { input(); Init0() -> q; }
circuit SW = crl { input(a:Qubit, b:Qubit); SWAP(a, b) -> (c, d); }
let s = box[Qubit * Qubit] (lift return fun (p : Qubit * Qubit) -> apply(SW, p)) in
let a = apply(INIT, *) in
let b = apply(INIT, *) in
let ab = apply(s, (a, b)) in
return (ab, SW)
"""


def _takes_a_gateset(module) -> set[str]:
    short = module.__name__.removeprefix("pqk.")
    found = set()
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and "gateset" in inspect.signature(obj).parameters:
            found.add(f"{short}.{name}")
        if not inspect.isclass(obj):
            continue
        if dataclasses.is_dataclass(obj):
            found.update(f"{short}.{name}.{f.name}" for f in dataclasses.fields(obj) if f.name == "gateset")
        for attr, member in vars(obj).items():
            if dataclasses.is_dataclass(obj) and attr == "__init__":
                continue  # its parameters are the fields above
            if inspect.isfunction(member) and "gateset" in inspect.signature(member).parameters:
                found.add(f"{short}.{name}.{attr}")
    return found


def test_only_circuit_makers_take_a_gateset():
    found = set()
    for info in pkgutil.iter_modules(pqk.__path__):
        found |= _takes_a_gateset(import_module(f"pqk.{info.name}"))
    assert found == TAKES_A_GATESET


def test_checker_evaluator_and_signature_read_the_carried_set():
    main = parse_program(SWAP_PROGRAM, WITH_SWAP).main
    typing = check_closed_term(main)
    assert str(typing) == "(_, (Qubit * Qubit) * Circ[_](Qubit * Qubit, Qubit * Qubit))"
    outcome = run_closed(main)
    assert isinstance(outcome, Done)
    circuit = outcome.config.circuit
    assert [ins.gate for ins in circuit.instructions] == ["Init0", "Init0", "SWAP"]
    assert circuit.gateset is WITH_SWAP
    sig = check_signature(circuit)
    assert len(sig.outputs.value) == 2
    assert check_signature(rename_circuit(circuit)) == sig
    (value,) = leaves(outcome.config.value)
    assert format_value(value.right) == "crl { input(a:Qubit, b:Qubit); SWAP(a, b) -> (c, d); }"


def test_a_body_under_another_set_is_an_append_precondition():
    # A non-empty circuit under the default set meets a body parsed under
    # WITH_SWAP: only a library caller mixing two parses can build this.
    sw = parse_value("crl { input(a:Qubit, b:Qubit); SWAP(a, b) -> (c, d); }", WITH_SWAP)
    term = parse_term(
        "let a = apply(crl { input(); Init0() -> q; }, *) in "
        "let b = apply(crl { input(); Init0() -> q; }, *) in apply(s, (a, b))"
    )
    outcome = run_closed(substitute(term, sw, "s"))
    assert isinstance(outcome, Stuck)
    assert outcome.reason.startswith("AppendPrecondition: the boxed circuit's gate set")


def test_json_decoder_reads_back_under_the_given_set():
    c = parse_circuit_text("input(a:Qubit, b:Qubit); SWAP(a, b) -> (c, d);", WITH_SWAP)
    data = circuit_to_json(c)
    back = circuit_from_json(data, WITH_SWAP)
    assert back == c
    assert back.gateset is WITH_SWAP
    assert check_signature(back) == check_signature(c)
    with pytest.raises(UnknownGate):
        check_signature(circuit_from_json(data))
