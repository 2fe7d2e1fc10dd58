"""Per-program work happens once: one type-check per fuzz program, one Circ
typing per boxed circuit object, one rewrite per appended instruction."""

from __future__ import annotations

import pytest

import pqk.circuit
import pqk.fuzz
import pqk.typecheck
from pqk.circuit import BoxedCircuit, Circuit, FreshLabels, GateApp, LabelContext, append
from pqk.errors import TypeCheckError
from pqk.fuzz import GenConfig, run_fuzz
from pqk.parser import parse_program
from pqk.syntax import QUBIT, Boxed, LabelVal
from pqk.trees import EMPTY_ASSIGNMENT, leaf
from pqk.typecheck import check_closed_term, check_closed_value


def counting(monkeypatch, owner, name, count_if=lambda *args: True) -> list:
    """Replace owner.name by a wrapper that records each call count_if accepts."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        if count_if(*args):
            calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("seed", [2, 5])
def test_run_fuzz_checks_each_program_once(monkeypatch, seed):
    calls = counting(monkeypatch, pqk.fuzz, "check_closed_term")
    report = run_fuzz(GenConfig(seed=seed), 12)
    assert report.ok()
    assert len(calls) == 12


@pytest.mark.parametrize("applies", [1, 4, 16])
def test_a_constant_is_typed_once_however_often_it_is_applied(monkeypatch, applies):
    src = (
        "circuit INIT = crl { input(); Init0() -> q; }\n"
        "circuit HAD = crl { input(l:Qubit); H(l) -> l2; }\n"
        "let q = apply(INIT, *) in\n"
        + "let q = apply(HAD, q) in\n" * applies
        + "return q"
    )
    prog = parse_program(src)
    had = prog.circuits["HAD"].circuit
    signatures = counting(monkeypatch, pqk.typecheck, "check_signature", lambda c: c is had)
    check_closed_term(prog.main)
    check_closed_term(prog.main)
    assert len(signatures) == 1


def test_a_failed_typing_raises_on_every_check(monkeypatch):
    # the input tuple names a label the circuit does not have
    bad = BoxedCircuit(LabelVal("k"), Circuit(LabelContext.of({"l": QUBIT})), leaf(LabelVal("l")))
    signatures = counting(monkeypatch, pqk.typecheck, "check_signature")
    for _ in range(2):
        with pytest.raises(TypeCheckError) as exc:
            check_closed_value(Boxed(bad))
        assert exc.value.rule == "circ"
    assert len(signatures) == 2


@pytest.mark.parametrize("k", [1, 3, 8])
def test_append_rewrites_each_body_instruction_once(monkeypatch, k):
    labels = [f"l{i}" for i in range(k + 1)]
    body = Circuit(
        LabelContext.of({labels[0]: QUBIT}),
        tuple(GateApp(EMPTY_ASSIGNMENT, "H", LabelVal(a), LabelVal(b)) for a, b in zip(labels, labels[1:])),
    )
    boxed = BoxedCircuit(LabelVal(labels[0]), body, leaf(LabelVal(labels[-1])))
    start = Circuit(LabelContext.of({"q": QUBIT}))
    rewrites = counting(monkeypatch, pqk.circuit, "_rewrite")
    out, out_tuples = append(start, EMPTY_ASSIGNMENT, LabelVal("q"), boxed, [], FreshLabels())
    assert len(rewrites) == k
    assert len(out.instructions) == k
    assert out_tuples == leaf(LabelVal(f"%{k - 1}"))
