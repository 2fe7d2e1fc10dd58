"""Every lifting tree is read off the lifted object it shapes.

A computation's tree is the shape of its lifted type, and a signature's tree
is the shape of its output contexts; neither is stored beside that object.
Also the progress shrinker, which runs the verdict with shrinking off.
"""

from __future__ import annotations

import dataclasses
import pathlib

import pqk.circuit
import pqk.typecheck
from pqk.circuit import Circuit, CircuitSignature, SignatureState, check_signature
from pqk.errors import TypeCheckError
from pqk.fuzz import GenConfig, _GenOut, check_progress, gen_corpus, shrink_candidates
from pqk.interp import Done, EvalEnv, Stuck, run_closed
from pqk.parser import parse_program, parse_term
from pqk.syntax import Let, Return, Term, Unit, children, format_term
from pqk.trees import leaf, path_set
from pqk.typecheck import ComputationTyping, check_closed_term

from mutants import stuck_lifting_apply

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"


def program_terms() -> list[Term]:
    """The well-typed terms among programs/*.pqk."""
    out = []
    for path in sorted(PROGRAMS.glob("*.pqk")):
        main = parse_program(path.read_text()).main
        if isinstance(main, Term) and path.name != "bad_dup_use.pqk":
            out.append(main)
    return out


def count_lets(x) -> int:
    return (type(x) is Let) + sum(map(count_lets, children(x)))


class TestTreeIsTheShape:
    def test_typing_and_signature_trees_are_derived(self):
        terms = gen_corpus(GenConfig(seed=8, max_depth=6), 200) + program_terms()
        done = 0
        for m in terms:
            typing = check_closed_term(m)
            assert typing.tree == typing.type.tree(), m
            outcome = run_closed(m, EvalEnv())
            if isinstance(outcome, Done):
                sig = check_signature(outcome.config.circuit)
                assert sig.tree == sig.outputs.tree()
                assert sig.tree == typing.tree
                done += 1
        assert done >= 150

    def test_no_tree_is_stored(self):
        assert SignatureState.__slots__ == ("outputs", "labels")
        assert [f.name for f in dataclasses.fields(CircuitSignature)] == ["input", "outputs"]
        assert [f.name for f in dataclasses.fields(_GenOut)] == ["term", "type"]
        assert [f.name for f in dataclasses.fields(ComputationTyping)] == ["type"]

    def test_one_update_under_per_instruction(self, monkeypatch):
        main = parse_program((PROGRAMS / "six_lifts.pqk").read_text()).main
        circuit = run_closed(main, EvalEnv()).config.circuit
        calls = [0]
        original = pqk.circuit.update_under

        def counting(*args):
            calls[0] += 1
            return original(*args)

        monkeypatch.setattr(pqk.circuit, "update_under", counting)
        fresh = Circuit(circuit.input, circuit.instructions)
        assert len(path_set(check_signature(fresh).tree)) == 64
        assert calls[0] == len(circuit.instructions) == 316

    def test_one_flatten_family_per_let(self, monkeypatch):
        original = pqk.typecheck.flatten_family
        calls = [0]

        def counting(obj, family):
            calls[0] += 1
            return original(obj, family)

        monkeypatch.setattr(pqk.typecheck, "flatten_family", counting)
        for m in program_terms():
            calls[0] = 0
            check_closed_term(m)
            assert calls[0] == count_lets(m)


class TestProgressShrinking:
    def test_stuck_finding_is_minimized_and_replayable(self, monkeypatch):
        core = parse_program((PROGRAMS / "measure_when.pqk").read_text()).main
        term = Let("z", Return(Unit()), leaf(core))  # a prefix the shrinker drops
        stuck_lifting_apply(monkeypatch)
        finding = check_progress(term)
        assert finding is not None and finding.prop == "progress"
        assert finding.diagnostic == "stuck: AppendPrecondition: mutant: no lifting apply"
        had_step = core.branches.value  # let q = apply(HAD, q) in ..., which the shrinker drops too
        assert finding.program == format_term(Let(core.var, core.bound, had_step.branches))
        shrunk = parse_term(finding.program)
        check_closed_term(shrunk)
        assert isinstance(run_closed(shrunk, EvalEnv()), Stuck)
        for cand in shrink_candidates(shrunk):
            if cand != shrunk:
                try:
                    check_closed_term(cand)
                except TypeCheckError:
                    continue
                assert not isinstance(run_closed(cand, EvalEnv()), Stuck)
