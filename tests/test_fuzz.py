from __future__ import annotations

import pathlib

import pytest

from pqk.errors import TypeCheckError
from pqk.fuzz import (
    GenConfig,
    check_progress,
    check_sr,
    count_lifting_applies,
    gen_corpus,
    run_fuzz,
    seed_boxes,
    shrink_candidates,
    shrink_finding,
)
from pqk.interp import EvalEnv, Stuck, run_closed
from pqk.parser import parse_program, parse_term
from pqk.syntax import Return, Unit, format_term
from pqk.typecheck import check_closed_term

from mutants import skip_let_flatten, stuck_lifting_apply

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"


class TestGeneration:
    def test_depth_one_is_trivial(self):
        term = gen_corpus(GenConfig(seed=5, max_depth=0), 1)[0]
        assert isinstance(term, Return)

    def test_generated_programs_typecheck(self):
        corpus = gen_corpus(GenConfig(seed=11, max_depth=6), 60)
        for term in corpus:
            check_closed_term(term)  # raises on failure

    def test_reproducible(self):
        c1 = gen_corpus(GenConfig(seed=42, max_depth=5), 10)
        c2 = gen_corpus(GenConfig(seed=42, max_depth=5), 10)
        assert c1 == c2

    def test_lifting_apply_floor(self):
        corpus = gen_corpus(GenConfig(seed=13, max_depth=6), 100)
        lifting = sum(1 for t in corpus if count_lifting_applies(t) > 0)
        assert lifting >= 10

    def test_programs_print_and_reparse(self):
        corpus = gen_corpus(GenConfig(seed=17, max_depth=5), 25)
        for term in corpus:
            assert parse_term(format_term(term)) == term

    def test_seed_boxes_are_well_typed(self):
        from pqk.typecheck import check_closed_value

        for name, box in seed_boxes().items():
            check_closed_value(box)


class TestChecks:
    def test_return_unit_ok(self):
        assert check_sr(Return(Unit())) is None
        assert check_progress(Return(Unit())) is None

    def test_ill_typed_rejected_before_progress(self):
        term = parse_term("force *")
        with pytest.raises(TypeCheckError):
            check_progress(term)

    def test_fuel_zero_not_a_finding(self):
        term = parse_program((PROGRAMS / "one_way_run.pqk").read_text()).main
        assert check_progress(term, fuel=0) is None

    def test_small_fuzz_clean(self):
        report = run_fuzz(GenConfig(seed=23, max_depth=5), 40)
        assert report.ok()
        assert report.fuel_exhausted == 0


class TestMutationSensitivity:
    def test_crafted_program_detected(self, monkeypatch):
        term = parse_program((PROGRAMS / "measure_when.pqk").read_text()).main
        skip_let_flatten(monkeypatch)
        finding = check_sr(term)
        assert finding is not None
        assert finding.prop == "subject-reduction"

    def test_corpus_detects_mutation(self, monkeypatch):
        corpus = gen_corpus(GenConfig(seed=99, max_depth=6), 40)
        skip_let_flatten(monkeypatch)
        findings = [check_sr(t, shrink=False) for t in corpus]
        assert any(f is not None for f in findings)


def stuck(term) -> bool:
    """Whether term is a progress violation: well-typed, and evaluation gets stuck."""
    try:
        check_closed_term(term)
    except TypeCheckError:
        return False
    return isinstance(run_closed(term, EvalEnv()), Stuck)


class TestShrinking:
    def test_shrinker_reaches_fixpoint(self, monkeypatch):
        # Generated programs are mostly let chains, and the mutant gets stuck
        # deep inside them, so every finding must shrink below its outer lets.
        stuck_lifting_apply(monkeypatch)
        corpus = gen_corpus(GenConfig(seed=3, max_depth=6), 40)
        findings = [(t, f) for t in corpus if (f := check_progress(t)) is not None]
        assert len(findings) >= 10
        for term, finding in findings:
            assert len(finding.program) < len(format_term(term))
            shrunk = parse_term(finding.program)
            assert stuck(shrunk)
            assert not any(stuck(c) for c in shrink_candidates(shrunk) if c != shrunk)

    def test_depth8_finding_shrinks_below_returned_lets_and_into_lambdas(self, monkeypatch):
        # At depth 8 the finding of 989 characters keeps `let x1 = return * in ...`
        # prefixes and a stuck lambda body without the substituting and lambda candidates.
        stuck_lifting_apply(monkeypatch)
        corpus = gen_corpus(GenConfig(seed=7, max_depth=8), 40)
        [term] = [t for t in corpus if len(format_term(t)) == 989]
        finding = check_progress(term)
        assert finding is not None and len(finding.program) < 870
        shrunk = parse_term(finding.program)
        assert stuck(shrunk)
        assert not any(stuck(c) for c in shrink_candidates(shrunk) if c != shrunk)

    def test_candidates_substitute_values_and_enter_lambdas(self):
        cases = {
            "let x = return * in return (x, x)": "return (*, *)",
            "let (x, y) = (*, *) in return (y, x)": "return (*, *)",
            "return fun (x : Unit) -> let y = return x in return y": "return fun (x : Unit) -> return x",
            "(fun (x : Unit) -> let y = return x in return y) *": "(fun (x : Unit) -> return x) *",
        }
        for src, expected in cases.items():
            assert parse_term(expected) in list(shrink_candidates(parse_term(src))), src

    def test_shrink_preserves_property(self):
        calls = []

        def still_fails(t):
            calls.append(t)
            return isinstance(t, Return)

        shrunk = shrink_finding(parse_term("let x = return * in return (x, *)"), still_fails)
        assert isinstance(shrunk, Return)

    def test_mutation_finding_is_minimized_and_replayable(self, monkeypatch):
        term = parse_program((PROGRAMS / "measure_when.pqk").read_text()).main
        skip_let_flatten(monkeypatch)
        finding = check_sr(term)
        assert finding is not None
        replayed = parse_term(finding.program)
        check_closed_term(replayed)
        assert check_sr(replayed, shrink=False) is not None
