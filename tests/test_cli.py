from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import pqk
from pqk.cli import main
from pqk.interp import run_closed
from pqk.parser import parse_circuit_text, parse_program, parse_type_text

from oracles import circuit_from_json

PROGRAMS = pathlib.Path(__file__).resolve().parent.parent / "programs"

# Boxes a function that applies a SWAP literal, then applies the box.
SWAP_BOX_PROGRAM = """
circuit INIT = crl { input(); Init0() -> q; }
circuit SW = crl { input(a:Qubit, b:Qubit); SWAP(a, b) -> (c, d); }
let s = box[Qubit * Qubit] (lift return fun (p : Qubit * Qubit) -> apply(SW, p)) in
let a = apply(INIT, *) in
let b = apply(INIT, *) in
apply(s, (a, b))
"""


def chain_program(lets: int) -> str:
    """A straight-line program: one INIT, then `lets` Hadamards on the same name."""
    return "\n".join(
        ["circuit INIT = crl { input(); Init0() -> q; }",
         "circuit HAD = crl { input(l:Qubit); H(l) -> l2; }",
         "let q = apply(INIT, *) in"]
        + ["let q = apply(HAD, q) in"] * lets
        + ["return q"]
    )


# Deeper than the parser, checker and evaluator can recurse at the default
# recursion limit.
DEEP_CHAIN_PROGRAM = chain_program(2000)


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_ok_program(self, capsys):
        code, out, _ = run_cli(capsys, "check", PROGRAMS / "one_way.pqk")
        assert code == 0
        assert out.strip() == "Qubit -o Qubit -o <u ? Qubit | Bit>"

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "check", PROGRAMS / "one_way.pqk", "--json")
        assert code == 0
        payload = json.loads(out)
        assert parse_type_text(payload["type"]) == parse_type_text("Qubit -o Qubit -o <u ? Qubit | Bit>")

    def test_term_json(self, capsys):
        code, out, _ = run_cli(capsys, "check", PROGRAMS / "one_way_run.pqk", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "term"
        assert payload["tree"] == {"var": "u", "zero": {"leaf": None}, "one": {"leaf": None}}

    def test_type_error_exit_code_and_span(self, capsys):
        code, _, err = run_cli(capsys, "check", PROGRAMS / "bad_dup_use.pqk")
        assert code == 1
        assert "LinearityViolation" in err
        assert "5:" in err  # span of the second use

    def test_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pqk"
        bad.write_text("let = in")
        code, _, err = run_cli(capsys, "check", bad)
        assert code == 1
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "no_such_file.pqk")
        assert code == 1


class TestRun:
    def test_run_prints_value_and_circuit(self, capsys):
        code, out, _ = run_cli(capsys, "run", PROGRAMS / "one_way_run.pqk")
        assert code == 0
        assert out.splitlines()[0] == "<u ? %1 | %4>"
        assert "lift(%3) => u" in out

    def test_run_json_value_paths(self, capsys):
        code, out, _ = run_cli(capsys, "run", PROGRAMS / "one_way_run.pqk", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"]["var"] == "u"
        circuit = circuit_from_json(payload["circuit"])
        assert any(ins["kind"] == "lift" for ins in payload["circuit"]["instructions"])
        program = parse_program((PROGRAMS / "one_way_run.pqk").read_text())
        assert circuit == run_closed(program.main).config.circuit

    def test_emit_circuit_files(self, tmp_path, capsys):
        crl = tmp_path / "out.crl"
        code, _, _ = run_cli(capsys, "run", PROGRAMS / "one_way_run.pqk", "--emit-circuit", crl)
        assert code == 0
        parsed = parse_circuit_text(crl.read_text())
        assert len(parsed.instructions) == 6
        dot = tmp_path / "out.dot"
        run_cli(capsys, "run", PROGRAMS / "one_way_run.pqk", "--emit-circuit", dot)
        assert dot.read_text().startswith("digraph circuit {")

    def test_run_rejects_value_program(self, capsys):
        code, _, err = run_cli(capsys, "run", PROGRAMS / "one_way.pqk")
        assert code == 1
        assert "value" in err


class TestSim:
    def test_sim_pqk(self, capsys):
        code, out, _ = run_cli(
            capsys, "sim", PROGRAMS / "one_way_run.pqk", "--shots", 100, "--seed", 5
        )
        assert code == 0
        assert "u=0" in out and "u=1" in out

    def test_sim_crl_with_init(self, tmp_path, capsys):
        crl = tmp_path / "c.crl"
        crl.write_text("input(q:Qubit); Meas(q) -> x; lift(x) => u;")
        code, out, _ = run_cli(
            capsys, "sim", crl, "--shots", "50", "--seed", "1", "--init", "q=1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {"u=0": 0, "u=1": 50}

    def test_sim_rejects_zero_shots(self, capsys):
        code, _, err = run_cli(capsys, "sim", PROGRAMS / "one_way_run.pqk", "--shots", "0")
        assert code == 1
        assert "--shots" in err

    def test_sim_rejects_negative_shots(self, capsys):
        code, _, err = run_cli(capsys, "sim", PROGRAMS / "one_way_run.pqk", "--shots", "-3")
        assert code == 1
        assert "--shots" in err

    def test_fuzz_rejects_negative_count(self, capsys):
        code, out, err = run_cli(capsys, "fuzz", "--count", "-5")
        assert code == 1
        assert "--count" in err
        assert out == ""


class TestCircuit:
    def test_render_is_pure_observer(self, tmp_path, capsys):
        code1, out1, _ = run_cli(capsys, "run", PROGRAMS / "teleport_box.pqk", "--json")
        dot = tmp_path / "c.dot"
        code2, _, _ = run_cli(capsys, "circuit", PROGRAMS / "teleport_box.pqk", "--dot", dot)
        code3, out3, _ = run_cli(capsys, "run", PROGRAMS / "teleport_box.pqk", "--json")
        assert code1 == code2 == code3 == 0
        assert out1 == out3
        assert dot.read_text().startswith("digraph")

    def test_circuit_json_has_signature(self, capsys):
        code, out, _ = run_cli(capsys, "circuit", PROGRAMS / "one_way_run.pqk", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["signature"]["tree"]["var"] == "u"


class TestFuzzCommand:
    def test_fuzz_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "fuzz", "--count", "10", "--seed", "3", "--depth", "4",
            "--report", report,
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["count"] == 10
        assert payload["subject_reduction_findings"] == []
        assert payload["progress_findings"] == []


class TestDeterminism:
    def test_run_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "run", PROGRAMS / "teleport_box.pqk", "--json")
        _, out2, _ = run_cli(capsys, "run", PROGRAMS / "teleport_box.pqk", "--json")
        assert out1 == out2

    def test_fuzz_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "fuzz", "--count", "8", "--seed", "11", "--depth", "4")
        _, out2, _ = run_cli(capsys, "fuzz", "--count", "8", "--seed", "11", "--depth", "4")
        assert out1 == out2

    def test_sim_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "sim", PROGRAMS / "one_way_run.pqk", "--shots", "64", "--seed", "9")
        _, out2, _ = run_cli(capsys, "sim", PROGRAMS / "one_way_run.pqk", "--shots", "64", "--seed", "9")
        assert out1 == out2


class TestGateSetEnv:
    def test_custom_gateset(self, tmp_path, capsys, monkeypatch):
        gates = {
            "H": {"in": "Qubit", "out": "Qubit"},
            "SWAP": {"in": "Qubit * Qubit", "out": "Qubit * Qubit"},
        }
        path = tmp_path / "gates.json"
        path.write_text(json.dumps(gates))
        monkeypatch.setenv("PQK_GATESET", str(path))
        src = tmp_path / "prog.pqk"
        src.write_text(
            "circuit SW = crl { input(a:Qubit, b:Qubit); SWAP(a, b) -> (c, d); }\n"
            "fun (p : Qubit * Qubit) -> let (a, b) = p in apply(SW, (a, b))"
        )
        code, out, _ = run_cli(capsys, "check", src)
        assert code == 0
        assert "Qubit * Qubit" in out

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_boxed_value_prints_as_a_crl_literal(self, tmp_path, capsys, monkeypatch, flags):
        path = tmp_path / "gates.json"
        path.write_text(json.dumps({"SWAP": {"in": "Qubit * Qubit", "out": "Qubit * Qubit"}}))
        monkeypatch.setenv("PQK_GATESET", str(path))
        src = tmp_path / "prog.pqk"
        src.write_text("circuit SW = crl { input(a:Qubit, b:Qubit); SWAP(a, b) -> (c, d); } return SW")
        code, out, _ = run_cli(capsys, "run", src, *flags)
        assert code == 0
        assert "crl { input(a:Qubit, b:Qubit); SWAP(a, b) -> (c, d); }" in out
        assert "<boxed" not in out

    @pytest.mark.parametrize("command", ["run", "circuit"])
    def test_boxed_swap_is_applied(self, tmp_path, capsys, monkeypatch, command):
        # The evaluator's root and boxed circuits take the set of the `crl`
        # literals they receive; no gate set is passed to the evaluation.
        path = tmp_path / "gates.json"
        path.write_text(json.dumps({
            "Init0": {"in": "Unit", "out": "Qubit"},
            "SWAP": {"in": "Qubit * Qubit", "out": "Qubit * Qubit"},
        }))
        monkeypatch.setenv("PQK_GATESET", str(path))
        src = tmp_path / "prog.pqk"
        src.write_text(SWAP_BOX_PROGRAM)
        code, out, err = run_cli(capsys, command, src)
        assert code == 0, err
        assert "SWAP(" in out

    def test_custom_gateset_rejects_default_extensions(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "gates.json"
        path.write_text(json.dumps({"H": {"in": "Qubit", "out": "Qubit"}}))
        monkeypatch.setenv("PQK_GATESET", str(path))
        src = tmp_path / "prog.pqk"
        src.write_text("apply(crl { input(); Init0() -> q; }, *)")
        code, _, err = run_cli(capsys, "check", src)
        assert code == 1

    @pytest.mark.parametrize("text", [
        '{"H": {"in": "Qubit", ',
        '{"H": {"in": "Qubit"}}',
        '{"H": {"in": "Qubit -o Qubit", "out": "Qubit"}}',
    ], ids=["bad-json", "missing-out", "not-an-mtype"])
    def test_malformed_gateset_is_user_error(self, tmp_path, capsys, monkeypatch, text):
        path = tmp_path / "gates.json"
        path.write_text(text)
        monkeypatch.setenv("PQK_GATESET", str(path))
        code, _, err = run_cli(capsys, "check", PROGRAMS / "teleport_box.pqk")
        assert code == 1
        assert "internal error" not in err
        assert str(path) in err and "gate set" in err


class TestDepthLimit:
    @pytest.mark.parametrize("command", ["check", "run", "sim", "circuit"])
    def test_deep_program_is_user_error(self, tmp_path, capsys, command):
        deep = tmp_path / "deep.pqk"
        deep.write_text(DEEP_CHAIN_PROGRAM)
        code, _, err = run_cli(capsys, command, deep)
        assert code == 1
        assert err.startswith("error: program nested too deeply")
        assert "internal error" not in err

    @pytest.mark.parametrize("command", ["check", "run", "sim", "circuit"])
    def test_800_lets_fit_the_default_limit(self, tmp_path, capsys, command):
        # the parser and the printer take one frame per `let`, and the parser
        # resolves circuit constants as it reads them
        chain = tmp_path / "chain800.pqk"
        chain.write_text(chain_program(800))
        code, out, err = run_cli(capsys, command, chain)
        assert (code, err) == (0, "")
        assert out

    @pytest.mark.parametrize("command", ["check", "run"])
    def test_800_let_function_prints_at_the_default_limit(self, tmp_path, capsys, command):
        # `run` prints the function value, whose body is the whole chain
        program = tmp_path / "fun800.pqk"
        program.write_text("\n".join(
            ["circuit HAD = crl { input(l:Qubit); H(l) -> l2; }",
             "return fun (q : Qubit) ->"]
            + ["let q = apply(HAD, q) in"] * 800
            + ["return q"]
        ))
        code, out, err = run_cli(capsys, command, program)
        assert (code, err) == (0, "")
        assert out


class TestUsageErrors:
    def test_unknown_flag_is_user_error(self, capsys):
        code = main(["check", "--bogus"])
        capsys.readouterr()
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code = main(["--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "check" in out and "fuzz" in out


class TestPathErrors:
    """A path that cannot be read or written is a user error, not an internal one."""

    def test_check_a_directory(self, capsys):
        code, _, err = run_cli(capsys, "check", PROGRAMS)
        assert code == 1
        assert "internal error" not in err

    def test_gateset_is_a_directory(self, capsys, monkeypatch):
        monkeypatch.setenv("PQK_GATESET", str(PROGRAMS))
        code, _, err = run_cli(capsys, "check", PROGRAMS / "teleport_box.pqk")
        assert code == 1
        assert "internal error" not in err

    def test_emit_circuit_to_a_directory(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", PROGRAMS / "one_way_run.pqk", "--emit-circuit", tmp_path)
        assert code == 1
        assert "internal error" not in err


class TestClosedPipe:
    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_reader_closing_stdout_is_not_an_internal_error(self, unbuffered):
        """`pqk sim ... | head -1` where the reader is gone before the first
        write: unbuffered, print raises; buffered, the flush at the end does."""
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(pqk.__file__).resolve().parent.parent))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pqk.cli", "sim", str(PROGRAMS / "six_lifts.pqk"),
                 "--shots", "1000", "--seed", "1"],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode != 2
        assert "internal error" not in proc.stderr.decode()
        assert "Exception ignored" not in proc.stderr.decode()
