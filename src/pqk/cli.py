"""Command-line interface: check / run / sim / circuit / fuzz.

Exit codes: 0 success, 1 user error (syntax, typing, simulation), 2 internal
invariant failure.  Set PQK_GATESET to a JSON file to replace the default
gate set for check/run/sim/circuit (the fuzzer always uses the default set).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .circuit import (
    DEFAULT_GATES,
    Gate,
    GateSet,
    circuit_to_dot,
    circuit_to_json,
    format_circuit,
    signature_to_json,
    check_signature,
)
from .errors import PqkError, PqkSyntaxError
from .fuzz import GenConfig, run_fuzz
from .interp import DEFAULT_FUEL, Done, EvalEnv, FuelExhausted, Stuck, run_closed
from .parser import parse_circuit_text, parse_mtype_text, parse_program
from .simulator import QuantumState, branch_distribution, parse_init_spec
from .syntax import (
    Term,
    format_lifted_type,
    format_lifted_value,
    format_type,
    format_value,
)
from .trees import lifted_to_json
from .typecheck import (
    check_closed_term,
    check_closed_value,
)

EXIT_OK = 0
EXIT_USER = 1
EXIT_INTERNAL = 2


def load_gateset() -> GateSet:
    """Gate set from $PQK_GATESET (JSON: name -> {"in": mtype, "out": mtype})."""
    path = os.environ.get("PQK_GATESET")
    if not path:
        return DEFAULT_GATES
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise PqkError(f"gate set {path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise PqkError(f"gate set {path}: expected a JSON object of gates")
    gates = []
    for name, entry in data.items():
        if not (isinstance(entry, dict) and isinstance(entry.get("in"), str) and isinstance(entry.get("out"), str)):
            raise PqkError(f'gate set {path}: gate {name} needs "in" and "out" M-type strings')
        try:
            gates.append(Gate(name, parse_mtype_text(entry["in"]), parse_mtype_text(entry["out"])))
        except PqkSyntaxError as exc:
            raise PqkError(f"gate set {path}: gate {name}: {exc}") from exc
    return GateSet(gates)


def _load_program(path: str, gateset: GateSet):
    with open(path) as fh:
        source = fh.read()
    return parse_program(source, gateset)


def cmd_check(args: argparse.Namespace) -> int:
    gateset = load_gateset()
    program = _load_program(args.file, gateset)
    main = program.main
    if isinstance(main, Term):
        result = check_closed_term(main, gateset)
        if args.json:
            payload = {
                "kind": "term",
                "tree": lifted_to_json(result.tree, lambda _: None),
                "type": {
                    "text": format_lifted_type(result.type),
                    "lifted": lifted_to_json(result.type, format_type),
                },
            }
            print(json.dumps(payload, indent=2))
        else:
            print(result)
    else:
        ty = check_closed_value(main, gateset)
        if args.json:
            print(json.dumps({"kind": "value", "type": format_type(ty)}, indent=2))
        else:
            print(format_type(ty))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    gateset = load_gateset()
    program = _load_program(args.file, gateset)
    main = program.main
    if not isinstance(main, Term):
        print("error: program is a value; nothing to evaluate", file=sys.stderr)
        return EXIT_USER
    check_closed_term(main, gateset)
    env = EvalEnv(fuel=args.fuel, gateset=gateset)
    outcome = run_closed(main, env)
    if isinstance(outcome, FuelExhausted):
        print("error: fuel exhausted", file=sys.stderr)
        return EXIT_USER
    if isinstance(outcome, Stuck):  # pragma: no cover - progress precludes it
        print(f"internal error: stuck configuration ({outcome.reason})", file=sys.stderr)
        return EXIT_INTERNAL
    config = outcome.config
    if args.emit_circuit:
        text = (
            circuit_to_dot(config.circuit)
            if args.emit_circuit.endswith(".dot")
            else format_circuit(config.circuit) + "\n"
        )
        with open(args.emit_circuit, "w") as fh:
            fh.write(text)
    if args.json:
        payload = {
            "value": lifted_to_json(config.value, format_value),
            "circuit": circuit_to_json(config.circuit),
            "findings": list(env.findings),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(format_lifted_value(config.value))
        print(format_circuit(config.circuit))
        for finding in env.findings:
            print(f"note: {finding}", file=sys.stderr)
    return EXIT_OK


def _circuit_from_file(path: str, gateset: GateSet, fuel: int):
    if path.endswith(".crl"):
        with open(path) as fh:
            return parse_circuit_text(fh.read(), gateset)
    program = _load_program(path, gateset)
    if not isinstance(program.main, Term):
        raise PqkError("program is a value; it builds no circuit")
    check_closed_term(program.main, gateset)
    outcome = run_closed(program.main, EvalEnv(fuel=fuel, gateset=gateset))
    if not isinstance(outcome, Done):
        raise PqkError("program did not finish building a circuit")
    return outcome.config.circuit


def cmd_sim(args: argparse.Namespace) -> int:
    if args.shots < 1:
        raise PqkError(f"--shots must be at least 1, got {args.shots}")
    gateset = load_gateset()
    circuit = _circuit_from_file(args.file, gateset, args.fuel)
    spec = parse_init_spec(args.init) if args.init else None
    init = QuantumState.product(circuit.input, spec)
    counts = branch_distribution(
        circuit, init, shots=args.shots, seed=args.seed,
        gateset=gateset, max_qubits=args.max_qubits,
    )
    if args.json:
        payload = {
            "shots": args.shots,
            "seed": args.seed,
            "counts": {_path_key(p): n for p, n in sorted(counts.items(), key=lambda kv: str(kv[0]))},
        }
        print(json.dumps(payload, indent=2))
    else:
        for path, count in sorted(counts.items(), key=lambda kv: str(kv[0])):
            print(f"{_path_key(path) or '()':<24} {count:>8} {count / args.shots:>8.4f}")
    return EXIT_OK


def _path_key(path) -> str:
    return ";".join(f"{v}={b}" for v, b in path.bindings)


def cmd_circuit(args: argparse.Namespace) -> int:
    gateset = load_gateset()
    circuit = _circuit_from_file(args.file, gateset, args.fuel)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(circuit_to_dot(circuit))
    if args.crl:
        with open(args.crl, "w") as fh:
            fh.write(format_circuit(circuit) + "\n")
    if args.json:
        sig = check_signature(circuit, gateset)
        print(json.dumps({"circuit": circuit_to_json(circuit),
                          "signature": signature_to_json(sig)}, indent=2))
    elif not (args.dot or args.crl):
        print(format_circuit(circuit))
    return EXIT_OK


def cmd_fuzz(args: argparse.Namespace) -> int:
    cfg = GenConfig(seed=args.seed, max_depth=args.depth)
    report = run_fuzz(cfg, args.count, fuel=args.fuel)
    payload = {
        "count": report.count,
        "seed": args.seed,
        "depth": args.depth,
        "subject_reduction_findings": [
            {"program": f.program, "diagnostic": f.diagnostic} for f in report.sr_findings
        ],
        "progress_findings": [
            {"program": f.program, "diagnostic": f.diagnostic} for f in report.progress_findings
        ],
        "fuel_exhausted": report.fuel_exhausted,
        "lifting_apply_fraction": report.lifting_apply_fraction,
    }
    text = json.dumps(payload, indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK if report.ok() else EXIT_USER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pqk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="typecheck a program")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="evaluate a closed program")
    p.add_argument("file")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--json", action="store_true")
    p.add_argument("--emit-circuit", metavar="OUT")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sim", help="sample runs of the circuit a program builds")
    p.add_argument("file", help=".pqk program or .crl circuit")
    p.add_argument("--shots", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--init", default="", help="e.g. q=0,a=+ (for .crl inputs)")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--max-qubits", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("circuit", help="render the circuit a program builds")
    p.add_argument("file")
    p.add_argument("--dot", metavar="OUT")
    p.add_argument("--crl", metavar="OUT")
    p.add_argument("--json", action="store_true")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.set_defaults(func=cmd_circuit)

    p = sub.add_parser("fuzz", help="fuzz subject reduction and progress")
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--report", metavar="OUT")
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; that's a user error here, not an
        # internal failure (--help keeps its 0)
        return EXIT_OK if exc.code in (0, None) else EXIT_USER
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed standard output (`pqk ... | head`).  Point it at
        # devnull so that the flush at exit does not fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USER
    except (PqkError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USER
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
