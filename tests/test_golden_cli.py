"""The CLI's JSON outputs on every committed program, byte for byte.

For each programs/*.pqk file and each of `check --json`, `run --json` and
`circuit --json`, tests/golden/ keeps what `pqk.cli.main` prints:

- `<stem>.<command>.json`: the standard output of a command that exits 0;
- `<stem>.<command>.err`: the standard error of a command that exits 1, which
  prints nothing on standard output;
- `six_lifts.sha256`: one `<command> <SHA-256 of stdout>` line per command,
  in place of the 18-88 kB outputs of six_lifts.pqk.

After a change that is meant to alter an output, rewrite the files with

    PYTHONPATH=src python tests/test_golden_cli.py

and review the diff of tests/golden/.
"""

from __future__ import annotations

import hashlib
import io
import pathlib
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from pqk.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAMS = ROOT / "programs"
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
COMMANDS = ("check", "run", "circuit")
HASHED = "six_lifts"


def run(command: str, path: pathlib.Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--json", str(path)])
    return code, out.getvalue(), err.getvalue()


def digests() -> dict[str, str]:
    lines = (GOLDEN / f"{HASHED}.sha256").read_text().splitlines()
    return dict(line.split() for line in lines)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


CASES = [(path, command) for path in sorted(PROGRAMS.glob("*.pqk")) for command in COMMANDS]


@pytest.mark.parametrize("path,command", CASES, ids=[f"{p.stem}-{c}" for p, c in CASES])
def test_output_matches_golden(path, command):
    code, out, err = run(command, path)
    if path.stem == HASHED:
        assert (code, err) == (0, "")
        assert sha256(out) == digests()[command]
        return
    failure = GOLDEN / f"{path.stem}.{command}.err"
    if failure.exists():
        assert (code, out, err) == (1, "", failure.read_text())
    else:
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"{path.stem}.{command}.json").read_text()


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    hashes = []
    for path, command in CASES:
        code, out, err = run(command, path)
        if path.stem == HASHED:
            hashes.append(f"{command} {sha256(out)}\n")
        elif code == 0:
            (GOLDEN / f"{path.stem}.{command}.json").write_text(out)
        else:
            (GOLDEN / f"{path.stem}.{command}.err").write_text(err)
    (GOLDEN / f"{HASHED}.sha256").write_text("".join(hashes))


if __name__ == "__main__":
    write_golden()
    sys.exit(0)
