"""Pin, or re-pin, the ``cutoff`` golden files from the current CLI.

    PYTHONPATH=src python3 tests/data/make_cutoff_golden.py

Each case of ``CASES`` is run in process as ``qgwalk <argv>`` and its
stdout, the ``n,c,k,qtv,lower,upper_sharp,upper_theorem`` CSV, is written
to ``tests/data/cutoff/<name>.json`` with its argv.  A new file is written
when every row keeps lower <= qtv <= upper_sharp up to a relative
``SLACK``.  An existing file is rewritten under the re-pin rule of
``make_run_golden.py``, whose ``at_most`` and ``moves`` (and with them
its ``SLACK``) this script imports: the exit code must be 0 with nothing on stderr, the
header and the (n, c, k) of every row must stay, every row must keep
the sandwich, and no value may move by more than a relative ``SLACK``
from the value it replaces: a re-pin is for last digits, not for new
numbers.  A case that breaks the rule is reported and not rewritten.
The script prints each case it changed with its number of changed rows
and, per column, the largest relative difference.

Pin only from a commit whose distances are checked against an
independent oracle (the dense synthesis in ``tests/test_walks.py``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

from make_run_golden import at_most, moves
from qgwalk import cli

CUTOFF_DIR = Path(__file__).resolve().parent / "cutoff"

C_GRID = ",".join(f"{i / 10:.1f}" for i in range(-20, 21))  # -2.0, -1.9, ..., 2.0

CASES = {f"n{n}": ["cutoff", "--n", str(n), "--c", C_GRID] for n in (3, 5, 15, 51, 101, 201)}
CASES["readme"] = ["cutoff", "--n", "5,15,51", "--c", "-2,-1,0,1,2"]  # the README's example


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process CLI call."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def faults_of(old: str | None, new: str) -> tuple[int, dict[str, float], list[str]]:
    """Changed rows, the largest relative difference of each column that moved, and what forbids the pin."""
    new_rows = list(csv.reader(io.StringIO(new)))
    faults = []
    for row in new_rows[1:]:
        values = dict(zip(new_rows[0], map(float, row)))
        if not (at_most(values["lower"], values["qtv"]) and at_most(values["qtv"], values["upper_sharp"])):
            faults.append(f"n = {row[0]}, c = {row[1]}, k = {row[2]}: lower <= qtv <= upper_sharp fails")
    if old is None:
        return len(new_rows) - 1, {}, faults
    old_rows = list(csv.reader(io.StringIO(old)))
    if old_rows[0] != new_rows[0] or [r[:3] for r in old_rows] != [r[:3] for r in new_rows]:
        return 0, {}, faults + ["the header or the (n, c, k) of the rows changed"]
    changed, moved, move_faults = moves(new_rows[0], old_rows[1:], new_rows[1:], 3)
    return changed, moved, faults + move_faults


def main() -> int:
    CUTOFF_DIR.mkdir(exist_ok=True)
    refused = 0
    for name, argv in CASES.items():
        path = CUTOFF_DIR / f"{name}.json"
        old = json.loads(path.read_text())["stdout"] if path.exists() else None
        code, out, err = run(argv)
        if (code, err) != (0, ""):
            print(f"{name}: exit {code}, stderr {err!r}: not written")
            refused += 1
            continue
        changed, moved, faults = faults_of(old, out)
        if faults:
            print(f"{name}: {faults[0]}: not written")
            refused += 1
            continue
        if changed:
            detail = ", ".join(f"{col} {rel:.2e}" for col, rel in sorted(moved.items()))
            print(f"{name}: {changed} rows" + (f" ({detail})" if detail else " (new)"))
        path.write_text(json.dumps({"argv": argv, "stdout": out}, indent=1) + "\n")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
