"""Re-pin the CSV strings of the ``run`` golden files from the current CLI.

    PYTHONPATH=src python3 tests/data/make_run_golden.py

Every case of ``tests/data/run/*.json`` that expects a CSV (the cases
with a ``stderr`` entry pin a refusal and are left alone) is run with
``qgwalk run <config> --out <file>``, and its ``csv`` string is replaced
by what the CLI writes.  Nothing else in a file changes: the config, the
name and the ``.meta.json`` string stay as they are, and a case whose
exit code, stdout, stderr or meta differs from the file is reported and
not rewritten.  The script prints each case it changed with its number
of changed rows, the columns that moved, and, per column, the largest
relative difference from the value it replaces.

Re-pin only from a commit whose distances are checked against an
independent oracle (the dense synthesis in ``tests/test_walks.py``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
import tempfile
from pathlib import Path

from qgwalk import cli

RUN_DIR = Path(__file__).resolve().parent / "run"


def dump(cases: list[dict]) -> str:
    """The golden file layout: one case per line, keys sorted."""
    return "[\n" + ",\n".join(json.dumps(case, sort_keys=True) for case in cases) + "\n]\n"


def run(config: dict, tmp: Path) -> tuple[int, str, str, str, str]:
    """Exit code, stdout, stderr, CSV and meta of ``qgwalk run`` on one config."""
    cfg, out, meta = tmp / "cfg.json", tmp / "run.csv", tmp / "run.csv.meta.json"
    cfg.write_text(json.dumps(config))
    for path in (out, meta):  # a failed run must not leave the previous case's files behind
        path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(["run", str(cfg), "--out", str(out)])
    texts = [path.read_text() if path.exists() else "" for path in (out, meta)]
    return code, stdout.getvalue(), stderr.getvalue(), *texts


def compare(old: str, new: str) -> tuple[int, dict[str, float]]:
    """Changed rows, and the largest relative difference of each column that moved."""
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        raise ValueError("header or row count changed")
    changed, moved = 0, {}
    for before, after in zip(old_rows[1:], new_rows[1:]):
        changed += before != after
        for name, x, y in zip(old_rows[0], before, after):
            if x != y:
                x, y = float(x), float(y)
                rel = abs(x - y) / max(abs(x), abs(y))
                moved[name] = max(moved.get(name, 0.0), rel)
    return changed, moved


def main() -> int:
    total_cases = total_rows = changed_cases = changed_rows = refused = 0
    worst: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(RUN_DIR.glob("*.json")):
            cases = json.loads(path.read_text())
            for case in cases:
                if "stderr" in case:
                    continue
                total_cases += 1
                code, out, err, text, meta = run(case["config"], Path(tmp))
                if (code, out, err, meta) != (0, "", "", case["meta"]):
                    print(f"{path.name} {case['name']}: exit {code}, meta {meta!r}: not rewritten")
                    refused += 1
                    continue
                rows, moved = compare(case["csv"], text)
                total_rows += text.count("\n") - 1
                if rows:
                    changed_cases += 1
                    changed_rows += rows
                    for name, rel in moved.items():
                        worst[name] = max(worst.get(name, 0.0), rel)
                    detail = ", ".join(f"{name} {rel:.2e}" for name, rel in sorted(moved.items()))
                    print(f"{path.name} {case['name']}: {rows} rows ({detail})")
                case["csv"] = text
            path.write_text(dump(cases))
    print(f"changed {changed_cases} of {total_cases} cases and {changed_rows} of {total_rows} rows")
    for name, rel in sorted(worst.items()):
        print(f"largest relative {name} difference: {rel:.3e}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
