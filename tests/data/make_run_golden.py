"""Re-pin the CSV strings and refusal reports of the ``run`` golden files from the current CLI.

    PYTHONPATH=src python3 tests/data/make_run_golden.py

Every case of ``tests/data/run/*.json`` that expects a CSV is run with
``qgwalk run <config> --out <file>``, and its ``csv`` string is replaced
by what the CLI writes.  Nothing else in a file changes: the config, the
name and the ``.meta.json`` string stay as they are, and a case whose
exit code, stdout, stderr or meta differs from the file is reported and
not rewritten.  So is a case whose new rows break lower <= qtv <= upper
by more than a relative ``SLACK`` (the ``_at_most`` rule of
``tests/test_walks.py``), or in which any value moves by more than a
relative ``SLACK`` from the value it replaces: a re-pin is for last
digits, not for new numbers.  The script prints each case it changed
with its number of changed rows, the columns that moved, and, per
column, the largest relative difference from the value it replaces.

A case with a ``stderr`` entry pins a refusal: its exit code and the
JSON failure report on stderr.  Its ``stderr`` is replaced only when
the exit code, the empty stdout and outputs, and the ordered list of
condition names are unchanged, so that only witnesses may move; the
script prints each witness that moved, and reports any other change
and does not rewrite the case.

Re-pin only from a commit whose distances are checked against an
independent oracle (the dense synthesis in ``tests/test_walks.py``), and
whose state check is checked against the dense one (``tests/test_sekine.py``).
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

# INVARIANT_SLACK of tests/test_walks.py: the relative slack of the sandwich,
# and the largest relative move a re-pin may make
SLACK = 1e-12


def at_most(x: float, y: float) -> bool:
    """x <= y up to SLACK relative to the larger of the two, forgiving subnormal differences."""
    return x <= y + SLACK * max(abs(x), abs(y)) + sys.float_info.min


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


def moves(header: list[str], old_rows: list, new_rows: list, keys: int) -> tuple[int, dict[str, float], list[str]]:
    """Changed rows, the largest relative difference of each column that moved, and each move past SLACK.

    A fault names its row by the first ``keys`` columns.
    """
    changed, moved, faults = 0, {}, []
    for before, after in zip(old_rows, new_rows):
        changed += before != after
        for name, x, y in zip(header, before, after):
            if x != y:
                x, y = float(x), float(y)
                rel = abs(x - y) / max(abs(x), abs(y))
                moved[name] = max(moved.get(name, 0.0), rel)
                if rel > SLACK:
                    where = ", ".join(f"{key} = {value}" for key, value in zip(header[:keys], after))
                    faults.append(f"{where}: {name} moved by {rel:.2e} relative")
    return changed, moved, faults


def compare(old: str, new: str) -> tuple[int, dict[str, float], list[str]]:
    """Changed rows, the largest relative difference of each column that moved, and what forbids the re-pin."""
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if old_rows[0] != new_rows[0] or len(old_rows) != len(new_rows):
        raise ValueError("header or row count changed")
    faults = []
    for after in new_rows[1:]:
        row = dict(zip(new_rows[0], map(float, after)))
        if not (at_most(row["lower"], row["qtv"]) and at_most(row["qtv"], row["upper"])):
            faults.append(f"k = {after[0]}: lower <= qtv <= upper fails")
    changed, moved, move_faults = moves(new_rows[0], old_rows[1:], new_rows[1:], 1)
    return changed, moved, faults + move_faults


def failures(stderr: str) -> list[list[str]] | None:
    """The [condition, witness] pairs of a refusal's JSON report, or None when stderr holds no report."""
    try:
        return json.loads(stderr)["failures"]
    except (ValueError, KeyError, TypeError):
        return None


def repin_refusal(label: str, case: dict, tmp: Path) -> bool | None:
    """Re-pin a refusal's stderr: whether it changed, or None when it may not be rewritten."""
    code, out, err, text, meta = run(case["config"], tmp)
    old, new = failures(case["stderr"]), failures(err)
    same_names = old is not None and new is not None and [f[0] for f in old] == [f[0] for f in new]
    if (code, out, text, meta) != (case["exit"], "", "", "") or not (same_names or err == case["stderr"]):
        print(f"{label}: exit {code}, stderr {err!r}: not rewritten")
        return None
    for (name, before), (_, after) in zip(old or [], new or []):
        if before != after:
            print(f"{label}: {name} witness {before} -> {after}")
    changed = err != case["stderr"]
    case["stderr"] = err
    return changed


def main() -> int:
    total_cases = total_rows = changed_cases = changed_rows = refused = refusals = changed_refusals = 0
    worst: dict[str, float] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted(RUN_DIR.glob("*.json")):
            cases = json.loads(path.read_text())
            for case in cases:
                if "stderr" in case:
                    refusals += 1
                    changed = repin_refusal(f"{path.name} {case['name']}", case, Path(tmp))
                    refused += changed is None
                    changed_refusals += bool(changed)
                    continue
                total_cases += 1
                code, out, err, text, meta = run(case["config"], Path(tmp))
                if (code, out, err, meta) != (0, "", "", case["meta"]):
                    print(f"{path.name} {case['name']}: exit {code}, meta {meta!r}: not rewritten")
                    refused += 1
                    continue
                rows, moved, faults = compare(case["csv"], text)
                if faults:
                    print(f"{path.name} {case['name']}: {faults[0]}: not rewritten")
                    refused += 1
                    continue
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
    print(f"changed the stderr of {changed_refusals} of {refusals} refusals")
    for name, rel in sorted(worst.items()):
        print(f"largest relative {name} difference: {rel:.3e}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
