"""Print a digest of every benchmark op's outputs, one JSON line per op: a byte-parity check.

    PYTHONPATH=src python3 tests/data/op_digest.py --seed 1 > change.jsonl
    PYTHONPATH=<other checkout>/src python3 tests/data/op_digest.py --seed 1 > parent.jsonl
    diff parent.jsonl change.jsonl

For the given seed, every op of every workload in ``perfbench.workloads.WORKLOADS``
runs in process through ``qgwalk.cli.main``, in the order the benchmark runs
it, with its configs and outputs in a new temporary directory that the script
makes and removes.  Before hashing, that directory's path is replaced by
``<workdir>`` wherever it occurs, so paths printed in messages or outputs do not
depend on it and two digests can run at the same time.  A line holds the op id,
the exit code, and the SHA-256 of its stdout, its stderr and each file it
wrote: the CSV or JSON output, the ``.meta.json`` of a ``run``, the
``cutoff.csv`` of a ``cutoff``.  An op that raises instead of exiting records
the exception's type and message, not its traceback, whose paths name the
checkout.  Two digests are equal exactly when every op behaved byte for byte
alike.  ``op_digest_seed1.jsonl`` beside this script is the digest of seed 1
that ``tests/test_cli.py::TestByteParity`` compares against.  qgwalk is
imported from ``PYTHONPATH``; the workloads are read from the ``perfbench/``
of the checkout that holds this script, and nothing in it is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

from qgwalk import cli  # noqa: E402


def sha(data: bytes, workdir: Path) -> str:
    return hashlib.sha256(data.replace(str(workdir).encode(), b"<workdir>")).hexdigest()


def written(out: str) -> list[Path]:
    """The files an op with output path ``out`` wrote: the path, its ``.meta.json``, or a directory's files."""
    path = Path(out)
    if path.is_dir():
        return sorted(p for p in path.rglob("*") if p.is_file())
    return [p for p in (path, Path(out + ".meta.json")) if p.is_file()]


def digest_op(op: workloads.Op, workdir: Path) -> dict:
    out, err = io.StringIO(), io.StringIO()
    line: dict = {"op": op.id}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            line["exit"] = cli.main(op.argv)
    except SystemExit as exc:
        line["exit"] = exc.code
    except Exception as exc:  # a crash is an outcome to compare, not a reason to stop
        line["exit"], line["crash"] = None, f"{type(exc).__name__}: {exc}".replace(str(workdir), "<workdir>")
    line["stdout"] = sha(out.getvalue().encode(), workdir)
    line["stderr"] = sha(err.getvalue().encode(), workdir)
    line["files"] = {str(p.relative_to(workdir)): sha(p.read_bytes(), workdir) for p in written(op.out)}
    return line


def digests(seed: int):
    """The digest line of every op for ``seed``, in the order the benchmark runs them."""
    with tempfile.TemporaryDirectory(prefix="qgwalk-op-digest-") as tmp:
        workdir = Path(tmp).resolve()
        for name, make in workloads.WORKLOADS.items():
            (workdir / name).mkdir()
            for op in make(seed, str(workdir / name)).ops:
                yield json.dumps(digest_op(op, workdir))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    print(f"qgwalk from {Path(cli.__file__).resolve().parent}", file=sys.stderr)
    for line in digests(args.seed):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
