"""Regenerate the benchmark's stored reference data.

    python3 perfbench/make_data.py reference   # 50-digit cosine-walk distances (needs mpmath)
    python3 perfbench/make_data.py golden      # idempotents --n 2..5 output of the current src/

The reference is the exact distance of the cosine walk on KP_n,

    qtv(n, k) = sum_i |s_i - 1| / (2n),  s_i = sum_l cos(2 pi l / n)^k cos(2 pi i l / n),

evaluated with mpmath at 60 digits and stored to 50 significant digits
for every (n, k) row that the cutoff-large workload prints. The l = 0
term of s_i is exactly 1, so s_i - 1 is summed over l != 0 directly and
keeps its relative precision deep in the tail.

Golden files pin the output of ``qgwalk idempotents --n N --out`` byte
for byte; regenerate them only from a commit whose output is known good.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def cutoff_rows() -> list[tuple[int, int]]:
    """(n, k) of every row the cutoff-large ops print, computed as the CLI does."""
    rows = set()
    for n in wl.CUTOFF_N:
        for text in wl.CUTOFF_C:
            c = float(text)
            for k in (int(round(math.exp(c) * n * n)), int(round(math.exp(-c) * n * n))):
                rows.add((n, max(k, 1)))
    return sorted(rows)


def cosine_qtv_mp(n: int, k: int, dps: int = 60):
    import mpmath

    with mpmath.workdps(dps):
        cos = [mpmath.cos(2 * mpmath.pi * m / n) for m in range(n)]
        half = [cos[l] ** k for l in range(1, (n - 1) // 2 + 1)]  # odd n: l and n - l agree
        total = mpmath.mpf(0)
        for i in range(n):
            s = 2 * mpmath.fsum(p * cos[(i * l) % n] for l, p in enumerate(half, start=1))
            total += abs(s)
        return total / (2 * n)


def make_reference() -> None:
    import mpmath

    values = []
    for n, k in cutoff_rows():
        values.append([n, k, mpmath.nstr(cosine_qtv_mp(n, k), 50, strip_zeros=False)])
        print(n, k, values[-1][2], flush=True)
    doc = {
        "description": "qtv(n, k) of the cosine walk on KP_n, mpmath at 60 digits, 50 significant digits",
        "values": values,
    }
    with open(wl.DATA / "cosine_reference.json", "w") as handle:
        json.dump(doc, handle, indent=0)
        handle.write("\n")


def make_golden() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from qgwalk.cli import main

    out_dir = wl.DATA / "idempotents"
    out_dir.mkdir(parents=True, exist_ok=True)
    for n in wl.IDEMPOTENT_N:
        code = main(["idempotents", "--n", str(n), "--out", str(out_dir / f"n{n}.json")])
        if code != 0:
            raise SystemExit(f"idempotents --n {n} exited {code}")


if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "reference":
        make_reference()
    elif what == "golden":
        make_golden()
    else:
        raise SystemExit(__doc__)
