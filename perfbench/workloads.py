"""Workload generators and output checks for the qgwalk benchmark.

Each workload is a list of ops. An op is one ``qgwalk`` command line,
given as argv, together with the result the benchmark expects from it:
the exit code and whatever the printed output must satisfy. What the ops
compute is the same for every seed (drawn once from ``LAYOUT_SEED``);
``--seed`` draws the order in which they run and so the names of their
files. Two runs with different seeds therefore do the same work and
meet the same failures, and their timings differ by the host alone. The
program sees the generated config files and argv, nothing else.

The generator does not import qgwalk. Random central states are
synthesised and projected with the closed formulas of the canonical
coordinates written out below, so a change to the library cannot change
the inputs it is measured on.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

# Sandwich and reference checks are relative to the size of the values.
RTOL = 1e-9
# Values below this are printed as 0 by the CLI (documented clamp).
CLAMP = 1e-15
# Distances below this are "the tail": the seed computes them in float64
# through a dense synthesis, so their absolute error of about 1e-17 shows
# as a relative error above RTOL. Such misses are the known tail-precision
# defect; a miss on a larger value is not.
TAIL = 1e-6

# Failure classes that the seed commit is known to have. Ops that fail in
# one of these ways are still counted as failed and listed; they only do
# not make the run incorrect, so that a new kind of failure stands out.
KNOWN_DEFECTS = {
    "tail-precision": "a distance below TAIL misses its reference or the sandwich by more than RTOL",
    "overflow": "a run op exits 3 with a numeric failure: float powers overflow at moderate k",
}

K_MAX = 1000
KPN_N = range(3, 13)
DUAL_N = range(3, 9)
CUTOFF_N = (51, 101, 201)
CUTOFF_C = tuple(f"{i / 10:.1f}" for i in range(-20, 21))
IDEMPOTENT_N = range(2, 6)
# Draws the states and k_max of walk-mix; fixed, so that every seed runs
# the same work (the seed draws the order).
LAYOUT_SEED = 20181217


@dataclass
class Op:
    """One CLI invocation and the result expected from it."""

    id: str
    config: str  # config id: names the input, for failure reports
    argv: list[str]
    exit: int = 0
    check: str = ""  # which output check applies: walk, cutoff, golden
    out: str = ""  # file the op writes (a directory for cutoff)
    expect: dict = field(default_factory=dict)


class Failure(NamedTuple):
    reason: str
    known: str | None = None  # key of KNOWN_DEFECTS, or None for a new kind of failure


@dataclass
class Workload:
    ops: list[Op]
    warmup: list[str]  # argv of the untimed first op, not one of ``ops``


# --------------------------------------------------------------------------
# random central states of KP_n, drawn as c* c and normalised
# --------------------------------------------------------------------------


def _dft(n: int) -> np.ndarray:
    r = np.arange(n)
    return np.exp(2j * np.pi * np.outer(r, r) / n)  # [i, l] = eta^(il)


def _genuine_v(n: int) -> np.ndarray:
    return np.arange(1, (n - 1) // 2 + 1)


def synthesise(n: int, rp, rm, sp, sm, xv):
    """Canonical coordinates (abelian n x n, matrix n x n) of sum a_alpha chi_alpha.

    Abelian (i, j) = sum_l T[l, j] eta^(il) with
    T[l, j] = rp_l + rm_l + (-1)^j (sp_l + sm_l) + 2 sum_v xv[l, v] cos(2 pi j v / n);
    the matrix entry at 0-based row r, column r + l is
    rp_l - rm_l + (-1)^(r+1) (sp_l - sm_l).
    """
    r = np.arange(n)
    vs = _genuine_v(n)
    t = np.repeat((rp + rm)[:, None], n, axis=1).astype(np.complex128)
    if n % 2 == 0:
        t += np.outer(sp + sm, (-1.0) ** r)
    if vs.size:
        t += 2.0 * xv[:, vs] @ np.cos(2.0 * np.pi * np.outer(r, vs) / n).T
    abelian = _dft(n) @ t
    mat = np.zeros((n, n), dtype=np.complex128)
    for l in range(n):
        vals = np.full(n, rp[l] - rm[l], dtype=np.complex128)
        if n % 2 == 0:
            vals += (-1.0) ** (r + 1) * (sp[l] - sm[l])
        mat[r, (r + l) % n] = vals
    return abelian, mat


def project(n: int, abelian, mat) -> dict[str, complex]:
    """Character coefficients a_alpha = int chi_alpha^* x of a central element."""
    r = np.arange(n)
    w_ab, w_mat = 1.0 / (2.0 * n * n), 1.0 / (2.0 * n)
    bands = np.array([mat[r, (r + l) % n] for l in range(n)])
    band_sum = bands.sum(axis=1)
    band_alt = (bands * (-1.0) ** (r + 1)).sum(axis=1)
    row_sums = _dft(n).conj().T @ abelian  # [l, j] = sum_i eta^(-il) x[i, j]
    plain = row_sums.sum(axis=1)
    alt = (row_sums * (-1.0) ** r).sum(axis=1)
    out = {}
    for l in range(n):
        out[f"rho+:{l}"] = w_ab * plain[l] + w_mat * band_sum[l]
        out[f"rho-:{l}"] = w_ab * plain[l] - w_mat * band_sum[l]
        if n % 2 == 0:
            out[f"sigma+:{l}"] = w_ab * alt[l] + w_mat * band_alt[l]
            out[f"sigma-:{l}"] = w_ab * alt[l] - w_mat * band_alt[l]
    for v in _genuine_v(n):
        weighted = row_sums @ np.cos(2.0 * np.pi * r * v / n)
        for u in range(n):
            out[f"X:{u},{v}"] = 2.0 * w_ab * weighted[u]
    return out


def random_central_state(n: int, rng: np.random.Generator) -> dict[str, complex]:
    """c* c for a random central c, normalised so that the trivial coefficient is 1."""
    size = (n, n // 2 + 1)

    def draw(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    parts = [draw(n), draw(n)]
    parts += [draw(n), draw(n)] if n % 2 == 0 else [np.zeros(n), np.zeros(n)]
    ab, mat = synthesise(n, *parts, draw(size))
    coeffs = project(n, np.abs(ab) ** 2, mat.conj().T @ mat)
    norm = coeffs["rho+:0"].real
    return {k: v / norm for k, v in coeffs.items() if abs(v / norm) > CLAMP}


# --------------------------------------------------------------------------
# walk-mix
# --------------------------------------------------------------------------


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _eta(p: int, scale: float = 1) -> dict:
    return {"eta_pow": p, "scale": scale}


def _kpn_witnesses(n: int, rng) -> list[tuple[str, list, dict]]:
    """Exact boundary witnesses on KP_n: (kind, coefficients, expected limit)."""
    parity = "even" if n % 2 == 0 else "odd"
    out = [
        (
            "strict",
            [["rho+:0", _eta(0)], ["rho+:1", [0.3, 0]], [f"rho+:{n - 1}", [0.3, 0]]],
            {"outcome": "haar", "branch": "haar"},
        ),
        (
            "rho-paired",
            [[f"rho{s}:{l}", _eta(0)] for l in range(n) for s in "+-"]
            + [[f"X:{u},1", [0.5, 0]] for u in range(n)],
            {
                "outcome": "h_gamma",
                "branch": f"{parity}:rho-paired",
                "spec": {"type": "h_gamma", "gamma": [[0, j] for j in range(n)]},
            },
        ),
        (
            "plus-only",
            [[f"rho+:{l}", _eta(0)] for l in range(n)] + [[f"rho-:{l}", [0.5, 0]] for l in range(n)],
            {
                "outcome": "h_gamma_l_tau",
                "branch": f"{parity}:plus-only",
                "spec": {"type": "h_gamma_l_tau", "p": n, "q": 1, "l": 0, "tau": [1] * n},
            },
        ),
        (
            "flip",
            [["rho+:0", _eta(0)], ["rho-:0", _eta(0, -1)]],
            {"outcome": "diverges", "branch": "boundary-divergence", "period": 2},
        ),
    ]
    # cyclic divergence by rotation: ratios eta^(lp) on the rho+ labels, and
    # the same with the rho- labels at minus those ratios
    p = int(rng.choice([d for d in range(1, n) if n % d == 0]))
    q = n // p
    rot = [[f"rho+:{l * p}", _eta(l * p)] for l in range(q)]
    out.append(
        ("rotate", rot, {"outcome": "diverges", "branch": "boundary-divergence", "period": q})
    )
    out.append(
        (
            "rotate-flip",
            rot + [[f"rho-:{l * p}", _eta(l * p, -1)] for l in range(q)],
            {"outcome": "diverges", "branch": "boundary-divergence", "period": math.lcm(2, q)},
        )
    )
    if n % 2 == 0:
        h = n // 2
        out.append(
            (
                "sigma-split",
                [["rho+:0", _eta(0)], ["sigma+:0", _eta(0)]]
                + [[f"X:0,{v}", [0.5, 0]] for v in range(1, (n - 1) // 2 + 1)],
                {
                    "outcome": "h_gamma_l",
                    "branch": "even:sigma-split-q2",
                    "spec": {"type": "h_gamma_l", "q": 2, "l": 0},
                },
            )
        )
        out.append(
            (
                "sigma-pair",
                [[f"rho+:{2 * i}", _eta(0)] for i in range(h)]
                + [[f"sigma+:{2 * i}", _eta(0)] for i in range(h)],
                {
                    "outcome": "h_gamma_l_tau",
                    "branch": "even:sigma-pair-q2",
                    "spec": {"type": "h_gamma_l_tau", "p": h, "q": 2, "l": 0, "tau": [1] * h},
                },
            )
        )
    return out


# (g1, g2, g3, g4, gX), expected limit; every limit case of the KP classification
_KP_WITNESSES = [
    ((1, 1, 1, 1, 2), {"outcome": "pal", "index": 1}),
    ((1, 1, 1, 1, 0.5), {"outcome": "pal", "index": 4}),
    ((1, 1, 0.5, 0.5, 0), {"outcome": "pal", "index": 6}),
    ((1, 0.5, 1, 0.5, 0), {"outcome": "pal", "index": 7}),
    ((1, 0.5, 0.5, 1, 0), {"outcome": "pal", "index": 5}),
    ((1, 1, 1, 1, -2), {"outcome": "diverges", "period": 2}),
    ((1, -1, 0, 0, 0), {"outcome": "diverges", "period": 2}),
    ((1, 0.4, 0.3, 0.2, 0.1), {"outcome": "haar"}),
]


def _kp_interior(rng) -> tuple[float, ...]:
    """Uniform draw from the KP state polytope, kept 0.05 inside its faces."""
    while True:
        g2, g3, g4 = rng.uniform(-1.0, 1.0, 3)
        gx = rng.uniform(-2.0, 2.0)
        faces = (
            1 + g2 + g3 + g4 - 2 * abs(gx),
            1 + g2 - g3 - g4,
            1 - g2 + g3 - g4,
            1 - g2 - g3 + g4,
        )
        if min(faces) > 0.05 and max(abs(g2), abs(g3), abs(g4), abs(gx) / 2) < 0.95:
            return (1.0, float(g2), float(g3), float(g4), float(gx))


def _kp_doc(g) -> list:
    return [[name, [v, 0]] for name, v in zip(("g1", "g2", "g3", "g4", "gX"), g)]


def _log_uniform_k(stratum: int, strata: int, rng) -> int:
    """k_max drawn log-uniformly on [1, K_MAX] within one of ``strata`` equal slices."""
    return max(1, int(round(K_MAX ** ((stratum + rng.uniform()) / strata))))


def _walk_slots(rng) -> list[tuple[str, int, str, dict, dict, int]]:
    """(group, n, config id, config, expected limit, exit code) for every walk-mix op.

    Which groups, n, witness kinds and non-states appear, and how often,
    is fixed; ``rng`` draws the states.
    """
    slots = []
    for n in KPN_N:
        for i in range(10):
            coeffs = random_central_state(n, rng)
            doc = {"group": "kpn", "n": n, "coefficients": [[k, _pair(v)] for k, v in coeffs.items()]}
            slots.append(("kpn", n, f"kpn-n{n}-interior-{i}", doc, {"outcome": "haar", "branch": "haar"}, 0))
        for kind, coeffs, limit in _kpn_witnesses(n, rng):
            slots.append(("kpn", n, f"kpn-n{n}-{kind}", {"group": "kpn", "n": n, "coefficients": coeffs}, limit, 0))
        coeffs = random_central_state(n, rng)
        if n % 2:
            coeffs["rho+:0"] = 2.0  # normalisation fails
        else:
            coeffs["rho+:1"] = 1.5  # F(a) has non-real abelian coordinates
        doc = {"group": "kpn", "n": n, "coefficients": [[k, _pair(complex(v))] for k, v in coeffs.items()]}
        slots.append(("kpn", n, f"kpn-n{n}-nonstate", doc, {}, 2))

    for i in range(40):
        slots.append(("kp", 0, f"kp-interior-{i}", {"group": "kp", "coefficients": _kp_doc(_kp_interior(rng))}, {"outcome": "haar"}, 0))
    for i, (g, limit) in enumerate(_KP_WITNESSES * 2):
        slots.append(("kp", 0, f"kp-witness-{i % len(_KP_WITNESSES)}", {"group": "kp", "coefficients": _kp_doc(g)}, limit, 0))
    for i in range(4):
        g = list(_kp_interior(rng))
        g[1 + i % 3] = 1.5  # outside the state polytope
        slots.append(("kp", 0, f"kp-nonstate-{i}", {"group": "kp", "coefficients": _kp_doc(g)}, {}, 2))

    for n in DUAL_N:
        for i in range(10):
            keys = rng.choice(n * n - 1, size=min(6, n * n - 1), replace=False) + 1
            coeffs = {"e:0,0": 1.0}
            for key in keys:
                coeffs[f"e:{key // n},{key % n}"] = float(rng.uniform(0.05, 0.95))
            if i % 4 < 2:  # half the states carry Xhat
                coeffs["Xhat"] = float(rng.uniform(0.05, 0.95) * n)
            others = [key for key in sorted(coeffs) if key != "e:0,0"]
            if i < 8:
                cid, limit, code = f"dual-n{n}-interior-{i}", {"outcome": "haar"}, 0
            elif i == 8:
                hits = others[: 1 + n % 3]
                for key in hits:
                    coeffs[key] = float(n) if key == "Xhat" else 1.0
                abelian = [[0, 0]] + [[int(t) for t in k[2:].split(",")] for k in hits if k != "Xhat"]
                eps = {"abelian": sorted(abelian), "xhat": int("Xhat" in hits)}
                cid, limit, code = f"dual-n{n}-idempotent", {"outcome": "idempotent", "epsilon": eps}, 0
            else:
                coeffs[others[0]] = -0.5
                cid, limit, code = f"dual-n{n}-nonstate", {}, 2
            doc = {"group": "kpn-dual", "n": n, "coefficients": [[k, [v, 0]] for k, v in coeffs.items()]}
            slots.append(("kpn-dual", n, cid, doc, limit, code))
    return slots


def walk_mix(seed: int, workdir: str) -> Workload:
    """300 run and classify ops on generated configs, plus idempotents --n 2..5.

    180 kpn ops with n = 3..12: interior random states, an exact boundary
    witness of every limit branch and of cyclic divergence for each n,
    and one non-state per n. 60 kp ops and 60 kpn-dual ops of the same
    three sorts. Non-states must exit 2. The four idempotents ops keep
    the enumeration and centrality layers measured; their output is
    compared byte for byte with the seed's.

    Within each (group, n) run and classify alternate, and the run ops of
    a group take k_max from equal log slices of [1, 1000], interleaved
    over n and over the kinds of state. The states and the exact k_max
    inside each slice come from ``LAYOUT_SEED``, so every seed runs the
    same ops; the seed draws their order.
    """
    rng = np.random.default_rng(LAYOUT_SEED)
    buckets: dict[tuple, list] = {}
    for slot in _walk_slots(rng):
        buckets.setdefault(slot[:2], []).append(slot)
    ops, runs = [], {}
    for index, key in enumerate(sorted(buckets)):
        for pos, (group, n, cid, doc, limit, code) in enumerate(buckets[key]):
            cmd = "run" if (pos + index) % 2 == 0 else "classify"
            ops.append([cid, doc, limit, code, cmd, 0])
            if cmd == "run":
                # low-discrepancy sequence: spreads each bucket's run ops
                # over [0, 1), shifted per bucket so that no kind of state
                # takes the same slice of k_max for every n
                spread = (pos // 2 * 0.6180339887498949 + index * 0.4142135623730951) % 1.0
                runs.setdefault(group, []).append((spread, n, len(ops) - 1))
    for group, members in runs.items():
        members.sort()
        for stratum, (_, _, at) in enumerate(members):
            ops[at][5] = _log_uniform_k(stratum, len(members), rng)
    for op in ops:
        op[5] = op[5] or _log_uniform_k(0, 1, rng)  # classify ops
    warm_coeffs = _kpn_witnesses(5, rng)[0][1]
    ops += [[f"idempotents-n{n}", None, {}, 0, "idempotents", 0] for n in IDEMPOTENT_N]
    out = []
    for pos, idx in enumerate(np.random.default_rng(seed).permutation(len(ops))):
        cid, doc, limit, code, cmd, k_max = ops[idx]
        if cmd == "idempotents":
            n = cid.rpartition("n")[2]
            out_path = os.path.join(workdir, f"out-{pos:03d}.json")
            expect = {"golden": str(DATA / "idempotents" / f"n{n}.json")}
            argv = ["idempotents", "--n", n, "--out", out_path]
            out.append(Op(f"walk-mix/{pos:03d}", cid, argv, 0, "golden", out_path, expect))
            continue
        doc = dict(doc, k_max=k_max)
        cfg_path = os.path.join(workdir, f"cfg-{pos:03d}.json")
        with open(cfg_path, "w") as handle:
            json.dump(doc, handle)
        out_path = os.path.join(workdir, f"out-{pos:03d}" + (".csv" if cmd == "run" else ".json"))
        expect = {"command": cmd, "group": doc["group"], "k_max": doc["k_max"], "limit": limit}
        out.append(Op(f"walk-mix/{pos:03d}", cid, [cmd, cfg_path, "--out", out_path], code, "walk", out_path, expect))
    warm_path = os.path.join(workdir, "cfg-warmup.json")
    with open(warm_path, "w") as handle:
        json.dump({"group": "kpn", "n": 5, "k_max": 20, "coefficients": warm_coeffs}, handle)
    warmup = ["run", warm_path, "--out", os.path.join(workdir, "out-warmup.csv")]
    return Workload(out, warmup)


# --------------------------------------------------------------------------
# cutoff-large
# --------------------------------------------------------------------------


def cutoff_large(seed: int, workdir: str) -> Workload:
    """qgwalk cutoff --n N --c c for N in {51, 101, 201}, c = -2.0, -1.9, ..., 2.0.

    The grid is fixed so that every row has a stored 50-digit reference;
    the seed sets the order of the ops.
    """
    rng = np.random.default_rng(seed)
    grid = [(n, c) for n in CUTOFF_N for c in CUTOFF_C]
    ops = []
    for pos, idx in enumerate(rng.permutation(len(grid))):
        n, c = grid[idx]
        out_dir = os.path.join(workdir, f"cutoff-{pos:03d}")
        argv = ["cutoff", "--n", str(n), "--c", c, "--out", out_dir]
        ops.append(Op(f"cutoff-large/{pos:03d}", f"cosine-n{n}-c{c}", argv, 0, "cutoff", out_dir))
    warmup = ["cutoff", "--n", "51", "--c", "0.0", "--out", os.path.join(workdir, "cutoff-warmup")]
    return Workload(ops, warmup)


WORKLOADS = {"walk-mix": walk_mix, "cutoff-large": cutoff_large}


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def load_cosine_reference() -> dict[tuple[int, int], float]:
    """The stored 50-digit cosine-walk distances, keyed by (n, k)."""
    with open(DATA / "cosine_reference.json") as handle:
        doc = json.load(handle)
    return {(int(n), int(k)): float(v) for n, k, v in doc["values"]}


def read_output(op: Op) -> bytes | None:
    """Bytes the op wrote (for run ops, the CSV followed by the meta JSON)."""
    path = os.path.join(op.out, "cutoff.csv") if op.check == "cutoff" else op.out
    parts = [path] + ([path + ".meta.json"] if op.expect.get("command") == "run" else [])
    chunks = []
    for part in parts:
        try:
            with open(part, "rb") as handle:
                chunks.append(handle.read())
        except FileNotFoundError:
            return None
    return b"\0".join(chunks)


def _within(lo: float, hi: float) -> bool:
    """lo <= hi up to RTOL relative to the larger of the two."""
    return lo <= hi + RTOL * max(abs(lo), abs(hi))


def _check_limit(doc: dict, limit: dict) -> Failure | None:
    for key, want in limit.items():
        if doc.get(key) != want:
            return Failure(f"limit {key}: expected {want!r}, printed {doc.get(key)!r}")
    return None


def check_walk(op: Op, data: bytes) -> Failure | None:
    expect = op.expect
    if expect["command"] == "classify":
        return _check_limit(json.loads(data), expect["limit"])
    csv_text, meta_text = data.decode().split("\0")
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[0] != ["k", "qtv", "lower", "upper"]:
        return Failure(f"unexpected header {rows[0]}")
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(1, expect["k_max"] + 1)):
        return Failure("rows do not cover k = 1..k_max")
    for r in body:
        qtv, lower, upper = (float(t) for t in r[1:])
        if not all(math.isfinite(v) and v >= 0.0 for v in (qtv, lower, upper)):
            return Failure(f"k={r[0]}: non-finite or negative value")
        if not _within(lower, qtv) or not _within(qtv, upper):
            known = "tail-precision" if max(lower, qtv) < TAIL else None
            return Failure(f"k={r[0]}: sandwich fails: lower={r[2]} qtv={r[1]} upper={r[3]}", known)
    return _check_limit(json.loads(meta_text), expect["limit"])


def check_cutoff(op: Op, data: bytes, reference: dict) -> Failure | None:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if rows[0] != ["n", "c", "k", "qtv", "lower", "upper_sharp", "upper_theorem"]:
        return Failure(f"unexpected header {rows[0]}")
    if len(rows) < 2:
        return Failure("no rows")
    for r in rows[1:]:
        n, k, qtv = int(r[0]), int(r[2]), float(r[3])
        ref = reference.get((n, k))
        if ref is None:
            return Failure(f"n={n} k={k}: no reference value")
        if ref < CLAMP and qtv == 0.0:
            continue
        if abs(qtv - ref) > RTOL * ref:
            why = f"n={n} k={k}: qtv={r[3]} vs reference {ref!r} (rel. error {abs(qtv - ref) / ref:.1e})"
            return Failure(why, "tail-precision" if ref < TAIL else None)
    return None


def check_golden(op: Op, data: bytes) -> Failure | None:
    with open(op.expect["golden"], "rb") as handle:
        if handle.read() != data:
            return Failure("output differs from the golden file")
    return None
