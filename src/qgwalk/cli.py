"""Command line front end.

Subcommands: ``run`` traces a walk to CSV, ``classify`` prints the limit
as JSON, ``idempotents`` lists the central idempotent states for one n,
``cutoff`` sweeps the cosine walk over (n, c) grids.  Walk definitions
come from JSON config files; complex values are [re, im] pairs or
{"eta_pow": p, "scale": s} meaning s times the p-th power of the
primitive n-th root of unity, which keeps boundary cases exact.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import dual as du
from . import idempotents as idem
from . import kp8
from . import sekine as sk
from . import walks as wk
from .algebra import DEFAULT_TOL

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NOT_STATE = 2
EXIT_NUMERIC = 3

CLAMP = 1e-15

# ``run`` powers a walk only up to the step from which the Diaconis-Shahshahani bound
# (``walks._PowerEngine.settled``) lies below SETTLED_FLOOR, and writes the later rows as
# zeros.  The bound holds for the exact distances; the factor of 4 under CLAMP covers the
# rounding of the computed ones, so every row written as zeros is one CLAMP would zero.
SETTLED_FLOOR = CLAMP / 4

# The ``idempotents`` projector verdict judges elements built exactly from their
# specs, whose residual is rounding alone (at most 1.4e-14 for n <= 24), so it is
# tighter than DEFAULT_TOL, which also absorbs the error of configured coefficients.
IDEMPOTENT_VERDICT_TOL = 1e-10

# At a tolerance of 1/AMBIGUITY_FACTOR or more, every ratio in the closed unit disc
# lies within AMBIGUITY_FACTOR tol of the circle: it is on the circle or too close
# to call (``walks.classify_walk``), so no walk could converge.  Such a tolerance exits 2.
MAX_TOL = 1.0 / wk.AMBIGUITY_FACTOR

# The walk group of each value of the config key "group".
WALK_GROUPS = {"kp": kp8.KP_WALK, "kpn": wk.KPN_WALK, "kpn-dual": du.DUAL_WALK}


class ConfigError(ValueError):
    """Invalid configuration document; message carries the JSON path."""


@dataclass
class WalkConfig:
    group: str  # "kp" | "kpn" | "kpn-dual"
    n: int | None
    by_label: dict  # the coefficients by the keys their labels name (``walks.WalkGroup.key``)
    k_max: int = 50
    tolerance: float | None = None
    output: str | None = None

    @property
    def walk(self) -> wk.WalkGroup:
        return WALK_GROUPS[self.group]


def _is_number(x, kinds=(int, float)) -> bool:
    """A JSON number of the given kinds; true and false are not numbers."""
    return isinstance(x, kinds) and not isinstance(x, bool)


def _finite(t, path: str) -> float:
    """A JSON number as a float; NaN, +-Infinity and overflowing ones are refused."""
    try:
        f = float(t)
    except OverflowError:
        f = math.inf
    if not math.isfinite(f):
        raise ConfigError(f"{path}: not a finite number")
    return f


def _below_max_tol(tol: float, path: str) -> float:
    if tol >= MAX_TOL:
        raise ConfigError(f"{path}: must be below {MAX_TOL!r}, or no ratio inside the unit disc is told from the circle")
    return tol


def _parse_complex(value, n: int | None, path: str) -> complex:
    if isinstance(value, (int, float)):
        raise ConfigError(f"{path}: scalars must be [re, im] pairs or eta_pow objects")
    if isinstance(value, list):
        if len(value) != 2 or not all(_is_number(t) for t in value):
            raise ConfigError(f"{path}: expected [re, im]")
        return complex(_finite(value[0], path), _finite(value[1], path))
    if isinstance(value, dict):
        extra = set(value) - {"eta_pow", "scale"}
        if extra or "eta_pow" not in value:
            raise ConfigError(f"{path}: eta form needs keys eta_pow and optional scale")
        if n is None:
            raise ConfigError(f"{path}: eta_pow requires a group with a modulus n")
        p = value["eta_pow"]
        s = value.get("scale", 1)
        if not _is_number(p, int) or not _is_number(s):
            raise ConfigError(f"{path}: eta_pow must be an integer, scale a number")
        ang = 2.0 * math.pi * (p % n) / n
        return complex(_finite(s, f"{path}.scale")) * complex(math.cos(ang), math.sin(ang))
    raise ConfigError(f"{path}: unsupported value {value!r}")


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members; a key given twice is refused, as a label given twice is."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:  # the hook sees no path, so a nested key is named from the root
            raise ConfigError(f"$: duplicate key {key!r}")
        doc[key] = value
    return doc


def parse_config(doc) -> WalkConfig:
    """Validate a JSON config document into a WalkConfig."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc, object_pairs_hook=_unique_keys)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ConfigError(f"$: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("$: config must be a JSON object")
    group = doc.get("group")
    if group not in ("kp", "kpn", "kpn-dual"):  # a tuple, not WALK_GROUPS: an unhashable group is refused too
        raise ConfigError("$.group: must be one of kp, kpn, kpn-dual")
    walk = WALK_GROUPS[group]
    n = doc.get("n")
    if not walk.has_n:
        if n is not None:
            raise ConfigError(f"$.n: not allowed for group {group}")
    elif not _is_number(n, int) or n < 2:
        raise ConfigError("$.n: integer >= 2 required")
    coeffs_doc = doc.get("coefficients")
    if not isinstance(coeffs_doc, list):
        raise ConfigError("$.coefficients: list of [label, value] pairs required")
    by_label: dict = {}
    for pos, item in enumerate(coeffs_doc):
        path = f"$.coefficients[{pos}]"
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
            raise ConfigError(f"{path}: expected [label, value]")
        text, value = item
        try:
            label = walk.key(text, n)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        if label in by_label:  # also a variant spelling, such as "rho+: 1" of "rho+:1"
            raise ConfigError(f"{path}: duplicate label {text!r}")
        by_label[label] = _parse_complex(value, n, path)
    k_max = doc.get("k_max", 50)
    if not _is_number(k_max, int) or k_max < 1:
        raise ConfigError("$.k_max: positive integer required")
    tolerance = doc.get("tolerance")
    if tolerance is not None:
        if not _is_number(tolerance) or _finite(tolerance, "$.tolerance") <= 0:
            raise ConfigError("$.tolerance: positive number required")
        _below_max_tol(tolerance, "$.tolerance")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("$.output: string path required")
    extra = set(doc) - {"group", "n", "coefficients", "k_max", "tolerance", "output"}
    if extra:
        raise ConfigError(f"$: unknown keys {sorted(extra)}")
    return WalkConfig(group, n, by_label, k_max, tolerance, output)


def tolerance_of(cfg: WalkConfig) -> float:
    if cfg.tolerance is not None:
        return float(cfg.tolerance)
    env = os.environ.get("QGWALK_TOL")
    if env:
        try:
            val = float(env)
        except ValueError as exc:
            raise ConfigError(f"QGWALK_TOL: not a number ({env!r})") from exc
        if not math.isfinite(val):
            raise ConfigError("QGWALK_TOL: not a finite number")
        if val <= 0:
            raise ConfigError("QGWALK_TOL: must be positive")
        return _below_max_tol(val, "QGWALK_TOL")
    return DEFAULT_TOL


def _clamp(values) -> list:
    """The values as Python floats, with those below CLAMP in modulus set to 0.0."""
    values = np.asarray(values, dtype=float)
    return np.where(np.abs(values) < CLAMP, 0.0, values).tolist()


def _csv(header: str, rows) -> str:
    """The header line and one line per row of ints and floats, with no final newline.

    Each value is its repr, which needs no CSV quoting: the bytes csv.writer would write.
    """
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)])


def _walk(cfg: WalkConfig, tol: float) -> tuple[dict, dict, wk.WalkTable]:
    """The classification JSON, the ``run`` meta and the engine table of a walk.

    The element is built once from the labels ``parse_config`` parsed and
    checked, and the classifier's state check is the only one: a
    non-state raises NotAStateError.  What the group prints is read off
    its ``walks.WalkGroup``.
    """
    group = cfg.walk
    c = wk.classify_walk(group, group.element(cfg.n, cfg.by_label), tol)
    doc = {"outcome": c.kind, "branch": c.branch}
    if c.kind not in ("haar", "diverges"):
        doc.update(group.describe(c.limit))
    if not group.brief:
        doc["evidence"] = [
            {"label": group.label(e.label), "ratio_modulus": e.ratio_modulus, "equals_one": e.equals_one}
            for e in c.evidence
        ]
        if c.period is not None:
            doc["period"] = c.period
    if c.notes:
        doc["notes"] = c.notes
    meta = {key: doc[key] for key in group.meta if key in doc}
    if c.kind == "diverges" and group.null_period:
        meta["period"] = c.period
    return doc, meta, c.table


def _emit(pieces: Iterable[str], path: str | None, stdout) -> None:
    """Write the pieces of text, one after the other, and a newline to path, or to stdout."""
    if path:
        try:
            with open(path, "w", newline="") as handle:
                handle.writelines(pieces)
                handle.write("\n")
        except OSError as exc:  # such as a directory that does not exist
            raise ConfigError(f"{path}: {exc.strerror}") from exc
    else:
        stdout.writelines(pieces)
        stdout.write("\n")


def cmd_walk(command: str, cfg: WalkConfig, out_path: str | None, stdout) -> int:
    """``classify`` prints the classification; ``run`` writes the rows and the meta."""
    doc, meta, table = _walk(cfg, tolerance_of(cfg))
    if command == "classify":
        _emit((json.dumps(doc, sort_keys=True),), out_path, stdout)
        return EXIT_OK
    engine = wk._PowerEngine(table)
    ks = range(1, min(engine.settled(SETTLED_FLOOR), cfg.k_max + 1))
    rows = _csv("k,qtv,lower,upper", zip(ks, *_clamp(engine.measure(ks))))  # all formatted before a byte is written
    zeros = range(len(ks) + 1, cfg.k_max + 1)  # the rows past the settle point, written 2^16 to a piece
    pieces = ("".join(f"\n{k},0.0,0.0,0.0" for k in zeros[i : i + 2**16]) for i in range(0, len(zeros), 2**16))
    path = out_path or cfg.output
    _emit(itertools.chain((rows,), pieces), path, stdout)
    _emit((json.dumps(meta, sort_keys=True),), path and path + ".meta.json", stdout)
    return EXIT_OK


def cmd_idempotents(n: int, out_path: str | None, stdout) -> int:
    if not 2 <= n <= idem.ENUMERATION_CAP:
        raise ConfigError(f"--n: must be in 2..{idem.ENUMERATION_CAP}, got {n}")
    rows = [  # each listed spec checked densely: the one check of the closed form outside the tests
        {
            "spec": spec.describe(),
            "idempotent": idem.is_idempotent_state(x := idem.build_idempotent(spec, n), IDEMPOTENT_VERDICT_TOL),
            "central": idem.is_central_functional(x),
        }
        for spec in idem.enumerate_central_idempotents(n)
    ]
    rows.sort(key=lambda r: json.dumps(r["spec"], sort_keys=True))
    _emit((json.dumps(rows, sort_keys=True),), out_path, stdout)
    return EXIT_OK


def _cutoff_steps(n: int, c: float) -> list[int]:
    """k = round(e^c n^2) and round(e^-c n^2), once each and at least 1; a k past the float range raises."""
    try:
        return [max(k, 1) for k in sorted({int(round(math.exp(c) * n * n)), int(round(math.exp(-c) * n * n))})]
    except OverflowError:
        raise OverflowError(f"n={n}, c={c!r}: k = round(e^|c| n^2) leaves the floating-point range") from None


def cmd_cutoff(n_list: list[int], c_list: list[float], out_dir: str | None, stdout) -> int:
    keys, values = [], []
    for n in n_list:
        if n % 2 == 0 or n < 3:
            raise ConfigError(
                f"n={n}: the cosine walk needs odd n; for even n the coefficient at"
                " l = n/2 equals -1 and the walk does not converge to the Haar state"
            )
        grid = [(c, k) for c in c_list for k in _cutoff_steps(n, c)]
        ks = sorted({k for _, k in grid})
        qtv = dict(zip(ks, wk._PowerEngine(wk.cutoff_table(n)).qtv_many(ks)))  # a state by construction
        for c, k in grid:
            keys.append((n, float(c), k))
            values.append((qtv[k], *wk.cutoff_bounds(n, k)))
    rows = (key + tuple(row) for key, row in zip(keys, _clamp(values)))
    if out_dir:
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:  # such as a file of that name
            raise ConfigError(f"{out_dir}: {exc.strerror}") from exc
    path = out_dir and os.path.join(out_dir, "cutoff.csv")
    _emit((_csv("n,c,k,qtv,lower,upper_sharp,upper_theorem", rows),), path, stdout)
    return EXIT_OK


def _load_config(path: str) -> WalkConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(text)


@functools.cache  # built once per process: it costs about 0.6 ms, and parsing never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgwalk",
        description="Random walks on the Kac-Paljutkin and Sekine quantum groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="trace a walk to CSV")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p_cls = sub.add_parser("classify", help="classify the limit of a walk")
    p_cls.add_argument("config")
    p_cls.add_argument("--out", default=None)

    p_idem = sub.add_parser("idempotents", help="list central idempotent states")
    p_idem.add_argument("--n", type=int, required=True)
    p_idem.add_argument("--out", default=None)

    p_cut = sub.add_parser("cutoff", help="cosine-walk sweep over (n, c) pairs")
    p_cut.add_argument("--n", required=True, help="comma-separated odd n values")
    p_cut.add_argument("--c", required=True, help="comma-separated c values")
    p_cut.add_argument("--out", default=None, help="output directory for cutoff.csv")
    return parser


def _parse_list(text: str, kind, flag: str) -> list:
    """Comma-separated values of one type; a bad token or no value at all is a ConfigError."""
    try:
        values = [kind(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if not values:
        raise ConfigError(f"{flag}: at least one value required")
    return values


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Turn ['--c', '-2,-1'] into ['--c=-2,-1'] so argparse accepts it."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--c", "--n") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_negative_values(list(argv)))
    stdout, stderr = sys.stdout, sys.stderr
    try:
        if args.command in ("run", "classify"):
            return cmd_walk(args.command, _load_config(args.config), args.out, stdout)
        if args.command == "idempotents":
            return cmd_idempotents(args.n, args.out, stdout)
        # cutoff: the subcommand is required, so argparse has refused any other
        n_list = _parse_list(args.n, int, "--n")
        c_list = [_finite(c, "--c") for c in _parse_list(args.c, float, "--c")]
        return cmd_cutoff(n_list, c_list, args.out, stdout)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return EXIT_CONFIG
    except sk.NotAStateError as exc:
        failures = [[name, repr(witness)] for name, witness in exc.report.failures]
        print(json.dumps({"is_state": False, "failures": failures}, sort_keys=True), file=stderr)
        return EXIT_NOT_STATE
    except (wk.AmbiguousBoundaryError, np.linalg.LinAlgError, FloatingPointError, OverflowError, MemoryError) as exc:
        print(f"numeric failure: {exc}", file=stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
