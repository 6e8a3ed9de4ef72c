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
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

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

KP_SLOTS = ("g1", "g2", "g3", "g4", "gX")


class ConfigError(ValueError):
    """Invalid configuration document; message carries the JSON path."""


@dataclass
class WalkConfig:
    group: str  # "kp" | "kpn" | "kpn-dual"
    n: int | None
    coefficients: list[tuple[str, complex]]
    k_max: int = 50
    tolerance: float | None = None
    output: str | None = None
    raw_values: list = field(default_factory=list)  # original value forms, for round-trips


def _parse_complex(value, n: int | None, path: str) -> complex:
    if isinstance(value, (int, float)):
        raise ConfigError(f"{path}: scalars must be [re, im] pairs or eta_pow objects")
    if isinstance(value, list):
        if len(value) != 2 or not all(isinstance(t, (int, float)) for t in value):
            raise ConfigError(f"{path}: expected [re, im]")
        return complex(value[0], value[1])
    if isinstance(value, dict):
        extra = set(value) - {"eta_pow", "scale"}
        if extra or "eta_pow" not in value:
            raise ConfigError(f"{path}: eta form needs keys eta_pow and optional scale")
        if n is None:
            raise ConfigError(f"{path}: eta_pow requires a group with a modulus n")
        p = value["eta_pow"]
        s = value.get("scale", 1)
        if not isinstance(p, int) or not isinstance(s, (int, float)):
            raise ConfigError(f"{path}: eta_pow must be an integer, scale a number")
        ang = 2.0 * math.pi * (p % n) / n
        return complex(s) * complex(math.cos(ang), math.sin(ang))
    raise ConfigError(f"{path}: unsupported value {value!r}")


def _parse_sekine_label(text: str, n: int, path: str) -> sk.IrrepLabel:
    try:
        if text.startswith("X:"):
            u, v = (int(t) for t in text[2:].split(","))
            label = sk.x_label(u, v)
        else:
            kind, _, idx = text.partition(":")
            ctor = {
                "rho+": sk.rho_plus,
                "rho-": sk.rho_minus,
                "sigma+": sk.sigma_plus,
                "sigma-": sk.sigma_minus,
            }[kind]
            label = ctor(int(idx))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: unknown label {text!r}") from exc
    try:
        sk.check_label(n, label)
    except sk.InvalidLabelError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return label


def _parse_dual_label(text: str, n: int, path: str):
    if text == "Xhat":
        return "Xhat"
    if text.startswith("e:"):
        try:
            i, j = (int(t) for t in text[2:].split(","))
        except ValueError as exc:
            raise ConfigError(f"{path}: unknown label {text!r}") from exc
        if not (0 <= i < n and 0 <= j < n):
            raise ConfigError(f"{path}: index {text!r} outside Z_{n} x Z_{n}")
        return (i, j)
    raise ConfigError(f"{path}: unknown label {text!r}")


def parse_config(doc) -> WalkConfig:
    """Validate a JSON config document into a WalkConfig."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"$: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ConfigError("$: config must be a JSON object")
    group = doc.get("group")
    if group not in ("kp", "kpn", "kpn-dual"):
        raise ConfigError("$.group: must be one of kp, kpn, kpn-dual")
    n = doc.get("n")
    if group == "kp":
        if n is not None:
            raise ConfigError("$.n: not allowed for group kp")
    else:
        if not isinstance(n, int) or n < 2:
            raise ConfigError("$.n: integer >= 2 required")
    coeffs_doc = doc.get("coefficients")
    if not isinstance(coeffs_doc, list):
        raise ConfigError("$.coefficients: list of [label, value] pairs required")
    coefficients: list[tuple[str, complex]] = []
    seen: set[str] = set()
    for pos, item in enumerate(coeffs_doc):
        path = f"$.coefficients[{pos}]"
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], str)):
            raise ConfigError(f"{path}: expected [label, value]")
        text, value = item
        if text in seen:
            raise ConfigError(f"{path}: duplicate label {text!r}")
        seen.add(text)
        if group == "kp":
            if text not in KP_SLOTS:
                raise ConfigError(f"{path}: unknown label {text!r}")
            coefficients.append((text, _parse_complex(value, None, path)))
        elif group == "kpn":
            label = _parse_sekine_label(text, n, path)
            coefficients.append((str(label), _parse_complex(value, n, path)))
        else:
            key = _parse_dual_label(text, n, path)
            text_norm = "Xhat" if key == "Xhat" else f"e:{key[0]},{key[1]}"
            coefficients.append((text_norm, _parse_complex(value, n, path)))
    k_max = doc.get("k_max", 50)
    if not isinstance(k_max, int) or k_max < 1:
        raise ConfigError("$.k_max: positive integer required")
    tolerance = doc.get("tolerance")
    if tolerance is not None and (not isinstance(tolerance, (int, float)) or tolerance <= 0):
        raise ConfigError("$.tolerance: positive number required")
    output = doc.get("output")
    if output is not None and not isinstance(output, str):
        raise ConfigError("$.output: string path required")
    extra = set(doc) - {"group", "n", "coefficients", "k_max", "tolerance", "output"}
    if extra:
        raise ConfigError(f"$: unknown keys {sorted(extra)}")
    return WalkConfig(group, n, coefficients, k_max, tolerance, output, raw_values=list(coeffs_doc))


def serialize_config(cfg: WalkConfig) -> dict:
    doc: dict = {"group": cfg.group, "coefficients": cfg.raw_values, "k_max": cfg.k_max}
    if cfg.n is not None:
        doc["n"] = cfg.n
    if cfg.tolerance is not None:
        doc["tolerance"] = cfg.tolerance
    if cfg.output is not None:
        doc["output"] = cfg.output
    return doc


def tolerance_of(cfg: WalkConfig) -> float:
    if cfg.tolerance is not None:
        return float(cfg.tolerance)
    env = os.environ.get("QGWALK_TOL")
    if env:
        try:
            val = float(env)
        except ValueError as exc:
            raise ConfigError(f"QGWALK_TOL: not a number ({env!r})") from exc
        if val <= 0:
            raise ConfigError("QGWALK_TOL: must be positive")
        return val
    return DEFAULT_TOL


def _central_element(cfg: WalkConfig) -> sk.CentralElement:
    coeffs = {}
    for text, value in cfg.coefficients:
        coeffs[_parse_sekine_label(text, cfg.n, "$")] = value
    return sk.CentralElement(cfg.n, coeffs)


def _kp_coefficients(cfg: WalkConfig) -> kp8.KPCoefficients:
    values = dict.fromkeys(KP_SLOTS, 0.0)
    values.update(dict(cfg.coefficients))
    return kp8.KPCoefficients(**values)


def _dual_element(cfg: WalkConfig) -> du.DualCentralElement:
    coeffs = {}
    for text, value in cfg.coefficients:
        coeffs[_parse_dual_label(text, cfg.n, "$")] = value
    return du.DualCentralElement(cfg.n, coeffs)


def _clamp(x: float) -> float:
    return 0.0 if abs(x) < CLAMP else float(x)


def _state_failure(report: sk.StateReport, stream) -> int:
    doc = {
        "is_state": False,
        "failures": [[name, repr(witness)] for name, witness in report.failures],
    }
    print(json.dumps(doc, sort_keys=True), file=stream)
    return EXIT_NOT_STATE


def _spec_json(spec) -> dict | None:
    return None if spec is None else spec.describe()


def _classification_json(cfg: WalkConfig, tol: float) -> dict:
    if cfg.group == "kp":
        g = _kp_coefficients(cfg)
        c = kp8.kp_classify(g, tol)
        out = {
            "outcome": "pal" if c.kind == "pal" else c.kind,
            "branch": f"kp:{c.kind}",
            "evidence": [
                {"label": name, "ratio_modulus": mod, "equals_one": abs(mod - 1.0) <= tol}
                for name, mod in sorted(c.evidence.items())
            ],
        }
        if c.pal_index is not None:
            out["index"] = c.pal_index
        if c.period is not None:
            out["period"] = c.period
        return out
    if cfg.group == "kpn-dual":
        a = _dual_element(cfg)
        c = du.dual_classify(a, tol)
        out = {"outcome": c.kind, "branch": f"dual:{c.kind}"}
        if c.epsilon is not None:
            out["epsilon"] = c.epsilon.describe()
        return out
    a = _central_element(cfg)
    c = wk.classify_limit(a, tol)
    out = {
        "outcome": "haar" if c.kind == "haar" else (
            c.spec.describe()["type"] if c.kind == "idempotent" else "diverges"
        ),
        "branch": c.branch,
        "evidence": [
            {
                "label": str(e.label),
                "ratio_modulus": e.ratio_modulus,
                "equals_one": e.equals_one,
            }
            for e in c.evidence
        ],
    }
    if c.kind == "idempotent":
        out["spec"] = _spec_json(c.spec)
        desc = c.spec.describe()
        for key in ("q", "l", "p"):
            if key in desc:
                out[key] = desc[key]
    if c.period is not None:
        out["period"] = c.period
    if c.notes:
        out["notes"] = c.notes
    return out


# Keys of the classification that ``run`` writes to its .meta.json.
_RUN_META_KEYS = {
    "kp": ("outcome", "index", "period"),
    "kpn": ("outcome", "spec", "period", "branch"),
    "kpn-dual": ("outcome", "epsilon"),
}


def _engine(cfg: WalkConfig) -> wk._PowerEngine:
    if cfg.group == "kp":
        return wk._PowerEngine(kp8._kp_table(_kp_coefficients(cfg)))
    if cfg.group == "kpn-dual":
        return wk._PowerEngine(du._dual_table(_dual_element(cfg)))
    return wk._PowerEngine(_central_element(cfg))


def cmd_run(cfg: WalkConfig, out_path: str | None, stdout, stderr) -> int:
    tol = tolerance_of(cfg)
    path = out_path or cfg.output
    report = _validation_report(cfg, tol)
    if not report.is_state:
        return _state_failure(report, stderr)
    engine = _engine(cfg)
    rows = [
        (k, _clamp(engine.qtv(k)), _clamp(engine.lower(k)), _clamp(engine.upper(k)))
        for k in range(1, cfg.k_max + 1)
    ]
    doc = _classification_json(cfg, tol)
    meta = {key: doc[key] for key in _RUN_META_KEYS[cfg.group] if key in doc}
    if cfg.group == "kpn" and doc["outcome"] == "diverges":
        meta.setdefault("period", None)  # kpn runs report a missing period as null

    def write_rows(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["k", "qtv", "lower", "upper"])
        for row in rows:
            writer.writerow([row[0], repr(row[1]), repr(row[2]), repr(row[3])])

    if path:
        with open(path, "w", newline="") as handle:
            write_rows(handle)
        with open(path + ".meta.json", "w") as handle:
            json.dump(meta, handle, sort_keys=True)
            handle.write("\n")
    else:
        write_rows(stdout)
        print(json.dumps(meta, sort_keys=True), file=stdout)
    return EXIT_OK


def cmd_classify(cfg: WalkConfig, out_path: str | None, stdout, stderr) -> int:
    tol = tolerance_of(cfg)
    try:
        doc = _classification_json(cfg, tol)
    except (wk.NotAStateError, ValueError) as exc:
        report = _validation_report(cfg, tol)
        if not report.is_state:
            return _state_failure(report, stderr)
        raise
    text = json.dumps(doc, sort_keys=True)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text, file=stdout)
    return EXIT_OK


def _validation_report(cfg: WalkConfig, tol: float) -> sk.StateReport:
    if cfg.group == "kp":
        return kp8.kp_validate_state(_kp_coefficients(cfg), tol)
    if cfg.group == "kpn-dual":
        return du.dual_validate_state(_dual_element(cfg), tol)
    return sk.validate_state(_central_element(cfg), tol)


def cmd_idempotents(n: int, out_path: str | None, stdout) -> int:
    specs = idem.enumerate_central_idempotents(n)
    rows = []
    for spec in specs:
        x = idem.build_idempotent(spec, n)
        rows.append(
            {
                "spec": spec.describe(),
                "idempotent": idem.is_idempotent_state(x, 1e-10),
                "central": idem.is_central_functional(x, trials=50, rng=np.random.default_rng(0)),
            }
        )
    rows.sort(key=lambda r: json.dumps(r["spec"], sort_keys=True))
    text = json.dumps(rows, sort_keys=True)
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text, file=stdout)
    return EXIT_OK


def cmd_cutoff(n_list: list[int], c_list: list[float], out_dir: str | None, stdout) -> int:
    rows = []
    for n in n_list:
        if n % 2 == 0 or n < 3:
            raise ConfigError(
                f"n={n}: the cosine walk needs odd n; for even n the coefficient at"
                " l = n/2 equals -1 and the walk does not converge to the Haar state"
            )
        a = wk.cutoff_state(n)
        wk._require_state(a)
        engine = wk._PowerEngine(a)
        for c in c_list:
            ks = sorted({int(round(math.exp(c) * n * n)), int(round(math.exp(-c) * n * n))})
            for k in ks:
                k = max(k, 1)
                q = engine.qtv(k)
                lo, us, ut = wk.cutoff_bounds(n, k)
                rows.append((n, c, k, _clamp(q), _clamp(lo), _clamp(us), _clamp(ut)))

    def write_rows(handle):
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "c", "k", "qtv", "lower", "upper_sharp", "upper_theorem"])
        for row in rows:
            writer.writerow([row[0], repr(float(row[1])), row[2]] + [repr(v) for v in row[3:]])

    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "cutoff.csv"), "w", newline="") as handle:
            write_rows(handle)
    else:
        write_rows(stdout)
    return EXIT_OK


def _load_config(path: str) -> WalkConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_config(text)


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
        if args.command == "run":
            return cmd_run(_load_config(args.config), args.out, stdout, stderr)
        if args.command == "classify":
            return cmd_classify(_load_config(args.config), args.out, stdout, stderr)
        if args.command == "idempotents":
            return cmd_idempotents(args.n, args.out, stdout)
        if args.command == "cutoff":
            n_list = [int(t) for t in args.n.split(",") if t]
            c_list = [float(t) for t in args.c.split(",") if t]
            return cmd_cutoff(n_list, c_list, args.out, stdout)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return EXIT_CONFIG
    except (wk.NotAStateError,) as exc:
        print(str(exc), file=stderr)
        return EXIT_NOT_STATE
    except (wk.AmbiguousBoundaryError, np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
