import contextlib
import csv
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qgwalk
from qgwalk import cli, dual, kp8, sekine, walks
from qgwalk.cli import (
    ConfigError,
    main,
    parse_config,
    tolerance_of,
)
from qgwalk.idempotents import ENUMERATION_CAP, AmbiguousBoundaryError, build_idempotent, enumerate_central_idempotents
from conftest import random_central_state
from test_walks import dual_states, kp_states, kpn_states


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, doc, name="cfg.json"):
    """The config ``doc``, or the JSON text ``doc`` as it stands, written to a file."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


COSINE5 = {
    "group": "kpn",
    "n": 5,
    "k_max": 40,
    "coefficients": [
        ["rho+:0", [1, 0]],
        ["rho+:1", [math.cos(2 * math.pi / 5), 0]],
        ["rho+:2", [math.cos(4 * math.pi / 5), 0]],
        ["rho+:3", [math.cos(6 * math.pi / 5), 0]],
        ["rho+:4", [math.cos(8 * math.pi / 5), 0]],
    ],
}

PHI_P_6 = {
    "group": "kpn",
    "n": 6,
    "k_max": 12,
    "coefficients": [
        ["rho+:0", [1, 0]],
        ["rho+:2", {"eta_pow": 2, "scale": 1}],
        ["rho+:4", {"eta_pow": 4, "scale": 1}],
    ],
}


SIGMA_PAIR_6 = {
    "group": "kpn",
    "n": 6,
    "k_max": 12,
    "coefficients": [
        ["rho+:0", [1, 0]], ["rho+:2", [1, 0]], ["rho+:4", [1, 0]],
        ["sigma+:0", [1, 0]], ["sigma+:2", [1, 0]], ["sigma+:4", [1, 0]],
    ],
}


GOLDEN_CLASSIFY = sorted((pathlib.Path(__file__).parent / "data" / "classify").glob("*.json"))
GOLDEN_RUN = sorted((pathlib.Path(__file__).parent / "data" / "run").glob("*.json"))
CUTOFF_DIR = pathlib.Path(__file__).parent / "data" / "cutoff"
GOLDEN_CUTOFF = sorted(CUTOFF_DIR.glob("*.json"))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# config-shaped documents reach the value and label parsers more often than arbitrary JSON
_LABELS = st.sampled_from(["g1", "gX", "rho+:0", "rho-:1", "sigma+:0", "X:1,1", "X:0,3", "e:0,0", "e:1,2", "Xhat"])
_VALUES = st.one_of(
    JSON_VALUES,
    st.lists(JSON_VALUES, min_size=2, max_size=2),
    st.fixed_dictionaries({"eta_pow": JSON_VALUES}, optional={"scale": JSON_VALUES}),
)
CONFIG_DOCS = st.fixed_dictionaries(
    {"group": st.sampled_from(["kp", "kpn", "kpn-dual"]) | JSON_VALUES},
    optional={
        "n": st.integers(-1, 7) | JSON_VALUES,
        "coefficients": st.lists(st.tuples(_LABELS | st.text(max_size=6), _VALUES).map(list) | JSON_VALUES, max_size=4),
        "k_max": JSON_VALUES,
        "tolerance": JSON_VALUES,
        "output": JSON_VALUES,
    },
)


class TestParseConfig:
    def test_eta_pow_exact(self):
        cfg = parse_config(json.dumps(PHI_P_6))
        assert cfg.by_label[sekine.rho_plus(2)] == pytest.approx(np.exp(2j * np.pi * 2 / 6), abs=1e-15)

    def test_unknown_label(self):
        doc = {"group": "kpn", "n": 5, "coefficients": [["tau:1", [1, 0]]]}
        with pytest.raises(ConfigError, match="unknown label"):
            parse_config(json.dumps(doc))

    def test_sigma_odd_n_rejected(self):
        doc = {"group": "kpn", "n": 5, "coefficients": [["sigma+:0", [1, 0]]]}
        with pytest.raises(ConfigError, match="even"):
            parse_config(json.dumps(doc))

    def test_schema_violation_reports_path(self):
        doc = {"group": "kpn", "n": 5, "coefficients": [["rho+:0", "nope"]]}
        with pytest.raises(ConfigError, match=r"\$\.coefficients\[0\]"):
            parse_config(json.dumps(doc))

    def test_kp_labels(self):
        doc = {"group": "kp", "coefficients": [["g1", [1, 0]], ["gX", [2, 0]]]}
        cfg = parse_config(json.dumps(doc))
        assert cfg.by_label["gX"] == 2.0

    def test_dual_labels(self):
        doc = {"group": "kpn-dual", "n": 4, "coefficients": [["e:0,0", [1, 0]], ["Xhat", [4, 0]]]}
        cfg = parse_config(json.dumps(doc))
        assert cfg.by_label["Xhat"] == 4.0

    @pytest.mark.parametrize(
        "group, n, first, again",
        [
            ("kpn", 3, "rho+:1", "rho+:1"),
            ("kpn", 3, "rho+:1", "rho+: 1"),
            ("kpn", 4, "X:1,1", "X:01,1"),
            ("kpn-dual", 3, "e:1,0", "e:1,0"),
            ("kpn-dual", 3, "e:1,0", "e:01,0"),
            ("kpn-dual", 3, "Xhat", "Xhat"),
            ("kp", None, "g2", "g2"),
        ],
    )
    def test_duplicate_label_exits_2(self, group, n, first, again, tmp_path, capsys):
        # a second spelling of a label must not silently replace the first value
        unit = {"kpn": "rho+:0", "kpn-dual": "e:0,0", "kp": "g1"}[group]
        doc = {"group": group, "coefficients": [[unit, [1, 0]], [first, [0.5, 0]], [again, [0.2, 0]]]}
        if n is not None:
            doc["n"] = n
        with pytest.raises(ConfigError, match=re.escape(f"$.coefficients[2]: duplicate label {again!r}")):
            parse_config(doc)
        for command in ("run", "classify"):
            code, out, err = run_cli([command, write_config(tmp_path, doc)], capsys)
            assert (code, out) == (2, "") and "duplicate label" in err

    def test_tolerance_env_override(self, monkeypatch):
        cfg = parse_config(json.dumps(COSINE5))
        monkeypatch.delenv("QGWALK_TOL", raising=False)
        assert tolerance_of(cfg) == 1e-9
        monkeypatch.setenv("QGWALK_TOL", "1e-7")
        assert tolerance_of(cfg) == 1e-7

    @pytest.mark.parametrize(
        "doc, path",
        [
            ({"group": "kpn", "n": True, "coefficients": []}, r"\$\.n"),
            ({"group": "kp", "k_max": True, "coefficients": []}, r"\$\.k_max"),
            ({"group": "kp", "tolerance": True, "coefficients": []}, r"\$\.tolerance"),
            ({"group": "kp", "coefficients": [["g1", [True, False]]]}, r"\$\.coefficients\[0\]"),
            ({"group": "kp", "coefficients": [["g1", [1, False]]]}, r"\$\.coefficients\[0\]"),
            ({"group": "kpn", "n": 4, "coefficients": [["rho+:1", {"eta_pow": True}]]}, r"\$\.coefficients\[0\]"),
            ({"group": "kpn", "n": 4, "coefficients": [["rho+:1", {"eta_pow": 1, "scale": False}]]}, r"\$\.coefficients\[0\]"),
        ],
        ids=["n", "k_max", "tolerance", "re-im", "im", "eta_pow", "scale"],
    )
    def test_booleans_are_not_numbers(self, doc, path):
        with pytest.raises(ConfigError, match=path):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("command", ["run", "classify"])
    def test_boolean_config_exits_2(self, command, tmp_path, capsys):
        doc = {"group": "kp", "k_max": True, "tolerance": True, "coefficients": [["g1", [True, False]], ["g2", [0.5, 0]]]}
        code, out, err = run_cli([command, write_config(tmp_path, doc)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: $.")

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1" + "0" * 400], ids=["nan", "inf", "huge-int"])
    def test_tolerance_must_be_finite(self, text):
        # a NaN or infinite tolerance would pass every state check
        doc = '{"group": "kp", "tolerance": %s, "coefficients": [["g1", [1, 0]], ["g2", [5, 0]]]}' % text
        with pytest.raises(ConfigError, match=r"\$\.tolerance: not a finite number"):
            parse_config(doc)

    @pytest.mark.parametrize("env", ["nan", "inf"])
    def test_tolerance_env_must_be_finite(self, env, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QGWALK_TOL", env)
        doc = {"group": "kp", "coefficients": [["g1", [1, 0]], ["g2", [5, 0]]]}
        code, out, err = run_cli(["run", write_config(tmp_path, doc)], capsys)
        assert (code, out, err) == (2, "", "config error: QGWALK_TOL: not a finite number\n")

    @pytest.mark.parametrize(
        "doc, env, message",
        [
            (
                {"group": "kp", "coefficients": [["g1", 1]]},
                None,
                "$.coefficients[0]: scalars must be [re, im] pairs or eta_pow objects",
            ),
            (
                {"group": "kpn", "n": 3, "coefficients": [["rho+:0", {"eta_pow": 0, "phase": 1}]]},
                None,
                "$.coefficients[0]: eta form needs keys eta_pow and optional scale",
            ),
            (
                {"group": "kp", "coefficients": [["g1", {"eta_pow": 0}]]},
                None,
                "$.coefficients[0]: eta_pow requires a group with a modulus n",
            ),
            ({**COSINE5, "output": 5}, None, "$.output: string path required"),
            ({**COSINE5, "extra": 1}, None, "$: unknown keys ['extra']"),
            (COSINE5, "abc", "QGWALK_TOL: not a number ('abc')"),
            (COSINE5, "-1e-9", "QGWALK_TOL: must be positive"),
            ({"group": "kp", "coefficients": [["g1"]]}, None, "$.coefficients[0]: expected [label, value]"),
            ({"group": "kp", "coefficients": [["g9", [1, 0]]]}, None, "$.coefficients[0]: unknown label 'g9'"),
            ({"group": "kpn", "n": 3, "coefficients": [["rho+:3", [1, 0]]]}, None, "$.coefficients[0]: rho+:3 invalid for n=3"),
            (
                {"group": "kpn", "n": 4, "coefficients": [["sigma-:4", [1, 0]]]},
                None,
                "$.coefficients[0]: sigma-:4 invalid for n=4",
            ),
            ({"group": "kpn", "n": 5, "coefficients": [["tau:1", [1, 0]]]}, None, "$.coefficients[0]: unknown label 'tau:1'"),
            ({"group": "kpn", "n": 5, "coefficients": [["rho+", [1, 0]]]}, None, "$.coefficients[0]: unknown label 'rho+'"),
            ({"group": "kpn", "n": 5, "coefficients": [["X:0,3", [1, 0]]]}, None, "$.coefficients[0]: X:0,3 invalid for n=5"),
            (
                {"group": "kpn", "n": 5, "coefficients": [["sigma+:7", [1, 0]]]},
                None,
                "$.coefficients[0]: sigma+:7 requires even n, got n=5",
            ),
            ({"group": "kpn-dual", "n": 3, "coefficients": [["e:1", [1, 0]]]}, None, "$.coefficients[0]: unknown label 'e:1'"),
            ({"group": "kpn-dual", "n": 3, "coefficients": [["Xhat2", [1, 0]]]}, None, "$.coefficients[0]: unknown label 'Xhat2'"),
            (
                {"group": "kpn-dual", "n": 3, "coefficients": [["e:3,0", [1, 0]]]},
                None,
                "$.coefficients[0]: index 'e:3,0' outside Z_3 x Z_3",
            ),
            ({"group": "kp", "n": 2, "coefficients": [["g1", [1, 0]]]}, None, "$.n: not allowed for group kp"),
            ('{"group": "kpn", "n": 3, "n": 5, "coefficients": [["rho+:0", [1, 0]]]}', None, "$: duplicate key 'n'"),
            (
                '{"group": "kpn", "n": 3, "coefficients": [["rho+:0", [1, 0]]],'
                ' "coefficients": [["rho+:0", [1, 0]], ["rho-:0", [1, 0]]]}',
                None,
                "$: duplicate key 'coefficients'",
            ),
            ('{"group": "kp", "k_max": 3, "coefficients": [["g1", [1, 0]]], "k_max": 5}', None, "$: duplicate key 'k_max'"),
            (
                '{"group": "kpn", "n": 3, "coefficients": [["rho+:0", {"eta_pow": 0, "eta_pow": 1}]]}',
                None,
                "$: duplicate key 'eta_pow'",
            ),
        ],
        ids=[
            "bare-number",
            "eta-extra-key",
            "eta-without-n",
            "output",
            "unknown-key",
            "env-not-number",
            "env-negative",
            "no-value",
            "unknown-kp-label",
            "rho-index",
            "sigma-index",
            "unknown-kpn-kind",
            "kpn-no-index",
            "x-sub",
            "sigma-odd-n",
            "dual-one-index",
            "dual-unknown",
            "dual-index",
            "kp-n",
            "duplicate-n",
            "duplicate-coefficients",
            "duplicate-k-max",
            "duplicate-nested-eta-pow",
        ],
    )
    def test_config_error_message(self, doc, env, message, tmp_path, capsys, monkeypatch):
        if env is None:
            monkeypatch.delenv("QGWALK_TOL", raising=False)
        else:
            monkeypatch.setenv("QGWALK_TOL", env)
        code, out, err = run_cli(["classify", write_config(tmp_path, doc)], capsys)
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("tol", ["0.1", "0.5", "1", "1e300"])
    @pytest.mark.parametrize("source", ["config", "env"])
    def test_tolerance_past_the_ambiguity_bound_exits_2(self, source, tol, tmp_path, capsys, monkeypatch):
        # From 1/AMBIGUITY_FACTOR on, every ratio in the closed disc is on the circle or too
        # close to call.  At 0.5 this walk, whose run decays as 0.7^k, classified as diverging.
        doc = {"group": "kpn", "n": 6, "k_max": 40, "coefficients": [["rho+:0", [1, 0]], ["rho-:0", [-0.7, 0]]]}
        monkeypatch.delenv("QGWALK_TOL", raising=False)
        if source == "config":
            doc["tolerance"], where = json.loads(tol), "$.tolerance"
        else:
            monkeypatch.setenv("QGWALK_TOL", tol)
            where = "QGWALK_TOL"
        for command in ("run", "classify"):
            code, out, err = run_cli([command, write_config(tmp_path, doc)], capsys)
            assert (code, out) == (2, ""), err
            assert err.startswith(f"config error: {where}: must be below 0.1,") and err.count("\n") == 1

    def test_tolerance_below_the_ambiguity_bound_is_kept(self, monkeypatch):
        assert 1.0 / walks.AMBIGUITY_FACTOR == 0.1
        monkeypatch.setenv("QGWALK_TOL", "0.0999")
        assert tolerance_of(parse_config({**COSINE5, "tolerance": 0.09})) == 0.09
        assert tolerance_of(parse_config(COSINE5)) == 0.0999

    def test_deeply_nested_document_is_a_config_error(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("[" * 100000)

    def test_config_file_not_utf8_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"group": "kp", "output": "caf\u00e9"}'.encode("latin-1"))
        code, out, err = run_cli(["classify", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ")

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(JSON_VALUES, CONFIG_DOCS, CONFIG_DOCS.map(json.dumps), st.text(max_size=40), st.binary(max_size=40)))
    def test_any_document_parses_or_is_a_config_error(self, doc):
        try:
            cfg = parse_config(doc)
        except ConfigError:
            return
        assert cfg.group in ("kp", "kpn", "kpn-dual")


class TestLabelRoundTrip:
    """Every label a group has parses back from the name it prints, and lands where the engine reads it."""

    @pytest.mark.parametrize("n", range(2, 14))
    def test_kpn_labels_reach_their_slots(self, n):
        labels = sekine.irrep_labels(n)
        coefficients = [[str(label), [float(pos + 1), 0]] for pos, label in enumerate(labels)]
        cfg = parse_config({"group": "kpn", "n": n, "coefficients": coefficients})
        assert list(cfg.by_label) == labels
        a = sekine.CentralElement(n, cfg.by_label)
        rp, rm, sp, sm, xv = sekine._split_coeffs(n, sekine._coeff_vector(a))
        views = {sekine.RHO_PLUS: rp, sekine.RHO_MINUS: rm, sekine.SIGMA_PLUS: sp, sekine.SIGMA_MINUS: sm}
        for pos, label in enumerate(labels):
            value = xv[label.index, label.sub] if label.kind == sekine.X else views[label.kind][label.index]
            assert value == pos + 1, label

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_dual_cells_and_xhat(self, n):
        cells = [(i, j) for i in range(n) for j in range(n)]
        coefficients = [[f"e:{i},{j}", [1, 0]] for i, j in cells] + [["Xhat", [1, 0]]]
        cfg = parse_config({"group": "kpn-dual", "n": n, "coefficients": coefficients})
        assert list(cfg.by_label) == [*cells, dual.XHAT]

    def test_kp_names(self):
        names = ["g1", *kp8._KP_KEYS]
        cfg = parse_config({"group": "kp", "coefficients": [[name, [1, 0]] for name in names]})
        assert list(cfg.by_label) == names


class TestRun:
    def test_unit_driver_zero_columns(self, tmp_path, capsys):
        doc = {"group": "kpn", "n": 4, "k_max": 5, "coefficients": [["rho+:0", [1, 0]]]}
        code, out, _ = run_cli(["run", write_config(tmp_path, doc)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.splitlines()[0] + "\n" + "\n".join(out.splitlines()[1:6]))))
        assert rows[0] == ["k", "qtv", "lower", "upper"]
        for row in rows[1:]:
            assert float(row[1]) == 0.0 and float(row[2]) == 0.0 and float(row[3]) == 0.0

    def test_cosine_trace_with_meta(self, tmp_path, capsys):
        out_path = str(tmp_path / "trace.csv")
        code, _, _ = run_cli(["run", write_config(tmp_path, COSINE5), "--out", out_path], capsys)
        assert code == 0
        with open(out_path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        from qgwalk.walks import cutoff_bounds

        for row in rows:
            k = int(row["k"])
            q = float(row["qtv"])
            lo, us, _ = cutoff_bounds(5, k)
            assert lo - 1e-9 <= q <= us + 1e-9
            assert float(row["lower"]) - 1e-12 <= q <= float(row["upper"]) + 1e-12
        with open(out_path + ".meta.json") as fh:
            meta = json.load(fh)
        assert meta["outcome"] == "haar"

    def test_phi_p_meta_reports_period(self, tmp_path, capsys):
        out_path = str(tmp_path / "phi.csv")
        code, _, _ = run_cli(["run", write_config(tmp_path, PHI_P_6), "--out", out_path], capsys)
        assert code == 0
        meta = json.loads(open(out_path + ".meta.json").read())
        assert meta["outcome"] == "diverges" and meta["period"] == 3

    def test_non_state_exits_2(self, tmp_path, capsys):
        doc = {"group": "kpn", "n": 4, "coefficients": [["rho+:0", [1, 0]], ["rho+:1", [3, 0]]]}
        code, _, err = run_cli(["run", write_config(tmp_path, doc)], capsys)
        assert code == 2
        assert json.loads(err)["is_state"] is False

    @pytest.mark.parametrize("command", ["run", "classify"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"group": "kpn", "n": 4, "coefficients": [["rho+:0", [1, 0]], ["rho-:1", [0.5, 0.5]]]},
            {"group": "kp", "coefficients": [["g1", [1, 0]], ["g2", [2, 0]], ["gX", [0, 0.1]]]},
            {"group": "kpn-dual", "n": 3, "coefficients": [["e:1,0", [-0.5, 0.2]], ["Xhat", [-1, 0]]]},
        ],
        ids=["kpn", "kp", "kpn-dual"],
    )
    def test_every_group_reports_a_non_state_alike(self, tmp_path, capsys, command, doc):
        code, out, err = run_cli([command, write_config(tmp_path, doc)], capsys)
        assert code == 2 and out == ""
        report = json.loads(err)
        assert report["is_state"] is False and set(report) == {"is_state", "failures"}
        assert report["failures"] and all(isinstance(name, str) and isinstance(w, str) for name, w in report["failures"])

    @pytest.mark.parametrize("command", ["run", "classify"])
    @pytest.mark.parametrize(
        "doc, module, name",
        [
            (PHI_P_6, walks, "validate_state"),
            (COSINE5, walks, "validate_state"),
            ({"group": "kp", "coefficients": [["g1", [1, 0]], ["g2", [-1, 0]]]}, kp8, "kp_validate_state"),
            ({"group": "kpn-dual", "n": 3, "coefficients": [["e:0,0", [1, 0]], ["Xhat", [3, 0]]]}, dual, "dual_validate_state"),
        ],
        ids=["kpn-diverges", "kpn-haar", "kp", "kpn-dual"],
    )
    def test_state_is_checked_once(self, tmp_path, capsys, monkeypatch, command, doc, module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
        if module is walks:
            monkeypatch.setattr(sekine, name, counted)
        code, _, err = run_cli([command, write_config(tmp_path, doc)], capsys)
        assert code == 0, err
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["run", "classify"])
    @pytest.mark.parametrize(
        "doc, module, name",
        [
            (PHI_P_6, walks, "_kpn_table"),
            (COSINE5, walks, "_kpn_table"),
            ({"group": "kp", "coefficients": [["g1", [1, 0]], ["g2", [-1, 0]]]}, kp8, "_kp_table"),
            ({"group": "kpn-dual", "n": 3, "coefficients": [["e:0,0", [1, 0]], ["Xhat", [3, 0]]]}, dual, "_dual_table"),
        ],
        ids=["kpn-diverges", "kpn-haar", "kp", "kpn-dual"],
    )
    def test_table_is_built_once(self, tmp_path, capsys, monkeypatch, command, doc, module, name):
        calls = []
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
        code, _, err = run_cli([command, write_config(tmp_path, doc)], capsys)
        assert code == 0, err
        assert len(calls) == 1

    @pytest.mark.parametrize("path", GOLDEN_RUN, ids=lambda p: p.stem)
    def test_output_matches_golden_file(self, path, tmp_path, capsys):
        # tests/data/run/<name>.json: the configs of tests/data/classify at
        # k_max = 30 with their byte-exact CSV and .meta.json;
        # non-states.json: non-states of every group with exit code and stderr
        out_path = tmp_path / "run.csv"
        for case in json.loads(path.read_text()):
            argv = ["run", write_config(tmp_path, case["config"]), "--out", str(out_path)]
            code, out, err = run_cli(argv, capsys)
            if "stderr" in case:
                assert (code, out, err) == (case["exit"], "", case["stderr"]), case["name"]
                continue
            assert (code, out, err) == (0, "", ""), case["name"]
            assert out_path.read_bytes() == case["csv"].encode(), case["name"]
            assert (tmp_path / "run.csv.meta.json").read_bytes() == case["meta"].encode(), case["name"]

    def test_config_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{不valid")
        code, _, err = run_cli(["run", str(path)], capsys)
        assert code == 2
        assert "config error" in err

    def test_dual_run(self, tmp_path, capsys):
        doc = {
            "group": "kpn-dual",
            "n": 3,
            "k_max": 4,
            "coefficients": [["e:0,0", [1, 0]], ["e:1,0", [0.5, 0]]],
        }
        code, out, _ = run_cli(["run", write_config(tmp_path, doc)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[:-1]))))
        assert float(rows[1]["qtv"]) == pytest.approx(1 / 8)

    def test_kp_run(self, tmp_path, capsys):
        doc = {
            "group": "kp",
            "k_max": 6,
            "coefficients": [["g1", [1, 0]], ["g2", [0.5, 0]], ["g3", [0.5, 0]], ["g4", [0.5, 0]]],
        }
        code, out, _ = run_cli(["run", write_config(tmp_path, doc)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[:-1]))))
        assert float(rows[0]["upper"]) == pytest.approx(math.sqrt(3) / 4)

    def test_bit_stable_outputs(self, tmp_path, capsys):
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        run_cli(["run", write_config(tmp_path, COSINE5), "--out", p1], capsys)
        run_cli(["run", write_config(tmp_path, COSINE5), "--out", p2], capsys)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(p1 + ".meta.json", "rb").read() == open(p2 + ".meta.json", "rb").read()


def _state_config(group, state, k_max):
    """The ``run`` config of a state drawn by one of test_walks' strategies."""
    if group == "kp":
        return cli.WalkConfig(group, None, dict(zip(("g1", *kp8._KP_KEYS), state.as_tuple())), k_max)
    return cli.WalkConfig(group, state.n, dict(state.coeffs), k_max)


class TestSettledRows:
    """``run`` powers a walk only before its settle point s and writes the rows from s on as zeros."""

    @pytest.mark.parametrize(
        "group, states", [("kpn", kpn_states()), ("kp", kp_states()), ("kpn-dual", dual_states())], ids=["kpn", "kp", "kpn-dual"]
    )
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_past_the_settle_point_are_the_clamped_rows(self, group, states, data):
        state = data.draw(states)
        try:
            cfg = _state_config(group, state, 1)
            _, meta, table = cli._walk(cfg, cli.tolerance_of(cfg))
        except AmbiguousBoundaryError:
            return
        engine = walks._PowerEngine(table)
        s = engine.settled(cli.SETTLED_FLOOR)
        if s == math.inf:
            return
        assert all(v < cli.CLAMP for column in engine.measure([*range(s, s + 40), 2 * s, 10 * s]) for v in column)
        if s > 2000:  # a ratio just inside the circle: too many rows to write three times
            return
        for k_max in (s - 1, s, s + 1):
            ks = range(1, k_max + 1)
            clamped = cli._csv("k,qtv,lower,upper", zip(ks, *cli._clamp(engine.measure(ks))))  # every k powered
            out = io.StringIO()
            assert cli.cmd_walk("run", _state_config(group, state, k_max), None, out) == 0
            assert out.getvalue() == f"{clamped}\n{json.dumps(meta, sort_keys=True)}\n", k_max

    @staticmethod
    def _asked(monkeypatch):
        """The ks ``measure`` is asked for, as they come."""
        asked = []
        measure = walks._PowerEngine.measure
        monkeypatch.setattr(walks._PowerEngine, "measure", lambda self, ks: asked.extend(ks) or measure(self, ks))
        return asked

    def test_no_k_from_the_settle_point_on_is_powered(self, tmp_path, capsys, monkeypatch):
        cfg = parse_config(json.dumps(COSINE5))
        s = walks._PowerEngine(walks._kpn_table(cfg.walk.element(cfg.n, cfg.by_label))).settled(cli.SETTLED_FLOOR)
        asked = self._asked(monkeypatch)
        code, out, _ = run_cli(["run", write_config(tmp_path, {**COSINE5, "k_max": 400})], capsys)
        assert code == 0 and 1 < s <= 400
        assert asked == list(range(1, s))
        assert out.splitlines()[s:401] == [f"{k},0.0,0.0,0.0" for k in range(s, 401)]

    def test_boundary_walk_is_powered_at_every_k(self, tmp_path, capsys, monkeypatch):
        cfg = parse_config(json.dumps(PHI_P_6))
        assert walks._PowerEngine(walks._kpn_table(cfg.walk.element(cfg.n, cfg.by_label))).settled(cli.SETTLED_FLOOR) == math.inf
        asked = self._asked(monkeypatch)
        code, out, _ = run_cli(["run", write_config(tmp_path, PHI_P_6)], capsys)
        assert code == 0 and asked == list(range(1, 13))

    def test_haar_state_powers_nothing(self, tmp_path, capsys, monkeypatch):
        asked = self._asked(monkeypatch)
        doc = {"group": "kpn", "n": 4, "k_max": 3, "coefficients": [["rho+:0", [1, 0]]]}
        code, out, _ = run_cli(["run", write_config(tmp_path, doc)], capsys)
        assert code == 0 and asked == []
        assert out.splitlines()[:4] == ["k,qtv,lower,upper", "1,0.0,0.0,0.0", "2,0.0,0.0,0.0", "3,0.0,0.0,0.0"]


class TestDenseElementOffTheWalkPath:
    """The state check, the limit and the run read the Fourier density: no dense element is built."""

    @pytest.mark.parametrize("doc", [COSINE5, SIGMA_PAIR_6], ids=["odd", "even-sigma"])
    def test_with_the_dense_synthesis_gone(self, doc, tmp_path, capsys, monkeypatch):
        def dense(*args):
            raise AssertionError("the dense element was built")

        monkeypatch.setattr(sekine, "central_to_element", dense)
        monkeypatch.setattr(sekine, "_element_arrays", dense)
        cfg = parse_config(doc)
        a = sekine.CentralElement(cfg.n, cfg.by_label)
        assert walks.validate_state is sekine.validate_state
        assert sekine.validate_state(a).is_state
        assert walks.classify_limit(a).kind in ("haar", "idempotent")
        code, _, err = run_cli(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "run.csv")], capsys)
        assert (code, err) == (0, "")


def _lazy_idempotent(n):
    """(e + counit)/2 for a central idempotent e of KP_n: every label present, some of them at ratio 1."""
    specs = enumerate_central_idempotents(n)
    e = sekine.element_to_central(build_idempotent(specs[len(specs) // 2], n))
    return sekine.CentralElement(n, {l: (e.coefficient(l) + l.dim) / 2 for l in sekine.irrep_labels(n)})


class TestNoLabelIsCompared:
    """KP_n labels are placed and ordered by their slot: no step of a walk compares two labels."""

    @pytest.mark.parametrize("n", [5, 6], ids=["odd-X", "even-sigma-X"])
    def test_with_label_comparison_gone(self, n, tmp_path, capsys, monkeypatch):
        def compare(self, other):
            raise AssertionError("two labels were compared")

        states = [random_central_state(n, np.random.default_rng(n)), _lazy_idempotent(n)]
        runs = []
        for a in states:
            coefficients = [[str(l), [c.real, c.imag]] for l, c in a.coeffs.items()]
            doc = {"group": "kpn", "n": n, "k_max": 8, "coefficients": coefficients}
            path = write_config(tmp_path, doc, f"cfg-{len(runs)}.json")
            keys = sorted(l for l in a.coeffs if l != sekine.trivial_label())
            runs.append((a, keys, path, [run_cli([command, path], capsys) for command in ("run", "classify")]))
        assert {walks.classify_limit(a).kind for a in states} == {"haar", "idempotent"}
        for name in ("__lt__", "__le__", "__gt__", "__ge__"):
            monkeypatch.setattr(sekine.IrrepLabel, name, compare)
        for a, keys, path, outputs in runs:
            assert walks._kpn_table(a).keys == keys
            assert sekine.validate_state(a).is_state
            assert walks.classify_limit(a).table.keys == keys
            assert [run_cli([command, path], capsys) for command in ("run", "classify")] == outputs
            assert all(code == 0 for code, _, _ in outputs)


class TestClassify:
    def test_cosine_haar(self, tmp_path, capsys):
        code, out, _ = run_cli(["classify", write_config(tmp_path, COSINE5)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "haar"
        assert all(not e["equals_one"] for e in doc["evidence"])

    def test_even_sigma_pair_branch(self, tmp_path, capsys):
        code, out, _ = run_cli(["classify", write_config(tmp_path, SIGMA_PAIR_6)], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["outcome"] == "h_gamma_l_tau"
        assert parsed["q"] == 2 and parsed["p"] == 3

    def test_kp_phi6(self, tmp_path, capsys):
        doc = {
            "group": "kp",
            "coefficients": [["g1", [1, 0]], ["g2", [1, 0]], ["g3", [0.5, 0]], ["g4", [0.5, 0]]],
        }
        code, out, _ = run_cli(["classify", write_config(tmp_path, doc)], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["outcome"] == "pal" and parsed["index"] == 6

    def test_phi1_driver(self, tmp_path, capsys):
        doc = {
            "group": "kp",
            "coefficients": [["g1", [1, 0]], ["g2", [1, 0]], ["g3", [1, 0]], ["g4", [1, 0]], ["gX", [2, 0]]],
        }
        code, out, _ = run_cli(["classify", write_config(tmp_path, doc)], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["outcome"] == "pal" and parsed["index"] == 1

    @pytest.mark.parametrize("path", GOLDEN_CLASSIFY, ids=lambda p: p.stem)
    def test_output_matches_golden_file(self, path, tmp_path, capsys):
        # tests/data/classify/<name>.json lists configs with their byte-exact classify output
        for case in json.loads(path.read_text()):
            code, out, err = run_cli(["classify", write_config(tmp_path, case["config"])], capsys)
            assert (code, err) == (0, ""), case["name"]
            assert out == case["classify"], case["name"]

    @pytest.mark.parametrize("g2, equals_one", [(-1, False), (1, True)])
    def test_kp_evidence_of_a_ratio_at_minus_one_or_one(self, g2, equals_one, tmp_path, capsys):
        doc = {"group": "kp", "coefficients": [["g1", [1, 0]], ["g2", [g2, 0]]]}
        code, out, _ = run_cli(["classify", write_config(tmp_path, doc)], capsys)
        assert code == 0
        evidence = {e["label"]: e for e in json.loads(out)["evidence"]}
        assert evidence["g2"] == {"label": "g2", "ratio_modulus": 1.0, "equals_one": equals_one}


# (trivial label, a label whose ratio alone can sit anywhere in [0, 1]) per group
BOUNDARY_LABELS = {"kpn": ("rho+:0", "rho-:0"), "kp": ("g1", "g2"), "kpn-dual": ("e:0,0", "e:1,0")}


def _one_ratio_doc(group, ratio, **extra):
    unit, label = BOUNDARY_LABELS[group]
    doc = {"group": group, "coefficients": [[unit, [1, 0]], [label, [ratio, 0]]], **extra}
    if group != "kp":
        doc["n"] = 5
    return doc


class TestBoundaryPolicy:
    """One rule decides the circle in every group: on it within tol, ambiguous up to 10 tol."""

    @pytest.mark.parametrize("group", ["kpn", "kp", "kpn-dual"])
    def test_ratio_just_inside_the_circle_is_ambiguous(self, group, tmp_path, capsys):
        doc = _one_ratio_doc(group, 1 - 5e-9, tolerance=1e-9)
        code, out, err = run_cli(["classify", write_config(tmp_path, doc)], capsys)
        assert code == 3 and out == ""
        assert "too close to the circle" in err

    @pytest.mark.parametrize("group", ["kpn", "kp", "kpn-dual"])
    def test_ratio_one_within_tolerance(self, group, tmp_path, capsys):
        doc = _one_ratio_doc(group, 1 - 5e-10, tolerance=1e-9)
        code, out, _ = run_cli(["classify", write_config(tmp_path, doc)], capsys)
        assert code == 0
        assert json.loads(out)["outcome"] not in ("haar", "diverges")

    def test_kp_ratio_near_minus_one_has_period_two(self, tmp_path, capsys):
        doc = _one_ratio_doc("kp", -0.9999999995)
        code, out, _ = run_cli(["classify", write_config(tmp_path, doc)], capsys)
        assert code == 0
        parsed = json.loads(out)
        assert parsed["outcome"] == "diverges" and parsed["period"] == 2

    @pytest.mark.parametrize("tolerance, period", [(1e-3, 5), (1e-4, None)])
    def test_loose_tolerance_period_is_true(self, tolerance, period, tmp_path, capsys):
        # |rho+:l| = 0.9995 is within 1e-3 of the circle and within 10 * 1e-4 of it:
        # a true period 5 or ambiguous (exit 3), never the vacuous period 1
        rotation = [[f"rho+:{l}", {"eta_pow": l, "scale": 0.9995}] for l in range(1, 5)]
        doc = {"group": "kpn", "n": 5, "tolerance": tolerance, "coefficients": [["rho+:0", [1, 0]]] + rotation}
        code, out, err = run_cli(["classify", write_config(tmp_path, doc)], capsys)
        if period is None:
            assert code == 3 and "too close to the circle" in err
        else:
            assert code == 0
            parsed = json.loads(out)
            assert parsed["outcome"] == "diverges" and parsed["period"] == period


# each numeric failure that needs no memory limit, with the whole line it prints
_CLOSE = "ratio modulus 0.999999995 is too close to the circle"
EXIT_3_LINES = {
    "kpn": (
        {"group": "kpn", "n": 5, "coefficients": [["rho+:0", [1, 0]], ["rho-:0", [0.999999995, 0]]]},
        f"numeric failure: rho-:0: {_CLOSE}\n",
    ),
    "kp": (
        {"group": "kp", "coefficients": [["g1", [1, 0]], ["g4", [0.999999995, 0]]]},
        f"numeric failure: g4: {_CLOSE}\n",
    ),
    "kpn-dual": (
        {"group": "kpn-dual", "n": 3, "coefficients": [["e:0,0", [1, 0]], ["e:1,0", [0.999999995, 0]]]},
        f"numeric failure: (1, 0): {_CLOSE}\n",
    ),
}


class TestExitThreeLines:
    """Every exit-3 path that needs no memory limit prints one whole, pinned stderr line and no stdout."""

    @pytest.mark.parametrize("command", ["classify", "run"])
    @pytest.mark.parametrize("group", sorted(EXIT_3_LINES))
    def test_ratio_too_close_to_the_circle(self, group, command, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QGWALK_TOL", raising=False)
        doc, line = EXIT_3_LINES[group]
        assert run_cli([command, write_config(tmp_path, doc)], capsys) == (3, "", line)

    def test_dual_powers_past_the_float_range(self, tmp_path, capsys):
        doc = {"group": "kpn-dual", "n": 3, "k_max": 1200, "coefficients": [["e:0,0", [1, 0]], ["e:1,0", [2, 0]]]}
        line = "numeric failure: the powers of the walk leave the floating-point range\n"
        assert run_cli(["run", write_config(tmp_path, doc)], capsys) == (3, "", line)


class TestIdempotents:
    def test_n2_list(self, capsys):
        code, out, _ = run_cli(["idempotents", "--n", "2"], capsys)
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 10
        assert all(r["idempotent"] and r["central"] for r in rows)

    def test_n3_no_q2(self, capsys):
        code, out, _ = run_cli(["idempotents", "--n", "3"], capsys)
        rows = json.loads(out)
        assert not any(r["spec"].get("q") == 2 for r in rows if r["spec"]["type"] == "h_gamma_l")

    @pytest.mark.parametrize("n", [ENUMERATION_CAP + 1, 1, 0, -3])
    def test_n_out_of_range_is_a_config_error(self, n, capsys):
        code, out, err = run_cli(["idempotents", "--n", str(n)], capsys)
        assert code == 2 and out == ""
        assert err == f"config error: --n: must be in 2..{ENUMERATION_CAP}, got {n}\n"

    @pytest.mark.parametrize("n", range(2, ENUMERATION_CAP + 1))
    def test_output_matches_golden_file(self, n, capsys):
        # tests/data/idempotents/n<N>.json pins the byte-exact output
        golden = pathlib.Path(__file__).parent / "data" / "idempotents" / f"n{n}.json"
        code, out, _ = run_cli(["idempotents", "--n", str(n)], capsys)
        assert code == 0
        assert out == golden.read_text()


class TestNonFiniteValues:
    """NaN, +-Infinity and numbers beyond the float range are refused with exit 2, naming the JSON path."""

    KPN = {"group": "kpn", "n": 5, "k_max": 5, "coefficients": [["rho+:0", [1, 0]]]}
    KP = {"group": "kp", "k_max": 5, "coefficients": [["g1", [1, 0]]]}

    @pytest.mark.parametrize("command", ["run", "classify"])
    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge-int"]
    )
    @pytest.mark.parametrize(
        "doc, label, value, path",
        [
            pytest.param(KPN, "rho+:1", lambda bad: [bad, 0], r"\$\.coefficients\[1\]", id="kpn-re"),
            pytest.param(KPN, "rho+:1", lambda bad: [0.5, bad], r"\$\.coefficients\[1\]", id="kpn-im"),
            pytest.param(
                KPN,
                "rho+:1",
                lambda bad: {"eta_pow": 1, "scale": bad},
                r"\$\.coefficients\[1\]\.scale",
                id="kpn-eta-scale",
            ),
            pytest.param(KP, "g2", lambda bad: [bad, 0], r"\$\.coefficients\[1\]", id="kp-re"),
            pytest.param(KP, "gX", lambda bad: [0.5, bad], r"\$\.coefficients\[1\]", id="kp-im"),
        ],
    )
    def test_exits_2(self, tmp_path, capsys, command, bad, doc, label, value, path):
        doc = {**doc, "coefficients": doc["coefficients"] + [[label, value(bad)]]}
        code, out, err = run_cli([command, write_config(tmp_path, doc)], capsys)
        assert code == 2
        assert re.search(path, err) and "not a finite number" in err
        assert "nan" not in (out + err).lower()

    @pytest.mark.parametrize("command", ["run", "classify"])
    @pytest.mark.parametrize(
        "labels, value",
        [
            ([f"rho+:{l}" for l in range(1, 5)], [1.7e308, 0]),
            ([f"rho-:{l}" for l in range(5)], [1.7e308, 0]),
            ([f"X:{u},1" for u in range(5)], [1.7e308, 0]),
            (["rho+:1", "rho+:4"], [1.7e308, 0]),
            (["rho+:1"], [1e308, 0]),
            (["rho+:1"], [1.7e308, 1.7e308]),
        ],
        ids=["rho+", "rho-", "X", "rho+-pair", "rho+-alone", "complex-modulus"],
    )
    def test_overflowing_density_is_not_a_state(self, tmp_path, capsys, command, labels, value):
        # finite coefficients whose Fourier density overflows to inf and NaN: a NaN must fail
        # the positivity checks, and no RuntimeWarning may reach stderr; the largest coefficient
        # is named even when its modulus passes the float range
        doc = {**self.KPN, "coefficients": self.KPN["coefficients"] + [[label, value] for label in labels]}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli([command, write_config(tmp_path, doc)], capsys)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err)["failures"] == [["Fourier density out of range", repr(labels[0])]]
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert_exit_contract(command, doc)  # no witness is inf or nan

    HUGE = [1.7e308, 1.7e308]  # finite parts whose modulus passes the float range

    @pytest.mark.parametrize("command", ["run", "classify"])
    @pytest.mark.parametrize(
        "doc, failures",
        [
            (
                {"group": "kpn", "n": 5, "coefficients": [["rho+:0", HUGE]]},
                [["normalization", "(1.7e+308+1.7e+308j)"], ["Fourier density out of range", "'rho+:0'"]],
            ),
            (
                {"group": "kp", "coefficients": [["g1", HUGE]]},
                [["coefficient not real", "('g1', (1.7e+308+1.7e+308j))"], ["normalization", "(1.7e+308+1.7e+308j)"]],
            ),
            (
                {"group": "kpn-dual", "n": 3, "coefficients": [["e:0,0", HUGE]]},
                [["normalization", "(1.7e+308+1.7e+308j)"], ["coefficient not real", "((0, 0), (1.7e+308+1.7e+308j))"]],
            ),
            (
                {"group": "kp", "coefficients": [["g1", [1, 0]], ["g2", [1.7e308, 0]], ["g3", [1.7e308, 0]]]},
                [["inequality out of range", "'g2'"]],
            ),
            (
                {"group": "kp", "coefficients": [["g1", [1, 0]], ["gX", HUGE]]},
                [["coefficient not real", "('gX', (1.7e+308+1.7e+308j))"], ["inequality out of range", "'gX'"]],
            ),
        ],
        ids=["kpn-normalization", "kp-normalization", "dual-normalization", "kp-inequality", "kp-inequality-complex"],
    )
    def test_overflowing_modulus_or_inequality_is_not_a_state(self, tmp_path, capsys, command, doc, failures):
        # a modulus past the float range is no numeric failure, and no inequality prints -inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli([command, write_config(tmp_path, doc)], capsys)
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert json.loads(err) == {"is_state": False, "failures": failures}
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert_exit_contract(command, doc)


class TestCutoff:
    def test_sandwich_rows(self, capsys):
        code, out, _ = run_cli(["cutoff", "--n", "5", "--c", "-1,0,1"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and set(rows[0]) == {"n", "c", "k", "qtv", "lower", "upper_sharp", "upper_theorem"}
        for row in rows:
            q, lo, us = float(row["qtv"]), float(row["lower"]), float(row["upper_sharp"])
            assert lo - 1e-9 <= q <= us + 1e-9
            if int(row["k"]) >= int(row["n"]) ** 2:
                assert q <= float(row["upper_theorem"]) + 1e-9

    def test_even_n_rejected(self, capsys):
        code, _, err = run_cli(["cutoff", "--n", "4", "--c", "0"], capsys)
        assert code == 2
        assert "does not converge" in err

    def test_out_dir(self, tmp_path, capsys):
        code, _, _ = run_cli(["cutoff", "--n", "3", "--c", "0", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert (tmp_path / "cutoff.csv").exists()

    @pytest.mark.parametrize(
        "n, c", [("abc", "0"), ("5", "x"), ("5.5", "0"), ("5", "nan"), ("5", "inf"), ("5", "1,-inf")]
    )
    def test_bad_list_token_exits_2(self, n, c, capsys):
        code, out, err = run_cli(["cutoff", "--n", n, "--c", c], capsys)
        assert code == 2 and err.startswith("config error: --")
        assert out == ""

    @pytest.mark.parametrize("path", GOLDEN_CUTOFF, ids=lambda p: p.stem)
    def test_output_matches_golden_file(self, path, capsys):
        # tests/data/cutoff/<name>.json: a cutoff command line and its byte-exact
        # stdout, pinned by tests/data/make_cutoff_golden.py
        case = json.loads(path.read_text())
        assert run_cli(case["argv"], capsys) == (0, case["stdout"], "")

    def test_builds_no_label_and_no_element(self, capsys, monkeypatch):
        def forbidden(*args):
            raise AssertionError("cutoff built a label, an element or a labelled table")

        monkeypatch.setattr(walks, "cutoff_state", forbidden)
        monkeypatch.setattr(walks, "_kpn_table", forbidden)
        monkeypatch.setattr(sekine.CentralElement, "__post_init__", forbidden)
        # the rows at c = 0 and c = 1 of the n = 5 and n = 51 golden grids, in order
        expected = ["n,c,k,qtv,lower,upper_sharp,upper_theorem"]
        for name in ("n5", "n51"):
            rows = json.loads((CUTOFF_DIR / f"{name}.json").read_text())["stdout"].splitlines()[1:]
            expected += [row for row in rows if row.split(",")[1] in ("0.0", "1.0")]
        assert len(expected) == 7  # one k at c = 0, two at c = 1
        assert run_cli(["cutoff", "--n", "5,51", "--c", "0,1"], capsys) == (0, "\n".join(expected) + "\n", "")

    @pytest.mark.parametrize("n, c, flag", [(",", "0", "--n"), ("5", "", "--c"), ("", ",,", "--n")])
    def test_empty_list_exits_2(self, n, c, flag, capsys):
        assert run_cli(["cutoff", "--n", n, "--c", c], capsys) == (2, "", f"config error: {flag}: at least one value required\n")

    @pytest.mark.parametrize("c", ["709", "800", "-708"])
    def test_k_past_the_float_range_exits_3(self, c, capsys):
        # e^708 3^2 is past the largest float, 1.8e308; e^707 3^2 is not
        assert run_cli(["cutoff", "--n", "3", "--c", "707"], capsys)[0] == 0
        message = f"numeric failure: n=3, c={float(c)!r}: k = round(e^|c| n^2) leaves the floating-point range\n"
        assert run_cli(["cutoff", "--n", "3", "--c", c], capsys) == (3, "", message)

    def test_clamped_small_values(self, capsys):
        # deep past the threshold everything is numerically zero
        code, out, _ = run_cli(["cutoff", "--n", "15", "--c", "2"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        big_k = [r for r in rows if int(r["k"]) > 15**2]
        assert big_k and float(big_k[0]["qtv"]) == 0.0


def sandwiched(lower, q, upper, rtol=1e-9):
    """lower <= q <= upper, each up to rtol relative to the larger side."""
    return lower <= q + rtol * max(lower, q) and q <= upper + rtol * max(q, upper)


def run_rows(out):
    return list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[:-1]))))


class TestLargeK:
    """k has no cap, and no walk overflows at large k."""

    def test_cutoff_beyond_a_million_steps(self, capsys):
        code, out, err = run_cli(["cutoff", "--n", "51", "--c", "6"], capsys)
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert max(int(r["k"]) for r in rows) > 10**6
        for r in rows:
            q, lo, us = float(r["qtv"]), float(r["lower"]), float(r["upper_sharp"])
            assert sandwiched(lo, q, us), r
            if int(r["k"]) >= 51**2:
                assert sandwiched(lo, q, float(r["upper_theorem"])), r

    def test_kp_run_past_k_512(self, tmp_path, capsys):
        doc = {
            "group": "kp",
            "k_max": 600,
            "coefficients": [["g1", [1, 0]], ["g2", [0.99, 0]], ["gX", [0.99, 0]]],
        }
        code, out, err = run_cli(["run", write_config(tmp_path, doc)], capsys)
        assert code == 0, err
        rows = run_rows(out)
        assert len(rows) == 600 and float(rows[-1]["qtv"]) > 1e-3
        for r in rows:
            assert sandwiched(float(r["lower"]), float(r["qtv"]), float(r["upper"])), r

    def test_dual_run_with_a_large_dimension(self, tmp_path, capsys):
        doc = {
            "group": "kpn-dual",
            "n": 10,
            "k_max": 400,
            "coefficients": [["e:0,0", [1, 0]], ["e:1,0", [0.99, 0]], ["Xhat", [5, 0]]],
        }
        code, out, err = run_cli(["run", write_config(tmp_path, doc)], capsys)
        assert code == 0, err
        rows = run_rows(out)
        assert len(rows) == 400 and float(rows[-1]["qtv"]) > 1e-3
        for r in rows:
            assert sandwiched(float(r["lower"]), float(r["qtv"]), float(r["upper"])), r

    def test_cutoff_with_k_beyond_the_float_range_of_its_phases(self, capsys):
        # k = round(e^700 61^2) is about 3.8e307: k times a phase is not a finite float
        code, out, err = run_cli(["cutoff", "--n", "61", "--c", "700"], capsys)
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert int(rows[0]["k"]) == 1 and int(rows[1]["k"]) > 10**307
        assert sandwiched(float(rows[0]["lower"]), float(rows[0]["qtv"]), float(rows[0]["upper_sharp"]))
        assert [float(rows[1][key]) for key in ("qtv", "lower", "upper_sharp", "upper_theorem")] == [0.0] * 4

    def test_overflow_exits_3_without_a_traceback(self, tmp_path, capsys):
        # coefficients above their dimension pass the dual state check, and
        # their powers leave the floating-point range
        doc = {"group": "kpn-dual", "n": 3, "k_max": 1200, "coefficients": [["e:0,0", [1, 0]], ["e:1,0", [2, 0]]]}
        code, out, err = run_cli(["run", write_config(tmp_path, doc)], capsys)
        assert code == 3 and "numeric failure" in err
        assert "inf" not in out + err and "nan" not in out + err


def main_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


def int_above(token, bound):
    try:
        return int(token) > bound
    except ValueError:
        return False


def shows_inf_or_nan(text):
    return "inf" in text.lower() or "nan" in text.lower()


# Label texts that name no representation, for either group.
BAD_LABELS = ["tau:1", "rho+", "rho+:x", "X:1", "X:a,b", "e:1", "e:a,b", "Xhat:1", ""]


@st.composite
def kpn_configs(draw):
    """kpn walk configs: states of two families mixed with the Haar state, and arbitrary coefficients."""
    n = draw(st.integers(2, 12))
    family = draw(st.sampled_from(["cosine", "phase", "arbitrary"]))
    t = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    if family == "cosine":
        rest = [[f"rho+:{l}", [t * math.cos(2 * math.pi * l / n), 0]] for l in range(1, n)]
    elif family == "phase":
        # sum_l eta^(ml) rho_l^+ is a state for every m
        m = draw(st.integers(0, n - 1))
        rest = [[f"rho+:{l}", {"eta_pow": m * l, "scale": t}] for l in range(1, n)]
    else:
        label = st.one_of(
            st.builds("{}:{}".format, st.sampled_from(["rho+", "rho-", "sigma+", "sigma-"]), st.integers(-1, n)),
            st.builds("X:{},{}".format, st.integers(-1, n), st.integers(-1, n // 2 + 1)),
            st.sampled_from(BAD_LABELS),
        )
        value = st.one_of(
            st.tuples(st.floats(-2.0, 2.0), st.sampled_from([0.0, 0.0, 0.3])).map(list),
            st.builds(lambda p, s: {"eta_pow": p, "scale": s}, st.integers(-n, 2 * n), st.floats(0.0, 1.2)),
        )
        rest = draw(st.lists(st.tuples(label, value).map(list), max_size=6, unique_by=lambda c: c[0]))
    head = draw(st.sampled_from([[["rho+:0", [1, 0]]], [["rho+:0", [0.5, 0]]], []]))
    return {"group": "kpn", "n": n, "k_max": draw(st.integers(1, 200)), "coefficients": head + rest}


@st.composite
def dual_configs(draw):
    """kpn-dual walk configs: real, complex and negative coefficients, valid and invalid labels."""
    n = draw(st.integers(2, 12))
    label = st.one_of(
        st.builds("e:{},{}".format, st.integers(-1, n), st.integers(-1, n)),
        st.just("Xhat"),
        st.sampled_from(BAD_LABELS),
    )
    value = st.tuples(st.floats(-0.5, 2.5), st.sampled_from([0.0, 0.0, 0.0, 0.2])).map(list)
    rest = draw(st.lists(st.tuples(label, value).map(list), max_size=6, unique_by=lambda c: c[0]))
    head = draw(st.sampled_from([[["e:0,0", [1, 0]]], [["e:0,0", [1, 0]]], [["e:0,0", [2, 0]]], []]))
    return {"group": "kpn-dual", "n": n, "k_max": draw(st.integers(1, 200)), "coefficients": head + rest}


def assert_exit_contract(command, doc):
    """Exit 0, 2 or 3, no traceback, no inf or nan; exit 2 explains itself."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "walk.json")
        with open(path, "w") as handle:
            json.dump(doc, handle)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, path])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert not shows_inf_or_nan(out + err)
    if code == 2:
        assert err.startswith("config error:") or json.loads(err)["is_state"] is False
    if code == 3:
        assert err.startswith("numeric failure:")


class TestExitContract:
    """Every input exits 0, 2 or 3 and prints no inf or nan."""

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(1, 30).map(lambda m: 2 * m + 1),
        c=st.floats(-8.0, 8.0, allow_nan=False),
    )
    def test_cutoff(self, n, c):
        code, text = main_captured(["cutoff", "--n", str(n), "--c", repr(c)])
        assert code in (0, 2, 3)
        assert not shows_inf_or_nan(text)

    @settings(max_examples=100, deadline=None)
    @given(n=st.text(max_size=12), c=st.text(max_size=12))
    def test_cutoff_text(self, n, c):
        # any token that parses to an n beyond 61 would only make the run
        # slow and large, so such inputs are set aside
        assume(all(not int_above(t, 61) for t in n.split(",")))
        try:
            code, _ = main_captured(["cutoff", "--n", n, "--c", c])
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        assert code in (0, 2, 3)

    @pytest.mark.parametrize("argv", [["foo"], []], ids=["unknown", "none"])
    def test_command_is_required(self, argv, capsys):
        # argparse refuses the command line before main branches on the command
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().out == ""

    @settings(max_examples=50, deadline=None)
    @given(
        g=st.lists(st.floats(-2.5, 2.5, allow_nan=False), min_size=4, max_size=4),
        imag=st.sampled_from([0.0, 0.0, 0.0, 1e-3]),
        k_max=st.integers(1, 2000),
    )
    def test_kp_run(self, g, imag, k_max):
        coefficients = [["g1", [1, 0]]] + [
            [name, [v, imag]] for name, v in zip(("g2", "g3", "g4", "gX"), g)
        ]
        doc = {"group": "kp", "k_max": k_max, "coefficients": coefficients}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kp.json")
            with open(path, "w") as handle:
                json.dump(doc, handle)
            code, text = main_captured(["run", path])
        assert code in (0, 2, 3)
        assert not shows_inf_or_nan(text)

    @settings(max_examples=50, deadline=None)
    @given(command=st.sampled_from(["run", "classify"]), doc=kpn_configs())
    def test_kpn_walk(self, command, doc):
        assert_exit_contract(command, doc)

    @settings(max_examples=50, deadline=None)
    @given(command=st.sampled_from(["run", "classify"]), doc=dual_configs())
    def test_dual_walk(self, command, doc):
        assert_exit_contract(command, doc)

    @pytest.mark.parametrize(
        "command, out",
        [
            ("run", "missing/run.csv"),
            ("classify", "missing/limit.json"),
            ("idempotents", "missing/list.json"),
            ("cutoff", "a-file"),  # an existing file where the output directory should be
        ],
    )
    def test_unwritable_output_exits_2(self, command, out, tmp_path, capsys):
        (tmp_path / "a-file").write_text("")
        args = {
            "run": [write_config(tmp_path, COSINE5)],
            "classify": [write_config(tmp_path, COSINE5)],
            "idempotents": ["--n", "3"],
            "cutoff": ["--n", "5", "--c", "0"],
        }[command]
        target = str(tmp_path / out)
        code, stdout, err = run_cli([command, *args, "--out", target], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"config error: {target}: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", {"group": "kpn", "n": 10**6, "k_max": 3, "coefficients": [["rho+:0", [1, 0]]]}],
            # e:1,0 keeps the walk from settling at k = 1, so run must synthesise its first steps
            ["run", {"group": "kpn-dual", "n": 10**6, "k_max": 3, "coefficients": [["e:0,0", [1, 0]], ["e:1,0", [0.5, 0]]]}],
            # past numpy's size limit: np.zeros raises ValueError, not MemoryError
            ["classify", {"group": "kpn", "n": 10**10, "k_max": 3, "coefficients": [["rho+:0", [1, 0]], ["rho+:1", [0.5, 0]]]}],
            ["run", {"group": "kpn", "n": 10**10, "k_max": 3, "coefficients": [["rho+:0", [1, 0]], ["rho+:1", [0.5, 0]]]}],
            ["run", {"group": "kpn-dual", "n": 10**9, "k_max": 3, "coefficients": [["e:0,0", [1, 0]], ["e:1,0", [0.5, 0]]]}],
            ["run", {"group": "kpn-dual", "n": 10**10, "k_max": 3, "coefficients": [["e:0,0", [1, 0]], ["e:1,0", [0.5, 0]]]}],
            # 745 GiB of cosines, refused before any is computed
            ["cutoff", "--n", "99999999999", "--c", "0"],
        ],
        ids=["kpn", "kpn-dual", "kpn-1e10-classify", "kpn-1e10-run", "kpn-dual-1e9", "kpn-dual-1e10", "cutoff"],
    )
    def test_unallocatable_n_exits_3(self, argv, tmp_path):
        # the arrays (7.3 TiB for the n = 10^6 state check, 14.6 TiB for the dual
        # synthesis) are refused under a 1 GiB address-space limit on every
        # host, so nothing large is ever touched; a dict stands for its config file
        proc = _run_limited([write_config(tmp_path, arg) if isinstance(arg, dict) else arg for arg in argv])
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
        assert proc.stderr.startswith("numeric failure: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert proc.stderr.strip() != "numeric failure:", "the failure names no reason"

    def test_settled_walk_at_unallocatable_n_allocates_nothing(self, tmp_path):
        # the dual Haar state has no non-zero ratio: it settles at k = 1, so run writes
        # zero rows without the 14.6 TiB synthesis
        doc = {"group": "kpn-dual", "n": 10**6, "k_max": 3, "coefficients": [["e:0,0", [1, 0]]]}
        proc = _run_limited(["run", write_config(tmp_path, doc)])
        assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
        assert proc.stdout.splitlines()[:4] == ["k,qtv,lower,upper", "1,0.0,0.0,0.0", "2,0.0,0.0,0.0", "3,0.0,0.0,0.0"]

    def test_rows_past_the_settle_point_are_written_in_bounded_memory(self, tmp_path):
        # the cosine walk at n = 5 settles near k = 40: the two million rows after it
        # take about 50 MB as text, written a piece at a time under a 256 MiB limit
        out = tmp_path / "rows.csv"
        proc = _run_limited(["run", write_config(tmp_path, {**COSINE5, "k_max": 2 * 10**6}), "--out", str(out)], limit=256 << 20)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", ""), proc.stderr
        with out.open() as handle:
            count, last = 0, ""
            for last in handle:
                count += 1
        assert (count, last) == (2 * 10**6 + 1, "2000000,0.0,0.0,0.0\n")


def _run_limited(argv, limit=1 << 30):
    """``qgwalk <argv>`` in a new interpreter whose address space is limited to ``limit`` bytes, 1 GiB by default."""
    script = (
        f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
        "from qgwalk.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = str(pathlib.Path(qgwalk.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=120, env=env)


class TestByteParity:
    def test_every_benchmark_op_matches_the_pinned_digest(self, monkeypatch):
        """Every op of the benchmark workloads (seed 1) prints and writes the bytes pinned in ``op_digest_seed1.jsonl``.

        The digest hashes each op's exit code, stdout, stderr and output files
        (``tests/data/op_digest.py``); ``perfbench/`` is only read.  After a change
        meant to move output bytes, re-pin with

            PYTHONPATH=src python3 tests/data/op_digest.py --seed 1 > tests/data/op_digest_seed1.jsonl

        and name the re-pin and the outputs it moves in a CHANGES.md line.
        """
        monkeypatch.delenv("QGWALK_TOL", raising=False)
        data = pathlib.Path(__file__).parent / "data"
        spec = importlib.util.spec_from_file_location("op_digest", data / "op_digest.py")
        op_digest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(op_digest)
        pinned = (data / "op_digest_seed1.jsonl").read_text().splitlines()
        fresh = list(op_digest.digests(1))
        for want, got in zip(pinned, fresh):
            assert got == want, f"op {json.loads(want)['op']} differs from its pinned digest"
        assert len(fresh) == len(pinned)
