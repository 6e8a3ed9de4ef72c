import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qgwalk.cli import (
    ConfigError,
    main,
    parse_config,
    serialize_config,
    tolerance_of,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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


class TestParseConfig:
    def test_round_trip(self):
        cfg = parse_config(json.dumps(PHI_P_6))
        again = parse_config(json.dumps(serialize_config(cfg)))
        assert again == cfg

    def test_eta_pow_exact(self):
        cfg = parse_config(json.dumps(PHI_P_6))
        values = dict(cfg.coefficients)
        assert values["rho+:2"] == pytest.approx(np.exp(2j * np.pi * 2 / 6), abs=1e-15)

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
        assert dict(cfg.coefficients)["gX"] == 2.0

    def test_dual_labels(self):
        doc = {"group": "kpn-dual", "n": 4, "coefficients": [["e:0,0", [1, 0]], ["Xhat", [4, 0]]]}
        cfg = parse_config(json.dumps(doc))
        assert dict(cfg.coefficients)["Xhat"] == 4.0

    def test_tolerance_env_override(self, monkeypatch):
        cfg = parse_config(json.dumps(COSINE5))
        monkeypatch.delenv("QGWALK_TOL", raising=False)
        assert tolerance_of(cfg) == 1e-9
        monkeypatch.setenv("QGWALK_TOL", "1e-7")
        assert tolerance_of(cfg) == 1e-7


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


class TestClassify:
    def test_cosine_haar(self, tmp_path, capsys):
        code, out, _ = run_cli(["classify", write_config(tmp_path, COSINE5)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["outcome"] == "haar"
        assert all(not e["equals_one"] for e in doc["evidence"])

    def test_even_sigma_pair_branch(self, tmp_path, capsys):
        doc = {
            "group": "kpn",
            "n": 6,
            "coefficients": [
                ["rho+:0", [1, 0]], ["rho+:2", [1, 0]], ["rho+:4", [1, 0]],
                ["sigma+:0", [1, 0]], ["sigma+:2", [1, 0]], ["sigma+:4", [1, 0]],
            ],
        }
        code, out, _ = run_cli(["classify", write_config(tmp_path, doc)], capsys)
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


def shows_inf_or_nan(text):
    return "inf" in text.lower() or "nan" in text.lower()


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
