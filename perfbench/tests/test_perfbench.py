"""Self-tests of the benchmark: generator, reference formula, tracer, contract file.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import importlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import make_data  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _generated(name, seed, workdir):
    workdir.mkdir()
    workload = wl.WORKLOADS[name](seed, str(workdir))
    ops = [(op.config, [a.replace(str(workdir), "") for a in op.argv], op.exit, op.expect) for op in workload.ops]
    configs = {p.name: p.read_text() for p in sorted(Path(workdir).glob("cfg-*.json"))}
    return ops, configs


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    first = _generated(name, 7, tmp_path / "a")
    assert _generated(name, 7, tmp_path / "b") == first
    assert _generated(name, 8, tmp_path / "c") != first


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_seed_sets_only_the_order(name, tmp_path):
    """Every seed runs the same ops, so runs with different seeds time the same work."""

    def content(seed, workdir):
        workdir.mkdir()
        ops = wl.WORKLOADS[name](seed, str(workdir)).ops
        out = []
        for op in ops:
            argv = [a for a in op.argv if not a.startswith(str(workdir))]
            config = [Path(a).read_text() for a in op.argv if a.startswith(str(workdir)) and a.endswith(".json") and "cfg-" in a]
            out.append(repr((op.config, argv, config, op.exit, op.expect)))
        return sorted(out)

    assert content(7, tmp_path / "a") == content(8, tmp_path / "b")


def test_reference_speed_scales_by_the_local_probes():
    ref = run.PROBE_REF_S
    probes = [ref] * 20 + [2 * ref] * 20
    scaled = run.at_reference_speed([1.0] * 40, probes)
    assert scaled[0] == 1.0 and scaled[-1] == 0.5
    assert scaled[19 - run.PROBE_WINDOW] == 1.0 and scaled[20 + run.PROBE_WINDOW] == 0.5


def test_generated_states_are_states_with_haar_limit():
    from qgwalk.sekine import CentralElement, IrrepLabel, central_to_element, validate_state
    from qgwalk.walks import classify_limit

    def label(text):
        kind, _, idx = text.partition(":")
        if kind == "X":
            u, v = idx.split(",")
            return IrrepLabel("X", int(u), int(v))
        return IrrepLabel(kind, int(idx))

    rng = np.random.default_rng(3)
    for n in wl.KPN_N:
        coeffs = wl.random_central_state(n, rng)
        a = CentralElement(n, {label(k): v for k, v in coeffs.items()})
        assert validate_state(a).is_state, n
        assert classify_limit(a).kind == "haar", n
        # the generator's synthesis agrees with the library's
        x = central_to_element(a)
        ab, mat = wl.synthesise(n, *_arrays(n, coeffs))
        assert np.allclose(ab.reshape(-1), x.abelian, atol=1e-12)
        assert np.allclose(mat, x.matrix, atol=1e-12)


def _arrays(n, coeffs):
    rp, rm, sp, sm = (np.zeros(n, dtype=complex) for _ in range(4))
    xv = np.zeros((n, n // 2 + 1), dtype=complex)
    for key, v in coeffs.items():
        kind, _, idx = key.partition(":")
        if kind == "X":
            u, s = (int(t) for t in idx.split(","))
            xv[u, s] = v
        else:
            {"rho+": rp, "rho-": rm, "sigma+": sp, "sigma-": sm}[kind][int(idx)] = v
    return rp, rm, sp, sm, xv


def cosine_qtv(n, k):
    """The reference formula in float64: sum_i |s_i - 1| / (2n)."""
    l = np.arange(1, n)
    cos = np.cos(2.0 * np.pi * l / n)
    s1 = (cos**k * np.cos(2.0 * np.pi * np.outer(np.arange(n), l) / n)).sum(axis=1)
    return float(np.abs(s1).sum() / (2 * n))


@pytest.mark.parametrize("n, k", [(5, 3), (5, 20), (7, 10), (9, 40), (15, 100), (51, 1000)])
def test_reference_formula_agrees_with_library(n, k):
    from qgwalk.walks import cutoff_state, qtv_to_haar

    lib = qtv_to_haar(cutoff_state(n), k)
    assert lib > 1e-4  # well-conditioned: far above the float64 floor
    assert cosine_qtv(n, k) == pytest.approx(lib, rel=1e-9)
    assert float(make_data.cosine_qtv_mp(n, k)) == pytest.approx(lib, rel=1e-9)


def test_stored_reference_covers_the_cutoff_rows():
    reference = wl.load_cosine_reference()
    assert sorted(reference) == make_data.cutoff_rows()
    for (n, k), value in reference.items():
        if value > 1e-4:
            assert cosine_qtv(n, k) == pytest.approx(value, rel=1e-9), (n, k)


def test_tracer_self_time_on_a_toy_call_tree():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", lambda: (leaf(), leaf()))
    root = tracer.wrap("root", lambda: (mid(), leaf()))
    root()
    # one tick per clock read: root 0-9, mid 1-6, leaves 2-3 and 4-5 in mid, 7-8 in root
    assert [(s[0], s[1], s[2], s[3]) for s in tracer.spans] == [
        ("root", 0, 9, None), ("mid", 1, 6, 0), ("leaf", 2, 3, 1), ("leaf", 4, 5, 1), ("leaf", 7, 8, 0),
    ]
    assert tracer.self_times() == [9 - 5 - 1, 5 - 1 - 1, 1, 1, 1]
    assert tracer.covered() == 9
    layers = [("toy", "root"), ("toy", "mid"), ("toy", "leaf")]
    renamed = Tracer()
    renamed.spans = [[f"toy.{s[0]}", *s[1:]] for s in tracer.spans]
    assert renamed.summary(layers) == {
        "toy.root": {"calls": 1, "self_ms": 3000.0, "errors": 0},
        "toy.mid": {"calls": 1, "self_ms": 3000.0, "errors": 0},
        "toy.leaf": {"calls": 3, "self_ms": 3000.0, "errors": 0},
    }


def test_tracer_counts_errors_and_keeps_the_stack_balanced():
    tracer = Tracer()

    def boom():
        raise ValueError("no")

    outer = tracer.wrap("outer", lambda: tracer_call(inner))
    inner = tracer.wrap("inner", boom)

    def tracer_call(fn):
        with pytest.raises(ValueError):
            fn()
        return 1

    assert outer() == 1
    assert [s[5] for s in tracer.spans] == [False, True]
    assert tracer.spans[1][3] == 0  # inner's parent is outer
    assert tracer._stack == []


def test_every_module_binding_is_patched_then_restored():
    for module in ("cli", "walks", "sekine", "algebra", "idempotents", "kp8", "dual"):
        importlib.import_module(f"qgwalk.{module}")
    modules = {k: m for k, m in sys.modules.items() if k == "qgwalk" or k.startswith("qgwalk.")}
    before = {k: dict(vars(m)) for k, m in modules.items()}
    originals = {f"{m}.{f}": getattr(modules[f"qgwalk.{m}"], f) for m, f in LAYERS}
    bindings = {
        name: [(k, attr) for k, snap in before.items() for attr, v in snap.items() if v is fn]
        for name, fn in originals.items()
    }
    # names bound with "from .x import" in other modules are covered too
    assert ("qgwalk.dual", "fourier_profile") in bindings["sekine.fourier_profile"]
    assert ("qgwalk.walks", "validate_state") in bindings["sekine.validate_state"]
    assert ("qgwalk.kp8", "l1_norm") in bindings["algebra.l1_norm"]

    tracer = Tracer()
    tracer.patch()
    try:
        assert tracer.missing == []
        for name, places in bindings.items():
            for module, attr in places:
                patched = getattr(modules[module], attr)
                assert patched is not originals[name], (module, attr)
                assert patched.__wrapped__ is originals[name]
    finally:
        tracer.restore()
    for k, m in modules.items():
        assert all(vars(m).get(attr) is value for attr, value in before[k].items()), k


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)


def test_checks_name_known_defects_only_in_the_tail():
    op = wl.Op("x", "cosine", [], 0, "cutoff", "")
    row = "n,c,k,qtv,lower,upper_sharp,upper_theorem\n51,0.0,{k},{q},0.0,1.0,1.0\n"
    reference = {(51, 1): 0.5, (51, 2): 1e-9}
    assert wl.check_cutoff(op, row.format(k=1, q=0.5).encode(), reference) is None
    assert wl.check_cutoff(op, row.format(k=1, q=0.5000001).encode(), reference).known is None
    assert wl.check_cutoff(op, row.format(k=2, q=1.1e-9).encode(), reference).known == "tail-precision"
