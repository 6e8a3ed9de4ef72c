"""qgwalk benchmark: a closed loop of CLI ops, timed end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload walk-mix --seed 1 --seconds 50 --trace 0

One process, one client: each op calls ``qgwalk.cli.main(argv)`` in
process, after the previous op has returned, on inputs generated from
``--seed`` (see ``workloads.py``). Passes over the workload's ops repeat
while another pass fits in ``--seconds``, and at least three times.
Outputs are checked after each pass, outside the timed region.

Timings are reported at a reference host speed. The host's speed swings
by up to 2x in phases of seconds to minutes, so raw times of the same
ops spread by 0.25-0.75 of their median over five to ten runs. Before each op the
benchmark times ``probe()``, a fixed mix of interpreter and small-numpy
arithmetic that does not touch qgwalk, and scales the op's time by
``PROBE_REF_S`` / (median probe time around that op). A reported second
is thus a second on a host where the probe takes ``PROBE_REF_S``. The
raw times are recorded next to the result.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
untraced passes, then one more pass with every layer function wrapped
(``tracer.py``), and prints the per-layer metrics; the spans go to
``.perfbench-out/``. The last line of stdout is the result object; the
line before it records the environment and lists every failed op with
its config id and reason.

The library is imported from ``src/`` of the checkout that holds this
script; without it the benchmark exits non-zero.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from tracer import LAYERS, NAME, PARENT, Tracer  # noqa: E402

SETUP_RUNS = 7
MIN_PASSES = 3
# Probe time that defines the reference host speed (a round figure near the
# median on a 2-vCPU VM, Python 3.11, numpy 2.4).
PROBE_REF_S = 5e-4
# Probes on each side of an op that make its local host speed.
PROBE_WINDOW = 8

END_TO_END = {
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
DERIVED = {
    "cli.rows_written": "count",
    "walks.walk_trace.step_us": "us",
    "sekine.validate_state.useful_frac": "ratio",
    "idempotents.kept_frac": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}
PER_FUNCTION = {"calls": "count", "self_ms": "ms", "errors": "count"}
PER_LAYER = {f"{m}.{f}.{k}": u for m, f in LAYERS for k, u in PER_FUNCTION.items()} | DERIVED

# Runs in a fresh interpreter: import the CLI and make the first op.
SETUP_CODE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qgwalk.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = qgwalk.cli.main(sys.argv[2:])
print(repr(time.perf_counter() - t0), code)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def measure_setup(warmup: list[str]) -> tuple[list[float], list[float]]:
    """Import qgwalk.cli and make the warm-up op, each in a fresh interpreter.

    Returns the raw seconds of each sample and the median probe time
    around it (PROBE_WINDOW probes before and after).
    """
    samples, speeds = [], []
    for _ in range(SETUP_RUNS):
        before = [probe() for _ in range(PROBE_WINDOW)]
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *warmup],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        seconds, _, code = proc.stdout.strip().partition(" ")
        if proc.returncode != 0 or code != "0":
            raise BenchError(f"setup run failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(seconds))
        speeds.append(statistics.median(before + [probe() for _ in range(PROBE_WINDOW)]))
    return samples, speeds


def import_cli():
    sys.path.insert(0, str(SRC))
    import qgwalk.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "qgwalk").resolve():
        raise BenchError(f"qgwalk imported from {cli.__file__}, not from {SRC}")
    return cli


def run_op(cli, argv: list[str]) -> tuple[int, str, float]:
    """(exit code, stderr, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    crash = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback: the op failed, the loop goes on
        code, crash = 1, exc
    seconds = time.perf_counter() - t0
    text = err.getvalue()
    if crash is not None:
        text += "".join(traceback.format_exception(crash))
    return code, text, seconds


def clear_output(op: wl.Op) -> None:
    path = Path(op.out)
    for stale in (path, path / "cutoff.csv", Path(op.out + ".meta.json")):
        if stale.is_file():
            stale.unlink()


_PROBE_M = np.linspace(-1.0, 1.0, 144).reshape(12, 12)


def probe() -> float:
    """Seconds of a fixed mix of interpreter and small-numpy arithmetic: the host's speed now.

    It does not touch qgwalk, so no change to the library moves it.
    """
    t0 = time.perf_counter()
    d: dict = {}
    for i in range(1000):
        d[i & 31] = d.get(i & 31, 0.0) + i * 0.5
    x = _PROBE_M
    for _ in range(40):
        x = np.cos(x @ _PROBE_M * 0.1)
    return time.perf_counter() - t0


def run_pass(cli, ops, tracer: Tracer | None = None):
    """One pass over the ops: (wall seconds, [(exit, stderr, seconds, output bytes)], probes).

    ``probe()`` is timed before each op, outside the op's time and spans.
    """
    for op in ops:
        clear_output(op)
    raw, probes = [], []
    t0 = time.perf_counter()
    for op in ops:
        probes.append(probe())
        if tracer is not None:
            tracer.op = op.id
        raw.append(run_op(cli, op.argv))
    wall = time.perf_counter() - t0
    return wall, [(code, err, sec, wl.read_output(op)) for op, (code, err, sec) in zip(ops, raw)], probes


def verify(op: wl.Op, code: int, err: str, data: bytes | None, reference) -> wl.Failure | None:
    """None when the op did what its expectation says, else why it failed."""
    if code != op.exit:
        last = err.strip().splitlines()[-1] if err.strip() else ""
        overflow = (
            code == 3 and op.exit == 0 and last.startswith("numeric failure")
            and op.expect.get("command") == "run" and op.expect.get("group") in ("kp", "kpn-dual")
        )
        return wl.Failure(f"exit {code}, expected {op.exit}: {last}"[:300], "overflow" if overflow else None)
    if op.exit != 0:
        return None
    if data is None:
        return wl.Failure("no output written")
    try:
        if op.check == "walk":
            return wl.check_walk(op, data)
        if op.check == "cutoff":
            return wl.check_cutoff(op, data, reference)
        return wl.check_golden(op, data)
    except (ValueError, KeyError, IndexError) as exc:
        return wl.Failure(f"malformed output: {exc!r}"[:300])


def rows_written(op: wl.Op, data: bytes | None) -> int:
    if data is None:
        return 0
    if op.check == "golden":
        return len(json.loads(data))
    if op.check == "walk" and op.expect["command"] == "classify":
        return 1
    return data.split(b"\0")[0].count(b"\n") - 1


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def at_reference_speed(seconds: list[float], probes: list[float]) -> list[float]:
    """Op times of one pass scaled to PROBE_REF_S by the probes around each op."""
    out = []
    for i, sec in enumerate(seconds):
        local = probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        out.append(sec * PROBE_REF_S / statistics.median(local))
    return out


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        lines = proc.stdout.split()
        if proc.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    return {
        "seed": seed,
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: v for k, v in os.environ.items() if "THREADS" in k or "BLAS" in k},
    }


def traced_pass(cli, ops):
    """One pass with every layer wrapped: (results, probes, tracer, distinct states)."""
    distinct: set = set()

    def on_validate(args, kwargs, result, counters):
        a = args[0] if args else kwargs.get("a")
        try:
            distinct.add((a.n, tuple(sorted((str(k), complex(v)) for k, v in a.coeffs.items()))))
        except (AttributeError, TypeError):
            distinct.add(id(a))

    def on_walk(args, kwargs, result, counters):
        counters["walks.walk_trace.steps"] += args[1] if len(args) > 1 else kwargs.get("k_max", 0)

    def on_enumerate(args, kwargs, result, counters):
        counters["idempotents.emitted"] += len(result)

    tracer = Tracer(hooks={
        "sekine.validate_state": on_validate,
        "walks.walk_trace": on_walk,
        "idempotents.enumerate_central_idempotents": on_enumerate,
    })
    tracer.patch()
    try:
        _, results, probes = run_pass(cli, ops, tracer)
    finally:
        tracer.restore()
    return results, probes, tracer, len(distinct)


def layer_metrics(tracer: Tracer, distinct: int, wall: float, overhead: float, rows: int) -> dict:
    summary = tracer.summary()
    values = {f"{name}.{k}": row[k] for name, row in summary.items() for k in PER_FUNCTION}
    steps = tracer.counters["walks.walk_trace.steps"]
    checks = summary["sekine.validate_state"]["calls"]
    enum_spans = {i for i, s in enumerate(tracer.spans) if s[NAME] == "idempotents.enumerate_central_idempotents"}
    candidates = sum(1 for s in tracer.spans if s[NAME] == "idempotents.build_idempotent" and s[PARENT] in enum_spans)
    values.update({
        "cli.rows_written": rows,
        "walks.walk_trace.step_us": 1e3 * summary["walks.walk_trace"]["self_ms"] / steps if steps else 0.0,
        "sekine.validate_state.useful_frac": distinct / checks if checks else 0.0,
        "idempotents.kept_frac": tracer.counters["idempotents.emitted"] / candidates if candidates else 0.0,
        "trace.coverage": tracer.covered() / wall,
        "trace.overhead_frac": overhead,
    })
    return values


def bench(workload_name: str, seed: int, seconds: int, trace: bool):
    """Run the workload; (info, result object, per-pass op and probe seconds)."""
    if not (SRC / "qgwalk" / "cli.py").is_file():
        raise BenchError(f"{SRC / 'qgwalk' / 'cli.py'} not found: run from a qgwalk checkout")
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = wl.WORKLOADS[workload_name](seed, workdir)
        reference = wl.load_cosine_reference() if workload_name == "cutoff-large" else None
        setup, setup_probes = measure_setup(workload.warmup) if not trace else ([], [])
        cli = import_cli()
        code, err, _ = run_op(cli, workload.warmup)
        if code != 0:
            raise BenchError(f"warm-up op failed with exit {code}: {err[-500:]}")

        ops = workload.ops
        walls, latencies, failures, unexpected = [], [], {}, set()

        def note(op, verdict):
            failures.setdefault(op.id, {"op": op.id, "config": op.config, "command": op.argv[0],
                                        "reason": verdict.reason, "known": verdict.known})
            if verdict.known is None:
                unexpected.add(op.id)

        first = None
        probe_log = []
        t_begin = time.perf_counter()
        while True:
            wall, results, probes = run_pass(cli, ops)
            walls.append(wall)
            latencies.append([sec for _, _, sec, _ in results])
            probe_log.append(probes)
            signatures = [(code, err, data) for code, err, _, data in results]
            if first is None:
                first = signatures
                verdicts = [verify(op, code, err, data, reference) for op, (code, err, data) in zip(ops, first)]
            for op, verdict, sig, ref in zip(ops, verdicts, signatures, first):
                if verdict is None and sig != ref:
                    verdict = wl.Failure(f"pass {len(walls)}: output differs from the first pass")
                if verdict is not None:
                    note(op, verdict)
            # at least three passes, so that every op has a median of three samples
            if len(walls) >= MIN_PASSES and time.perf_counter() - t_begin + statistics.median(walls) > seconds:
                break
        info = {
            "workload": workload_name,
            "env": environment(seed),
            "seconds": seconds,
            "passes": len(walls),
            "ops_per_pass": len(ops),
            "pass_walls_s": walls,
            "setup_samples_s": setup,
            "setup_probes_s": setup_probes,
            "known_defects": wl.KNOWN_DEFECTS,
            "unexpected_failures": sorted(unexpected),
            "failures": list(failures.values()),
        }
        if not trace:
            # Each op's latency is its time at the reference speed, median
            # over the passes: samples far apart in time, so that neither a
            # burst on the host nor a misread probe decides it.
            scaled = [at_reference_speed(secs, probes) for secs, probes in zip(latencies, probe_log)]
            per_op = [statistics.median(samples) for samples in zip(*scaled)]
            raw = [statistics.median(samples) for samples in zip(*latencies)]
            info["raw"] = {
                "wall_s": sum(raw),
                "op_ms.p50": 1e3 * quantile(raw, 50),
                "op_ms.p90": 1e3 * quantile(raw, 90),
                "setup_s": statistics.median(setup),
                "probe_ms": 1e3 * statistics.median(x for probes in probe_log for x in probes),
            }
            metrics = {
                "wall_s": sum(per_op),
                "op_ms.p50": 1e3 * quantile(per_op, 50),
                "op_ms.p90": 1e3 * quantile(per_op, 90),
                "ok_frac": 1.0 - len(failures) / len(ops),
                "setup_s": statistics.median(t * PROBE_REF_S / p for t, p in zip(setup, setup_probes)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        else:
            results, probes, tracer, distinct = traced_pass(cli, ops)
            mismatched = [op for op, (c, e, _, d), ref in zip(ops, results, first) if (c, e, d) != ref]
            for op in mismatched:
                note(op, wl.Failure("traced pass: output differs from the untraced passes"))
            info["traced_mismatches"] = [op.id for op in mismatched]
            info["unexpected_failures"] = sorted(unexpected)
            info["failures"] = list(failures.values())
            info["untraced_functions"] = tracer.missing
            rows = sum(rows_written(op, r[3]) for op, r in zip(ops, results) if r[0] == 0)
            secs = [sec for _, _, sec, _ in results]
            # both sides at the reference speed, and without the probes
            traced = sum(at_reference_speed(secs, probes))
            untraced = statistics.median(sum(at_reference_speed(*pair)) for pair in zip(latencies, probe_log))
            metrics = layer_metrics(tracer, distinct, sum(secs), traced / untraced - 1.0, rows)
            units = PER_LAYER
            tracer.write(OUT_DIR / f"trace-{workload_name}-seed{seed}.jsonl.gz")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Each op counts once: later passes are timing samples, and an op whose
    # output changes between passes has failed.
    result = {
        "correct": not unexpected,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return info, result, {"op_seconds": latencies, "probe_seconds": probe_log}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info, result, samples = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT_DIR / name, "w") as handle:
        json.dump({"info": info, "result": result, **samples}, handle, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
