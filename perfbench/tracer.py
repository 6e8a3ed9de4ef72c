"""External layer tracer: times qgwalk's public functions from outside.

The tracer replaces every binding of a wrapped function object in every
loaded ``qgwalk`` module, because ``walks``, ``kp8``, ``dual`` and
``idempotents`` bind names with ``from .x import``: patching only the
defining module would miss those calls. Spans are kept in memory and
written as JSON lines at the end; ``restore`` puts the original
functions back.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run, grouped by layer (module).
LAYERS = [
    ("cli", "main"),
    ("walks", "walk_trace"),
    ("walks", "qtv_to_haar"),
    ("walks", "convolution_power"),
    ("walks", "classify_limit"),
    ("walks", "detect_cycle"),
    ("sekine", "validate_state"),
    ("sekine", "central_to_element"),
    ("sekine", "fourier_profile"),
    ("sekine", "character"),
    ("algebra", "l1_norm"),
    ("algebra", "haar_integral"),
    ("algebra", "is_positive"),
    ("idempotents", "enumerate_central_idempotents"),
    ("idempotents", "is_central_functional"),
    ("idempotents", "is_idempotent_state"),
    ("idempotents", "build_idempotent"),
    ("idempotents", "subgroups_znxzn"),
    ("kp8", "kp_qtv_to_haar"),
    ("kp8", "kp_bounds"),
    ("kp8", "kp_classify"),
    ("kp8", "kp_validate_state"),
    ("dual", "dual_qtv_to_haar"),
    ("dual", "dual_bounds"),
    ("dual", "dual_classify"),
    ("dual", "dual_validate_state"),
]

NAME, START, END, PARENT, OP, ERROR = range(6)


class Tracer:
    """Spans [name, start, end, parent index, op id, raised] of wrapped calls.

    ``hooks`` maps a span name to ``hook(args, kwargs, result, counters)``,
    called after a successful call to record counts at that boundary.
    """

    def __init__(self, clock=time.perf_counter, hooks=None):
        self.clock = clock
        self.hooks = hooks or {}
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, self.counters)
            return result

        return traced

    def patch(self, layers=LAYERS, package: str = "qgwalk") -> None:
        """Wrap each function and rebind every module attribute that holds it."""
        modules = [m for key, m in sorted(sys.modules.items()) if key == package or key.startswith(package + ".")]
        for module_name, func_name in layers:
            owner = sys.modules.get(f"{package}.{module_name}")
            original = getattr(owner, func_name, None)
            if original is None:
                self.missing.append(f"{module_name}.{func_name}")
                continue
            traced = self.wrap(f"{module_name}.{func_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] is not None:
                child[span[PARENT]] += span[END] - span[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def summary(self, layers=LAYERS) -> dict[str, dict[str, float]]:
        """calls, self_ms and errors per wrapped function, zero where never called."""
        out = {f"{m}.{f}": {"calls": 0, "self_ms": 0.0, "errors": 0} for m, f in layers}
        for span, own in zip(self.spans, self.self_times()):
            row = out[span[NAME]]
            row["calls"] += 1
            row["self_ms"] += 1e3 * own
            row["errors"] += int(span[ERROR])
        return out

    def covered(self) -> float:
        """Seconds inside top-level spans."""
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] is None)

    def write(self, path) -> None:
        """Spans as gzip-compressed JSON lines."""
        keys = ("name", "start", "end", "parent", "op", "error")
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
