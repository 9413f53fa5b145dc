"""In-memory span tracing of the package's layers, recorded from outside it.

``Tracer.install()`` wraps every public function of the layer modules (plus
``mlp._sigmoid``) in each module namespace that holds it, because
``harness`` and ``cli`` import names directly from ``ensemble`` and
``data``. A span is (id, parent id, name, start ns, end ns); spans stay in
memory until ``write``. Self time is a span's duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("mlp", "ensemble", "theory", "harness", "data", "cli")
EXTRA = {"mlp": ("_sigmoid",)}


def _gemm_flops_forward(m, x, *_, **__) -> int:
    n = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    return sum(2 * n * w.shape[0] * w.shape[1] for w in m.weights)


def _gemm_flops_backward(m, trace, delta_out, *_, **__) -> int:
    n = delta_out.shape[0] if getattr(delta_out, "ndim", 1) == 2 else 1
    # dW for every layer, and the propagated gradient for every layer but the first
    return sum(2 * n * w.shape[0] * w.shape[1] * (2 if l else 1) for l, w in enumerate(m.weights))


FLOPS = {"mlp.forward_batch": _gemm_flops_forward, "mlp.backward_batch": _gemm_flops_backward}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.flops = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_flops = FLOPS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[sid] = (sid, parent, idx, start, clock())
                stack.pop()
                if count_flops is not None:
                    self.flops += count_flops(*args, **kwargs)

        return traced

    def install(self) -> None:
        modules = {n: importlib.import_module(f"sea_ensemble.{n}") for n in LAYERS}
        originals = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not attr.startswith("_") or attr in EXTRA.get(short, ())
                ):
                    originals[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, originals[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function name: calls and self seconds."""
        child_ns = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, _, idx, start, end in self.spans:
            entry = out[self.names[idx]]
            entry["calls"] += 1
            entry["self_s"] += (end - start - child_ns[sid]) * 1e-9
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON: the name table plus [id, parent, name index, start ns, end ns] rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
