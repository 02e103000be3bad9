"""Per-layer tracing from outside the library, loaded only by traced runs.

Every module-level function of the nine symflow modules is wrapped, at
every module attribute that binds it (``expm_skew`` is also bound as
``circuit.expm_skew`` and ``estimators.expm_skew``, for instance), so a
call is charged to the module that defines the function whichever module
calls it.  ``numpy.linalg.eigh`` and ``svd`` are counted, not spanned:
their time stays with the layer that calls them.

A span is (name, start, end, parent span, op index), kept in flat arrays
in memory and written once at the end.  Each op gets a root span
``op.<kind>``; a layer's self time is its spans' durations minus the time
their child spans cover.
"""
from __future__ import annotations

import dataclasses
import importlib
import inspect
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("pauli", "nummat", "liealg", "circuit", "tangent", "symgrad",
          "natgrad", "estimators", "cli")
# counters read from a wrapped function's return value
RESULT_COUNTERS = {
    "natgrad.optimize": ("natgrad.iters", lambda trace: len(trace.records)),
    "estimators.build_ancilla_circuit": ("estimators.ancilla_circuits", len),
}
NUMPY_COUNTED = ("eigh", "svd")
REPLAY_CYCLES = 1  # op cycles replayed (twice) for the per-op counts


@dataclasses.dataclass
class Counts:
    """Per-op means of the deterministic counts of a replayed op list."""

    n_ops: int
    values: dict
    messages: list


def _is_own_function(obj, module) -> bool:
    if getattr(obj, "_perfbench_span", False) or getattr(obj, "__module__", None) != module.__name__:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id, self.parent, self.op = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self.stack = [-1]
        self.cur_op = -1
        self.on = True
        self.counters: Counter = Counter()
        self.caches: dict = {}

    def intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        counter = RESULT_COUNTERS.get(name)
        t = self

        def wrapper(*args, **kwargs):
            if not t.on:
                return fn(*args, **kwargs)
            sid = len(t.start)
            t.name_id.append(nid)
            t.parent.append(t.stack[-1])
            t.op.append(t.cur_op)
            t.end.append(0.0)
            t.stack.append(sid)
            t.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t.end[sid] = perf_counter()
                t.stack.pop()
            if counter is not None:
                t.counters[counter[0]] += counter[1](result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__module__ = getattr(fn, "__module__", None)
        wrapper._perfbench_span = True
        return wrapper

    def count(self, name: str, fn):
        t = self

        def wrapper(*args, **kwargs):
            if t.on:
                t.counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Find every binding of every module-level symflow function, and
        of the counted numpy functions, then attach the wrappers."""
        import symflow

        modules = {layer: importlib.import_module(f"symflow.{layer}") for layer in LAYERS}
        owners = [symflow, *modules.values()]
        self.bindings = []  # (owner, attribute, original, wrapper)
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not _is_own_function(obj, module):
                    continue
                name = f"{layer}.{attr}"
                if hasattr(obj, "cache_info"):
                    self.caches[name] = obj
                wrapper = self.wrap(name, obj)
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is obj:
                            self.bindings.append((owner, key, obj, wrapper))
        for fn in NUMPY_COUNTED:
            original = getattr(np.linalg, fn)
            self.bindings.append((np.linalg, fn, original, self.count(f"numpy.{fn}", original)))
        self.attach()

    def attach(self) -> None:
        for owner, key, _, wrapper in self.bindings:
            setattr(owner, key, wrapper)

    def detach(self) -> None:
        """Restore the original functions, so untraced ops pay nothing."""
        for owner, key, original, _ in self.bindings:
            setattr(owner, key, original)

    def traced_op(self, op, i: int):
        """The op with its call under a root span and its check untraced."""
        call = self.wrap(f"op.{op.kind}", op.call)

        def run():
            self.cur_op = i
            return call()

        def check(result):
            self.on = False
            try:
                op.check(result)
            finally:
                self.on = True

        return dataclasses.replace(op, call=run, check=check)

    def _arrays(self, a: int, b: int):
        nid = np.array(self.name_id[a:b], dtype=np.int64)
        parent = np.array(self.parent[a:b], dtype=np.int64) - a
        dur = np.array(self.end[a:b]) - np.array(self.start[a:b])
        return nid, parent, dur

    def self_ms(self, a: int, b: int) -> dict[str, float]:
        """Self time per span name over spans a..b-1, in ms."""
        nid, parent, dur = self._arrays(a, b)
        inner = parent >= 0
        child = np.bincount(parent[inner], weights=dur[inner], minlength=dur.size)
        own = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {name: 1e3 * own[k] for k, name in enumerate(self.names)}

    def total_ms(self, a: int, b: int, name: str) -> float:
        nid, _, dur = self._arrays(a, b)
        return 1e3 * float(dur[nid == self.ids[name]].sum()) if name in self.ids else 0.0

    def calls(self, a: int, b: int) -> Counter:
        nid, _, _ = self._arrays(a, b)
        return Counter({self.names[k]: int(n) for k, n in enumerate(np.bincount(nid)) if n})

    def _replay_once(self, wl, workloads, run_op, n_ops: int):
        for cache in self.caches.values():
            cache.cache_clear()
        mark, before = len(self.start), Counter(self.counters)
        messages = []
        for i in range(n_ops):
            _, _, msg = run_op(self.traced_op(wl.op(i), i), workloads)
            if msg:
                messages.append(f"replay op {i}: {msg}")
        counts = self.calls(mark, len(self.start))
        counts.update(self.counters - before)
        for name, cache in self.caches.items():
            info = cache.cache_info()
            counts[f"{name}.hits"], counts[f"{name}.misses"] = info.hits, info.misses
        for arr in (self.name_id, self.parent, self.op, self.start, self.end):
            del arr[mark:]
        return counts, messages

    def replay_counts(self, wl, workloads, run_op) -> Counts:
        """Run the first op cycle twice from cold library caches; every
        count must repeat exactly."""
        n_ops = REPLAY_CYCLES * len(wl.cycle)
        first, messages = self._replay_once(wl, workloads, run_op, n_ops)
        second, more = self._replay_once(wl, workloads, run_op, n_ops)
        messages += more
        for name in sorted(set(first) | set(second)):
            if first[name] != second[name]:
                messages.append(f"count {name} not stable: {first[name]} then {second[name]}")
        return Counts(n_ops, {k: v / n_ops for k, v in first.items()}, messages)

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), op=np.array(self.op),
                 start=np.array(self.start), end=np.array(self.end))


def layer_metrics(tracer: Tracer, n_spans: int, n_ops: int, iters: int, counts: Counts) -> dict:
    """Per-op means: self times from the timed traced loop (spans 0..n_spans-1
    over ``n_ops`` ops), counts from the replay."""
    c = counts.values
    self_ms = Counter()
    for name, ms in tracer.self_ms(0, n_spans).items():
        self_ms[name.split(".")[0]] += ms

    def m(value, unit):
        return {"value": float(value), "unit": unit}

    hits = c.get("pauli.word_matrix.hits", 0)
    lookups = hits + c.get("pauli.word_matrix.misses", 0)
    out = {
        "circuit.gate_apps": m(c.get("circuit.apply_local", 0), "count"),
        "circuit.sweeps": m(c.get("circuit.apply_gates", 0), "count"),
        "circuit.partials": m(c.get("circuit.state_partial", 0), "count"),
        "nummat.eigh_calls": m(c.get("numpy.eigh", 0), "count"),
        "nummat.svd_calls": m(c.get("numpy.svd", 0), "count"),
        "pauli.to_matrix_calls": m(c.get("pauli.to_matrix", 0), "count"),
        "pauli.decompose_calls": m(c.get("pauli.pauli_decompose", 0), "count"),
        "pauli.word_cache_hit_ratio": m(hits / lookups if lookups else 0.0, "frac"),
        "liealg.coords_calls": m(c.get("liealg.coords", 0), "count"),
        "liealg.commutant_calls": m(c.get("liealg.commutant", 0), "count"),
        "liealg.skew_basis_cache_misses": m(c.get("liealg.skew_basis.misses", 0), "count"),
        "tangent.frames": m(c.get("tangent._frame", 0), "count"),
        "symgrad.reports": m(c.get("symgrad._cost_report", 0), "count"),
        "natgrad.iters": m(c.get("natgrad.iters", 0), "count"),
        "natgrad.iter_ms": m(tracer.total_ms(0, n_spans, "natgrad.optimize") / iters
                             if iters else 0.0, "ms"),
        "natgrad.metric_calls": m(c.get("natgrad.fubini_study", 0)
                                  + c.get("natgrad.covariant_metric", 0), "count"),
        "estimators.ancilla_circuits": m(c.get("estimators.ancilla_circuits", 0), "count"),
        "cli.load_ms": m(tracer.total_ms(0, n_spans, "cli.load_problem") / n_ops, "ms"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = m(self_ms[layer] / n_ops, "ms")
    return out
