"""In-memory spans around the calls into each dinet module.

The tracer replaces every public module-level function of the eight
dinet modules, and a few evaluator methods, with a wrapper that records
one span per call: name, start, end and parent span.  Functions are
replaced at every place a module binds them (``dinet.topr`` imports
``max_weight_arborescence`` under its own name, for instance), because a
call resolves through the caller's namespace.  :meth:`Tracer.uninstall`
puts the original objects back.

A span's self time is its duration minus the time its direct children
cover; a layer's self time is the sum over the spans of that layer.
Spans are named ``<layer>.<function>``, the layer being the module that
defines the function; ``max_weight_arborescence`` spans carry a
``.free_root`` or ``.fixed_root`` suffix.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "estimation",
    "approximation",
    "arborescence",
    "topr",
    "bounds",
    "structures",
    "simulate",
    "cli",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._child = array("d")
        self._stack: list[int] = []
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.count: Counter[str] = Counter()
        # fresh evaluator values: an ``increment`` call that raised the
        # evaluator's ``calls`` counter computed a value instead of
        # reading the memo
        self.fits = 0
        self.fit_s = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._child.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _exit(self, idx: int, name: str) -> float:
        end = perf_counter()
        self.ends[idx] = end
        self._stack.pop()
        duration = end - self.starts[idx]
        self.inclusive[name] += duration
        self.self_time[name] += duration - self._child[idx]
        self.count[name] += 1
        parent = self.parents[idx]
        if parent >= 0:
            self._child[parent] += duration
        return duration

    def wrap(self, fn, name: str, name_for=None):
        tracer = self

        def traced(*args, **kwargs):
            span = name if name_for is None else name_for(args, kwargs)
            idx = tracer._enter(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(idx, span)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_increment(self, fn, name: str):
        tracer = self

        def increment(evaluator, *args, **kwargs):
            idx = tracer._enter(name)
            before = evaluator.calls
            try:
                return fn(evaluator, *args, **kwargs)
            finally:
                duration = tracer._exit(idx, name)
                if evaluator.calls != before:
                    tracer.fits += 1
                    tracer.fit_s += duration

        increment.__wrapped__ = fn
        return increment

    # -- installing the wrappers -----------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("dinet")
        modules = {layer: importlib.import_module(f"dinet.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                name_for = None
                if name == "arborescence.max_weight_arborescence":
                    name_for = _arborescence_span
                wrapper = self.wrap(obj, name, name_for)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._set(ns, attr, wrapper)
        # the evaluator's constructors and its one query method;
        # ``set_value`` only forwards to ``increment``
        evaluator = modules["estimation"].DIEvaluator
        for method in ("from_model", "from_panel"):
            raw = evaluator.__dict__[method]
            name = f"estimation.DIEvaluator.{method}"
            self._set(evaluator, method, classmethod(self.wrap(raw.__func__, name)))
        self._set(
            evaluator,
            "increment",
            self._wrap_increment(evaluator.increment, "estimation.DIEvaluator.increment"),
        )

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reading the record ----------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far; subtract two snapshots to get one interval."""
        return {
            "inclusive": dict(self.inclusive),
            "self": dict(self.self_time),
            "count": dict(self.count),
            "fits": self.fits,
            "fit_s": self.fit_s,
        }

    def write(self, path) -> None:
        """Write the recorded spans as a compressed numpy archive.

        ``names`` lists the span names; span i has name
        ``names[name_id[i]]``, times ``start[i]``, ``end[i]`` (seconds,
        ``time.perf_counter``) and parent index ``parent[i]`` (-1 at top
        level).
        """
        import numpy as np

        table = {name: i for i, name in enumerate(sorted(set(self.names)))}
        with open(path, "wb") as fh:
            np.savez_compressed(
                fh,
                names=np.array(sorted(table)),
                name_id=np.array([table[n] for n in self.names], dtype=np.int32),
                start=np.frombuffer(self.starts, dtype=np.float64),
                end=np.frombuffer(self.ends, dtype=np.float64),
                parent=np.frombuffer(self.parents, dtype=np.int64),
            )


def _arborescence_span(args, kwargs) -> str:
    root = kwargs.get("root", args[1] if len(args) > 1 else None)
    suffix = "free_root" if root is None else "fixed_root"
    return f"arborescence.max_weight_arborescence.{suffix}"


def delta(before: dict, after: dict) -> dict:
    """The totals recorded between two snapshots."""
    out = {}
    for key in ("inclusive", "self", "count"):
        out[key] = {
            name: value - before[key].get(name, 0)
            for name, value in after[key].items()
            if value != before[key].get(name, 0)
        }
    out["fits"] = after["fits"] - before["fits"]
    out["fit_s"] = after["fit_s"] - before["fit_s"]
    return out


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]
