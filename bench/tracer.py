"""Span tracer that wraps nilcoh's public functions from outside the library.

``Tracer.install()`` replaces every binding of each public nilcoh function
(the defining module, the package namespace and every module that imported
the name) with a wrapper that records a span; ``uninstall()`` puts the
originals back.  A span opens only when a call enters a module from another
module, so recursive ``dsl.evaluate`` and nested ``exactlinalg`` helpers run
inside their caller's span instead of swamping the trace.

Spans are kept in memory as ``Span`` records.  Worker threads of
``rng.chunked_sums`` get the submitting span as their parent explicitly,
because context variables do not follow ``ThreadPoolExecutor.map``.
"""

from __future__ import annotations

import contextvars
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = (
    "algebra", "bch", "cli", "cohomology", "degree", "dsl", "ergodic",
    "exactlinalg", "forms", "group", "jets", "maps", "pullback", "report", "rng",
)

# Span name for a public function, by defining module; "*" is the fallback.
SPAN_NAMES = {
    "algebra": {"*": "algebra.validate", "save_algebra": "algebra.io", "algebra_to_dict": "algebra.io"},
    "bch": {"*": "bch.group_law"},
    "cli": {"*": "cli"},
    "cohomology": {"*": "cohomology.invariants", "cohomology": "cohomology.build",
                   "differential_matrix": "cohomology.build"},
    "degree": {"*": "degree"},
    "dsl": {"*": "dsl.other", "evaluate": "dsl.evaluate"},
    "ergodic": {"*": "ergodic"},
    "exactlinalg": {"*": "exactlinalg.other", "mat_mul": "exactlinalg.mat_mul",
                    "mat_vec": "exactlinalg.mat_vec", "rref": "exactlinalg.elim",
                    "rank": "exactlinalg.elim", "nullspace": "exactlinalg.elim",
                    "column_space_pivots": "exactlinalg.elim", "solve": "exactlinalg.elim",
                    "invert": "exactlinalg.elim", "in_span": "exactlinalg.elim"},
    "forms": {"*": "forms.other", "ce_differential": "forms.ce_differential", "wedge": "forms.wedge"},
    "group": {"*": "group.other", "sample_ball_coords": "group.sample",
              "sample_ball": "group.sample", "estimate_ball_volume": "group.sample"},
    "maps": {"*": "maps.other", "differential_batch": "maps.differential_batch",
             "differential": "maps.differential_batch", "evaluate_batch": "maps.evaluate_batch",
             "evaluate": "maps.evaluate_batch"},
    "pullback": {"*": "pullback"},
    "report": {"*": "report.render"},
    "rng": {"*": "rng.other", "chunked_sums": "rng.chunked_sums"},
}

# GroupLaw's vectorized evaluators: the numeric layer's use of bch.
BATCH_METHODS = ("multiply_batch", "frame_batch", "inv_frame_batch", "translation_jacobian_batch")


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    children: list[int] = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._current = contextvars.ContextVar("nilcoh_bench_span", default=None)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ------------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name: str, layer: str, parent: int | None) -> int:
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, layer, parent, time.perf_counter()))
            if parent is not None:
                self.spans[parent].children.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()

    def _call(self, name, layer, fn, args, kwargs, parent=None, force=False):
        """Run fn inside a span (a child of ``parent``, default the current
        span) unless the caller is already in this layer and not ``force``."""
        current = self._current.get() if parent is None else parent
        if not force and current is not None and self.spans[current].layer == layer:
            return fn(*args, **kwargs), False
        index = self._open(name, layer, current)
        token = self._current.set(index)
        try:
            return fn(*args, **kwargs), True
        finally:
            self._current.reset(token)
            self._close(index)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, on_span=None):
        tracer = self

        def traced(*args, **kwargs):
            result, opened = tracer._call(name, layer, fn, args, kwargs)
            if opened:
                tracer.count("spans:" + name)
                tracer.count(f"calls:{layer}.{traced.__name__}")
                if on_span is not None:
                    on_span(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_chunked_sums(self, fn):
        tracer = self

        def traced(evaluate, count, *args, **kwargs):
            worker_layer = _layer_of(getattr(evaluate, "__module__", "")) or "rng"

            def worker(start, stop, parent):
                tracer.count("rng.chunks")
                result, _ = tracer._call(
                    worker_layer + ".chunk", worker_layer, evaluate, (start, stop), {},
                    parent=parent, force=True,
                )
                return result

            def run(*inner_args, **inner_kwargs):
                parent = tracer._current.get()
                return fn(lambda s, e: worker(s, e, parent), *inner_args, **inner_kwargs)

            result, _ = tracer._call("rng.chunked_sums", "rng", run, (count, *args), kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_numpy(self, fn, name: str):
        """numpy.linalg entry point: a child span only when nilcoh called it."""
        tracer = self

        def traced(a, *args, **kwargs):
            current = tracer._current.get()
            if current is None or tracer.spans[current].layer == "linalg":
                return fn(a, *args, **kwargs)
            shape = np.shape(a)
            tracer.count(name + ".matrices", int(np.prod(shape[:-2])) if len(shape) > 2 else 1)
            result, _ = tracer._call(name, "linalg", fn, (a, *args), kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        import nilcoh
        from nilcoh import bch, degree

        modules = {"nilcoh": nilcoh}
        modules.update({f"nilcoh.{name}": sys.modules[f"nilcoh.{name}"] for name in LAYERS})
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                layer = _layer_of(getattr(value, "__module__", ""))
                if attr.startswith("_") or layer is None or not _is_function(value):
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._make_wrapper(value, layer)
                self._patch(module, attr, wrappers[id(value)])

        for method in BATCH_METHODS:
            fn = getattr(bch.GroupLaw, method)
            self._patch(bch.GroupLaw, method, self._wrap(fn, "bch.batch_eval", "bch", _batch_points))
        newton = degree._newton_roots

        def counted_newton(m, starts, targets):
            self.count("degree.newton_columns", starts.shape[1])
            return newton(m, starts, targets)

        self._patch(degree, "_newton_roots", counted_newton)
        for name in ("det", "solve"):
            self._patch(np.linalg, name, self._wrap_numpy(getattr(np.linalg, name), "linalg." + name))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def _make_wrapper(self, fn, layer: str):
        if layer == "rng" and fn.__name__ == "chunked_sums":
            return self._wrap_chunked_sums(fn)
        if layer == "bch" and fn.__name__ == "group_law":
            from nilcoh import bch

            def group_law(alg):
                if alg not in bch._LAW_CACHE:
                    self.count("bch.group_law_builds")
                return fn(alg)

            return self._wrap(group_law, "bch.group_law", layer)
        names = SPAN_NAMES.get(layer, {"*": layer})
        name = names.get(fn.__name__, names["*"])
        return self._wrap(fn, name, layer, ON_SPAN.get((layer, fn.__name__)))

    # -- summaries ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self seconds (duration minus the union of child spans), summed per
        span name and per layer."""
        by_name: dict[str, float] = {}
        by_layer: dict[str, float] = {}
        for span in self.spans:
            covered = _union_length(
                [(self.spans[c].start, self.spans[c].end) for c in span.children],
                span.start, span.end,
            )
            own = (span.end - span.start) - covered
            by_name[span.name] = by_name.get(span.name, 0.0) + own
            by_layer[span.layer] = by_layer.get(span.layer, 0.0) + own
        return by_name, by_layer

    def covered_wall(self) -> float:
        """Seconds during which at least one root span was open."""
        roots = [(s.start, s.end) for s in self.spans if s.parent is None]
        return _union_length(roots, float("-inf"), float("inf"))

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start
        return out

    def records(self) -> list[dict]:
        return [
            {"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
            for i, s in enumerate(self.spans)
        ]


def _layer_of(module_name: str) -> str | None:
    prefix, _, rest = module_name.partition(".")
    if prefix == "nilcoh" and rest in LAYERS:
        return rest
    return None


def _is_function(value) -> bool:
    return callable(value) and not isinstance(value, type) and hasattr(value, "__code__")


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _columns(coords) -> int:
    shape = np.shape(coords)
    return int(shape[1]) if len(shape) > 1 else 1


def _batch_points(tracer, args, kwargs, result) -> None:
    shape = np.shape(result)
    tracer.count("bch.batch_points", shape[-1] if len(shape) == 2 else shape[0])


def _map_points(tracer, args, kwargs, result) -> None:
    coords = args[1] if len(args) > 1 else kwargs.get("coords", kwargs.get("g"))
    tracer.count("maps.points", _columns(coords))


def _single_map_point(tracer, args, kwargs, result) -> None:
    tracer.count("maps.points", 1)


def _sample_points(tracer, args, kwargs, result) -> None:
    tracer.count("group.sample_points", len(result) if isinstance(result, list) else _columns(result))


def _estimate_points(tracer, args, kwargs, result) -> None:
    tracer.count("group.sample_points", args[2] if len(args) > 2 else kwargs.get("count", 20000))


def _area_targets(tracer, args, kwargs, result) -> None:
    tracer.count("degree.targets", result["samples"])
    tracer.count("degree.skipped",
                 result["targets_skipped_boundary"] + result["targets_skipped_singular"])


def _local_target(tracer, args, kwargs, result) -> None:
    tracer.count("degree.targets", 1)


ON_SPAN = {
    ("maps", "differential_batch"): _map_points,
    ("maps", "evaluate_batch"): _map_points,
    ("maps", "differential"): _single_map_point,
    ("maps", "evaluate"): _single_map_point,
    ("group", "sample_ball_coords"): _sample_points,
    ("group", "sample_ball"): _sample_points,
    ("group", "estimate_ball_volume"): _estimate_points,
    ("degree", "area_formula_check"): _area_targets,
    ("degree", "local_degree"): _local_target,
}
