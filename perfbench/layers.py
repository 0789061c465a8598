"""Per-layer timers and counters for the benchmark's traced runs.

The benchmark never edits the program.  Instead a launcher process
(``launch_tune.py`` or ``launch_serve.py``) imports the program, wraps
the public functions at each layer boundary with :class:`LayerClock`
spans, runs the same entry point the CLI runs, and writes the totals to
a JSON file when it ends.  Totals stay in memory until then.

A span records its layer's inclusive time (counted once when the layer
re-enters itself) and its self time: its duration minus the time its
child spans cover.  Self times of all spans on one thread never overlap,
so the wall a request takes minus the sum of self times is the part no
layer explains (``unattributed_s``).

Candidate IR that a model builds to *score* a candidate (the prescreen's
surrogate, the learned ranker's features) is recorded as
``transforms.screen_instantiate`` with everything below it folded into
its self time, so the ``transforms.*`` and ``analysis.dependence`` rows
describe only the IR the engine builds to simulate.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

#: layers whose calls are work the model layers do to score a candidate
MODEL_LAYERS = ("analysis.surrogate", "analysis.learned_rank",
                "analysis.learned_refit", "analysis.learned_train")


class _Frame:
    __slots__ = ("layer", "start", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.start = time.perf_counter()
        self.child = 0.0


class LayerClock:
    """Span stack per thread plus per-layer totals for one process."""

    def __init__(self) -> None:
        self.layers: Dict[str, Dict[str, float]] = {}
        self.counts: Dict[str, float] = {}
        #: one record per daemon operation (``launch_serve.py``): the
        #: layer time the event-loop thread spent inside that operation
        self.ops: List[Dict[str, Any]] = []
        self._op: Optional[Dict[str, Any]] = None
        self._op_thread: Optional[int] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, prefixes) -> bool:
        """Is a span whose layer starts with one of ``prefixes`` open on
        this thread?"""
        return any(f.layer.startswith(prefixes) for f in self._stack())

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, layer: str, fn: Callable, args, kwargs):
        stack = self._stack()
        outermost = all(f.layer != layer for f in stack)
        frame = _Frame(layer)
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            elapsed = time.perf_counter() - frame.start
            if stack:
                stack[-1].child += elapsed
            with self._lock:
                row = self.layers.setdefault(
                    layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                )
                row["calls"] += 1
                row["self_s"] += elapsed - frame.child
                if outermost:
                    row["total_s"] += elapsed
                if (outermost and self._op is not None
                        and self._op_thread == threading.get_ident()):
                    self._op["layers"][layer] = (
                        self._op["layers"].get(layer, 0.0) + elapsed
                    )

    # -- daemon operations (event-loop thread only) ------------------------
    def begin_op(self, op: str) -> Dict[str, Any]:
        record = {"op": op, "layers": {}}
        self.ops.append(record)
        self._op, self._op_thread = record, threading.get_ident()
        return record

    def end_op(self, record: Dict[str, Any]) -> None:
        if self._op is record:
            self._op = None

    def dump(self, path: str, **extra: Any) -> None:
        with self._lock:
            payload = {"layers": self.layers, "counts": self.counts,
                       "ops": self.ops, **extra}
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _wrap(clock: LayerClock, fn: Callable, layer, post=None) -> Callable:
    """``fn`` inside a span of ``layer`` (a name, or a callable that picks
    the name from the open spans; ``None`` opens no span)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = layer(clock) if callable(layer) else layer
        if name is None:
            return fn(*args, **kwargs)
        result = clock.span(name, fn, args, kwargs)
        if post is not None:
            post(clock, args, result)
        return result

    return wrapper


def _front_end(layer: str):
    """Front-end layers vanish (fold into their caller) under a model."""

    def pick(clock: LayerClock) -> Optional[str]:
        return None if clock.inside(MODEL_LAYERS) else layer

    return pick


def _instantiate_base(clock: LayerClock) -> Optional[str]:
    if clock.inside(("transforms.screen_instantiate",)):
        return None
    if clock.inside(MODEL_LAYERS):
        return "transforms.screen_instantiate"
    return "transforms.instantiate_base"


def _post_execute(clock: LayerClock, args, counters) -> None:
    clock.count("sim.accesses", counters.sim_accesses)
    clock.count("sim.timing_events", counters.sim_timing_events)


def _post_execute_batch(clock: LayerClock, args, results) -> None:
    for counters in results:
        _post_execute(clock, args, counters)


def _post_judge(clock: LayerClock, args, verdict) -> None:
    clock.count("analysis.surrogate_judged")
    if verdict is not None:
        clock.count("analysis.surrogate_skips")


def _post_train(clock: LayerClock, args, ranker) -> None:
    clock.count("analysis.learned_train_rows", len(args[0]))


def _inside_execute(clock: LayerClock) -> Optional[str]:
    # execute_batch falls back to execute(); count that run once
    return None if clock.inside(("sim.execute",)) else "sim.execute"


#: (module, attribute or Class.method, layer, post-hook)
TARGETS = (
    ("repro.core.derive", "derive_variants", "core.derive", None),
    ("repro.core.search", "GuidedSearch.run", "core.search", None),
    ("repro.analysis.surrogate", "Surrogate.judge", "analysis.surrogate",
     _post_judge),
    ("repro.analysis.surrogate", "Surrogate.score", "analysis.surrogate", None),
    ("repro.analysis.missmodel", "estimate_misses", "analysis.missmodel", None),
    ("repro.analysis.learned", "train_ranker", "analysis.learned_train",
     _post_train),
    ("repro.analysis.learned", "LearnedRanker.predict",
     "analysis.learned_rank", None),
    ("repro.analysis.learned", "LearnedRanker.memoized",
     "analysis.learned_rank", None),
    ("repro.analysis.learned", "LearnedRanker.observe",
     "analysis.learned_refit", None),
    ("repro.analysis.dependence", "compute_dependences",
     _front_end("analysis.dependence"), None),
    ("repro.core.variants", "instantiate_base", _instantiate_base, None),
    ("repro.core.variants", "apply_prefetch",
     _front_end("transforms.apply_prefetch"), None),
    ("repro.transforms.tile", "tile_nest", _front_end("transforms.tile"), None),
    ("repro.transforms.copyopt", "apply_copy", _front_end("transforms.copy"),
     None),
    ("repro.transforms.unroll_jam", "unroll_and_jam",
     _front_end("transforms.unroll_jam"), None),
    ("repro.transforms.scalar_replace", "scalar_replace",
     _front_end("transforms.scalar_replace"), None),
    ("repro.sim.executor", "execute", _inside_execute, _post_execute),
    ("repro.sim.executor", "execute_batch", "sim.execute", _post_execute_batch),
    ("repro.eval.cache", "ResultCache.get_memory", "eval.cache_get", None),
    ("repro.eval.cache", "ResultCache.get_disk", "eval.cache_get", None),
    ("repro.eval.cache", "ResultCache.put", "eval.cache_put", None),
    ("repro.serve.protocol", "canonical_request", "serve.canonicalize", None),
    ("repro.serve.store", "RequestStore.get", "serve.store_get", None),
    ("repro.serve.store", "RequestStore.put", "serve.store_put", None),
    ("repro.serve.store", "RequestStore.nearest", "serve.store_nearest", None),
    ("repro.serve.daemon", "ServeDaemon._execute", "serve.search", None),
)

#: modules imported before patching, so every ``from x import f`` binding
#: of a wrapped function already exists and gets replaced
_PRELOAD = (
    "repro.__main__", "repro.core", "repro.core.eco", "repro.core.search",
    "repro.core.variants", "repro.core.derive", "repro.analysis.surrogate",
    "repro.analysis.missmodel", "repro.analysis.learned",
    "repro.analysis.dependence", "repro.transforms", "repro.sim",
    "repro.sim.executor", "repro.eval", "repro.eval.engine", "repro.eval.cache",
    "repro.serve", "repro.serve.daemon", "repro.serve.store",
    "repro.serve.protocol", "repro.obs",
)


def install(clock: LayerClock) -> None:
    """Wrap every :data:`TARGETS` entry, in its defining module and in
    every loaded ``repro`` module that imported it by name."""
    for name in _PRELOAD:
        importlib.import_module(name)
    replaced = {}
    for module_name, attr, layer, post in TARGETS:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrap(clock, original, layer, post))
            continue
        original = getattr(module, attr)
        replaced[id(original)] = (original, _wrap(clock, original, layer, post))
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, key, hit[1])
