"""Shared plumbing: process spawning with resource usage, medians, the
per-layer metric assembly."""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def program_env() -> Dict[str, str]:
    """The environment every program process gets: the checkout's
    sources first on the import path, and one fixed string-hash seed.
    The answers do not depend on the hash seed, but the run time does
    (set iteration order changes the order of the work): a one-shot
    mm@sgi-r10k-mini N=16 --no-prescreen tune varied by +-9% over six runs
    with randomized hashes and +-2% with a fixed seed."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Finished:
    output: str
    seconds: float
    peak_rss_mb: float
    returncode: int


def run_process(cmd: Sequence[str], cwd: str) -> Finished:
    """Run ``cmd`` to completion; its wall time from spawn to exit and
    its peak resident memory (``ru_maxrss`` of that child alone)."""
    started = time.perf_counter()
    proc = subprocess.Popen(list(cmd), cwd=cwd, env=program_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            stdin=subprocess.DEVNULL)
    try:
        output = proc.stdout.read().decode("utf-8", "replace")
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    seconds = time.perf_counter() - started
    return Finished(output, seconds, usage.ru_maxrss / 1024.0, proc.returncode)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Answer:
    """One request's answer as the benchmark saw it."""

    kernel: str
    machine: str
    size: int
    latency_s: float
    winner: Any = None
    #: evaluation-engine accounting the answer reports
    stats: Dict[str, Any] = field(default_factory=dict)
    points: int = 0
    #: True when this answer did new work (not a repeat / duplicate)
    first: bool = True
    #: cold, warm (from a donor), dup (coalesced) or repeat
    kind: str = "cold"
    #: the daemon's serving provenance (served answers only)
    served: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Round:
    """One whole round of a workload's requests."""

    wall_s: float
    answers: List[Answer]
    peak_rss_mb: float
    attempted: int
    failed: int
    #: full time the round took, set-up and tear-down included
    elapsed_s: float = 0.0
    #: set-up samples taken by the round itself (its daemon's start)
    setup_s: List[float] = field(default_factory=list)
    #: per-layer totals (traced rounds only): summed over processes
    layers: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    import_s: List[float] = field(default_factory=list)
    #: the part of ``import_s`` paid inside ``wall_s`` (one-shot processes)
    import_in_wall_s: float = 0.0
    serve_stats: Dict[str, Any] = field(default_factory=dict)
    reply_overhead_ms: Optional[float] = None

    def repeat_latencies_ms(self) -> List[float]:
        return [1000.0 * a.latency_s for a in self.answers if a.kind == "repeat"]


def merge_totals(into: Round, totals: Mapping[str, Any]) -> None:
    """Add one process's layer dump to a traced round."""
    for layer, row in totals["layers"].items():
        mine = into.layers.setdefault(
            layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for key in mine:
            mine[key] += row[key]
    for name, value in totals["counts"].items():
        into.counts[name] = into.counts.get(name, 0) + value
    into.import_s.append(totals["import_s"])


#: per-layer metric names, in report order, with their units
PER_LAYER = (
    ("startup.import_s", "s"),
    ("core.derive_s", "s"),
    ("core.points", "count"),
    ("core.search_self_s", "s"),
    ("analysis.surrogate_s", "s"),
    ("analysis.surrogate_judged", "count"),
    ("analysis.surrogate_skips", "count"),
    ("analysis.surrogate_skip_ratio", "ratio"),
    ("analysis.missmodel_calls", "count"),
    ("analysis.missmodel_s", "s"),
    ("analysis.learned_train_s", "s"),
    ("analysis.learned_train_rows", "count"),
    ("analysis.learned_rank_s", "s"),
    ("analysis.learned_refit_s", "s"),
    ("analysis.learned_skips", "count"),
    ("analysis.dependence_calls", "count"),
    ("analysis.dependence_s", "s"),
    ("transforms.instantiate_base_calls", "count"),
    ("transforms.instantiate_base_s", "s"),
    ("transforms.tile_s", "s"),
    ("transforms.copy_s", "s"),
    ("transforms.unroll_jam_s", "s"),
    ("transforms.scalar_replace_s", "s"),
    ("transforms.apply_prefetch_s", "s"),
    ("transforms.screen_instantiate_s", "s"),
    ("sim.execute_calls", "count"),
    ("sim.execute_s", "s"),
    ("sim.accesses", "count"),
    ("sim.accesses_per_s", "1/s"),
    ("sim.timing_events", "count"),
    ("eval.simulations", "count"),
    ("eval.full_sims", "count"),
    ("eval.delta_sims", "count"),
    ("eval.cache_hits", "count"),
    ("eval.prescreen_skips", "count"),
    ("eval.ranker_skips", "count"),
    ("eval.cache_get_s", "s"),
    ("eval.cache_put_s", "s"),
    ("serve.canonicalize_s", "s"),
    ("serve.store_get_s", "s"),
    ("serve.reply_overhead_ms", "ms"),
    ("serve.search_s", "s"),
    ("serve.store_put_s", "s"),
    ("serve.store_nearest_s", "s"),
    ("serve.searches", "count"),
    ("serve.store_hits", "count"),
    ("serve.dedup_hits", "count"),
    ("serve.warm_starts", "count"),
    ("serve.pool_submitted", "count"),
    ("unattributed_s", "s"),
    ("tracing_overhead_s", "s"),
)

#: layer span → (calls metric or None, time metric, time kind)
_SPANS = {
    "core.derive": (None, "core.derive_s", "total_s"),
    "core.search": (None, "core.search_self_s", "self_s"),
    "analysis.surrogate": (None, "analysis.surrogate_s", "total_s"),
    "analysis.missmodel": ("analysis.missmodel_calls", "analysis.missmodel_s",
                           "total_s"),
    "analysis.learned_train": (None, "analysis.learned_train_s", "total_s"),
    "analysis.learned_rank": (None, "analysis.learned_rank_s", "total_s"),
    "analysis.learned_refit": (None, "analysis.learned_refit_s", "total_s"),
    "analysis.dependence": ("analysis.dependence_calls",
                            "analysis.dependence_s", "total_s"),
    "transforms.instantiate_base": ("transforms.instantiate_base_calls",
                                    "transforms.instantiate_base_s", "total_s"),
    "transforms.tile": (None, "transforms.tile_s", "total_s"),
    "transforms.copy": (None, "transforms.copy_s", "total_s"),
    "transforms.unroll_jam": (None, "transforms.unroll_jam_s", "total_s"),
    "transforms.scalar_replace": (None, "transforms.scalar_replace_s", "total_s"),
    "transforms.apply_prefetch": (None, "transforms.apply_prefetch_s", "total_s"),
    "transforms.screen_instantiate": (None, "transforms.screen_instantiate_s",
                                      "total_s"),
    "sim.execute": ("sim.execute_calls", "sim.execute_s", "total_s"),
    "eval.cache_get": (None, "eval.cache_get_s", "total_s"),
    "eval.cache_put": (None, "eval.cache_put_s", "total_s"),
    "serve.canonicalize": (None, "serve.canonicalize_s", "total_s"),
    "serve.store_get": (None, "serve.store_get_s", "total_s"),
    "serve.store_put": (None, "serve.store_put_s", "total_s"),
    "serve.store_nearest": (None, "serve.store_nearest_s", "total_s"),
    "serve.search": (None, "serve.search_s", "total_s"),
}
_STATS = {"eval.simulations": "simulations", "eval.full_sims": "full_sims",
          "eval.delta_sims": "delta_sims", "eval.cache_hits": "cache_hits",
          "eval.prescreen_skips": "prescreen_skips",
          "eval.ranker_skips": "ranker_skips"}


def per_layer_metrics(traced: Round, untraced: Round) -> Dict[str, float]:
    """Every per-layer metric of one traced round (zero where a layer
    did no work on this workload)."""
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for layer, (calls, seconds, kind) in _SPANS.items():
        row = traced.layers.get(layer)
        if row is None:
            continue
        values[seconds] = row[kind]
        if calls is not None:
            values[calls] = row["calls"]
    for name in ("analysis.surrogate_judged", "analysis.surrogate_skips",
                 "analysis.learned_train_rows", "sim.accesses",
                 "sim.timing_events"):
        values[name] = traced.counts.get(name, 0)
    if values["analysis.surrogate_judged"]:
        values["analysis.surrogate_skip_ratio"] = (
            values["analysis.surrogate_skips"]
            / values["analysis.surrogate_judged"]
        )
    if values["sim.execute_s"]:
        values["sim.accesses_per_s"] = (
            values["sim.accesses"] / values["sim.execute_s"]
        )
    first = [a for a in traced.answers if a.first]
    for metric, key in _STATS.items():
        values[metric] = sum(a.stats.get(key, 0) for a in first)
    values["analysis.learned_skips"] = values["eval.ranker_skips"]
    values["core.points"] = sum(a.points for a in first)
    if traced.import_s:
        values["startup.import_s"] = median(traced.import_s)
    counters = traced.serve_stats.get("counters", {})
    for name in ("searches", "store_hits", "dedup_hits", "warm_starts"):
        values[f"serve.{name}"] = counters.get(name, 0)
    values["serve.pool_submitted"] = (
        traced.serve_stats.get("pool", {}).get("submitted", 0)
    )
    if traced.reply_overhead_ms is not None:
        values["serve.reply_overhead_ms"] = traced.reply_overhead_ms
    explained = sum(row["self_s"] for row in traced.layers.values())
    values["unattributed_s"] = traced.wall_s - explained - traced.import_in_wall_s
    values["tracing_overhead_s"] = traced.wall_s - untraced.wall_s
    return values
