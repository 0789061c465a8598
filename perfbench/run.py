#!/usr/bin/env python3
"""End-to-end tuning benchmark: one command for every workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from ``src/``).
With ``--trace 0`` it sets up, then runs whole rounds of the workload's
requests until the next round would end after ``--seconds``, checks
every distinct answer (``checks.py``) outside the timed region, and
prints the end-to-end metrics.  With ``--trace 1`` it runs one plain and
one traced round of the same seed and prints the per-layer metrics,
``unattributed_s`` and the tracing overhead.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (each ``{"value", "unit"}``).

Workloads, their seeds and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (PER_LAYER, ROOT, SRC, geomean, median,  # noqa: E402
                    per_layer_metrics)

#: ``tune-cli``: shipped defaults, prescreen on; the model layers dominate
TUNE_CLI = [(k, m, n) for m in ("sgi-r10k-mini", "ultrasparc-iie-mini")
            for k, n in (("mm", 8), ("conv2d", 8), ("matvec", 32),
                         ("stencil2d", 16))]
#: ``tune-noscreen``: the paper's search; front end (mm, conv2d) and
#: simulator (jacobi) bound
TUNE_NOSCREEN = [(k, m, n) for m in ("sgi-r10k-mini", "ultrasparc-iie-mini")
                 for k, n in (("mm", 16), ("conv2d", 8), ("jacobi", 12))]
#: ``serve-mix`` chains: (kernel, machine, cold size, warm size)
SERVE_CHAINS = [("matvec", "sgi-r10k-mini", 32, 40),
                ("stencil2d", "ultrasparc-iie-mini", 16, 20),
                ("mm", "sgi-r10k-mini", 6, 7)]
SETUP_SAMPLES = 9
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "winner_speedup": "x",
             "peak_rss_mb": "MB", "repeat_p50_ms": "ms"}


def _workloads():
    from serve_mix import ServeWorkload
    from tune_mix import TuneWorkload

    return {
        "tune-cli": TuneWorkload("tune-cli", TUNE_CLI,
                                 repeat=("stencil2d", "sgi-r10k-mini", 16),
                                 repeats=3, flags=[]),
        "tune-noscreen": TuneWorkload("tune-noscreen", TUNE_NOSCREEN,
                                      repeat=("jacobi", "sgi-r10k-mini", 12),
                                      repeats=2, flags=["--no-prescreen"]),
        "serve-mix": ServeWorkload("serve-mix", SERVE_CHAINS, dups=2,
                                   repeats=25, jobs=1),
    }


def check_answers(checker, rounds) -> float:
    """Check every distinct answer once; the same request must get the
    same winner in every round.  Returns the geometric-mean speedup."""
    from checks import CYCLES_RTOL, CheckFailed

    winners = {}
    for answer in (a for r in rounds for a in r.answers):
        label = (answer.kernel, answer.machine, answer.size)
        if label not in winners:
            winners[label] = answer.winner
        elif winners[label].identity() != answer.winner.identity():
            raise CheckFailed(f"{label} got different winners across rounds")
    speedups = [checker.check(*label, winner) for label, winner in winners.items()]
    reason = checker.gcc_skipped
    print(f"checked {checker.checked} distinct answers: numpy reference via "
          f"the interpreter, reported cycles, reference simulator counts, "
          f"constraints, no slower than untransformed, gcc "
          + (f"skipped ({reason})" if reason else "checksum"))
    divergence, where = checker.cycle_divergence
    if divergence > CYCLES_RTOL:
        print(f"note: reference-simulator cycles differ from the fast path's "
              f"by {divergence:.2e} (relative) on {where}, beyond the "
              f"documented {CYCLES_RTOL:g}")
    return geomean(speedups)


def measure(name: str, seed: int, seconds: float, trace: bool,
            workdir: str) -> dict:
    from checks import Checker, CheckFailed

    workload = _workloads()[name]
    setup = []
    if trace:
        plain = workload.run_round(seed, workdir, traced=False)
        traced = workload.run_round(seed, workdir, traced=True)
        rounds = [plain, traced]
    else:
        setup = workload.setup_samples(workdir, SETUP_SAMPLES)
        rounds = []
        started = time.perf_counter()
        while True:
            rounds.append(workload.run_round(seed, workdir, traced=False))
            elapsed = time.perf_counter() - started
            if elapsed + median([r.elapsed_s for r in rounds]) > seconds:
                break
    correct = True
    try:
        speedup = check_answers(Checker(workdir, seed), rounds)
    except CheckFailed as error:
        print(f"CHECK FAILED: {error}")
        correct, speedup = False, 0.0
    if trace:
        metrics = per_layer_metrics(traced, plain)
        units = dict(PER_LAYER)
        print(f"per-layer metrics, {name} seed {seed} (one traced round):")
        for metric, unit in PER_LAYER:
            print(f"  {metric:36s} {metrics[metric]:>16.6g} {unit}")
        print(f"tracing overhead: traced wall {traced.wall_s:.3f} s - untraced "
              f"wall {plain.wall_s:.3f} s = {metrics['tracing_overhead_s']:.3f} s")
    else:
        metrics = {
            "setup_s": median(setup + [s for r in rounds for s in r.setup_s]),
            "wall_s": median([r.wall_s for r in rounds]),
            "winner_speedup": speedup,
            "peak_rss_mb": median([r.peak_rss_mb for r in rounds]),
            "repeat_p50_ms": median([ms for r in rounds
                                     for ms in r.repeat_latencies_ms()]),
        }
        units = E2E_UNITS
        print(f"{name} seed {seed}: {len(rounds)} rounds, walls "
              + ", ".join(f"{r.wall_s:.3f}" for r in rounds))
    return {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tune-cli", "tune-noscreen", "serve-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program at {SRC}/repro; run from the root of "
              f"a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    workdir = os.path.join(scratch, str(os.getpid()))
    os.makedirs(workdir)
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
