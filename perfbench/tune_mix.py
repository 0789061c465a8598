"""The one-shot workloads: every request is a fresh ``repro tune`` process.

A round runs the workload's requests in a seeded order, then exact
repeats of one fixed request: the one-shot CLI keeps no store, so a
repeat costs a whole tune again (``repeat_p50_ms``; compare serve-mix).
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

from checks import CheckFailed, Winner
from common import (HERE, Answer, Finished, Round, merge_totals,
                    program_env, run_process)

Request = Tuple[str, str, int]  # kernel, machine, size

_SELECTED = re.compile(r"^\s*selected (\S+) with (.*)$", re.M)
_PREFETCH = re.compile(r"^\s*prefetch: (.*)$", re.M)
_POINTS = re.compile(r"^\s*search: (\d+) points", re.M)
_MFLOPS = re.compile(r"^at N=\d+: ([0-9.]+) MFLOPS", re.M)
_STATS = re.compile(r"^stats json: (\{.*\})$", re.M)
_SITE = re.compile(r"^(\w+)@(\w+)\+(\d+)$")


def parse_tune_output(text: str) -> Tuple[Winner, dict, int]:
    """The winner, engine stats and points ``repro tune --stats`` prints."""
    selected, prefetch = _SELECTED.search(text), _PREFETCH.search(text)
    points, mflops, stats = (_POINTS.search(text), _MFLOPS.search(text),
                             _STATS.search(text))
    if not all((selected, prefetch, points, mflops, stats)):
        raise CheckFailed(f"unparseable repro tune output:\n{text}")
    values = {}
    for item in selected.group(2).split(","):
        name, _, value = item.strip().partition("=")
        values[name] = int(value)
    sites = []
    if prefetch.group(1).strip() != "none":
        for item in prefetch.group(1).split(","):
            match = _SITE.match(item.strip())
            if match is None:
                raise CheckFailed(f"unparseable prefetch site {item!r}")
            sites.append((match.group(1), match.group(2), int(match.group(3))))
    winner = Winner(variant=selected.group(1), values=values, prefetch=sites,
                    mflops_text=mflops.group(1))
    return winner, json.loads(stats.group(1)), int(points.group(1))


class TuneWorkload:
    """One-shot tunes, each in its own process, one after another."""

    def __init__(self, name: str, requests: Sequence[Request], repeat: Request,
                 repeats: int, flags: Sequence[str]) -> None:
        self.name = name
        self.requests = list(requests)
        self.repeat = repeat
        self.repeats = repeats
        self.flags = list(flags)

    def order(self, seed: int) -> List[Request]:
        order = list(self.requests)
        random.Random(seed).shuffle(order)
        return order + [self.repeat] * self.repeats

    def setup_sample(self, workdir: str) -> float:
        """Spawn of a fresh ``python -m repro`` until its imports are
        done: the first line of ``repro machines``, unbuffered."""
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-u", "-m", "repro", "machines"],
                                cwd=workdir, env=program_env(),
                                stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL)
        try:
            first = proc.stdout.readline()
            seconds = time.perf_counter() - started
            proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        if proc.returncode != 0 or not first:
            raise RuntimeError("repro machines failed")
        return seconds

    def _command(self, request: Request, totals: str = "") -> List[str]:
        kernel, machine, size = request
        args = ["tune", kernel, "--machine", machine, "--size", str(size),
                "--stats", *self.flags]
        if totals:
            return [sys.executable, os.path.join(HERE, "launch_tune.py"), totals,
                    *args]
        return [sys.executable, "-m", "repro", *args]

    def run_round(self, seed: int, workdir: str, traced: bool) -> Round:
        answers: List[Answer] = []
        finished: List[Finished] = []
        failed = 0
        seen = set()
        wall_start = time.perf_counter()
        for index, request in enumerate(self.order(seed)):
            totals = os.path.join(workdir, f"totals{index}.json") if traced else ""
            done = run_process(self._command(request, totals), workdir)
            finished.append(done)
            if done.returncode != 0:
                failed += 1
                print(f"{self.name}: {request} failed:\n{done.output}")
                continue
            winner, stats, points = parse_tune_output(done.output)
            kind = "repeat" if request in seen else "cold"
            seen.add(request)
            answers.append(Answer(*request, latency_s=done.seconds,
                                  winner=winner, stats=stats, points=points,
                                  first=True, kind=kind))
        wall = time.perf_counter() - wall_start
        result = Round(wall_s=wall, answers=answers,
                       peak_rss_mb=max(f.peak_rss_mb for f in finished),
                       attempted=len(finished), failed=failed, elapsed_s=wall)
        if traced:
            for index in range(len(finished)):
                path = os.path.join(workdir, f"totals{index}.json")
                with open(path) as handle:
                    merge_totals(result, json.load(handle))
                os.unlink(path)
            result.import_in_wall_s = sum(result.import_s)
        return result

    def setup_samples(self, workdir: str, count: int) -> List[float]:
        return [self.setup_sample(workdir) for _ in range(count)]
