"""The served workload: one ``repro serve`` daemon, one closed-loop client.

A round starts a daemon on a fresh, empty request store and result
cache, sends a seeded stream of requests in the form ``repro submit``
sends by default, checks the serving properties, and shuts the daemon
down.  The stream is built from *chains*, one per (kernel, machine):

* the chain's first size is a cold search (no donor exists yet); on
  some chains it is sent twice back to back before waiting, so the
  second copy coalesces onto the running search (dedup);
* the chain's second, nearby size warm-starts from the first (the
  stored donor) and ranks with the donor's trained ranker;
* after each of those, a fixed number of exact repeats of completed
  requests follows, answered from the request store.

The seed picks the interleaving of chains, which chains carry the
duplicate and which completed requests are repeated; the searches, the
number of repeats, and so the work a round does, are the same for every
seed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Sequence, Tuple

from checks import CheckFailed, Winner, require
from common import HERE, Answer, Round, median, merge_totals, program_env

Chain = Tuple[str, str, int, int]  # kernel, machine, cold size, warm size
Event = Tuple[str, Dict[str, Any]]  # kind, raw request


def _raw(kernel: str, machine: str, size: int) -> Dict[str, Any]:
    """A request as ``repro submit KERNEL --machine M --size N`` sends it."""
    return {"kernel": kernel, "machine": machine, "size": size,
            "warm_start": True}


def _winner(body: Dict[str, Any]) -> Winner:
    winner = body["winner"]
    return Winner(
        variant=winner["variant"],
        values={k: int(v) for k, v in winner["values"].items()},
        prefetch=[(a, l, int(d)) for a, l, d in winner["prefetch"]],
        pads={k: int(v) for k, v in winner["pads"].items()},
        cycles=float(winner["cycles"]),
    )


def _children(pid: int) -> List[int]:
    """Live processes whose parent is ``pid``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            found.append(int(entry))
    return found


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class LoggedClient:
    """``ServeClient`` that logs every answered operation's latency."""

    def __init__(self, socket_path: str) -> None:
        from repro.serve import ServeClient

        self.client = ServeClient(socket_path, timeout=170.0)
        #: (op, seconds, tag) per answered operation, in send order
        self.log: List[Tuple[str, float, str]] = []

    def call(self, op: str, tag: str = "", *args, **kwargs) -> Tuple[Dict, float]:
        started = time.perf_counter()
        reply = getattr(self.client, op)(*args, **kwargs)
        seconds = time.perf_counter() - started
        self.log.append((op, seconds, tag))
        return reply, seconds


class Daemon:
    """One daemon process on a fresh store and cache under ``workdir``."""

    def __init__(self, workdir: str, jobs: int, totals: str = "") -> None:
        self.workdir = workdir
        os.makedirs(workdir)
        if totals:
            cmd = [sys.executable, os.path.join(HERE, "launch_serve.py"), totals,
                   "s.sock", "store", "cache", str(jobs)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--socket", "s.sock",
                   "--store", "store", "--cache", "cache", "-j", str(jobs)]
        self.socket = os.path.relpath(os.path.join(workdir, "s.sock"))
        self.client = LoggedClient(self.socket)
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=workdir, env=program_env(),
                                     stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     start_new_session=True)
        try:
            self.setup_s = self._first_ping(started)
        except BaseException:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
            raise

    def _first_ping(self, started: float) -> float:
        from repro.serve import ProtocolError

        deadline = started + 60.0
        while True:
            try:
                self.client.call("ping")
                return time.perf_counter() - started
            except (OSError, ProtocolError, RuntimeError):
                if self.proc.poll() is not None:
                    raise RuntimeError("serve daemon exited during start-up")
                if time.perf_counter() > deadline:
                    raise RuntimeError("serve daemon did not answer ping")
                time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self) -> List[str]:
        """Shut down (draining), wait, and make sure nothing is left:
        kills any leftover and reports it."""
        problems = []
        children = _children(self.proc.pid) if self.proc.poll() is None else []
        try:
            if self.proc.poll() is None:
                reply, _ = self.client.call("shutdown")
                if reply.get("drained") != 0:
                    problems.append(f"shutdown drained {reply.get('drained')} "
                                    f"searches; none should be in flight")
            self.proc.wait(timeout=60)
        except Exception as error:  # report, then clean up by force
            problems.append(f"shutdown failed: {type(error).__name__}: {error}")
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
                problems.append("daemon did not exit after shutdown")
        if self.proc.returncode != 0:
            problems.append(f"daemon exited with {self.proc.returncode}")
        deadline = time.perf_counter() + 10.0
        while any(_alive(pid) for pid in children):
            if time.perf_counter() > deadline:
                for pid in children:
                    if _alive(pid):
                        os.kill(pid, signal.SIGKILL)
                problems.append("daemon left worker processes behind")
                break
            time.sleep(0.01)
        if os.path.exists(self.socket):
            os.unlink(self.socket)
            problems.append("daemon left its socket behind")
        return problems


class ServeWorkload:
    """A closed-loop request mix against one daemon per round."""

    def __init__(self, name: str, chains: Sequence[Chain], dups: int,
                 repeats: int, jobs: int) -> None:
        self.name = name
        self.chains = list(chains)
        self.dups = dups
        self.repeats = repeats
        self.jobs = jobs

    def stream(self, seed: int) -> List[Event]:
        """The round's requests: chains interleaved by the seed, and after
        each first request ``repeats`` exact repeats of completed ones.
        Spreading the repeats over every gap samples their latency across
        the whole round, not in one burst."""
        rng = random.Random(seed)
        dup_chains = set(rng.sample(range(len(self.chains)), self.dups))
        pending = [
            [("dup" if i in dup_chains else "cold", _raw(k, m, cold)),
             ("warm", _raw(k, m, warm))]
            for i, (k, m, cold, warm) in enumerate(self.chains)
        ]
        events: List[Event] = []
        done: List[Dict[str, Any]] = []
        while any(pending):
            event = rng.choice([c for c in pending if c]).pop(0)
            events.append(event)
            done.append(event[1])
            events += [("repeat", rng.choice(done)) for _ in range(self.repeats)]
        return events

    def setup_samples(self, workdir: str, count: int) -> List[float]:
        samples = []
        for index in range(count):
            daemon = Daemon(os.path.join(workdir, f"probe{index}"), self.jobs)
            problems = daemon.stop()
            if problems:
                raise CheckFailed("; ".join(problems))
            samples.append(daemon.setup_s)
        return samples

    def run_round(self, seed: int, workdir: str, traced: bool) -> Round:
        started = time.perf_counter()
        name = f"round{len(os.listdir(workdir))}"
        totals = os.path.join(workdir, name + ".totals.json") if traced else ""
        daemon = Daemon(os.path.join(workdir, name), self.jobs, totals)
        client = daemon.client
        problems: List[str] = []
        try:
            answers, wall = self._send(client, self.stream(seed))
            stats, _ = client.call("stats")
            peak = daemon.peak_rss_mb()
            self._reconcile(answers, stats)
        finally:
            problems = daemon.stop()
        if problems:
            raise CheckFailed(f"{self.name}: " + "; ".join(problems))
        sent = sum(1 for op, _, _ in client.log if op == "submit")
        result = Round(wall_s=wall, answers=answers, peak_rss_mb=peak,
                       attempted=sent, failed=stats["counters"]["failures"],
                       serve_stats=stats, setup_s=[daemon.setup_s])
        if traced:
            with open(totals) as handle:
                dump = json.load(handle)
            merge_totals(result, dump)
            result.reply_overhead_ms = _reply_overhead_ms(client.log,
                                                          dump["ops"])
        result.elapsed_s = time.perf_counter() - started
        return result

    def _send(self, client: LoggedClient,
              stream: List[Event]) -> Tuple[List[Answer], float]:
        answers: List[Answer] = []
        first: Dict[str, Answer] = {}
        keys: Dict[Tuple, str] = {}
        wall_start = time.perf_counter()
        for kind, raw in stream:
            label = (raw["kernel"], raw["machine"], raw["size"])
            if kind == "dup":
                queued, latency = client.call("submit", "dup", raw)
                reply, waited = client.call("submit", "dup", raw, wait=True)
                require(queued["state"] in ("queued", "running")
                        and not queued.get("cached") and not queued.get("dedup"),
                        f"first copy of {label} was not a new search: {queued}")
                require(reply.get("dedup") is True,
                        f"second copy of {label} did not coalesce: {reply}")
                original, _ = client.call("result", "dup", queued["key"])
                answers.append(self._answer(label, original, latency + waited,
                                            "cold"))
                answers.append(self._answer(label, reply, waited, "dup"))
                first[reply["key"]] = answers[-2]
                keys[label] = reply["key"]
                continue
            reply, latency = client.call("submit", kind, raw, wait=True)
            answer = self._answer(label, reply, latency, kind)
            answers.append(answer)
            if kind != "repeat":
                first[reply["key"]] = answer
                keys[label] = reply["key"]
            else:
                require(reply.get("cached") is True,
                        f"repeat of {label} was not answered from the store")
        wall = time.perf_counter() - wall_start
        for answer in answers:
            origin = first[keys[(answer.kernel, answer.machine, answer.size)]]
            require(answer.winner.identity() == origin.winner.identity(),
                    f"{answer.kind} of {answer.kernel}@{answer.machine} "
                    f"N={answer.size} got another winner than the first answer")
        for answer in first.values():
            served = answer.served
            if answer.kind == "warm":
                donor = (answer.kernel, answer.machine,
                         self._cold_size(answer.kernel, answer.machine))
                require(served.get("warm_start") is True
                        and served.get("donor") == keys[donor],
                        f"{answer.kernel} N={answer.size} did not warm-start "
                        f"from its stored donor: {served}")
            else:
                require(not served.get("warm_start"),
                        f"cold {answer.kernel} N={answer.size} warm-started")
        return answers, wall

    def _cold_size(self, kernel: str, machine: str) -> int:
        return next(c for k, m, c, _ in self.chains if (k, m) == (kernel, machine))

    @staticmethod
    def _answer(label, reply: Dict[str, Any], latency: float, kind: str) -> Answer:
        require(reply.get("state") == "done", f"{label}: {reply}")
        return Answer(*label, latency_s=latency, winner=_winner(reply),
                      stats=reply["stats"], points=reply["points"],
                      first=kind in ("cold", "warm"), kind=kind,
                      served=reply.get("served") or {})

    def _reconcile(self, answers: List[Answer], stats: Dict[str, Any]) -> None:
        counters = stats["counters"]
        kinds = [a.kind for a in answers]
        expected = {
            "requests": len(answers),  # one submit per answer
            "searches": kinds.count("cold") + kinds.count("warm"),
            "warm_starts": kinds.count("warm"),
            "failures": 0,
        }
        got = {name: counters[name] for name in expected}
        require(got == expected,
                f"daemon counters {got} do not reconcile with the stream "
                f"{expected}")
        hits = counters["store_hits"] + counters["dedup_hits"]
        require(hits == kinds.count("repeat") + kinds.count("dup"),
                f"store hits + dedup hits = {hits}, but the stream sent "
                f"{kinds.count('repeat')} repeats and {kinds.count('dup')} "
                f"duplicates")
        require(stats["store_keys"] == expected["searches"],
                f"store holds {stats['store_keys']} answers, expected "
                f"{expected['searches']}")


def _reply_overhead_ms(log: List[Tuple[str, float, str]],
                       ops: List[Dict[str, Any]]) -> float:
    """Median over repeats of client latency minus the daemon-side layer
    time of the same operation."""
    if [op for op, _, _ in log] != [record["op"] for record in ops]:
        raise RuntimeError("client and daemon operation logs do not align")
    overheads = [
        1000.0 * (seconds - sum(record["layers"].values()))
        for (op, seconds, tag), record in zip(log, ops)
        if tag == "repeat"
    ]
    return median(overheads)
