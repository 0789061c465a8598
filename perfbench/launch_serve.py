"""Traced serve daemon: ``repro serve`` with layer spans around it.

Usage: ``python perfbench/launch_serve.py TOTALS.json SOCKET STORE CACHE JOBS``

Times the import of the serving package, wraps the layers
(``layers.py``), then builds and runs :class:`repro.serve.ServeDaemon`
with the settings ``repro serve --socket SOCKET --store STORE --cache
CACHE -j JOBS`` uses.  Each daemon operation is recorded with the layer
time the event-loop thread spent inside it, so the client can subtract
daemon-side work from the latency it observed.  The totals are written
to ``TOTALS.json`` after the daemon shuts down.
"""

import os
import sys
import time

started = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from repro.serve import ServeDaemon  # noqa: E402  (timed: the startup layer)

import_s = time.perf_counter() - started

from layers import LayerClock, install  # noqa: E402


def main() -> None:
    totals_path, socket_path, store, cache, jobs = sys.argv[1:6]
    clock = LayerClock()
    install(clock)
    dispatch = ServeDaemon._dispatch

    async def traced_dispatch(self, raw, writer):
        record = clock.begin_op(str(raw.get("op")))
        try:
            await dispatch(self, raw, writer)
        finally:
            clock.end_op(record)

    ServeDaemon._dispatch = traced_dispatch
    daemon = ServeDaemon(socket_path, store, cache_dir=cache, jobs=int(jobs),
                         workers="processes", concurrency=2)
    try:
        daemon.run()
    finally:
        clock.dump(totals_path, import_s=import_s)


if __name__ == "__main__":
    main()
