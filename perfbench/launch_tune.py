"""Traced one-shot tune: ``repro tune`` with layer spans around it.

Usage: ``python perfbench/launch_tune.py TOTALS.json tune KERNEL ...``

Times the import of the CLI module, wraps the layers (``layers.py``),
then runs ``repro.__main__.main`` with the remaining arguments — the
same call ``python -m repro`` makes — and writes the layer totals to
``TOTALS.json`` when the tune ends.
"""

import os
import sys
import time

started = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import repro.__main__ as cli  # noqa: E402  (timed: the startup layer)

import_s = time.perf_counter() - started

from layers import LayerClock, install  # noqa: E402


def main() -> None:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    clock = LayerClock()
    install(clock)
    try:
        cli.main(argv)
    finally:
        clock.dump(totals_path, import_s=import_s)


if __name__ == "__main__":
    main()
