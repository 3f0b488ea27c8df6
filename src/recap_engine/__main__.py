"""The process entry: ``python -m recap_engine`` and the ``recap-engine``
script.

A command is one short process, and start-up is most of its cost. Python's
cyclic collector takes about a tenth of it on a small bundle: collections
while the engine's modules are imported, and one full collection at exit.
The engine makes no reference cycles (``tests/test_collector.py``), so
reference counting frees what it drops, and :func:`run` keeps the collector
off for the whole command. It then freezes the objects the collector
tracks, so the collection the interpreter makes at exit has nothing to
walk; the exit itself is the normal one, with its atexit hooks and
flushes.

Only this entry touches the collector's switch: :func:`recap_engine.cli.main`
and every library function leave it as they found it.
"""

import gc
import sys


def run() -> None:
    """Run the command named by ``sys.argv`` and exit with its code."""
    gc.disable()  # before the engine's modules are imported
    from .cli import main

    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
