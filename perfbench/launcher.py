"""Start ``repro-cli serve`` with the benchmark's span wrappers installed.

Only the traced ``hot_read`` run starts the server through this file;
measured runs start the plain CLI.  The wrappers are installed before
the CLI's serve path runs, spans are tagged with the client's
``X-Bench-Op`` header, and they are written to ``$PERFBENCH_SPANS``
when the server stops::

    PERFBENCH_SPANS=spans.json python perfbench/launcher.py --corpus c.jsonl --port 0
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    tracer.install_handler()
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *argv])
    finally:
        tracer.dump(Path(os.environ["PERFBENCH_SPANS"]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
