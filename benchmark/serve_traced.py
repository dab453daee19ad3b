#!/usr/bin/env python3
"""Run ``abd serve`` with the benchmark's tracer installed.

    python3 benchmark/serve_traced.py SPANS.jsonl --home H serve --policy P --identity portal

Arguments after the span file go to ``abd.cli.main`` unchanged. SIGINT or
SIGTERM stops the server; the spans it recorded are then written to the file.
"""
from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import abd.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    signal.signal(signal.SIGTERM, _interrupt)
    tracer = Tracer()
    tracer.install()
    try:
        return abd.cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
