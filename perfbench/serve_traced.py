"""Launch ``remi serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/serve_traced.py SPANS.jsonl serve KB [remi serve flags]

Installs :func:`spans.install` in this (router) process, hands the rest
of the command line to ``repro.cli.main`` and, once the server has
drained, writes every recorded span to ``SPANS.jsonl``.  Worker
replicas are spawned processes without wrappers; their share of a
request is read from each reply's ``seconds`` and ``stats``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import require_source  # noqa: E402


def main() -> int:
    require_source()
    from spans import Tracer, install

    out = Path(sys.argv[1])
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
