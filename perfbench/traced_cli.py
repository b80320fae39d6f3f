"""Run the trendsig command line with the tracer installed.

    python perfbench/traced_cli.py SPANS.json <trendsig arguments...>

Behaves as ``python -m trendsig <arguments>`` (same output, same exit code)
and writes the invocation's spans, their per-name summary and the counters
to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys

import trendsig.cli
from tracer import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.span("op", trendsig.cli.main, argv)
    finally:
        tracer.remove()
    spans = {key: col.tolist() for key, col in tracer.arrays().items()}
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(
            dict(names=tracer.names, spans=spans, summary=tracer.summary(),
                 counters=tracer.counters),
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
