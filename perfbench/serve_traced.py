"""``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py TRACE_JSON SERVE_ARGS...

Installs :func:`tracer.install_layers` in this process, runs
``repro.service.serve.serve_main(SERVE_ARGS)`` until a ``shutdown`` op,
then writes the kept spans to TRACE_JSON (Chrome trace-event JSON) and
prints one last stdout line ``{"event": "perfbench-trace", ...}`` with
the span aggregates and the checkpoints taken at each ``stats`` op.
The ``repro`` package must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install_layers  # noqa: E402


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: serve_traced.py TRACE_JSON SERVE_ARGS...", file=sys.stderr)
        return 2
    trace_path, serve_args = argv[0], argv[1:]
    tracer = Tracer()
    install_layers(tracer)
    from repro.service.serve import serve_main

    code = serve_main(serve_args)
    tracer.write_chrome(trace_path, pid=os.getpid(), process_name="repro serve")
    print(json.dumps({"event": "perfbench-trace", **tracer.summary()}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
