"""Start the verification daemon with the benchmark's layer wrappers.

    PYTHONPATH=src python perfbench/serve_traced.py SPANS serve-args...

Same as ``python -m repro serve serve-args...``, except that the layer
wrappers of ``tracer.py`` are installed first.  The daemon forks its
workers, so they inherit the wrappers; each worker appends one JSON line
per request to SPANS (its layers' self times and counts).  The first
line records this process's import time.  Spans the supervisor itself
records (admission control parses each program once) stay in its
memory: the client counts that time as transport.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, install


def main() -> int:
    spans, serve_args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    span = tracer.begin("import")
    from repro import __main__ as cli, server

    install(tracer)
    tracer.end(span)
    with open(spans, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"import": tracer.take(-1)["self"]["import"]}) + "\n")
    tracer.spans.clear()
    worker_main = server.worker_main

    def traced_worker_main(*args, **kwargs):
        tracer.sink = spans
        return worker_main(*args, **kwargs)

    server.worker_main = traced_worker_main
    return cli.main(["repro", "serve", *serve_args])


if __name__ == "__main__":
    sys.exit(main())
