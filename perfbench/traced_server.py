"""The benchmark's own serving entry point, with spans around the serving layers.

Builds the service exactly as the ``serve-http`` CLI does with its defaults
(``ModelRegistry`` -> ``QueryService(ServiceConfig())`` -> ``make_server``),
but first wraps the layer functions it calls, and on SIGTERM writes the
recorded spans to ``--spans`` as JSON::

    PYTHONPATH=src python3 perfbench/traced_server.py MODELS --port 0 --spans out.json

Spans (start on the monotonic clock, which client processes share):
``serve.parse`` (``query_from_wire``), ``serve.render`` (``answer_to_wire``),
``serve.handle_query`` and ``serve.service`` (``QueryService.handle_query`` and
``.query``), ``serve.batch_exec`` (``QueryEngine.run_batch``) and
``serve.queue_wait`` (``MicroBatcher.submit`` minus the ``run_batch`` of the
batch its query rode in).
"""

from __future__ import annotations

import argparse
import json
import signal
import threading
import time
from pathlib import Path

import repro.serving.service as service_module
from repro.serving import ModelRegistry, QueryEngine, QueryService, ServiceConfig
from repro.serving.http import make_server

from harness import Spans


def instrument(service: QueryService, spans: Spans) -> None:
    """Wrap the serving layers of ``service`` (and the engine class) in spans."""
    service_module.query_from_wire = spans.wrap("serve.parse", service_module.query_from_wire)
    service_module.answer_to_wire = spans.wrap("serve.render", service_module.answer_to_wire)
    service.handle_query = spans.wrap("serve.handle_query", service.handle_query)
    service.query = spans.wrap("serve.service", service.query)

    batch_seconds: dict = {}  # id(query) -> run_batch seconds of its batch
    run_batch = QueryEngine.run_batch

    def timed_run_batch(engine, queries, prefer="auto"):
        queries = list(queries)
        start = time.monotonic()
        try:
            return run_batch(engine, queries, prefer)
        finally:
            seconds = time.monotonic() - start
            spans.add("serve.batch_exec", start, seconds)
            for query in queries:
                batch_seconds[id(query)] = seconds

    QueryEngine.run_batch = timed_run_batch
    submit = service.batcher.submit

    def timed_submit(key, engine, prefer, query, deadline=None):
        start = time.monotonic()
        try:
            return submit(key, engine, prefer, query, deadline=deadline)
        finally:
            waited = time.monotonic() - start - batch_seconds.pop(id(query), 0.0)
            spans.add("serve.queue_wait", start, waited)

    service.batcher.submit = timed_submit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Traced serve-http for the benchmark.")
    parser.add_argument("root", help="directory of .ndpsyn model files")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--spans", required=True, help="where to write the spans on exit")
    args = parser.parse_args(argv)

    spans = Spans()
    service = QueryService(ModelRegistry(args.root), ServiceConfig())
    instrument(service, spans)
    server = make_server(service, args.host, args.port)
    stop = threading.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda signum, frame: stop.set())
    print(f"serving {service.registry.list_models()} at {server.url}", flush=True)
    loop = threading.Thread(target=server.serve_forever, daemon=True)
    loop.start()
    stop.wait()
    server.shutdown()
    loop.join(5.0)
    server.server_close()
    Path(args.spans).write_text(json.dumps(spans.to_json()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
