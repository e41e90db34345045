#!/usr/bin/env python3
"""Run one store server process over any engine URL.

    python scripts/store_server.py ENGINE-URL [--listen HOST:PORT]
    python scripts/store_server.py file:/var/store --listen 0.0.0.0:7901
    python scripts/store_server.py memory: --listen unix:/tmp/repro.sock

The server prints one line once it is accepting connections::

    LISTENING <endpoint>

(``HOST:PORT`` with the kernel-assigned port when ``--listen`` used
port 0, or ``unix:PATH``) — spawners wait for that line, then point
clients at ``remote:<endpoint>`` or include it in a ``routed:`` list.
The process runs until SIGTERM/SIGINT or a ``shutdown`` protocol op.

Telemetry: ``--metrics-dump PATH`` writes the server's full stats
(server info + metrics snapshot + recent spans, JSON) to PATH on every
SIGUSR1 and once at shutdown; without the flag SIGUSR1 prints the dump
to stderr.  ``scripts/store_top.py`` reads the same data live over the
wire instead.  ``--trace-log PATH`` appends every traced span and the
server's lifecycle events to a JSONL sink that
``scripts/store_trace.py --log PATH`` renders as waterfall trees.

A typical two-shard deployment runs two of these (one per shard
group's engine) and clients open
``routed:host1:p1,host2:p2`` — see docs/architecture.md, "Network
serving".
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from repro.store.net.server import StoreServer
from repro.store.net.protocol import MAX_FRAME_BYTES


def _dump_payload(server: StoreServer) -> dict:
    return {
        "server": server._stats_dict(),
        "metrics": server.metrics.snapshot(),
        "spans": server.spans.tail(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Serve a storage engine over the store wire protocol")
    parser.add_argument("url", help="engine URL to serve "
                        "(file:/p, sqlite:/p, memory:, sharded:N:..., "
                        "including query parameters)")
    parser.add_argument("--listen", default="127.0.0.1:0",
                        metavar="HOST:PORT|unix:PATH",
                        help="bind address (default 127.0.0.1:0 — "
                        "an OS-assigned port, printed on stdout)")
    parser.add_argument("--max-frame", type=int, default=MAX_FRAME_BYTES,
                        metavar="BYTES",
                        help="largest accepted wire frame (default 64 MiB)")
    parser.add_argument("--metrics-dump", metavar="PATH", default=None,
                        help="write the metrics snapshot (JSON) to PATH on "
                        "SIGUSR1 and at shutdown (without this flag, "
                        "SIGUSR1 prints the snapshot to stderr)")
    parser.add_argument("--trace-log", metavar="PATH", default=None,
                        help="append traced spans and server lifecycle "
                        "events to PATH as JSON lines (rotated by size; "
                        "read it back with scripts/store_trace.py --log)")
    args = parser.parse_args(argv)

    try:
        server = StoreServer(args.url, bind=args.listen,
                             max_frame=args.max_frame,
                             trace_log=args.trace_log)
    except ValueError as exc:  # a refused engine URL or bind address
        parser.error(str(exc))

    def _dump(signum=None, frame=None):  # noqa: ARG001 - signal handler
        payload = json.dumps(_dump_payload(server), indent=2,
                             sort_keys=True)
        if args.metrics_dump:
            with open(args.metrics_dump, "w", encoding="utf-8") as out:
                out.write(payload + "\n")
        else:
            print(payload, file=sys.stderr, flush=True)

    def _stop(signum, frame):  # noqa: ARG001 - signal handler signature
        server.stop()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    if hasattr(signal, "SIGUSR1"):
        signal.signal(signal.SIGUSR1, _dump)

    print(f"LISTENING {server.endpoint}", flush=True)
    server.serve_forever()
    if args.metrics_dump:
        _dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
