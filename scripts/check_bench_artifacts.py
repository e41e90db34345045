#!/usr/bin/env python3
"""Validate benchmark JSON artifacts: exist, parse, right schema,
non-empty results.

CI runs this after the benchmark steps so a silently-empty or
malformed BENCH file fails the build instead of uploading garbage:

    python scripts/check_bench_artifacts.py BENCH_store.json ...

Each file must be the object ``benchmarks/conftest.py`` writes for
``--bench-json``: ``schema`` == 1, a ``results`` list with at least one
row, and every row a dict carrying a ``name``.  Artifacts named in
``REQUIRED_ROWS`` must additionally contain specific rows with specific
fields (so a refactor that silently stops recording a series fails CI
instead of shipping a hollow artifact).  Exits non-zero naming every
problem found.
"""

from __future__ import annotations

import json
import os
import sys

SCHEMA = 1

#: Per-artifact contracts, keyed by basename: every listed row name
#: must appear in ``results``, carrying every listed field.
REQUIRED_ROWS: dict[str, dict[str, tuple[str, ...]]] = {
    "BENCH_stabilize.json": {
        "parallel_stabilize": (
            "serial_per_s", "threaded_8_per_s", "speedup", "rounds",
            "speedup_iqr",
        ),
    },
    "BENCH_remote.json": {
        "remote_fetch_scaling": (
            "client_procs", "servers", "remote_records_per_s",
            "inproc_records_per_s", "speedup", "cpu_count", "asserted",
        ),
    },
    "BENCH_obs.json": {
        "metrics_overhead": (
            "threads", "objects", "on_ops_per_s", "off_ops_per_s",
            "ratio", "max_overhead", "asserted",
        ),
        "routed_latency_table": (
            "endpoint", "requests", "fetch_count", "fetch_p50_ns",
            "fetch_p99_ns", "servers", "asserted",
        ),
    },
    "BENCH_trace.json": {
        "trace_overhead": (
            "threads", "objects", "sample", "traced_ops_per_s",
            "untraced_ops_per_s", "ratio", "max_overhead", "asserted",
        ),
        "trace_tree": (
            "servers", "span_count", "depth", "cross_process",
            "asserted",
        ),
    },
}


def check(path: str) -> list[str]:
    """Problems with one artifact (empty list: the file is sound)."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return [f"{path}: missing (benchmark step did not write it)"]
    except json.JSONDecodeError as exc:
        return [f"{path}: not valid JSON ({exc})"]
    problems = []
    if not isinstance(payload, dict):
        return [f"{path}: top level is {type(payload).__name__}, "
                f"expected an object"]
    if payload.get("schema") != SCHEMA:
        problems.append(f"{path}: schema is {payload.get('schema')!r}, "
                        f"expected {SCHEMA}")
    results = payload.get("results")
    if not isinstance(results, list) or not results:
        problems.append(f"{path}: results is empty or not a list — the "
                        f"benchmark recorded nothing")
        return problems
    for index, row in enumerate(results):
        if not isinstance(row, dict) or not row.get("name"):
            problems.append(f"{path}: results[{index}] lacks a name")
    rows = {row.get("name"): row for row in results
            if isinstance(row, dict)}
    for name, fields in REQUIRED_ROWS.get(os.path.basename(path),
                                          {}).items():
        row = rows.get(name)
        if row is None:
            problems.append(f"{path}: required row {name!r} is missing")
            continue
        for field in fields:
            if field not in row:
                problems.append(
                    f"{path}: row {name!r} lacks field {field!r}")
    return problems


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_bench_artifacts.py BENCH_FILE...",
              file=sys.stderr)
        return 2
    problems = [problem for path in argv for problem in check(path)]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    if problems:
        return 1
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            rows = json.load(fh)["results"]
        names = ", ".join(sorted(row["name"] for row in rows))
        print(f"ok {path}: {len(rows)} result row(s) [{names}]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
