"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 hpbench/run.py --workload hp-session --seed 1 --seconds 25 --trace 0

Each workload is a seeded, single-process, single-client closed loop
over the public API and the default ``file:`` engine (``sync``
durability: one WAL fsync per commit).  The run sets up the store
``SETUPS`` times and reports the median set-up time, measures for
``--seconds`` seconds (and at least ``MIN_OPS`` operations), checks
every result, and prints human-readable lines followed by one JSON line:
the end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``.  End-to-end times are scaled to a nominal host speed
(``hostref``).  The exit code is 0 only when every check passed.

See ``hpbench/README.md`` for what each metric measures and which layer
metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import hostref
import ledger as lg

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 9
#: Reference-kernel timings after each set-up.
SETUP_SAMPLES = 3
MIN_OPS = 30


def _import_program():
    """Put the repository's ``src`` on the path; the benchmark needs the
    program's source next to it and runs nothing without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"hpbench: no program source at {src}")
    sys.path.insert(0, str(src))


#: Workload name -> (module, class); imported only once ``src`` is on
#: the path.
WORKLOADS = {
    "hp-session": ("hp_session", "HpSession"),
    "commit-churn": ("commit_churn", "CommitChurn"),
    "cold-reopen": ("cold_reopen", "ColdReopen"),
}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, setup_times, run_s, ops, footprint, setup_host,
               host) -> dict:
    tail_ms = lg.tail(wl.op_ms)[0]
    rss_mb, disk_bytes, objects = footprint
    scale = host.scale()
    return {
        "setup_s": _metric(lg.median(setup_times) * setup_host.scale(),
                           "s"),
        "op_ms.p50": _metric(lg.median(wl.op_ms) * scale, "ms"),
        "op_ms.tail": _metric(tail_ms * scale, "ms"),
        "ops_per_s": _metric(ops / run_s / scale, "1/s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "disk_bytes_per_object": _metric(disk_bytes / objects, "B"),
    }


def _reset_peak_rss() -> None:
    """Restart the resident-memory high-water mark from the current
    resident size, so the loop's peak is not the set-ups'.  Where
    ``/proc/self/clear_refs`` is missing the peak stays the process's."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def _peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(wl, counts) -> dict:
    """The per-layer ledger: span medians, and counter deltas per traced
    commit (``stabilize_deltas``), per traced reopen (``op_deltas``) or
    per traced data-root fault (``fault_deltas``).  A workload that
    never enters a layer reads 0 for its metrics."""
    stab, ops, faults = wl.stabilize_deltas, wl.op_deltas, wl.fault_deltas

    def span_us(name):
        return lg.median(wl.ledger.durations_us(name))

    def per_commit(*keys):
        return lg.ratio(sum(lg.total(stab, k) for k in keys), len(stab))

    def per_op(key):
        return lg.ratio(lg.total(ops, key), len(ops))

    def phase_ms(key):
        return lg.median([s[key] / 1e6 for s in stab])

    waves = lg.total(faults, "store_fault_waves_total")
    hits = lg.total(ops, "heap_page_hits_total")
    misses = lg.total(ops, "heap_page_misses_total")
    values = {
        "linkstore.add_hp_us": (span_us("linkstore.add_hp"), "us"),
        "linkstore.get_link_us": (span_us("linkstore.get_link"), "us"),
        "linkstore.open_ms": (span_us("linkstore.open") / 1e3, "ms"),
        "linkstore.registry_entries":
            (counts.get("linkstore.registry_entries", 0), "count"),
        "linkstore.collected": (counts.get("linkstore.collected", 0),
                                "count"),
        "textual.generate_us": (span_us("textual.generate"), "us"),
        "compiler.direct_us": (span_us("compiler.compile_classes"), "us"),
        "compiler.run_main_us": (span_us("compiler.run_main"), "us"),
        "compiler.forked_ms": (span_us("compiler.forked") / 1e3, "ms"),
        "store.walk_ms": (phase_ms("walk_ns"), "ms"),
        "store.encode_ms": (phase_ms("encode_ns"), "ms"),
        "store.commit_phase_ms": (phase_ms("commit_ns"), "ms"),
        "store.walk_us_per_live_object":
            (lg.ratio(phase_ms("walk_ns") * 1e3, counts["live_objects"]),
             "us"),
        "store.encoded_per_dirty":
            (lg.ratio(lg.total(stab, "encode_count"),
                      lg.total(stab, "dirtied")), "ratio"),
        "serializer.encoded_bytes_per_commit":
            (per_commit("compressed_bytes"), "B"),
        "serializer.decode_us_per_record":
            (counts.get("decode_us_per_record", 0.0), "us"),
        "fault.ms": (span_us("store.get_root") / 1e3, "ms"),
        "fault.waves_per_fault":
            (lg.ratio(waves, lg.total(faults, "store_fault_plans_total")),
             "count"),
        # One heap page read per record fetched (the records are far
        # smaller than a page, so none spans overflow pages).
        "fault.records_per_wave":
            (lg.ratio(lg.total(faults, "heap_page_hits_total")
                      + lg.total(faults, "heap_page_misses_total"), waves),
             "count"),
        "cache.demotions": (per_op("store_cache_demotions_total"), "count"),
        "lock.writer_wait_ms":
            (lg.total(stab + ops, "store_lock_writer_wait_ns") / 1e6, "ms"),
        "engine.open_ms": (span_us("store.from_url") / 1e3, "ms"),
        "engine.fetch_many_ms": (per_op("fetch_many_ns") / 1e6, "ms"),
        "engine.fetch_many_calls": (per_op("fetch_many_calls"), "count"),
        "heap.page_hit_ratio": (lg.ratio(hits, hits + misses), "ratio"),
        "engine.apply_ms":
            (per_commit("apply_ns", "apply_async_ns", "apply_many_ns") / 1e6,
             "ms"),
        "wal.fsyncs_per_commit": (per_commit("wal_fsyncs_total"), "count"),
        "wal.synced_bytes_per_commit":
            (per_commit("wal_synced_bytes_total"), "B"),
        "file.checkpoints": (per_commit("checkpoints_total"), "1/commit"),
        "gc.collect_ms": (span_us("store.collect_garbage") / 1e3, "ms"),
        "host.ref_ms": (counts["host.ref_ms"], "ms"),
    }
    return {name: _metric(float(v), unit)
            for name, (v, unit) in values.items()}


def print_ledger(wl, layers: dict) -> None:
    """Per-layer self time over the traced operations, one section per
    kind of root operation, plus the tracing overhead measured on the
    interleaved untraced operations."""
    for root, rows in wl.ledger.self_times().items():
        calls, base = rows[root][:2]
        print(f"\n{root}: {calls} traced, {base:.1f} ms; self time by span")
        for name, (n, total_ms, self_ms) in sorted(
                rows.items(), key=lambda row: -row[1][2]):
            print(f"  {name:<28}{n:>7}{total_ms:>11.2f} ms total"
                  f"{self_ms:>11.2f} ms self {100 * self_ms / base:>6.1f}%")
        if root == "store.stabilize":
            stab = wl.stabilize_deltas
            for phase in ("walk_ns", "encode_ns", "commit_ns"):
                ms = lg.total(stab, phase) / 1e6
                print(f"    {phase[:-3]:<26}{ms:>11.2f} ms (stats())"
                      f"{100 * lg.ratio(ms, base):>26.1f}%")
        if root == "reopen":
            # Every record read touches one heap page, so page accesses
            # count the records an operation fetched and decoded.
            per_op = base / calls
            fetch = layers["engine.fetch_many_ms"]["value"]
            records = lg.ratio(
                lg.total(wl.op_deltas, "heap_page_hits_total")
                + lg.total(wl.op_deltas, "heap_page_misses_total"),
                len(wl.op_deltas))
            decode = layers["serializer.decode_us_per_record"]["value"] \
                * records / 1e3
            print(f"    engine fetch_many{fetch:>20.2f} ms/op (metrics())"
                  f"{100 * fetch / per_op:>18.1f}%")
            print(f"    decode of {records:.0f} records{decode:>14.2f} ms/op "
                  f"(probe rate){100 * decode / per_op:>13.1f}%")
    untraced, traced = lg.median(wl.op_ms), lg.median(wl.traced_op_ms)
    print(f"\ntracing overhead: {wl.op_name} p50 traced {traced:.3f} ms - "
          f"untraced {untraced:.3f} ms = {traced - untraced:+.3f} ms "
          f"({100 * lg.ratio(traced - untraced, untraced):+.1f}%)")


def print_human(wl, setup_times, run_s, ops, setup_host, host) -> None:
    for phase, speed in (("set-up", setup_host), ("loop", host)):
        print(f"host, {phase}: reference kernel {speed.median_ms():.3f} ms "
              f"(median of {len(speed.samples_ms)}, nominal "
              f"{hostref.NOMINAL_MS} ms); result times scaled by "
              f"{speed.scale():.4f}, raw times below")
    print(f"setup_s {lg.median(setup_times):.4f} s "
          f"(median of {len(setup_times)})")
    for name, values in wl.series().items():
        value, beyond = lg.tail(values)
        print(f"{name}.p50 {lg.median(values):.3f} ms  {name}.tail "
              f"(p{lg.TAIL_PCT}) {value:.3f} ms  n={len(values)}, {beyond} "
              f"beyond the tail")
    print(f"ops_per_s {ops / run_s:.3f} 1/s  ({ops} {wl.op_name} ops "
          f"in {run_s:.2f} s)")
    print(f"failed_frac {lg.ratio(wl.failed, wl.attempted):.4f} "
          f"({wl.failed}/{wl.attempted})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    work_base = ROOT / ".hpbench_work"
    work_root = Path(tempfile.mkdtemp(
        prefix=f"{args.workload}-{args.seed}-", dir=_mkdir(work_base)))
    # The forked compiler's temporary directories land here too, so
    # the run writes nothing outside the checkout.
    tempfile.tempdir = str(work_root)
    try:
        module, name = WORKLOADS[args.workload]
        cls = getattr(importlib.import_module(module), name)
        led = lg.Ledger(traced=bool(args.trace))
        # Each phase's times are scaled by the host's speed during it.
        setup_host = hostref.HostSpeed()
        setup_times = []
        wl = None
        for k in range(SETUPS):
            if wl is not None:
                wl.discard()
                shutil.rmtree(wl.directory)
            wl = cls(args.seed, str(work_root / f"store{k}"), led)
            start = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - start)
            for __ in range(SETUP_SAMPLES):
                setup_host.sample()
        # Garbage the set-ups left must not be collected on the clock.
        gc.collect()
        _reset_peak_rss()
        host = hostref.HostSpeed()
        ops = 0
        footprint = None
        paused = 0.0

        def elapsed() -> float:
            return time.perf_counter() - start - paused - wl.off_clock_s

        start = time.perf_counter()
        while ops < MIN_OPS or elapsed() < args.seconds:
            ops += wl.step()
            if footprint is None and ops >= MIN_OPS:
                # Memory and disk are read after a fixed number of
                # operations, so a faster program is not charged for
                # the extra operations it fits into the run.
                pause = time.perf_counter()
                footprint = (_peak_rss_mb(), *wl.disk_usage())
                paused += time.perf_counter() - pause
            if host.due():
                paused += host.sample()
        run_s = elapsed()
        counts = wl.finish()
        counts["host.ref_ms"] = host.median_ms()
        correct = wl.failed == 0 and counts.get("durable", True)
        print(f"workload {args.workload}  seed {args.seed}  "
              f"trace {args.trace}  closed loop, 1 client")
        print_human(wl, setup_times, run_s, ops, setup_host, host)
        if "durable" in counts:
            print(f"durability check after reopen: "
                  f"{'passed' if counts['durable'] else 'FAILED'}")
        if args.trace:
            metrics = per_layer(wl, counts)
            print_ledger(wl, metrics)
            out = _mkdir(ROOT / ".hpbench_out")
            led.write(str(out / f"spans-{args.workload}-{args.seed}.jsonl"))
        else:
            metrics = end_to_end(wl, setup_times, run_s, ops, footprint,
                                 setup_host, host)
        for name, m in metrics.items():
            print(f"  {name:<38}{m['value']:>16.6g} {m['unit']}")
        print(json.dumps({"correct": bool(correct),
                          "attempted": wl.attempted,
                          "failed": wl.failed,
                          "metrics": metrics}))
        return 0 if correct else 1
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_base.rmdir()
        except OSError:
            pass


def _mkdir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


if __name__ == "__main__":
    sys.exit(main())
