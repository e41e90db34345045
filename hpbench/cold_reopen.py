"""``cold-reopen``: open a stored store, fault one root, run one program.

A closed loop with one client.  Set-up builds a store holding a
hyper-program library (100 programs over 100 people and 100 accounts,
registered in the weak link registry) plus ``ROOTS`` data roots, each a
``Holder`` with a ``CHAIN``-node chain and a ``FAN``-leaf fan-out, and a
stored probe hyper-program per root whose object and field-location
links point into that root's subgraph.  Each operation opens a fresh
``ObjectStore`` on the directory with ``?cache_objects=CACHE`` (smaller
than the ~1.3k-object faulted subgraph, so the cache demotes), faults
one seeded root, presses Go on its probe, checks the chain length, the
fan-out size and that the probe's result is the very node the chain walk
reached, then closes.  It writes nothing.

The probes are stored but not registered, so each session's first press
registers its probe in memory only; the registry fault then pulls in the
library, not the other roots' chains.
"""

from __future__ import annotations

import time

from repro import DynamicCompiler, LinkStore, open_store
from repro.store.serializer import Record

import ledger as lg
from model import (
    Holder,
    Node,
    library_program,
    make_population,
    make_registry,
    probe_program,
)
from workload import Workload, press_go

ROOTS = 4
CHAIN = 1000
FAN = 300
CACHE = 500
LIBRARY = 100


class ColdReopen(Workload):
    op_name = "reopen"

    def __init__(self, seed: int, directory: str, ledger: lg.Ledger):
        super().__init__(seed, directory, ledger)
        #: root index -> (probe depth, the probe's expected value)
        self.probes: dict[int, tuple[int, int]] = {}

    def setup(self) -> None:
        store = open_store(f"file:{self.directory}",
                           registry=make_registry())
        try:
            links = LinkStore(store, weak=True)
            DynamicCompiler.install(links)
            people, accounts = make_population(self.rng, 100, 100)
            store.set_root("people", people)
            store.set_root("accounts", accounts)
            library = []
            for index in range(LIBRARY):
                program, __ = library_program(index, self.rng, people,
                                              accounts)
                library.append(program)
                DynamicCompiler.add_hp(program, links.password)
            store.set_root("library", library)
            for root in range(ROOTS):
                chain = None
                for __ in range(CHAIN):
                    chain = Node(self.rng.randrange(1 << 20), chain)
                fan = [Node(i) for i in range(FAN)]
                store.set_root(f"data{root}",
                               Holder(f"data{root}", chain, fan))
                depth = self.rng.randrange(CHAIN)
                bonus = self.rng.randint(1, 100)
                node = chain
                for __ in range(depth):
                    node = node.nxt
                store.set_root(f"probe{root}",
                               probe_program(f"Probe{root}", node, bonus))
                self.probes[root] = (depth, node.val + bonus)
            store.stabilize()
        finally:
            DynamicCompiler.uninstall()
            store.close()

    # -- one operation -------------------------------------------------

    def _reopen(self, root: int, traced: bool):
        """open -> fault -> first hyper-program result; returns the
        store, the holder and the result."""
        span = self.ledger.span
        with span("store.from_url"):
            store = open_store(
                f"file:{self.directory}?cache_objects={CACHE}",
                registry=make_registry())
        before = lg.telemetry(store) if traced else None
        with span("store.get_root"):
            holder = store.get_root(f"data{root}")
        if traced:
            self.fault_deltas.append(lg.delta(lg.telemetry(store), before))
        with span("linkstore.open"):
            links = LinkStore(store, weak=True)
            # The first read of the registry root faults it, and with it
            # the whole library its weak entries reach.
            password = links.password
        if traced:
            self.ledger.wrap(links, "get_link", "linkstore.get_link")
        DynamicCompiler.install(links)
        program = store.get_root(f"probe{root}")
        result = press_go(self.ledger, links, password, program)
        return store, holder, result

    def _check(self, root: int, holder, result) -> bool:
        depth, expected = self.probes[root]
        node, length, probed = holder.chain, 0, None
        while node is not None:
            if length == depth:
                probed = node
            length += 1
            node = node.nxt
        return (holder.name == f"data{root}" and length == CHAIN
                and len(holder.fan) == FAN
                and all(type(leaf) is Node and leaf.val == i
                        for i, leaf in enumerate(holder.fan))
                and probed is not None
                and result == (probed, expected)
                and result[0] is probed)

    def op(self, sequence: int) -> None:
        root = self.rng.randrange(ROOTS)
        traced = self.ledger.arm(sequence)
        self.attempted += 1
        start = time.perf_counter_ns()
        with self.ledger.span("reopen"):
            opened = lg.guarded(self._reopen, root, traced)
        elapsed = (time.perf_counter_ns() - start) / 1e6
        if opened is lg.FAILED:
            self.failed += 1
            return
        store, holder, result = opened
        try:
            if traced:
                # Read before closing: the op's whole engine and cache
                # footprint, from open to first result.
                self.op_deltas.append(lg.telemetry(store))
            if not self._check(root, holder, result):
                self.failed += 1
        finally:
            store.close()
            DynamicCompiler.uninstall()
        (self.traced_op_ms if traced else self.op_ms).append(elapsed)

    def disk_usage(self) -> tuple[int, int]:
        store = open_store(f"file:{self.directory}",
                           registry=make_registry())
        try:
            return lg.dir_bytes(self.directory), \
                store.statistics().object_count
        finally:
            store.close()

    # -- after the loop ------------------------------------------------

    def finish(self) -> dict:
        store = open_store(f"file:{self.directory}",
                           registry=make_registry())
        try:
            counts = {"live_objects": store.statistics().object_count}
            if self.ledger.traced:
                counts["decode_us_per_record"] = self._decode_probe(store)
        finally:
            store.close()
        return counts

    def _decode_probe(self, store) -> float:
        """Decode one root's faulted records through the serializer's
        public decode, timing only the decode."""
        holder = store.get_root("data0")
        objects = [holder, holder.fan, *holder.fan]
        node = holder.chain
        while node is not None:
            objects.append(node)
            node = node.nxt
        raw = store.engine.fetch_many([store.oid_of(obj) for obj in objects])
        start = time.perf_counter_ns()
        for data in raw.values():
            Record.from_bytes(data)
        return (time.perf_counter_ns() - start) / 1e3 / len(raw)
