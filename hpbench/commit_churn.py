"""``commit-churn``: small dirty sets committed over a cached graph.

A closed loop with one client.  The graph is 3,000 ``Item`` objects, each
with its own tags list, held by an ``items`` list and a ``key -> item``
index dict (~6k stored objects, all in the unbounded object cache).  Each
operation dirties ~1% of it (field writes, tag appends, peer re-points,
a few items attached and detached) and then stabilises, so the walk,
encode, engine apply and WAL fsync are nearly all the work: nothing is
compiled and nothing is faulted.  The graph keeps its shape however
many operations a run fits in: every item always has a peer and
``MAX_TAGS`` tags (an append drops the oldest tag), and a detached
item's referrers are re-pointed to attached items, so nothing detached
stays reachable.

The benchmark keeps a plain-Python model of the graph.  After the run it
reopens the store from disk and compares every reachable item with the
model, so every acknowledged commit is shown to be readable, then checks
referential integrity.
"""

from __future__ import annotations

import time

from repro import open_store

import ledger as lg
from model import Item, make_registry
from workload import Workload

ITEMS = 3000
FIELD_WRITES = 40
TAG_APPENDS = 16
PEER_MOVES = 8
ATTACHES = 4
MAX_TAGS = 8


class CommitChurn(Workload):
    op_name = "commit"

    def __init__(self, seed: int, directory: str, ledger: lg.Ledger):
        super().__init__(seed, directory, ledger)
        #: key -> [val, peer key, tags]: the expected state of
        #: every attached item (the peer key is None only while the item
        #: is being built).
        self.model: dict[int, list] = {}
        #: key -> keys of the items whose peer it is.
        self.referrers: dict[int, set[int]] = {}
        self.next_key = 0

    def _new_item(self) -> Item:
        key = self.next_key
        self.next_key += 1
        val = self.rng.randrange(1 << 20)
        tags = [key] + [self.rng.randrange(1 << 16)
                        for __ in range(MAX_TAGS - 1)]
        self.model[key] = [val, None, list(tags)]
        self.referrers[key] = set()
        return Item(key, val, tags)

    def _set_peer(self, item: Item, peer) -> None:
        if item.peer is not None:
            self.referrers[item.peer.key].discard(item.key)
        item.peer = peer
        self.model[item.key][1] = peer.key
        self.referrers[peer.key].add(item.key)

    def setup(self) -> None:
        self.store = open_store(f"file:{self.directory}",
                                registry=make_registry())
        self.items = [self._new_item() for _ in range(ITEMS)]
        self.index = {item.key: item for item in self.items}
        for item in self.items:
            self._set_peer(item, self.rng.choice(self.items))
        self.store.set_root("items", self.items)
        self.store.set_root("index", self.index)
        self.store.stabilize()

    def discard(self) -> None:
        self.store.close()

    # -- one operation -------------------------------------------------

    def _mutate(self) -> int:
        """Dirty ~1% of the graph, mirroring every change in the model;
        returns how many distinct objects were dirtied."""
        rng, items, model = self.rng, self.items, self.model
        dirty: set[int] = set()
        for item in rng.sample(items, FIELD_WRITES):
            item.val = rng.randrange(1 << 20)
            model[item.key][0] = item.val
            dirty.add(id(item))
        for item in rng.sample(items, TAG_APPENDS):
            tag = rng.randrange(1 << 16)
            item.tags.pop(0)
            model[item.key][2].pop(0)
            item.tags.append(tag)
            model[item.key][2].append(tag)
            dirty.add(id(item.tags))
        for item in rng.sample(items, PEER_MOVES):
            self._set_peer(item, rng.choice(items))
            dirty.add(id(item))
        for __ in range(ATTACHES):
            pos = rng.randrange(len(items))
            gone = items[pos]
            items[pos] = items[-1]
            items.pop()
            del self.index[gone.key]
            # Nothing attached may reach the detached item afterwards.
            self.referrers[gone.peer.key].discard(gone.key)
            for key in sorted(self.referrers.pop(gone.key) - {gone.key}):
                holder = self.index[key]
                holder.peer = None  # its referrer set went with gone
                self._set_peer(holder, rng.choice(items))
                dirty.add(id(holder))
            del model[gone.key]
            fresh = self._new_item()
            self._set_peer(fresh, rng.choice(items))
            items.append(fresh)
            self.index[fresh.key] = fresh
            dirty.update((id(fresh), id(fresh.tags)))
        return len(dirty) + 2  # plus the items list and the index dict

    def op(self, sequence: int) -> None:
        dirtied = self._mutate()
        traced = self.ledger.arm(sequence)
        before = lg.telemetry(self.store) if traced else None
        self.attempted += 1
        start = time.perf_counter_ns()
        with self.ledger.span("store.stabilize"):
            written = lg.guarded(self.store.stabilize)
        elapsed = (time.perf_counter_ns() - start) / 1e6
        if written is lg.FAILED or written < 1:
            self.failed += 1
        if traced:
            self.traced_op_ms.append(elapsed)
            self.stabilize_deltas.append(
                lg.delta(lg.telemetry(self.store), before))
            self.stabilize_deltas[-1]["dirtied"] = dirtied
        else:
            self.op_ms.append(elapsed)

    def disk_usage(self) -> tuple[int, int]:
        return lg.dir_bytes(self.directory), \
            self.store.statistics().object_count

    # -- after the loop ------------------------------------------------

    def finish(self) -> dict:
        """Close, reopen from disk and compare with the model."""
        self.store.close()
        store = open_store(f"file:{self.directory}",
                           registry=make_registry())
        try:
            live_objects = store.statistics().object_count
            durable = (self._matches(store)
                       and store.verify_referential_integrity() == [])
        finally:
            store.close()
        return {"live_objects": live_objects, "durable": durable}

    def _matches(self, store) -> bool:
        items = store.get_root("items")
        index = store.get_root("index")
        keys = [item.key for item in self.items]
        if [item.key for item in items] != keys \
                or sorted(index) != sorted(keys) \
                or any(index[item.key] is not item for item in items):
            return False
        seen: set[int] = set()
        work = list(items)
        while work:
            item = work.pop()
            if item.key in seen:
                continue
            seen.add(item.key)
            if item.key not in self.model:
                return False  # a detached item is still reachable
            val, peer, tags = self.model[item.key]
            if item.val != val or item.tags != tags:
                return False
            if (item.peer.key if item.peer is not None else None) != peer:
                return False
            if item.peer is not None:
                work.append(item.peer)
        return True
