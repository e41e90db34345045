"""``hp-session``: one developer pressing Go on a hyper-program library.

A closed loop with one client.  The store holds ~800 people and accounts
plus a library of 100 hyper-programs (~1.9k stored objects), and the link
registry runs in weak mode.  Each press replaces one library program with
an edited copy and presses Go on it: ``add_hp`` -> textual form ->
direct compile -> ``run_main``, whose compiled code dereferences its links
through ``get_link``.  Every ``PRESSES_PER_COMMIT`` presses the session
stabilises, and every ``COMMITS_PER_GC`` commits it collects garbage,
which frees the replaced programs and clears their weak registry entries.
After ``SESSION_CYCLES`` commits the session starts over on a fresh store.
"""

from __future__ import annotations

import shutil
import time

from repro import DynamicCompiler, LinkStore, open_store

import ledger as lg
from model import library_program, make_population, make_registry
from workload import Workload, press_go

PEOPLE = 400
ACCOUNTS = 400
LIBRARY = 100
PRESSES_PER_COMMIT = 8
COMMITS_PER_GC = 4
#: Commit cycles per session.  The registry keeps one entry per press
#: and ``add_hp`` scans it, so a session ends here and a fresh one is set
#: up off the clock: every run then spans the same registry sizes,
#: whatever the program's speed.
SESSION_CYCLES = 50
#: Presses compiled through a forked interpreter at the end of a traced
#: run (the paper's fallback mechanism, Section 4.3).  Too unsteady for
#: an end-to-end metric, so it never runs in the timed loop.
FORKED_PRESSES = 4


class HpSession(Workload):
    op_name = "go"

    def __init__(self, seed: int, directory: str, ledger: lg.Ledger):
        super().__init__(seed, directory, ledger)
        self.commit_ms: list[float] = []
        self.gc_ms: list[float] = []
        self.dirtied: list[int] = []
        #: Commit cycles run, over all sessions, and in this session.
        self.cycles = 0
        self.session_cycles = 0
        #: Time spent setting up later sessions, which is not measured.
        self.off_clock_s = 0.0

    # -- set-up --------------------------------------------------------

    def setup(self) -> None:
        registry = make_registry()
        self.store = open_store(f"file:{self.directory}", registry=registry)
        self.links = LinkStore(self.store, weak=True)
        self.password = self.links.password
        if self.ledger.traced:
            self.ledger.wrap(self.links, "get_link", "linkstore.get_link")
        DynamicCompiler.install(self.links)
        self.people, self.accounts = make_population(self.rng, PEOPLE,
                                                     ACCOUNTS)
        self.store.set_root("people", self.people)
        self.store.set_root("accounts", self.accounts)
        self.library = []
        self.store.set_root("library", self.library)
        for index in range(LIBRARY):
            program, check = library_program(index, self.rng, self.people,
                                             self.accounts)
            self.library.append(program)
            if not check(self._go(program, "direct")):
                raise RuntimeError(f"library program {index} misbehaved")
        self.store.stabilize()
        self.store.collect_garbage()

    def discard(self) -> None:
        self.store.close()

    # -- one Go press --------------------------------------------------

    def _go(self, program, mechanism: str):
        return press_go(self.ledger, self.links, self.password, program,
                        mechanism)

    def _edit(self) -> tuple:
        """Replace one library slot with an edited copy; returns the
        copy, its check, and the objects the press will dirty: the new
        program's own objects plus every object its object links name
        (the templates' programs mutate exactly those)."""
        slot = self.rng.randrange(LIBRARY)
        program, check = library_program(slot, self.rng, self.people,
                                         self.accounts)
        self.library[slot] = program
        touched = {id(program), id(program.the_links)}
        for link in program.the_links:
            touched.add(id(link))
            if not link.is_primitive:
                touched.add(id(link.hyper_link_object))
        return program, check, touched

    def press(self, sequence: int) -> set[int]:
        program, check, touched = self._edit()
        traced = self.ledger.arm(sequence)
        self.attempted += 1
        start = time.perf_counter_ns()
        with self.ledger.span("go"):
            result = lg.guarded(self._go, program, "direct")
        elapsed = (time.perf_counter_ns() - start) / 1e6
        (self.traced_op_ms if traced else self.op_ms).append(elapsed)
        if result is lg.FAILED or not check(result):
            self.failed += 1
        return touched

    # -- the loop ------------------------------------------------------

    def step(self) -> int:
        """One cycle: ``PRESSES_PER_COMMIT`` presses and one commit, and
        a collection every ``COMMITS_PER_GC`` cycles.  A traced run
        traces every other cycle whole, so the first press after a
        commit lands in both halves alike."""
        if self.session_cycles == SESSION_CYCLES:
            start = time.perf_counter()
            self.ledger.arm(0)
            self.discard()
            shutil.rmtree(self.directory)
            self.setup()
            self.session_cycles = 0
            self.off_clock_s += time.perf_counter() - start
        cycle = self.cycles
        dirty: set[int] = set()
        for __ in range(PRESSES_PER_COMMIT):
            dirty |= self.press(cycle)
        # The library list and the registry's programs list change on
        # every press, and each press adds one weak entry.
        self.dirtied.append(len(dirty) + 2 + PRESSES_PER_COMMIT)
        self.commit(cycle)
        self.cycles += 1
        self.session_cycles += 1
        if self.session_cycles % COMMITS_PER_GC == 0:
            self.collect(self.cycles // COMMITS_PER_GC)
        return PRESSES_PER_COMMIT

    def disk_usage(self) -> tuple[int, int]:
        return lg.dir_bytes(self.directory), \
            self.store.statistics().object_count

    def commit(self, sequence: int) -> None:
        traced = self.ledger.arm(sequence)
        before = lg.telemetry(self.store) if traced else None
        with self.ledger.span("store.stabilize"):
            start = time.perf_counter_ns()
            self.store.stabilize()
            elapsed = (time.perf_counter_ns() - start) / 1e6
        if traced:
            self.stabilize_deltas.append(
                lg.delta(lg.telemetry(self.store), before))
            self.stabilize_deltas[-1]["dirtied"] = self.dirtied[-1]
        else:
            self.commit_ms.append(elapsed)

    def collect(self, sequence: int) -> None:
        traced = self.ledger.arm(sequence)
        with self.ledger.span("store.collect_garbage"):
            start = time.perf_counter_ns()
            self.store.collect_garbage()
            elapsed = (time.perf_counter_ns() - start) / 1e6
        if not traced:
            self.gc_ms.append(elapsed)

    # -- after the loop ------------------------------------------------

    def finish(self) -> dict:
        """Traced probes, end-of-run counters; closes the store."""
        if self.ledger.traced:
            for __ in range(FORKED_PRESSES):
                program, check, __ = self._edit()
                self.ledger.arm(1)
                self.attempted += 1
                with self.ledger.span("go.forked"):
                    result = lg.guarded(self._go, program, "forked")
                if result is lg.FAILED or not check(result):
                    self.failed += 1
        self.store.stabilize()
        counts = {
            "linkstore.registry_entries": self.links.count(self.password),
            "linkstore.collected":
                self.links.collected_count(self.password),
            "live_objects": self.store.statistics().object_count,
        }
        self.store.close()
        DynamicCompiler.uninstall()
        return counts

    def series(self) -> dict[str, list[float]]:
        return {**super().series(), "commit_ms": self.commit_ms,
                "gc_ms": self.gc_ms}
