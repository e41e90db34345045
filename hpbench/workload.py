"""What every workload shares: its seeded inputs, store directory,
ledger, samples and failure counts, and the interface ``run.py`` drives.

``run.py`` calls ``setup()`` (timed, repeated on fresh instances and
``discard()``-ed), then ``step()`` until the run's time is up,
``disk_usage()`` once after a fixed number of operations, and
``finish()`` last.  ``op_ms`` holds the untraced latencies of the
workload's own operation, ``traced_op_ms`` the traced ones.
"""

from __future__ import annotations

import random

from repro import DynamicCompiler, LinkStore
from repro.core.textual import generate_textual_form_with_map

import ledger as lg


class Workload:
    #: Name of the workload's operation, and of its root span.
    op_name = ""
    #: Time spent inside ``step()`` on work that is not measured.
    off_clock_s = 0.0

    def __init__(self, seed: int, directory: str, ledger: lg.Ledger):
        self.rng = random.Random(seed)
        self.directory = directory
        self.ledger = ledger
        self.op_ms: list[float] = []
        self.traced_op_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        #: Counter deltas per traced commit, per traced operation and
        #: per traced data-root fault, read by the per-layer ledger.
        self.stabilize_deltas: list[dict] = []
        self.op_deltas: list[dict] = []
        self.fault_deltas: list[dict] = []

    def setup(self) -> None:
        raise NotImplementedError

    def discard(self) -> None:
        """Release what ``setup()`` opened."""

    def op(self, sequence: int) -> None:
        raise NotImplementedError

    def step(self) -> int:
        """Run one unit of the loop; returns the operations completed."""
        self.op(self.attempted)
        return 1

    def disk_usage(self) -> tuple[int, int]:
        """``(store directory bytes, stored objects)``."""
        raise NotImplementedError

    def finish(self) -> dict:
        """End-of-run checks and counters; ``live_objects`` is required,
        ``durable`` is reported when the workload checks durability."""
        raise NotImplementedError

    def series(self) -> dict[str, list[float]]:
        """Untraced latency series to print, by name."""
        return {f"{self.op_name}_ms": self.op_ms}


def press_go(ledger: lg.Ledger, links: LinkStore, password: str, program,
             mechanism: str = "direct"):
    """Press Go: ``DynamicCompiler.compile_hyper_program``'s own
    sequence (``add_hp`` -> textual form -> compile) spelled out so each
    layer call is a span boundary, then ``run_main``; returns its
    result."""
    span = ledger.span
    with span("linkstore.add_hp"):
        hp_index = links.add_hp(program, password)
    with span("textual.generate"):
        source, bindings, __ = generate_textual_form_with_map(
            program, hp_index, password, links.store.registry)
    with span("compiler.forked" if mechanism == "forked"
              else "compiler.compile_classes"):
        klass = DynamicCompiler.compile_classes(
            [program.get_class_name()], [source], bindings,
            mechanism=mechanism)[0]
    with span("compiler.run_main"):
        return DynamicCompiler.run_main(klass)
