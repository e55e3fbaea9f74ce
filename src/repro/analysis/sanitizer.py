"""JSAN — the Juggler state-machine sanitizer.

ASan catches the write through the dangling pointer at the moment it
happens, not when the corrupted heap finally crashes something unrelated.
JSAN does the same for the Juggler state machine: with ``JUGGLER_SANITIZE=1``
(or an explicit install through :mod:`repro.analysis.runtime`), every
phase transition, admission, eviction and flush is checked against the
paper's contracts at the moment it executes:

* **Table 1 / Figure 5** — phase-transition legality (e.g. post-merge can
  only re-enter active merging; nothing ever returns to build-up);
* **Table 2** — flush-reason validity (an ``inseq_timeout`` flush requires
  an in-sequence head whose clock actually expired, an ``ofo_timeout``
  flush requires an armed hole, ...);
* **Figure 4** — every flow entry resident in exactly one of the three
  lists, with list counts matching the gauges the engine exports;
* ofo-queue sequence monotonicity and non-overlap;
* the §4.3 eviction preference (inactive first, loss recovery last).

The structures being checked each expose ``invariant_violations()``
(:class:`~repro.core.flow_entry.FlowEntry`,
:class:`~repro.core.ofo_queue.OfoQueue`,
:class:`~repro.core.gro_table.GroTable`); this module owns the transition
and policy tables and turns violations into loud, readable
:class:`SanitizerError` diagnostics.  When disabled the hooks cost one
``if self.sanitizer is not None`` test and allocate nothing —
``tests/integration/test_layer_budgets.py`` enforces that (zero calls into
``repro/analysis``, zero bytes), the same contract ``repro.trace`` honours.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.core.flush import FlushReason
from repro.core.phases import Phase


class SanitizerError(AssertionError):
    """A Juggler invariant was violated (details in the message)."""


#: Table 1 / Figure 5: the legal phase transitions.  Self-transitions are
#: legal re-enqueues (they implement the FIFO ordering eviction uses).
LEGAL_TRANSITIONS: FrozenSet[Tuple[Phase, Phase]] = frozenset({
    (Phase.INITIAL, Phase.BUILD_UP),       # first packet, build-up enabled
    (Phase.INITIAL, Phase.ACTIVE_MERGE),   # build-up ablation disabled
    (Phase.BUILD_UP, Phase.ACTIVE_MERGE),  # first flush pins seq_next
    (Phase.ACTIVE_MERGE, Phase.POST_MERGE),     # queue drained
    (Phase.ACTIVE_MERGE, Phase.LOSS_RECOVERY),  # ofo_timeout fired
    (Phase.POST_MERGE, Phase.ACTIVE_MERGE),     # fresh data arrived
    (Phase.LOSS_RECOVERY, Phase.ACTIVE_MERGE),  # the hole was filled
})

#: Flush reasons JugglerGRO may emit for buffered data (Table 2 plus the
#: engine-internal bookkeeping reasons).  POLL_END / OUT_OF_SEQUENCE are
#: the *standard* GRO's failure modes — Juggler emitting one is a bug.
JUGGLER_FLUSH_REASONS: FrozenSet[FlushReason] = frozenset({
    FlushReason.RETRANSMISSION,
    FlushReason.SEGMENT_FULL,
    FlushReason.FLAGS,
    FlushReason.UNMERGEABLE,
    FlushReason.INSEQ_TIMEOUT,
    FlushReason.OFO_TIMEOUT,
    FlushReason.EVICTION,
    FlushReason.DUPLICATE,
    FlushReason.SHUTDOWN,
})

#: Reasons for the event-driven (rows 1-4 of Table 2) in-sequence flushes.
EVENT_FLUSH_REASONS: FrozenSet[FlushReason] = frozenset({
    FlushReason.SEGMENT_FULL,
    FlushReason.FLAGS,
    FlushReason.UNMERGEABLE,
})


class Sanitizer:
    """Runtime invariant checker for the Juggler engine and its table.

    One instance can serve any number of engines; it is stateless apart
    from the ``checks_run`` counter (useful to assert coverage in tests).
    """

    __slots__ = ("checks_run",)

    def __init__(self) -> None:
        self.checks_run = 0

    # -- failure plumbing ----------------------------------------------------

    def _fail(self, what: str, *details: str) -> None:
        lines = [f"JSAN: {what}"] + [f"  {d}" for d in details]
        raise SanitizerError("\n".join(lines))

    # -- Table 1: phase lifecycle --------------------------------------------

    def check_transition(self, entry, old_phase: Phase,
                         new_phase: Phase) -> None:
        """A ``gro_table.move`` must follow Table 1 / Figure 5."""
        self.checks_run += 1
        if old_phase is new_phase:
            return  # re-enqueue at the tail: FIFO bookkeeping, not a move
        if (old_phase, new_phase) not in LEGAL_TRANSITIONS:
            self._fail(
                f"illegal phase transition {old_phase.value} -> "
                f"{new_phase.value}",
                f"flow: {entry.key}",
                "legal successors of "
                f"{old_phase.value}: "
                + (", ".join(sorted(t.value for f, t in LEGAL_TRANSITIONS
                                    if f is old_phase)) or "(none)"),
                "see Table 1 / Figure 5 of the paper",
            )

    def check_admission(self, table, entry) -> None:
        """A new entry enters storage in build-up or active merge only."""
        self.checks_run += 1
        if entry.phase not in (Phase.BUILD_UP, Phase.ACTIVE_MERGE):
            self._fail(
                f"flow admitted to gro_table in phase {entry.phase.value}",
                f"flow: {entry.key}",
                "the transient INITIAL phase must resolve to build_up or "
                "active_merge before storage (§4.2.1)",
            )
        if len(table) > table.capacity:
            self._fail(
                f"gro_table over capacity: {len(table)} > {table.capacity}",
                f"flow: {entry.key}",
                "caller must evict before admitting (§4.3)",
            )

    # -- Figure 4: list residency --------------------------------------------

    def check_table(self, table) -> None:
        """Full audit: residency, counts and every entry's invariants."""
        self.checks_run += 1
        violations = table.invariant_violations()
        if violations:
            self._fail("gro_table invariant violation", *violations)

    def check_flow(self, entry) -> None:
        """Audit one entry (and its ofo queue) after a mutation."""
        self.checks_run += 1
        violations = entry.invariant_violations()
        if violations:
            self._fail(f"flow_entry invariant violation on {entry.key}",
                       *violations)

    def check_ofo(self, entry) -> None:
        """Audit only the ofo queue (post-insert hot-path hook)."""
        self.checks_run += 1
        violations = entry.ofo.invariant_violations()
        if violations:
            self._fail(f"ofo_queue invariant violation on {entry.key}",
                       *violations)

    # -- Table 2: flush validity ---------------------------------------------

    def check_event_flush(self, entry, reason: FlushReason) -> None:
        """Rows 1-4 of Table 2: event-driven flush of an in-sequence head."""
        self.checks_run += 1
        if reason not in EVENT_FLUSH_REASONS:
            self._fail(
                f"event-driven flush tagged {reason.value}",
                f"flow: {entry.key}",
                "event checks may only flush for segment_full, flags or "
                "unmergeable (Table 2 rows 1-4)",
            )
        head = entry.ofo.head
        if head is None or head.seq != entry.seq_next:
            self._fail(
                f"{reason.value} flush of a head that is not in sequence",
                f"flow: {entry.key}",
                f"head seq: {None if head is None else head.seq}, "
                f"seq_next: {entry.seq_next}",
            )

    def check_inseq_timeout(self, entry, now: int, timeout: int) -> None:
        """Row 5 of Table 2: the in-sequence clock must have expired."""
        self.checks_run += 1
        if not entry.head_in_sequence:
            self._fail(
                "inseq_timeout flush without an in-sequence head",
                f"flow: {entry.key}",
                f"head seq: "
                f"{None if entry.ofo.head is None else entry.ofo.head.seq}, "
                f"seq_next: {entry.seq_next}",
            )
        elapsed = now - entry.flush_timestamp
        if elapsed < timeout:
            self._fail(
                "inseq_timeout flush before the timeout expired",
                f"flow: {entry.key}",
                f"elapsed: {elapsed}ns < inseq_timeout: {timeout}ns",
            )

    def check_ofo_timeout(self, entry, now: int, timeout: int) -> None:
        """Row 6 of Table 2: an armed hole must have aged past timeout."""
        self.checks_run += 1
        if entry.hole_since is None:
            self._fail(
                "ofo_timeout flush with no hole armed",
                f"flow: {entry.key}",
                "hole_since is None — nothing was presumed lost",
            )
        elapsed = now - entry.hole_since
        if elapsed < timeout:
            self._fail(
                "ofo_timeout flush before the timeout expired",
                f"flow: {entry.key}",
                f"elapsed: {elapsed}ns < ofo_timeout: {timeout}ns",
            )

    def check_flush_reason(self, flow, reason: FlushReason) -> None:
        """Juggler never emits the standard-GRO failure reasons."""
        self.checks_run += 1
        if reason not in JUGGLER_FLUSH_REASONS:
            self._fail(
                f"Juggler flushed with reason {reason.value}",
                f"flow: {flow}",
                "poll_end / out_of_sequence / passthrough are standard-GRO "
                "reasons; Juggler emitting one means the resilient path "
                "was bypassed",
            )

    # -- §4.3: eviction preference -------------------------------------------

    def check_eviction(self, table, victim, policy: str) -> None:
        """The victim must respect the configured preference order."""
        self.checks_run += 1
        if policy == "fifo":
            return
        if policy == "inactive_first":
            order = ("inactive", "active", "loss_recovery")
        elif policy == "active_first":
            order = ("active", "loss_recovery", "inactive")
        else:
            self._fail(f"unknown eviction policy {policy!r}")
            return
        victim_list = victim.phase.list_name
        lens = {
            "active": table.active_len,
            "inactive": table.inactive_len,
            "loss_recovery": table.loss_recovery_len,
        }
        for list_name in order:
            if lens[list_name] > 0:
                if victim_list != list_name:
                    self._fail(
                        f"eviction from the {victim_list} list while the "
                        f"{list_name} list is non-empty",
                        f"victim: {victim.key} (phase "
                        f"{victim.phase.value})",
                        f"policy {policy!r} prefers: "
                        + " > ".join(order),
                        f"list lengths: {lens}",
                    )
                return
        self._fail("eviction from an empty table",
                   f"victim: {victim.key}")

