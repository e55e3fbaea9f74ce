"""JSAN — the Juggler sanitizer: every GRO engine in lockstep with its spec.

Like ASan, JSAN stops a run at the step that goes wrong, not where the
damage finally shows.  With ``JUGGLER_SANITIZE=1`` (or an install through
:mod:`repro.analysis.runtime`) every GRO engine hands itself to
:meth:`Sanitizer.arm` when built, with the spec that models it: a
:class:`~repro.analysis.spec.Spec` for ``JugglerGRO`` (so ``PrestoGRO``
too), a :class:`~repro.analysis.spec.GroSpec` for ``StandardGRO`` and
``ChainedGRO``.  Its ``receive_batch``, ``poll_complete``,
``check_timeouts`` and ``flush_all`` are then wrapped to feed the spec the
same input, and after every step the engine must match it: the step's
deliveries with their reasons; ``next_deadline()``; and the ``GroStats``
counters the spec keeps.  Juggler's flow table is held to more: its
transitions, admissions and removals (transient ones too, in order), each
touched flow's fields and runs, and the three lists and the flow index in
FIFO order.  With JSAN off nothing is wrapped.
"""

from __future__ import annotations

from repro.analysis.spec import TRANSITIONS
from repro.core.phases import Phase


class SanitizerError(AssertionError):
    """An engine left the spec (details in the message)."""


class Sanitizer:
    """Arms every engine built while installed; ``checks_run`` counts the
    steps compared, across all of them."""

    __slots__ = ("checks_run",)

    def __init__(self) -> None:
        self.checks_run = 0

    def arm(self, gro, spec, table=None) -> None:
        """Shadow ``gro`` from now on with ``spec``, a fresh model of it;
        ``table``, Juggler's flow table, is compared too."""
        Shadow(self, gro, spec, table)


class Shadow:
    """One engine and its spec, compared step by step."""

    def __init__(self, sanitizer: Sanitizer, gro, spec, table) -> None:
        self.sanitizer, self.gro, self.spec, self.table = sanitizer, gro, spec, table
        self.delivered: list = []
        self.log: list = []
        self.busy = False
        for what, model in (("receive_batch", spec.poll),
                            ("poll_complete", spec.poll_complete),
                            ("check_timeouts", spec.timer),
                            ("flush_all", spec.flush_all)):
            setattr(gro, what, self._stepper(what, getattr(gro, what), model))
        deliver_segment, log = gro._deliver_segment, self.log

        def delivered(segment, reason, now):
            self.delivered.append((segment.flow, segment.seq, segment.end_seq, reason))
            deliver_segment(segment, reason, now)

        gro._deliver_segment = delivered
        if table is None:
            return
        # The table's own transitions, admissions and removals, in order.
        add, move, remove = table.add, table.move, table.remove
        table.add = lambda e: (add(e), log.append((e.key, Phase.INITIAL, e.phase)))
        table.move = lambda e, phase, now=0: (log.append((e.key, e.phase, phase)),
                                             move(e, phase, now))
        table.remove = lambda e: (log.append((e.key, e.phase, None)), remove(e))

    def _stepper(self, what, body, model):
        """``body`` (an engine method) as one step, then ``model`` with the
        same arguments — the spec's method of the same signature."""

        def step(*args, **kwargs):
            if self.busy:  # poll_complete's own sweep is part of its step
                return body(*args, **kwargs)
            self.busy = True
            try:
                body(*args, **kwargs)
            finally:
                self.busy = False
            model(*args, **kwargs)
            args += tuple(kwargs.values())
            self._compare((what, args[-1]), args[0] if len(args) > 1 else ())

        return step

    def _compare(self, where, packets) -> None:
        self.sanitizer.checks_run += 1
        gro, spec = self.gro, self.spec
        illegal = [f"{old.value} -> {new.value}" for _, old, new in self.log
                   if new is not None and old is not new and (old, new) not in TRANSITIONS]
        if illegal:
            _fail(where, "illegal phase transition " + ", ".join(illegal)
                  + " (Table 1 / Figure 5)", self.log, spec.log)
        _same(where, "deliveries (flow, seq, end_seq, reason)", self.delivered, spec.delivered)
        _same(where, "phase transitions (flow, old, new)", self.log, spec.log)
        if self.table is not None:
            self._compare_table(where, packets)
        _same(where, "next_deadline()", gro.next_deadline(), spec.next_deadline())
        names = spec.COUNTERS
        _same(where, f"GroStats ({', '.join(names)})",
              [getattr(gro.stats, name) for name in names],
              [getattr(spec, name) for name in names])
        for log in (self.delivered, self.log, spec.delivered, spec.log):
            log.clear()

    def _compare_table(self, where, packets) -> None:
        spec, flows = self.spec, self.table._flows
        touched = dict.fromkeys(p.flow for p in packets)
        touched.update((row[0], None) for row in spec.delivered + spec.log)
        for key in touched:
            entry = flows.get(key)
            state = None if entry is None else (
                entry.phase, entry.seq_next, entry.lost_seq, entry.hole_since,
                entry.flush_timestamp, [(n.seq, n.end_seq) for n in entry.ofo.nodes])
            if state != spec.state(key):
                _fail(where, f"flow {key} (phase, seq_next, lost_seq, hole_since, "
                      "flush_timestamp, runs) differs from the spec", state, spec.state(key))
        for name, bucket in self.table._lists.items():
            if list(bucket) != list(spec.lists[name]):
                _fail(where, f"the {name} list differs from the spec (Figure 4, FIFO "
                      "order)", list(bucket), list(spec.lists[name]))
        _same(where, "the flow index", list(flows), list(spec.flows))


def _same(where: tuple, what: str, engine, spec) -> None:
    if engine != spec:
        _fail(where, f"{what} differ from the spec", engine, spec)


def _fail(where: tuple, what: str, engine, spec) -> None:
    raise SanitizerError(f"JSAN: {what}, after {where[0]} at t={where[1]}\n"
                         f"  engine: {engine}\n  spec:   {spec}")
