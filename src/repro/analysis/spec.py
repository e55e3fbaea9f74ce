"""The GRO engines' specs as models, written from the paper.

A :class:`Spec` is Juggler: Table 1, Table 2 and §4.3.  A :class:`GroSpec`
is §3.1's two baselines, standard GRO and linked-list GRO.  Each holds one
engine's flows in plain lists and ints, written from the paper rather than
from :mod:`repro.core`: it reads packet headers and ``JugglerConfig`` values
only.  JSAN (:mod:`repro.analysis.sanitizer`) runs one beside every engine
and compares what the two deliver and become.
"""

from __future__ import annotations

from collections import Counter

from repro.core.flush import FlushReason as R
from repro.core.phases import Phase as P
from repro.net.constants import MAX_GRO_SEGMENT, MSS

#: Table 1 / Figure 5: the legal phase transitions.
TRANSITIONS = frozenset({(P.INITIAL, P.BUILD_UP), (P.INITIAL, P.ACTIVE_MERGE),  # admission
    (P.BUILD_UP, P.ACTIVE_MERGE),  # the first flush pins seq_next
    (P.ACTIVE_MERGE, P.POST_MERGE), (P.POST_MERGE, P.ACTIVE_MERGE),  # drained, fresh data
    (P.ACTIVE_MERGE, P.LOSS_RECOVERY), (P.LOSS_RECOVERY, P.ACTIVE_MERGE)})  # lost, found
#: Figure 4: the list each stored phase lives on.
LIST = {P.BUILD_UP: "active", P.ACTIVE_MERGE: "active",
        P.POST_MERGE: "inactive", P.LOSS_RECOVERY: "loss_recovery"}
#: §4.3: the lists a full table evicts from, in order ("fifo": the oldest flow).
EVICTION_ORDER = {"inactive_first": ("inactive", "active", "loss_recovery"),
                  "active_first": ("active", "loss_recovery", "inactive"), "fifo": ()}


class Flow:
    """One flow entry (§4.1); ``runs`` are ``[seq, end, sig, closed]``."""

    __slots__ = ("phase", "seq_next", "lost_seq", "hole_since", "flushed_at", "runs")

    def __init__(self, phase: P, seq_next, now: int):
        self.phase, self.seq_next, self.lost_seq = phase, seq_next, None
        self.hole_since, self.flushed_at, self.runs = None, now, []


class Spec:
    """The flows of one GRO table, driven step by step."""

    #: The ``GroStats`` counters the spec keeps too (``segments``: deliveries).
    COUNTERS = ("packets", "flows_created", "merges", "duplicates", "segments",
                "flush_reasons", "evictions")

    def __init__(self, config):
        self.config = config
        self.flows, self.delivered, self.log = {}, [], []  # admission order
        self.lists = {"active": {}, "inactive": {}, "loss_recovery": {}}
        self.packets = self.flows_created = self.merges = self.duplicates = 0
        self.flush_reasons, self.evictions = Counter(), Counter()

    @property
    def segments(self) -> int:
        return sum(self.flush_reasons.values())

    def state(self, key):
        """A flow's fields and ``(seq, end)`` runs; None when untracked."""
        f = self.flows.get(key)
        return None if f is None else (f.phase, f.seq_next, f.lost_seq, f.hole_since,
                                       f.flushed_at, [(r[0], r[1]) for r in f.runs])

    def next_deadline(self):
        """The earliest row 5-6 deadline (inactive flows hold nothing)."""
        c = self.config
        fs = [*self.lists["active"].values(), *self.lists["loss_recovery"].values()]
        due = [f.flushed_at + c.inseq_timeout for f in fs if f.runs and f.runs[0][0] == f.seq_next]
        due += [f.hole_since + c.ofo_timeout for f in fs if f.hole_since is not None]
        return min(due, default=None)

    def poll(self, packets, now: int) -> None:
        for p in packets:
            if p.payload_len == 0 or p.flow.proto not in self.config.protocols:
                continue  # pure ACKs and other transports bypass the table
            self.packets += 1
            key, seq, end = p.flow, p.seq, p.seq + p.payload_len
            f = self.flows.get(key) or self._admit(key, seq, now)
            if f.phase is not P.BUILD_UP and seq < f.seq_next:
                self._emit(key, seq, end, R.RETRANSMISSION)  # Table 2 row 1
                if f.phase is P.LOSS_RECOVERY and seq <= f.lost_seq < end:
                    f.lost_seq = None  # §4.2.5: the hole is filled
                    self._move(key, f, P.ACTIVE_MERGE)
                if end > f.seq_next:
                    f.seq_next = end  # and runs now below it go up too
                    while f.runs and f.runs[0][0] < f.seq_next:
                        s, e = f.runs.pop(0)[:2]
                        self._emit(key, s, e, R.DUPLICATE if e <= f.seq_next else R.RETRANSMISSION)
                        f.seq_next = max(f.seq_next, e)
            else:
                if f.phase is P.POST_MERGE:
                    self._move(key, f, P.ACTIVE_MERGE)
                if self._insert(f, p, seq, end):
                    self.duplicates += 1  # never buffered twice
                    self._emit(key, seq, end, R.DUPLICATE)
                elif f.phase is P.BUILD_UP and (f.seq_next is None or seq < f.seq_next):
                    f.seq_next = seq  # §4.2.2: learning may move back
            self._settle(key, f, now)
            runs = f.runs  # rows 2-4, after every packet
            while runs and runs[0][0] == f.seq_next:
                s, e, _, closed = runs[0]
                if e - s > self.config.max_segment_bytes - MSS:
                    reason = R.SEGMENT_FULL
                elif closed:
                    reason = R.FLAGS
                elif len(runs) > 1 and runs[1][0] == e:
                    reason = R.UNMERGEABLE  # contiguous yet unmerged
                else:
                    break
                self._flushed(key, f, now, [runs.pop(0)], reason)
            self._settle(key, f, now)

    def timer(self, now: int) -> None:
        """Rows 5-6: per flow in list order, the first condition due."""
        c = self.config
        for key, f in [*self.lists["active"].items(), *self.lists["loss_recovery"].items()]:
            if f.hole_since is not None and now - f.hole_since >= c.ofo_timeout:
                if f.phase is not P.LOSS_RECOVERY:
                    f.lost_seq = f.seq_next  # only the first loss counts
                runs, f.runs, f.hole_since = f.runs, [], None
                self._flushed(key, f, now, runs, R.OFO_TIMEOUT)
                if f.phase is not P.LOSS_RECOVERY:
                    self._move(key, f, P.LOSS_RECOVERY)
            elif f.runs and f.runs[0][0] == f.seq_next and now - f.flushed_at >= c.inseq_timeout:
                while f.runs and f.runs[0][0] == f.seq_next:
                    self._flushed(key, f, now, [f.runs.pop(0)], R.INSEQ_TIMEOUT)
                self._settle(key, f, now)

    poll_complete = timer  # a poll's end runs the same checks (§4.1)

    def flush_all(self, now: int) -> None:
        for key, f in list(self.flows.items()):
            self._drain(key, f, R.SHUTDOWN)

    def _emit(self, key, seq: int, end: int, reason: R) -> None:
        self.delivered.append((key, seq, end, reason))
        self.flush_reasons[reason] += 1

    def _flushed(self, key, f: Flow, now: int, runs, reason: R) -> None:
        if f.phase is P.BUILD_UP:  # the first flush ends build-up
            self._move(key, f, P.ACTIVE_MERGE)
        for s, e, *_ in runs:
            f.seq_next = max(f.seq_next, e)
            self._emit(key, s, e, reason)
        f.flushed_at = now

    def _settle(self, key, f: Flow, now: int) -> None:
        """Park a drained flow (§4.2.4); run the clock while a hole is."""
        if not f.runs and f.phase is P.ACTIVE_MERGE:
            self._move(key, f, P.POST_MERGE)
        if not (f.runs and f.runs[0][0] > f.seq_next):
            f.hole_since = None
        elif f.hole_since is None:
            f.hole_since = now

    def _move(self, key, f: Flow, phase: P) -> None:
        del self.lists[LIST[f.phase]][key]
        self.lists[LIST[phase]][key] = f  # at the tail: FIFO
        self.log.append((key, f.phase, phase))
        f.phase = phase

    def _drain(self, key, f: Flow, reason: R) -> None:
        """Hand every run up and drop the flow (eviction, teardown)."""
        for s, e, *_ in f.runs:
            self._emit(key, s, e, reason)
        del self.flows[key], self.lists[LIST[f.phase]][key]
        self.log.append((key, f.phase, None))

    def _admit(self, key, seq: int, now: int) -> Flow:
        c = self.config
        if len(self.flows) >= c.table_capacity:
            pool = [self.lists[n] for n in EVICTION_ORDER[c.eviction_policy] if self.lists[n]]
            victim = next(iter(pool[0] if pool else self.flows))
            self.evictions[self.flows[victim].phase] += 1
            self._drain(victim, self.flows[victim], R.EVICTION)
        self.flows_created += 1
        f = Flow(P.BUILD_UP, None, now) if c.enable_buildup else Flow(P.ACTIVE_MERGE, seq, now)
        self.flows[key] = self.lists[LIST[f.phase]][key] = f
        self.log.append((key, P.INITIAL, f.phase))
        return f

    def _insert(self, f: Flow, p, seq: int, end: int) -> bool:
        """Buffer ``p``; True when its bytes overlap buffered ones."""
        runs, new = f.runs, [seq, end, p.sig, p.forces_flush]
        i = len(runs)
        while i and runs[i - 1][0] > seq:
            i -= 1
        pred, succ = runs[i - 1] if i else None, runs[i] if i < len(runs) else None
        if (pred and seq < pred[1]) or (succ and end > succ[0]):
            return True
        if pred and self._joins(pred, new):
            pred[1], pred[3] = end, new[3]  # appended
            if succ and self._joins(pred, succ):
                pred[1], pred[3] = succ[1], succ[3]  # and the gap closed
                del runs[i]
        elif succ and self._joins(new, succ):
            succ[0] = seq  # prepended
        else:
            runs.insert(i, new)
            return False
        self.merges += 1
        return False

    def _joins(self, a, b) -> bool:
        """``b`` follows run ``a``, same headers, ``a`` unclosed, within the cap."""
        return (a[1] == b[0] and not a[3] and a[2] == b[2]
                and b[1] - a[0] <= self.config.max_segment_bytes)


class GroSpec:
    """§3.1's baselines.  Standard GRO merges a packet onto its flow's held
    run while it is next in sequence with the same headers and fits under
    ``cap``; otherwise the run flushes and the packet opens the next one.
    Linked-list GRO (``linked``) chains every data packet in arrival order,
    whatever its sequence, under the kernel's cap.  PSH/FIN flushes a run,
    even one it opens; both hand every held run up at a poll's end.  No
    timers, no flow table: a run is ``[seq, end, sig, bytes]``, ``end`` the
    last packet's."""

    COUNTERS = ("packets", "passthrough_packets", "merges", "polls",
                "segments", "flush_reasons")

    def __init__(self, linked: bool, cap: int = MAX_GRO_SEGMENT):
        self.linked, self.cap = linked, cap
        self.runs, self.delivered, self.log = {}, [], []  # no phases: log stays empty
        self.packets = self.passthrough_packets = self.merges = self.polls = 0
        self.flush_reasons = Counter()

    segments = Spec.segments

    def next_deadline(self):
        return None

    def poll(self, packets, now: int) -> None:
        for p in packets:
            size = p.payload_len
            if size == 0:
                self.passthrough_packets += 1  # pure ACKs bypass GRO
                continue
            self.packets += 1
            key, seq = p.flow, p.seq
            run = self.runs.get(key)
            joins = run is not None and (self.linked or (
                seq == run[1] and p.sig == run[2] and run[3] + size <= self.cap))
            if joins:
                run[1], run[3] = seq + size, run[3] + size
                self.merges += 1
            else:
                if run is not None:
                    self._flush(key, R.UNMERGEABLE if seq == run[1] else R.OUT_OF_SEQUENCE)
                run = self.runs[key] = [seq, seq + size, p.sig, size]
            if p.forces_flush:
                self._flush(key, R.FLAGS)
            elif (joins or self.linked) and run[3] + MSS > self.cap:
                self._flush(key, R.SEGMENT_FULL)  # no room for one more MSS

    def timer(self, now: int) -> None:
        """No timers: nothing is held past a poll."""

    def poll_complete(self, now: int) -> None:
        self.polls += 1
        self.flush_all(now, R.POLL_END)

    def flush_all(self, now: int, reason: R = R.SHUTDOWN) -> None:
        for key in list(self.runs):
            self._flush(key, reason)

    def _flush(self, key, reason: R) -> None:
        seq, end = self.runs.pop(key)[:2]
        self.delivered.append((key, seq, end, reason))
        self.flush_reasons[reason] += 1
