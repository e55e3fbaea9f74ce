"""The Juggler GRO engine (§4 of the paper).

One instance serves one NIC receive queue, exactly as the kernel patch
instantiates its data structures per-queue.  The engine:

* keys flows in a capacity-bounded :class:`~repro.core.gro_table.GroTable`;
* walks each flow through the five-phase lifecycle of Figure 5;
* buffers out-of-order packets in per-flow :class:`~repro.core.ofo_queue.OfoQueue`
  runs, merging into frags[]-style segments;
* flushes on the Table 2 conditions — event-driven checks after every merge,
  timeout checks at polling completion and from the per-table hrtimer;
* evicts aggressively in the §4.3 preference order when the table fills.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.analysis import runtime as sanitize_runtime
from repro.core.base import DeliverFn, GroEngine
from repro.core.config import JugglerConfig
from repro.core.flow_entry import FlowEntry
from repro.core.flush import FlushReason
from repro.core.gro_table import GroTable
from repro.core.phases import Phase
from repro.net.constants import MSS
from repro.net.packet import Packet
from repro.net.segment import BatchingMode, Segment

if TYPE_CHECKING:
    from repro.cpu.accounting import GroCpuAccountant


class JugglerGRO(GroEngine):
    """Reordering-resilient GRO for one RX queue."""

    def __init__(
        self,
        deliver: DeliverFn,
        config: Optional[JugglerConfig] = None,
        accountant: Optional[GroCpuAccountant] = None,
    ):
        super().__init__(deliver, accountant)
        self.config = config if config is not None else JugglerConfig()
        self.table = GroTable(self.config.table_capacity)
        self.table.tracer = self.tracer
        #: None = sanitizing disabled (the common case); every hook below
        #: guards on this, so the hot path pays one identity test and
        #: allocates nothing — the same contract as ``self.tracer``.
        self.sanitizer = sanitize_runtime.current()
        self.table.sanitizer = self.sanitizer

    def attach_tracer(self, tracer) -> None:
        """Enable tracing on engine and table together."""
        super().attach_tracer(tracer)
        self.table.tracer = tracer

    def attach_sanitizer(self, sanitizer) -> None:
        """Enable (or with None, disable) JSAN on engine and table."""
        self.sanitizer = sanitizer
        self.table.sanitizer = sanitizer

    # -- public state inspection (Figs. 15, 16 sample these) ----------------

    @property
    def active_list_len(self) -> int:
        """Flows currently in build-up or active merging."""
        return self.table.active_len

    @property
    def inactive_list_len(self) -> int:
        """Flows parked in post-merge."""
        return self.table.inactive_len

    @property
    def loss_recovery_list_len(self) -> int:
        """Flows awaiting a presumed-lost packet."""
        return self.table.loss_recovery_len

    @property
    def buffered_bytes(self) -> int:
        """Payload bytes currently held across all OOO queues.

        Bounded by design: at most ``table_capacity`` flows are tracked, and
        each flow's queue drains within ``ofo_timeout`` — the §3.3 defence
        against memory-exhaustion attacks.
        """
        return sum(entry.ofo.buffered_bytes for entry in self.table)

    @property
    def resident_state_bytes(self) -> int:
        """Rough kernel-memory footprint of the flow table (cf. PrestoGRO):
        ~96 bytes of flow_entry + list linkage per tracked flow, plus the
        buffered payload."""
        return 96 * len(self.table) + self.buffered_bytes

    # -- the receive path ----------------------------------------------------

    def receive(self, packet: Packet, now: int) -> None:
        """Per-packet entry point: a length-1 batch."""
        self.receive_batch([packet], now)

    def receive_batch(self, packets: List[Packet], now: int) -> None:
        """One NAPI poll's packets through the per-packet pipeline.

        The only body of lookup → admit → build-up/established → event
        checks (rows 1-4 of Table 2: "in-sequence packet flushing decisions
        are made after merging every packet", Figure 2 caption) → sanitizer.
        Engine-level lookups are hoisted out of the loop and the common
        packet — established flow, at or past ``seq_next`` — reads the
        queue's ``nodes`` and the segments' slots directly.
        """
        accountant = self.accountant
        tracer = self.tracer
        sanitizer = self.sanitizer
        stats = self.stats
        table = self.table
        flows = table._flows
        protocols = self.config.protocols
        #: A head run longer than this has no room for one more MSS.
        room_for_mss = self.config.max_segment_bytes - MSS
        buildup = Phase.BUILD_UP
        active_merge = Phase.ACTIVE_MERGE
        post_merge = Phase.POST_MERGE
        for packet in packets:
            if accountant is not None:
                accountant.on_rx_packet()
                accountant.on_gro_packet()
            if tracer is not None:
                tracer.packet_rx(now, packet.flow, packet.seq,
                                 packet.end_seq, packet.payload_len)
            if (packet.payload_len == 0
                    or packet.flow.proto not in protocols):
                # Pure ACKs are never batched, and traffic from unconfigured
                # transports is not Juggler's business (§4: "we primarily
                # focus on the handling of TCP traffic") — both bypass the
                # flow table.
                self._passthrough(packet, now)
                continue
            stats.packets += 1
            entry = flows.get(packet.flow)
            if entry is None:
                entry = self._admit_new_flow(packet, now)
            entry.last_seen = now
            phase = entry.phase
            if phase is not buildup and packet.seq < entry.seq_next:
                self._receive_old_data(entry, packet, now)
            else:
                if phase is buildup:
                    # seq_next may still move backwards while we learn it
                    # (§4.2.2).
                    entry.learn_seq_next(packet.seq)
                elif phase is post_merge:
                    # Fresh data after a quiescent period: back to active
                    # merging.
                    table.move(entry, active_merge, now)
                result = entry.ofo.insert(packet)
                scanned = result.scanned
                stats.nodes_scanned += scanned
                if accountant is not None:
                    accountant.on_node_scan(scanned)
                if result.duplicate:
                    # Bytes already buffered: never hold the copy (memory
                    # safety); hand it up so TCP's DSACK machinery sees it.
                    stats.duplicates += 1
                    self._deliver_packet(packet, FlushReason.DUPLICATE, now)
                else:
                    if result.merged:
                        stats.merges += 1
                        if accountant is not None:
                            accountant.on_merge(BatchingMode.FRAGS_ARRAY)
                        if tracer is not None:
                            tracer.merge(now, entry.key, packet.seq,
                                         packet.end_seq, scanned)
                    # FlowEntry.refresh_hole_state, the packet now queued.
                    if entry.ofo.nodes[0].seq <= entry.seq_next:
                        entry.hole_since = None
                    elif entry.hole_since is None:
                        entry.hole_since = now
                    if sanitizer is not None:
                        sanitizer.check_ofo(entry)
            # Flush in-sequence head runs that meet an event-driven condition.
            nodes = entry.ofo.nodes
            while nodes:
                head = nodes[0]
                if head.seq != entry.seq_next:
                    break
                if head._payload > room_for_mss:
                    reason = FlushReason.SEGMENT_FULL
                elif head._closed:
                    reason = FlushReason.FLAGS
                elif len(nodes) > 1 and nodes[1].seq == head.end_seq:
                    # Contiguous with the next run yet unmerged: header
                    # mismatch (TCP options / CE marks) — flush rather than
                    # delay.
                    reason = FlushReason.UNMERGEABLE
                else:
                    break
                self._flush_head(entry, reason, now)
            # Hole clock and parking.  The insert refreshed the clock
            # already and the two do not collapse: a packet that fills the
            # hole clears it, and if the head then flushes and leaves a
            # detached run the clock restarts at ``now``.
            if not nodes:
                entry.hole_since = None
                if entry.phase is active_merge:
                    table.move(entry, post_merge, now)
            elif nodes[0].seq <= entry.seq_next:
                entry.hole_since = None
            elif entry.hole_since is None:
                entry.hole_since = now
            if sanitizer is not None:
                sanitizer.check_flow(entry)

    def _admit_new_flow(self, packet: Packet, now: int) -> FlowEntry:
        """Initial phase: create the entry, evicting if the table is full."""
        if self.table.full:
            self._evict(self.table.pick_victim(self.config.eviction_policy), now)
        entry = FlowEntry(packet.flow, now,
                          max_payload=self.config.max_segment_bytes)
        self.stats.flows_created += 1
        # The initial phase is transient: the entry is stored already in the
        # build-up phase, on the active list (Figure 5).  With the build-up
        # ablation disabled, seq_next pins to the first packet seen and the
        # flow starts merging immediately — if that packet was out of order,
        # the rest of its burst gets flushed prematurely (Remark 1).
        if self.config.enable_buildup:
            entry.phase = Phase.BUILD_UP
        else:
            entry.phase = Phase.ACTIVE_MERGE
            entry.seq_next = packet.seq
        self.table.add(entry)
        if self.tracer is not None:
            self.tracer.phase(now, entry.key, Phase.INITIAL, entry.phase)
        return entry

    def _receive_old_data(self, entry: FlowEntry, packet: Packet, now: int) -> None:
        """An established flow's packet starting below ``seq_next``."""
        # Those bytes were already flushed, so this is likely a
        # retransmission — deliver it immediately (Figure 6) and let TCP
        # sort it out.
        self._deliver_packet(packet, FlushReason.RETRANSMISSION, now)
        self._maybe_fill_hole(entry, packet, now)
        end_seq = packet.seq + packet.payload_len
        if end_seq > entry.seq_next:
            # Straddles seq_next: partially old, partially new.  Best-effort:
            # TCP trims the overlap; account the new bytes as flushed.
            entry.seq_next = end_seq
            # Advancing seq_next may leave buffered nodes starting below it;
            # such nodes would be neither "in sequence" nor "a hole" and no
            # timeout would ever release them — flush them now.
            self._normalize_queue(entry, now)
            entry.refresh_hole_state(now)

    def _maybe_fill_hole(self, entry: FlowEntry, packet: Packet, now: int) -> None:
        """Loss recovery exit: the retransmission covered ``lost_seq``."""
        if (
            entry.phase is Phase.LOSS_RECOVERY
            and entry.lost_seq is not None
            and packet.seq <= entry.lost_seq < packet.end_seq
        ):
            entry.lost_seq = None
            self.table.move(entry, Phase.ACTIVE_MERGE, now)

    def _normalize_queue(self, entry: FlowEntry, now: int) -> None:
        """Restore the invariant that every buffered node starts at or after
        ``seq_next`` by flushing the ones that no longer do."""
        assert entry.seq_next is not None
        while entry.ofo.head is not None and entry.ofo.head.seq < entry.seq_next:
            node = entry.ofo.pop_head()
            if node.end_seq <= entry.seq_next:
                # Entirely behind the watermark: stale duplicate bytes.
                self._deliver_segment(node, FlushReason.DUPLICATE, now)
            else:
                # Carries fresh bytes past the watermark: deliver the whole
                # node (TCP trims the overlap) and advance.
                entry.advance_seq_next(node.end_seq)
                self._deliver_segment(node, FlushReason.RETRANSMISSION, now)
        if not entry.ofo and entry.phase is Phase.ACTIVE_MERGE:
            self.table.move(entry, Phase.POST_MERGE, now)

    def _flush_head(self, entry: FlowEntry, reason: FlushReason, now: int) -> None:
        if self.sanitizer is not None:
            self.sanitizer.check_event_flush(entry, reason)
        node = entry.ofo.pop_head()
        if entry.phase is Phase.BUILD_UP:
            self.table.move(entry, Phase.ACTIVE_MERGE, now)
        entry.advance_seq_next(node.end_seq)
        entry.flush_timestamp = now
        self._deliver_segment(node, reason, now)

    # -- timeout checks (rows 5-6 of Table 2) --------------------------------

    def poll_complete(self, now: int) -> None:
        """End of a NAPI polling cycle: run the timeout checks (§4.1)."""
        if self.accountant is not None:
            self.accountant.on_poll()
        self.check_timeouts(now)
        if self.sanitizer is not None:
            self.sanitizer.check_table(self.table)

    def check_timeouts(self, now: int) -> None:
        """inseq/ofo timeout sweep — poll completions and the hrtimer."""
        ofo_timeout = self.config.ofo_timeout
        inseq_timeout = self.config.inseq_timeout
        # Side-effect-free pre-scan: most sweeps fire nothing, so find out
        # with plain attribute reads before paying for the snapshot list
        # (needed below because firing re-homes entries mid-iteration).
        # The pre-scan over-approximates "due" (it ignores the hole/inseq
        # precedence) — a false positive just runs the exact loop, which
        # then fires nothing.
        active, loss_recovery = self.table.deadline_lists()
        due = False
        for entries in (active, loss_recovery):
            for entry in entries:
                hole_since = entry.hole_since
                if hole_since is not None and now - hole_since >= ofo_timeout:
                    due = True
                    break
                nodes = entry.ofo.nodes
                if (nodes and nodes[0].seq == entry.seq_next
                        and now - entry.flush_timestamp >= inseq_timeout):
                    due = True
                    break
            if due:
                break
        if not due:
            return
        for entry in [*active, *loss_recovery]:
            hole_since = entry.hole_since
            if hole_since is not None and now - hole_since >= ofo_timeout:
                self._ofo_timeout_fire(entry, now)
                continue
            nodes = entry.ofo.nodes
            if (nodes and nodes[0].seq == entry.seq_next
                    and now - entry.flush_timestamp >= inseq_timeout):
                self._inseq_timeout_fire(entry, now)

    def _inseq_timeout_fire(self, entry: FlowEntry, now: int) -> None:
        """Flush the in-order run at the head — don't delay it any longer."""
        assert entry.seq_next is not None
        if self.sanitizer is not None:
            self.sanitizer.check_inseq_timeout(entry, now,
                                               self.config.inseq_timeout)
        run = entry.ofo.pop_inseq_run(entry.seq_next)
        if not run:
            return
        if entry.phase is Phase.BUILD_UP:
            self.table.move(entry, Phase.ACTIVE_MERGE, now)
        for node in run:
            entry.advance_seq_next(node.end_seq)
            self._deliver_segment(node, FlushReason.INSEQ_TIMEOUT, now)
        entry.flush_timestamp = now
        entry.refresh_hole_state(now)
        if not entry.ofo.nodes and entry.phase is Phase.ACTIVE_MERGE:
            # Queue drained by in-sequence flushing: park on the inactive
            # list, the preferred eviction pool (§4.2.4).
            self.table.move(entry, Phase.POST_MERGE, now)

    def _ofo_timeout_fire(self, entry: FlowEntry, now: int) -> None:
        """The missing packet is presumed lost: flush everything, enter loss
        recovery (§4.2.5, Figure 7)."""
        assert entry.seq_next is not None
        if self.sanitizer is not None:
            self.sanitizer.check_ofo_timeout(entry, now,
                                             self.config.ofo_timeout)
        nodes = entry.ofo.pop_all()
        if entry.phase is Phase.BUILD_UP:
            # A duplicate that straddles a buffered run still lowered the
            # learnt seq_next below it; this flush ends build-up (Table 1).
            self.table.move(entry, Phase.ACTIVE_MERGE, now)
        if entry.phase is not Phase.LOSS_RECOVERY:
            # Remember only the *first* lost packet (best-effort design).
            entry.lost_seq = entry.seq_next
        for node in nodes:
            entry.advance_seq_next(node.end_seq)
            self._deliver_segment(node, FlushReason.OFO_TIMEOUT, now)
        entry.flush_timestamp = now
        entry.hole_since = None
        if entry.phase is not Phase.LOSS_RECOVERY:
            self.table.move(entry, Phase.LOSS_RECOVERY, now)

    def next_deadline(self) -> Optional[int]:
        """Earliest pending inseq/ofo deadline, for arming the hrtimer."""
        config = self.config
        deadline: Optional[int] = None
        for entries in self.table.deadline_lists():
            for entry in entries:
                nodes = entry.ofo.nodes
                if nodes and nodes[0].seq == entry.seq_next:
                    candidate = entry.flush_timestamp + config.inseq_timeout
                    if deadline is None or candidate < deadline:
                        deadline = candidate
                hole_since = entry.hole_since
                if hole_since is not None:
                    candidate = hole_since + config.ofo_timeout
                    if deadline is None or candidate < deadline:
                        deadline = candidate
        return deadline

    # -- delivery interposition (Table 2 reason validity) ---------------------

    def _deliver_segment(self, segment: Segment, reason: FlushReason,
                         now: int) -> None:
        """:meth:`GroEngine._deliver_segment` with the reason check and with
        :meth:`GroStats.record_delivery` done here: one call per segment."""
        flow = segment.flow
        if self.sanitizer is not None:
            self.sanitizer.check_flush_reason(flow, reason)
        segment.flushed_at = now
        seq = segment.seq
        end_seq = segment.end_seq
        stats = self.stats
        stats.segments += 1
        stats.batched_mtus += segment.mtus
        stats.flush_reasons[reason] += 1
        expected = stats._expected.get(flow)
        if expected is not None and seq != expected:
            stats.ooo_segments += 1
        if expected is None or end_seq > expected:
            stats._expected[flow] = end_seq
        if self.accountant is not None:
            self.accountant.on_flush_segment(segment)
        if self.tracer is not None:
            self.tracer.flush(now, flow, seq, end_seq, segment.mtus, reason)
        self.deliver(segment)

    # -- eviction and teardown ------------------------------------------------

    def _evict(self, entry: FlowEntry, now: int) -> None:
        """Flush all of a victim's packets and drop its state (§4.3)."""
        if self.sanitizer is not None:
            self.sanitizer.check_eviction(self.table, entry,
                                          self.config.eviction_policy)
        self.stats.record_eviction(entry.phase)
        if self.tracer is not None:
            self.tracer.eviction(now, entry.key, entry.phase)
        for node in entry.ofo.pop_all():
            self._deliver_segment(node, FlushReason.EVICTION, now)
        self.table.remove(entry)

    def flush_all(self, now: int) -> None:
        """Drain every flow (experiment teardown); the table empties."""
        for entry in list(self.table):
            for node in entry.ofo.pop_all():
                self._deliver_segment(node, FlushReason.SHUTDOWN, now)
            self.table.remove(entry)
