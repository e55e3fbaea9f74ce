"""Hooks that let the GRO engines report work to the CPU model.

The GRO implementations (standard, Juggler, chained) are pure algorithms;
they emit *events* ("scanned 3 nodes", "flushed a 44-MTU segment") through a
:class:`GroCpuAccountant`, which prices them from ``DEFAULT_COSTS`` and
charges the RX core meter.  Experiments that don't study CPU attach no
accountant: ``GroEngine.accountant`` is ``None`` and every charge site guards
on it, like ``tracer`` (zero calls into ``repro/cpu``,
pinned by ``tests/integration/test_layer_budgets.py``).
"""

from __future__ import annotations

from repro.cpu.costs import DEFAULT_COSTS
from repro.cpu.meter import CoreMeter
from repro.net.segment import BatchingMode, Segment


class GroCpuAccountant:
    """Prices GRO-layer work onto an RX-core meter."""

    def __init__(self, meter: CoreMeter):
        self.meter = meter

    def on_rx_packet(self) -> None:
        """Driver + NAPI handling of one wire packet."""
        self.meter.charge(DEFAULT_COSTS.rx_per_packet)

    def on_gro_packet(self) -> None:
        """GRO flow lookup + header inspection of one packet."""
        self.meter.charge(DEFAULT_COSTS.gro_per_packet)

    def on_merge(self, mode: BatchingMode) -> None:
        """Merging one packet into an existing segment."""
        if mode is BatchingMode.FRAGS_ARRAY:
            self.meter.charge(DEFAULT_COSTS.gro_merge_frag)
        else:
            self.meter.charge(DEFAULT_COSTS.gro_merge_chain)

    def on_node_scan(self, nodes: int) -> None:
        """Walking ``nodes`` OOO-queue entries to find an insert position."""
        if nodes:
            self.meter.charge(DEFAULT_COSTS.gro_node_scan * nodes)

    def on_flush_segment(self, segment: Segment) -> None:
        """Pushing one merged segment up out of GRO."""
        self.meter.charge(DEFAULT_COSTS.rx_per_segment)

    def on_poll(self) -> None:
        """Fixed overhead of one NAPI poll invocation."""
        self.meter.charge(DEFAULT_COSTS.rx_per_poll)
