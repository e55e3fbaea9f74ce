"""Congestion control × reordering intensity × GRO engine.

The paper's protocol-side damage (§3.1) is *policy-dependent*: reordering
manufactures duplicate ACKs, and what happens next is entirely up to the
congestion controller.  Loss-based policies (Reno, CUBIC, DCTCP) treat the
dupACK burst as loss and collapse the window; a model-based policy (BBR)
keeps pacing at its measured bottleneck bandwidth and barely notices.
This family puts the :mod:`repro.cc` policies head to head:

* **cc** — ``reno``, ``cubic``, ``dctcp``, ``bbr`` (``TcpConfig.cc``).
* **intensity** — how much the fabric reorders: the NetFPGA switch's slow
  path delay, from 0 (in-order) to 250 µs (well past the 125 µs
  interrupt-coalescing window, so the reordering reaches the stack).
* **engine** — which GRO variant absorbs it: Juggler's ofo machinery,
  standard GRO's give-up-and-flush, or Presto's in-GRO resequencer.

The interesting comparisons are *within* a (cc, intensity) pair across
engines — how much of the policy's damage Juggler undoes — and *within*
an (intensity, engine) pair across policies — how much of the damage was
the policy's own fault.  The headline row: at intensity 3 under standard
GRO, BBR out-delivers Reno; switching Reno to the Juggler engine closes
the gap, which is the paper's whole argument (fix reordering below the
transport instead of redesigning the transport).

Determinism mirrors ``repro.faults.experiments``: each cell derives one
seed from ``(params.seed, intensity)`` — deliberately *not* the cc or the
engine, so every arm faces byte-identical fabric randomness — and all
randomness flows through named ``sim.rng`` streams.  Same seed ⇒
byte-identical rows, whatever the worker count or result store.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.flush import FlushReason
from repro.experiments.cell import Cell
from repro.harness.reporting import format_table
from repro.nic.nic import NicConfig
from repro.sim.rng import derive_cell_seed
from repro.sim.time import MS, US
from repro.tcp.config import TcpConfig

#: Intensity level -> slow-path reordering delay in µs.  Level 1 hides
#: inside the 125 µs coalescing window (reordered "for free" in the ring);
#: level 3 is the paper's 250 µs NetFPGA delay, which no coalescing hides.
INTENSITY_LEVELS: Dict[int, int] = {0: 0, 1: 20, 2: 60, 3: 250}


@dataclass(frozen=True)
class CcParams:
    """Sweep configuration."""

    ccs: tuple = ("reno", "cubic", "dctcp", "bbr")
    intensities: tuple = (0, 3)
    engines: tuple = ("juggler", "standard")
    rate_gbps: float = 10.0
    #: Concurrent bulk flows (each streams until the cell ends).
    flow_count: int = 4
    rx_buffer: int = 8 << 20
    inseq_timeout_us: int = 52
    ofo_timeout_us: int = 300
    coalesce_us: int = 125
    duration_ms: int = 30
    warmup_ms: int = 6
    seed: int = 101


@dataclass
class CcPoint:
    """One (cc, intensity, engine) cell."""

    cc: str
    intensity: int
    engine: str
    goodput_gbps: float
    #: Wire packets carrying retransmitted data.
    retx_packets: int
    #: Fast-recovery episodes entered (spurious under pure reordering).
    recoveries: int
    #: Retransmissions proven unnecessary by DSACKs.
    spurious_rexmits: int
    rtos: int
    #: dupACKs the receivers generated back at the senders.
    dupacks: int
    #: Out-of-order segments seen by the TCP receivers.
    tcp_ooo_segments: int
    ofo_timeout_flushes: int
    #: Final smoothed RTT across flows, µs (max; queue-buildup indicator).
    srtt_us: float


#: Sweep axes in loop-nesting order: (point field, params grid field).
POINT_AXES = (("cc", "ccs"),
              ("intensity", "intensities"),
              ("engine", "engines"))
#: The arms of one paired comparison: they pick no randomness, so every
#: arm of a cell draws the same seed (see repro.sim.rng.derive_cell_seed).
PAIRED_AXES = ("cc", "engine")


def run_point(params: CcParams, *, cc: str, intensity: int,
              engine: str) -> CcPoint:
    """One grid cell, independently schedulable (see repro.campaign)."""
    if intensity not in INTENSITY_LEVELS:
        raise ValueError(f"unknown intensity {intensity!r}; "
                         f"known: {sorted(INTENSITY_LEVELS)}")
    cell_seed = derive_cell_seed(
        params.seed, "cc_reordering", POINT_AXES, PAIRED_AXES,
        {"cc": cc, "intensity": intensity, "engine": engine})
    cell = Cell(cell_seed, engine, inseq_us=params.inseq_timeout_us,
                ofo_us=params.ofo_timeout_us)
    bed = cell.pair(
        "fabric",
        rate_gbps=params.rate_gbps,
        reorder_delay_ns=INTENSITY_LEVELS[intensity] * US,
        nic_config=NicConfig(coalesce_ns=params.coalesce_us * US),
    )
    conns = cell.flows(bed.sender, bed.receiver, params.flow_count, 1_000,
                       TcpConfig(cc=cc, rx_buffer=params.rx_buffer))
    stagger = cell.rngs.stream("workload")
    for conn in conns:
        # Staggered starts desynchronise slow starts; the draw order is
        # fixed, so every arm staggers identically.
        cell.engine.schedule(stagger.randrange(200_000), conn.send, 1 << 38)

    window = cell.measure(params.warmup_ms * MS, params.duration_ms * MS)
    srtts = [c.sender.srtt for c in conns if c.sender.srtt is not None]
    return CcPoint(
        cc=cc,
        intensity=intensity,
        engine=engine,
        goodput_gbps=round(window.goodput_gbps, 4),
        retx_packets=window.retransmits,
        recoveries=window.fast_retransmits,
        spurious_rexmits=sum(c.sender.spurious_rexmits for c in conns),
        rtos=sum(c.sender.rtos for c in conns),
        dupacks=sum(c.sender.dupacks_received for c in conns),
        tcp_ooo_segments=sum(c.receiver.ooo_segments for c in conns),
        ofo_timeout_flushes=cell.flush_reasons().get(
            FlushReason.OFO_TIMEOUT, 0),
        srtt_us=round(max(srtts) / US, 1) if srtts else 0.0,
    )


def render(points: List[CcPoint]) -> str:
    """The family as one table."""
    rows = [
        (p.cc, p.intensity, p.engine, round(p.goodput_gbps, 3),
         p.retx_packets, p.recoveries, p.spurious_rexmits, p.rtos,
         p.dupacks, p.tcp_ooo_segments, p.ofo_timeout_flushes, p.srtt_us)
        for p in points
    ]
    return format_table(
        ["cc", "intensity", "engine", "goodput_gbps", "retx", "recov",
         "spurious", "rtos", "dupacks", "tcp_ooo", "ofo_flush", "srtt_us"],
        rows,
    )
