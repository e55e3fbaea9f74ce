"""Span tracing of a cell from outside the simulator.

Nothing under ``src/`` knows about this file.  :func:`install` wraps the
public entry points of each data-path package on their classes *before*
a cell is built, so every object the builders create afterwards already
carries the wrappers:

* every callback handed to ``Engine.schedule/schedule_at/post/post_at`` or
  to ``Timer(engine, callback)`` runs as a span owned by the layer of the
  module that defines the callback, under the root span ``Engine.run_until``;
* the cross-layer calls listed in :data:`METHOD_POINTS` become child spans.

A span is (name, start, end, parent); spans stay in memory in four parallel
arrays and are analysed or written out only after the run.  A layer's *self
time* is the summed duration of its spans minus the duration of their direct
children — with one thread and no overlap that partition is exact, so the
layers' self times add up to the root span.

The cost of a wrapper (two clock reads and four appends, ≈1 µs) lands in the
*parent* span's self time; ``harness.trace_overhead_x`` reports the total.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

from repro.cc.base import CongestionControl
from repro.core.base import GroEngine
from repro.fabric.detector import ReorderDetector
from repro.fabric.host import Host
from repro.fabric.link import QueuedLink
from repro.fabric.netfpga import ReorderingSwitch
from repro.fabric.routing import RoutingPolicy
from repro.fabric.switch import Switch
from repro.net.pool import PacketPool
from repro.nic.nic import Nic
from repro.nic.rxqueue import RxQueue
from repro.sim.engine import Engine
from repro.sim.timer import Timer
from repro.tcp import receiver as tcp_receiver
from repro.tcp import sender as tcp_sender
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import TcpSender
from repro.workloads.rpc import RpcWorkload

#: Data-path layers that get ``<layer>.self_s`` and ``<layer>.calls``.
LAYERS = ("sim", "fabric", "net", "nic", "core", "tcp", "cc", "workloads",
          "faults")

#: Package → layer.  ``steer`` runs inside the NIC's demux, so it is ``nic``.
_PACKAGE_LAYER = {layer: layer for layer in LAYERS}
_PACKAGE_LAYER["steer"] = "nic"

#: Layer of spans whose code lives outside the data-path packages (the
#: fig15 cell's own ``Sampler`` probe, for one).
OTHER = "other"

#: (class, method names) wrapped as child spans.  A name is wrapped on the
#: class and on every subclass that overrides it.
METHOD_POINTS: Tuple[Tuple[type, Tuple[str, ...]], ...] = (
    (QueuedLink, ("enqueue", "receive")),
    (Switch, ("receive",)),
    (ReorderingSwitch, ("receive",)),
    (RoutingPolicy, ("choose",)),
    (ReorderDetector, ("observe",)),
    (Host, ("receive", "transmit", "deliver")),
    (RxQueue, ("enqueue",)),
    (GroEngine, ("receive_batch", "poll_complete", "check_timeouts")),
    (TcpReceiver, ("on_segment",)),
    (TcpSender, ("on_ack_segment", "send")),
    (CongestionControl, ("on_ack", "on_send")),
    (PacketPool, ("acquire", "release")),
    (Timer, ("arm_at",)),
    (Engine, ("run_until",)),
)

_SCHEDULERS = ("schedule", "schedule_at", "post", "post_at")

#: ``_callback_id`` answer for a callback that is itself a span wrapper.
_IS_SPAN = -1
#: Bound on the per-function id cache (the per-code entries are not capped).
_ID_CACHE_MAX = 4096


def layer_of_module(module: str) -> str:
    """The layer owning code of ``module`` (``repro.<package>....``)."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return _PACKAGE_LAYER.get(parts[1], OTHER)
    return OTHER


def _subclasses(cls: type) -> List[type]:
    out, stack = [], [cls]
    while stack:
        c = stack.pop()
        out.append(c)
        stack.extend(c.__subclasses__())
    return out


class SpanRecorder:
    """In-memory span store plus the patch set that feeds it."""

    def __init__(self) -> None:
        #: Span columns, one row per span, in start order.
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        #: name id → (span name, layer).
        self.names: List[Tuple[str, str]] = []
        self._ids: Dict[object, int] = {}
        #: Index of the open span (-1: none).
        self.cur = -1
        #: First span index of each repetition — one trace id per cell run.
        self.trace_starts: List[int] = []
        #: (code object, line) of each ``schedule``-family call → count.
        self.sites: Dict[Tuple[object, int], int] = {}
        #: Data packets of the current repetition that reached GRO with a
        #: sequence number other than their flow's next expected byte.
        self.ooo_pkts = 0
        self._expected_seq: Dict[object, int] = {}
        self._undo: List[Callable[[], None]] = []

    # -- span plumbing --------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        """Intern one (name, layer) pair."""
        self.names.append((name, layer))
        return len(self.names) - 1

    # The open/close sequence below appears three times (here, in the
    # event runner and in the scheduler wrapper) on purpose: these run once
    # or more per simulated event, and a shared helper would cost a Python
    # call per span — the very overhead ``harness.trace_overhead_x`` reports.

    def wrap(self, fn: Callable, name: str, layer: str) -> Callable:
        """``fn`` as a span named ``name`` owned by ``layer``."""
        nid = self.name_id(name, layer)
        rec = self
        names_append = self.name_ids.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends_append = self.ends.append
        starts = self.starts
        ends = self.ends
        clock = perf_counter_ns

        def span(*args, **kwargs):
            index = len(starts)
            parent = rec.cur
            rec.cur = index
            names_append(nid)
            parents_append(parent)
            ends_append(0)
            starts_append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                rec.cur = parent

        span.__wrapped__ = fn
        return span

    def _callback_id(self, fn: Callable) -> int:
        """Name id for a scheduled callback's function, by the code that
        defines it; ``_IS_SPAN`` when the function is already one of our
        wrappers (``link.sink.receive`` and the like) and needs no second
        span."""
        if hasattr(fn, "__wrapped__"):
            nid = _IS_SPAN
        else:
            code = getattr(fn, "__code__", None) or type(fn)
            nid = self._ids.get(code)
            if nid is None:
                module = getattr(fn, "__module__", None) or type(fn).__module__
                name = getattr(fn, "__qualname__", type(fn).__name__)
                nid = self._ids[code] = self.name_id(
                    f"event:{name}", layer_of_module(module))
        if len(self._ids) < _ID_CACHE_MAX:
            # Functions of methods and wrappers are stable objects; closures
            # made per call are not, hence the cap.
            self._ids[fn] = nid
        return nid

    def _event_runner(self) -> Callable:
        """What the engine fires in place of a scheduled callback: the
        callback as a span owned by the layer of its defining module."""
        rec = self
        ids = self._ids
        callback_id = self._callback_id
        names_append = self.name_ids.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends_append = self.ends.append
        starts = self.starts
        ends = self.ends
        clock = perf_counter_ns

        def run_event(callback, *args):
            try:
                fn = callback.__func__
            except AttributeError:
                fn = callback
            nid = ids.get(fn)
            if nid is None:
                nid = callback_id(fn)
            if nid < 0:
                callback(*args)
                return
            index = len(starts)
            parent = rec.cur
            rec.cur = index
            names_append(nid)
            parents_append(parent)
            ends_append(0)
            starts_append(clock())
            try:
                callback(*args)
            finally:
                ends[index] = clock()
                rec.cur = parent

        return run_event

    # -- patching -------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, original))

    def install(self) -> "SpanRecorder":
        """Wrap every entry point.  Call before building the cell."""
        if self._undo:
            raise RuntimeError("span wrappers are already installed")
        for base, methods in METHOD_POINTS:
            for cls in _subclasses(base):
                layer = layer_of_module(cls.__module__)
                for method in methods:
                    fn = cls.__dict__.get(method)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    span = self.wrap(fn, f"{cls.__name__}.{method}", layer)
                    if method == "receive_batch":
                        span = self._count_arrivals(span)
                    self._patch(cls, method, span)
        run_event = self._event_runner()
        for method in _SCHEDULERS:
            self._patch(Engine, method, self._scheduler(method, run_event))
        self._patch(Timer, "__init__", self._timer_init())
        # Nic pins its per-packet ``receive`` closure on the instance, so the
        # class attribute is never looked up: wrap it as each Nic is built.
        self._patch(Nic, "__init__", self._after_init(
            Nic, lambda nic, *args, **kwargs: setattr(
                nic, "receive",
                self.wrap(nic.receive, "Nic.receive", "nic"))))
        # An RPC completes inside the closure the workload hangs on each
        # receiver's public ``on_bytes`` hook.
        self._patch(RpcWorkload, "__init__", self._after_init(
            RpcWorkload, self._wrap_rpc_completions))
        # ``from repro.net... import name``: patch the names where the TCP
        # endpoints look them up (TSO bursts at the sender, ACK packets at
        # the receiver).
        self._patch(tcp_sender, "segment_tso_burst", self.wrap(
            tcp_sender.segment_tso_burst, "segment_tso_burst", "net"))
        self._patch(tcp_receiver, "Packet", self.wrap(
            tcp_receiver.Packet, "Packet(ack)", "net"))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _scheduler(self, method: str, run_event: Callable) -> Callable:
        """``Engine.<method>`` as a ``sim`` span that trampolines its callback
        through ``run_event`` and counts its call site."""
        original = Engine.__dict__[method]
        nid = self.name_id(f"Engine.{method}", "sim")
        rec = self
        sites = self.sites
        getframe = sys._getframe
        names_append = self.name_ids.append
        parents_append = self.parents.append
        starts_append = self.starts.append
        ends_append = self.ends.append
        starts = self.starts
        ends = self.ends
        clock = perf_counter_ns

        def schedule(engine, when, callback, *args):
            frame = getframe(1)
            site = (frame.f_code, frame.f_lineno)
            sites[site] = sites.get(site, 0) + 1
            index = len(starts)
            parent = rec.cur
            rec.cur = index
            names_append(nid)
            parents_append(parent)
            ends_append(0)
            starts_append(clock())
            try:
                return original(engine, when, run_event, callback, *args)
            finally:
                ends[index] = clock()
                rec.cur = parent

        return schedule

    def _count_arrivals(self, receive_batch: Callable) -> Callable:
        """Count out-of-sequence arrivals ahead of a ``receive_batch`` span
        (the loop's cost lands in the polling NIC's self time, not core's)."""
        rec = self

        def counted(gro, packets, now):
            if type(packets) is list:
                expected = rec._expected_seq
                ooo = 0
                for packet in packets:
                    if packet.payload_len:
                        flow = packet.flow
                        nxt = expected.get(flow)
                        end = packet.seq + packet.payload_len
                        if nxt is None:
                            expected[flow] = end
                        else:
                            if packet.seq != nxt:
                                ooo += 1
                            if end > nxt:
                                expected[flow] = end
                rec.ooo_pkts += ooo
            return receive_batch(gro, packets, now)

        return counted

    def _timer_init(self) -> Callable:
        original = Timer.__dict__["__init__"]
        rec = self

        def init(timer, engine, callback):
            fn = getattr(callback, "__func__", callback)
            name = getattr(fn, "__qualname__", type(callback).__name__)
            layer = layer_of_module(getattr(fn, "__module__", "") or "")
            original(timer, engine, rec.wrap(callback, f"timer:{name}", layer))

        return init

    @staticmethod
    def _after_init(cls: type, hook: Callable) -> Callable:
        original = cls.__dict__["__init__"]

        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            hook(self, *args, **kwargs)

        return init

    def _wrap_rpc_completions(self, workload, engine, rng, connections,
                              **kwargs) -> None:
        for conn in connections:
            conn.receiver.on_bytes = self.wrap(
                conn.receiver.on_bytes, "RpcWorkload.on_bytes", "workloads")

    # -- repetitions ----------------------------------------------------------

    def begin_trace(self) -> None:
        """Mark the start of one cell repetition (a new trace id)."""
        self.trace_starts.append(len(self.starts))
        self.ooo_pkts = 0
        self._expected_seq = {}

    def trace_bounds(self) -> List[Tuple[int, int]]:
        """[first, last+1) span index of every repetition."""
        edges = self.trace_starts + [len(self.starts)]
        return list(zip(edges, edges[1:]))

    # -- analysis -------------------------------------------------------------

    def summarise(self, first: int, last: int) -> dict:
        """Self time and call counts of the spans in ``[first, last)``.

        Returns ``{"self_ns": {name id: ns}, "calls": {name id: n},
        "sched_from": {layer: n}}`` — ``sched_from`` counts ``schedule``-family
        calls by the layer of the span that made them.
        """
        name_ids, starts, ends, parents = (self.name_ids, self.starts,
                                           self.ends, self.parents)
        nnames = len(self.names)
        self_ns = [0] * nnames
        calls = [0] * nnames
        layer_of = [layer for _, layer in self.names]
        is_sched = [name.startswith("Engine.") and name != "Engine.run_until"
                    for name, _ in self.names]
        sched_from: Dict[str, int] = {}
        for i in range(first, last):
            nid = name_ids[i]
            dur = ends[i] - starts[i]
            self_ns[nid] += dur
            calls[nid] += 1
            parent = parents[i]
            if parent >= first:
                pid = name_ids[parent]
                self_ns[pid] -= dur
                if is_sched[nid]:
                    layer = layer_of[pid]
                    sched_from[layer] = sched_from.get(layer, 0) + 1
        return {"self_ns": self_ns, "calls": calls, "sched_from": sched_from}

    def _grouped(self, summary: dict, field: int) -> Dict[str, Tuple[int, int]]:
        out: Dict[str, List[int]] = {}
        for nid, key in enumerate(self.names):
            slot = out.setdefault(key[field], [0, 0])
            slot[0] += summary["self_ns"][nid]
            slot[1] += summary["calls"][nid]
        return {key: (ns, n) for key, (ns, n) in out.items()}

    def by_layer(self, summary: dict) -> Dict[str, Tuple[int, int]]:
        """layer → (self ns, spans) from :meth:`summarise`."""
        return self._grouped(summary, 1)

    def by_name(self, summary: dict) -> Dict[str, Tuple[int, int]]:
        """span name → (self ns, spans), same-named spans merged."""
        return self._grouped(summary, 0)

    def site_table(self) -> List[Tuple[str, int, str, int]]:
        """``schedule``-family calls by call site, most frequent first:
        (file, line, function, calls)."""
        rows = [(code.co_filename, line, code.co_qualname
                 if hasattr(code, "co_qualname") else code.co_name, count)
                for (code, line), count in self.sites.items()]
        rows.sort(key=lambda row: (-row[3], row[0], row[1]))
        return rows

    # -- output ---------------------------------------------------------------

    def write_chrome_trace(self, path: str, max_spans: int = 200_000) -> int:
        """Write the last repetition's spans as Chrome-trace JSON (``chrome://
        tracing`` / Perfetto "complete" events).  At most ``max_spans`` spans
        from the start of the repetition are written; returns how many."""
        first, last = self.trace_bounds()[-1]
        last = min(last, first + max_spans)
        origin = self.starts[first] if last > first else 0
        tid = len(self.trace_starts) - 1  # the trace id
        with open(path, "w") as out:
            out.write('{"displayTimeUnit":"ns","traceEvents":[\n')
            for i in range(first, last):
                name, layer = self.names[self.name_ids[i]]
                record = {
                    "ph": "X", "pid": 1, "tid": tid, "name": name,
                    "cat": layer,
                    "ts": (self.starts[i] - origin) / 1000.0,
                    "dur": (self.ends[i] - self.starts[i]) / 1000.0,
                    "args": {"span": i - first,
                             "parent": self.parents[i] - first
                             if self.parents[i] >= first else -1},
                }
                out.write(json.dumps(record, separators=(",", ":")))
                out.write(",\n" if i + 1 < last else "\n")
            out.write("]}\n")
        return last - first
