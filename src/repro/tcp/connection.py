"""Convenience wiring of one TCP connection across the fabric."""

from __future__ import annotations

from typing import Optional

from repro.fabric.host import Host
from repro.net.addr import FiveTuple
from repro.sim.engine import Engine
from repro.tcp.config import TcpConfig
from repro.tcp.receiver import BytesCallback, TcpReceiver
from repro.tcp.sender import PriorityFn, TcpSender


class Connection:
    """A sender on one host, a receiver on another, one five-tuple."""

    def __init__(
        self,
        engine: Engine,
        src_host: Host,
        dst_host: Host,
        sport: int,
        dport: int,
        config: Optional[TcpConfig] = None,
        *,
        priority_fn: Optional[PriorityFn] = None,
        pacing_gbps: Optional[float] = None,
        on_bytes: Optional[BytesCallback] = None,
    ):
        self.flow = FiveTuple(src_host.host_id, dst_host.host_id, sport, dport)
        self.config = config if config is not None else TcpConfig()
        self.receiver = TcpReceiver(
            engine, dst_host, self.flow, self.config, on_bytes=on_bytes,
        )
        self.sender = TcpSender(
            engine, src_host, self.flow, self.config,
            priority_fn=priority_fn, pacing_gbps=pacing_gbps,
        )

    def send(self, nbytes: int) -> None:
        """Enqueue application data on the sender."""
        self.sender.send(nbytes)

    @property
    def delivered_bytes(self) -> int:
        """In-order bytes the receiver has accepted."""
        return self.receiver.rcv_nxt

    @property
    def done(self) -> bool:
        """All enqueued data delivered in order to the receiver."""
        return self.receiver.rcv_nxt >= self.sender.data_target

    def close(self) -> None:
        """Tear down both endpoints."""
        self.sender.close()
        self.receiver.close()
