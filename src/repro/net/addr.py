"""The canonical five-tuple flow key.

Juggler keys its ``gro_table`` entries "by the canonical five-tuple" (§4.1);
the NIC's RSS hash that spreads flows across receive queues uses the same
tuple.  We model addresses as small integers (host ids / port numbers) —
sufficient for hashing and equality, which is all the stack inspects.

``FiveTuple`` is the single hottest dictionary key in the stack: every
packet probes the ``gro_table`` (and the host demux, and the stats map)
with one.  It is therefore a slotted value class with its hash computed
once at construction — as a ``NamedTuple`` it re-hashed all five fields on
every probe, which profiling showed near the top of the receive path.
"""

from __future__ import annotations


class FiveTuple:
    """(src addr, dst addr, src port, dst port, protocol).

    Immutable by convention: nothing in the stack mutates a flow key after
    construction (mutating one would corrupt every dict it keys).
    """

    __slots__ = ("src", "dst", "sport", "dport", "proto", "_hash", "_rss",
                 "_reverse")

    def __init__(self, src: int, dst: int, sport: int, dport: int,
                 proto: int = 6):
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.proto = proto  # 6 = TCP
        self._hash = hash((src, dst, sport, dport, proto))
        # The NIC probes the RSS hash once per packet (steering demux);
        # computed here, beside _hash, for the same reason _hash is.
        h = 0xCBF29CE484222325
        for field in (src, dst, sport, dport, proto):
            h ^= field & 0xFFFFFFFF
            h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
            h ^= h >> 29
        self._rss = h

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FiveTuple):
            return (self.src == other.src and self.dst == other.dst
                    and self.sport == other.sport
                    and self.dport == other.dport
                    and self.proto == other.proto)
        return NotImplemented

    def __getstate__(self) -> tuple:
        # The value's slots only: ``_reverse`` is a cache, rebuilt on demand.
        return None, {"src": self.src, "dst": self.dst, "sport": self.sport,
                      "dport": self.dport, "proto": self.proto,
                      "_hash": self._hash, "_rss": self._rss}

    def reversed(self) -> "FiveTuple":
        """The tuple of the opposite direction (for ACKs), one object per
        direction: ``f.reversed() is f.reversed()`` and
        ``f.reversed().reversed() is f``, so a host's ACK demux finds its
        key by identity and never runs ``__eq__``."""
        try:
            return self._reverse
        except AttributeError:
            reverse = FiveTuple(self.dst, self.src, self.dport, self.sport,
                                self.proto)
            reverse._reverse = self
            self._reverse = reverse
            return reverse

    def rss_hash(self) -> int:
        """Deterministic flow hash, stand-in for the NIC's Toeplitz hash.

        Real NICs hash the five-tuple so all packets of one flow land on one
        RX queue; any well-mixed deterministic function reproduces that
        behaviour.  We use an FNV-1a style mix over the tuple fields,
        computed once at construction (``_rss``) — the NIC demuxes every
        wire packet through this value.
        """
        return self._rss

    def __str__(self) -> str:
        return f"{self.src}:{self.sport}->{self.dst}:{self.dport}/{self.proto}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FiveTuple(src={self.src}, dst={self.dst}, "
                f"sport={self.sport}, dport={self.dport}, proto={self.proto})")
