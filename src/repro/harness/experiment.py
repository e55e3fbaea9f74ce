"""Shared experiment plumbing: GRO engine selection by name."""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro.core.config import JugglerConfig
from repro.core.juggler import JugglerGRO
from repro.core.standard_gro import StandardGRO
from repro.nic.nic import GroFactory


class GroKind(enum.Enum):
    """Which receive-offload implementation a host runs."""

    JUGGLER = "juggler"
    VANILLA = "vanilla"
    CHAINED = "chained"
    PRESTO = "presto"

    @classmethod
    def of(cls, name: Union["GroKind", str]) -> "GroKind":
        """Resolve a kind or its name; ``"standard"`` is the sweep
        families' spelling of :attr:`VANILLA`."""
        if isinstance(name, cls):
            return name
        if name == "standard":
            return cls.VANILLA
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown GRO engine: {name!r}") from None


def make_gro_factory(
    kind: Union[GroKind, str],
    config: Optional[JugglerConfig] = None,
) -> GroFactory:
    """Build a per-RX-queue GRO factory for the requested engine.

    ``kind`` goes through :meth:`GroKind.of`, so an unknown name raises
    here, when the factory is built, not when the first queue is.
    """
    kind = GroKind.of(kind)
    if kind is GroKind.JUGGLER:
        return lambda deliver: JugglerGRO(deliver, config)
    if kind is GroKind.VANILLA:
        return lambda deliver: StandardGRO(deliver)
    if kind is GroKind.CHAINED:
        from repro.core.chained_gro import ChainedGRO

        return lambda deliver: ChainedGRO(deliver)
    from repro.core.presto_gro import PrestoGRO

    return lambda deliver: PrestoGRO(deliver, config)
