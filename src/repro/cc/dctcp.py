"""DCTCP as a first-class policy (RFC 8257, the SIGCOMM '10 algorithm).

Structurally this is :class:`~repro.cc.reno.RenoCC` — DCTCP *is* Reno
between marks, and Reno already carries the α reaction — with one
canonical difference: α starts at 1.0, the conservative RFC 8257
initialisation (Linux ``dctcp_alpha_on_init``), so the first marked window
reacts strongly instead of waiting for the EWMA to warm up.
"""

from __future__ import annotations

from repro.cc.reno import RenoCC


class DctcpCC(RenoCC):
    """Canonical DCTCP: Reno windows plus the α reaction, α₀ = 1."""

    name = "dctcp"

    def __init__(self, config, rtt, *, tracer=None, flow=None):
        super().__init__(config, rtt, tracer=tracer, flow=flow)
        self.dctcp_alpha = 1.0
