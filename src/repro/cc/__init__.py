"""repro.cc — pluggable congestion control for the TCP sender.

The sender (:mod:`repro.tcp.sender`) is the mechanism; the classes here
are the policies.  Select one with ``TcpConfig.cc``:

======== ===========================================================
``reno``   NewReno + legacy ECN-gated DCTCP reaction (the default —
           byte-identical to the pre-split sender).
``cubic``  RFC 8312 cubic window growth, β = 0.7 loss response.
``dctcp``  Canonical RFC 8257 DCTCP (always-on ECN reaction, α₀ = 1).
``bbr``    BBRv1 model-based rate control (startup/drain/probe_bw/
           probe_rtt), paced by the sim timer wheel.
======== ===========================================================

See docs/transport.md for the mechanism/policy contract and the
``cc_reordering`` campaign family that sweeps these policies against
reordering intensity.
"""
