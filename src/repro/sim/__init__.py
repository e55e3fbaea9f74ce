"""Discrete-event simulation substrate.

The paper evaluates Juggler on 10/40 Gb/s hardware testbeds.  This package
provides the pure-Python replacement: an integer-nanosecond event engine that
the NIC, fabric, TCP and CPU models are driven by.  Everything in the
reproduction is deterministic given a seed.
"""
