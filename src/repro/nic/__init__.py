"""NIC receive-path model: RSS, ring buffers, interrupt coalescing, NAPI.

The paper's receive pipeline (Figure 2): the NIC steers each packet's
five-tuple to a receive queue (RSS hashing by default — see
:mod:`repro.steer` for the pluggable policies, including Flow Director); the driver raises an interrupt (subject to
coalescing, ~125 µs in their testbed — §5.2.1 notes it "acts as an
additional reordering buffer layer before Juggler"); the kernel then polls
the queue empty, feeding every packet to the GRO engine, and signals polling
completion.  Each RX queue owns its private GRO engine instance, exactly as
Juggler instantiates its data structures per queue.
"""
