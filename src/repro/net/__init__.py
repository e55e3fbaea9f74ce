"""Packet-level model of the wire and of sk_buffs.

This package is the reproduction's stand-in for what the kernel and NIC see:
five-tuples, TCP headers (the subset GRO inspects), MTU-sized packets, TSO
segmentation at the sender, and merged receive segments (the ``frags[]``
array vs linked-list distinction from Figure 3 of the paper).
"""
