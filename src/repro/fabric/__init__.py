"""The network fabric: links, switches, load balancing, topologies.

Substitutes for the paper's hardware testbeds: the 40 Gb/s two-stage Clos
(Figure 19), the strict-priority bottleneck of the bandwidth-guarantee
experiment (Figure 17), and the NetFPGA-10G switch that injects precisely
controlled reordering (Figure 11).  Reordering emerges here exactly as in
the testbed — from queueing-delay differences across parallel paths and
priority levels — not from any artificial shuffling of the packet stream.
"""
