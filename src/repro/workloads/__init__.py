"""Traffic generators for the paper's experiments.

* :class:`RpcWorkload` — open-loop Poisson RPC arrivals multiplexed over a
  pool of long-lived TCP connections (the Figure 20 all-to-all generator).
* :class:`PingPongRpc` — closed-loop request/response for latency
  micro-benchmarks (§5.1.2, Figure 14).
* :class:`PoissonPacketSource` — synthetic background load injected at
  fabric links, used to create the "average load on the sending ToR uplinks
  is 50%" conditions of §5.1.1 without simulating thousands of extra
  end-host stacks.
"""
