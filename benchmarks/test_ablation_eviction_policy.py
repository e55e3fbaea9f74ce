"""Ablation: eviction-policy ordering (§4.3, Figure 8).

Evicting flows whose OOO queues have holes (active/loss-recovery first)
strands re-entering flows on timeouts; the paper's inactive-first order
avoids that.
"""

from conftest import show

from repro.experiments import ablations
from repro.experiments.ablations import AblationParams, render
from repro.experiments.common import run_grid

PARAMS = AblationParams(
    configs=("evict=inactive_first", "evict=fifo", "evict=active_first"),
    duration_ms=30)


def test_ablation_eviction_policy():
    points = run_grid(ablations, PARAMS)
    show("Ablation — eviction policy "
         "(paper's inactive-first vs FIFO vs adversarial active-first)",
         render(points))
    paper, fifo, inverted = points
    # The adversarial inversion fragments batching and churns the table.
    assert inverted.segments_per_packet > 1.1 * paper.segments_per_packet
    assert inverted.evictions > paper.evictions
    # Throughput differences sit near the noise floor at bench scale.
    assert inverted.throughput_gbps <= paper.throughput_gbps * 1.02
    # Plain FIFO lands close to the paper's policy here because old entries
    # are usually inactive anyway — the order matters under adversity.
    assert abs(fifo.segments_per_packet
               - paper.segments_per_packet) < 0.2
