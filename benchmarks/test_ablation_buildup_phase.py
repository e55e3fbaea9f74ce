"""Ablation: the build-up phase (Remark 1).

Paper: learning ``seq_next`` across the first polling interval (letting it
move backwards) yields ~6% fewer segments up the stack.
"""

from conftest import show

from repro.experiments import ablations
from repro.experiments.ablations import AblationParams, render
from repro.experiments.common import run_grid

PARAMS = AblationParams(configs=("buildup=on", "buildup=off"),
                        duration_ms=25)


def test_ablation_buildup_phase():
    points = run_grid(ablations, PARAMS)
    show("Ablation — build-up phase on/off "
         "(paper: ~6% fewer segments with the optimisation)",
         render(points))
    on, off = points
    assert on.segments_per_packet < off.segments_per_packet
    saving = 1.0 - on.segments_per_packet / off.segments_per_packet
    assert saving > 0.03  # at least a few percent, as the paper reports
    assert on.throughput_gbps >= off.throughput_gbps - 0.2
