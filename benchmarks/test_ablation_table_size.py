"""Ablation: gro_table capacity (§5.2.2).

Paper: "a small 8 entry gro_table" suffices for per-packet load balancing;
"even if the application requires Juggler to handle up to 1ms of
reordering, a 64 entry gro_table is adequate".
"""

from conftest import show

from repro.experiments.ablations import (
    AblationParams,
    render,
    run_table_size_ablation,
)

PARAMS = AblationParams(duration_ms=30)
CAPACITIES = (2, 4, 8, 16, 64)


def test_ablation_table_size():
    points = run_table_size_ablation(PARAMS, CAPACITIES)
    show("Ablation — gro_table capacity sweep "
         "(paper: small tables suffice; starving the table hurts)",
         render(points))
    by_cap = {int(p.label.split("=")[1]): p for p in points}
    # A starved table fragments batching relative to an ample one.
    assert (by_cap[2].segments_per_packet
            > 1.5 * by_cap[64].segments_per_packet)
    # Bigger tables never batch worse (monotone within noise).
    caps = sorted(by_cap)
    for small, large in zip(caps, caps[1:]):
        assert (by_cap[large].segments_per_packet
                <= by_cap[small].segments_per_packet * 1.1)
    # With 64 entries and 64 flows, eviction never has to fire.
    assert by_cap[64].evictions == 0
    assert by_cap[64].throughput_gbps >= by_cap[2].throughput_gbps
