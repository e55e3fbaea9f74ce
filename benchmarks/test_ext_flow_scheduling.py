"""Extension: §2.1's pFabric/PIAS use case, which the paper motivates
("dynamically changing a flow's priority is a powerful technique for ...
flow scheduling") but does not evaluate.  Demonstrates that the scheduling
win exists only on a reordering-resilient stack."""

from conftest import show

from repro.experiments import flow_scheduling
from repro.experiments.common import run_grid
from repro.experiments.flow_scheduling import SchedulingParams, render

PARAMS = SchedulingParams(warmup_ms=8, measure_ms=30)


def test_ext_flow_scheduling():
    points = run_grid(flow_scheduling, PARAMS)
    show("Extension — PIAS-style flow scheduling over two priorities "
         "(§2.1 motivation: needs a reordering-resilient receiver)",
         render(points))
    baseline, pias_juggler, pias_vanilla = points
    # Prioritisation helps the mice tail substantially under Juggler...
    assert pias_juggler.mice_p99_us < 0.8 * baseline.mice_p99_us
    # ...while the vanilla receiver's reordering tax erases the benefit.
    assert pias_vanilla.mice_p99_us > 1.2 * pias_juggler.mice_p99_us
    # The usual SRPT trade: elephants pay a little.
    assert pias_juggler.elephant_p99_ms >= baseline.elephant_p99_ms
    assert baseline.mice_done > 100  # enough samples to mean something
