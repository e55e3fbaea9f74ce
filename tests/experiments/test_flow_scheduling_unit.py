"""Unit-level checks on the flow-scheduling extension experiment."""

from repro.experiments.flow_scheduling import (
    ELEPHANT_BYTES,
    MICE_BYTES,
    MICE_FRACTION,
    SchedulingParams,
    SchedulingPoint,
    render,
    run_point,
)


def test_render_produces_rows():
    point = SchedulingPoint("pias/juggler", 150.0, 260.0, 5.1, 100, 20)
    text = render([point])
    assert "pias/juggler" in text
    assert "mice_p99_us" in text


def test_params_defaults_sane():
    params = SchedulingParams()
    assert MICE_BYTES < params.threshold_bytes < ELEPHANT_BYTES
    assert 0.0 < MICE_FRACTION < 1.0
    assert 0.0 < params.load < 1.0


def test_tiny_run_completes_flows():
    params = SchedulingParams(warmup_ms=3, measure_ms=8)
    point = run_point(params, config="pias/juggler")
    assert point.mice_done > 10
    assert point.mice_p50_us > 0
    assert point.label == "pias/juggler"


def test_prioritisation_label():
    params = SchedulingParams(warmup_ms=3, measure_ms=6)
    point = run_point(params, config="none/vanilla")
    assert point.label == "none/vanilla"
