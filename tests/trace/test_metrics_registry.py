"""Counters, gauges, histograms, timeseries and component bindings."""

from repro.core.flush import FlushReason
from repro.core.stats import GroStats
from repro.harness.metrics import Sampler
from repro.sim.engine import Engine
from repro.sim.time import US
from repro.trace import runtime
from repro.trace.metrics import MetricsRegistry
from repro.trace.tracer import Tracer


def test_counter_get_or_create_and_inc():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.counter("a").inc(4)
    assert registry.snapshot()["a"] == 5


def test_gauge_reads_live_and_can_be_repointed():
    registry = MetricsRegistry()
    state = {"v": 1}
    registry.gauge("g", lambda: state["v"])
    state["v"] = 7
    assert registry.snapshot()["g"] == 7
    registry.gauge("g", lambda: 42)  # sweeps re-register per cell
    assert registry.snapshot()["g"] == 42


def test_histogram_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("h", bin_width=10)
    for v in (5, 15, 15):
        hist.add(v)
    assert registry.snapshot()["h"] == {
        "total": 3, "buckets": [(0, 1), (10, 2)]}


def test_timeseries_bounded():
    registry = MetricsRegistry()
    series = registry.timeseries("s", maxlen=2)
    for i in range(5):
        series.add(i, float(i))
    assert series.samples == [(3, 3.0), (4, 4.0)]


def test_render_is_sorted_text():
    registry = MetricsRegistry()
    registry.counter("b").inc()
    registry.gauge("a", lambda: 1.5)
    text = registry.render()
    assert text.index("a") < text.index("b")
    assert MetricsRegistry().render() == "(no metrics registered)"


def test_gro_stats_bind_exposes_live_gauges():
    stats = GroStats()
    registry = MetricsRegistry()
    stats.bind(registry, prefix="gro0")
    stats.packets += 3
    stats.record_delivery(None, 0, 1448, 2, FlushReason.FLAGS)
    snap = registry.snapshot()
    assert snap["gro0.packets"] == 3
    assert snap["gro0.segments"] == 1
    assert snap["gro0.batching_extent"] == 2.0


def test_engine_registers_event_loop_gauges():
    tracer = Tracer()
    with runtime.tracing(tracer):
        engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    assert tracer.metrics.snapshot()["sim.events_processed"] == 1


def test_sampler_feeds_registry_timeseries():
    engine = Engine()
    registry = MetricsRegistry()
    series = registry.timeseries("gro.active")
    values = iter(range(100))
    sampler = Sampler(engine, lambda: next(values), 10 * US, into=series)
    sampler.start()
    engine.run_until(35 * US)
    assert series.values() == [0, 1, 2]
    assert sampler.samples == series.samples
