"""The sketch-based reordering detector, graded against exact ground truth."""

import dataclasses
import hashlib
import random

import pytest

from repro.fabric.detector import DetectorConfig, ReorderDetector
from repro.net.addr import FiveTuple
from repro.net.constants import MSS
from repro.trace.metrics import MetricsRegistry
from repro.trace.groundtruth import GroundTruthSink, grade

HEAVY_THRESHOLD = 10_000


def flow(i):
    return FiveTuple(1 + (i % 32), 200 + i // 32, 10_000 + i, 80)


def mixed_workload(n_heavy=8, n_light=40, pkts_per_flow=40, seed=11):
    """A deterministic arrival stream: (flow, seq, end_seq, payload) tuples.

    Heavy flows deliver every other packet late (half their bytes
    reordered); light flows arrive strictly in order.  Flows interleave in
    a seeded shuffle so table slots stay under realistic churn.
    """
    arrivals = []
    for i in range(n_heavy + n_light):
        f = flow(i)
        order = list(range(pkts_per_flow))
        if i < n_heavy:  # swap each adjacent pair: 1,0,3,2,...
            for j in range(0, pkts_per_flow - 1, 2):
                order[j], order[j + 1] = order[j + 1], order[j]
        arrivals.append([(f, k * MSS, (k + 1) * MSS, MSS) for k in order])
    stream = []
    rng = random.Random(seed)
    cursors = [0] * len(arrivals)
    live = list(range(len(arrivals)))
    while live:
        i = live[rng.randrange(len(live))]
        # Dequeue a per-flow *pair* so the swapped ordering survives the
        # interleave (pairs from other flows may land between pairs).
        for _ in range(2):
            if cursors[i] < len(arrivals[i]):
                stream.append(arrivals[i][cursors[i]])
                cursors[i] += 1
        if cursors[i] >= len(arrivals[i]):
            live.remove(i)
    return stream


def run_both(stream, config=None):
    detector = ReorderDetector(config)
    truth = GroundTruthSink()
    now = 0
    for f, seq, end_seq, payload in stream:
        detector.observe(f, seq, end_seq, payload)
        truth.observe(f, seq, end_seq, now, payload)
        now += 1000
    return detector, truth


# -- configuration and sizing -------------------------------------------------


def test_budget_partition_never_exceeds_the_budget():
    for budget in (256, 512, 2048, 8192, 65536):
        cfg = DetectorConfig(memory_budget_bytes=budget)
        assert ReorderDetector(cfg).memory_bytes <= budget


def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(memory_budget_bytes=128)
    with pytest.raises(ValueError):
        DetectorConfig(heavy_threshold_bytes=0)


# -- mechanics ----------------------------------------------------------------


def test_in_order_flow_reports_nothing():
    detector = ReorderDetector()
    f = flow(0)
    for k in range(50):
        detector.observe(f, k * MSS, (k + 1) * MSS, MSS)
    assert detector.stats.reordered_packets == 0
    assert detector.heavy_reorderers() == set()
    assert detector.estimate(f) == 0


def test_reordered_flow_crosses_the_heavy_threshold():
    detector = ReorderDetector()
    f = flow(0)
    need = HEAVY_THRESHOLD // MSS + 2
    for k in range(need):
        detector.observe(f, (2 * k + 1) * MSS, (2 * k + 2) * MSS, MSS)
        detector.observe(f, 2 * k * MSS, (2 * k + 1) * MSS, MSS)  # late
    assert detector.stats.reordered_packets == need
    assert detector.estimate(f) >= need * MSS
    assert detector.heavy_reorderers() == {f}


def test_sketch_estimate_never_undercounts_a_tracked_flow():
    stream = mixed_workload()
    detector, truth = run_both(stream)
    for f, t in truth.per_flow().items():
        if t.reordered_bytes:
            assert detector.estimate(f) >= t.reordered_bytes


def test_eviction_under_table_pressure_is_bounded_and_counted():
    cfg = DetectorConfig(memory_budget_bytes=256)  # 8 slots
    detector = ReorderDetector(cfg)
    for i in range(200):
        detector.observe(flow(i), 0, MSS, MSS)
    assert detector.tracked_flows <= cfg.flow_slots
    assert detector.stats.evictions > 0
    assert detector.stats.inserts == 200


def test_stale_slots_are_reclaimed_not_evicted():
    cfg = DetectorConfig(memory_budget_bytes=256, stale_after=8)
    detector = ReorderDetector(cfg)
    # One resident flow goes idle, then a burst of strangers arrives.
    detector.observe(flow(0), 0, MSS, MSS)
    for i in range(1, 60):
        detector.observe(flow(i), 0, MSS, MSS)
    assert detector.stats.stale_reclaims > 0


def test_heavy_store_is_bounded_and_keeps_the_largest():
    cfg = DetectorConfig(memory_budget_bytes=256,  # heavy capacity: 2
                         heavy_threshold_bytes=100)
    detector = ReorderDetector(cfg)
    for i in range(6):
        f = flow(i)
        for k in range(3 + i):  # later flows reorder more bytes
            detector.observe(f, (2 * k + 1) * 100, (2 * k + 2) * 100, 100)
            detector.observe(f, 2 * k * 100, (2 * k + 1) * 100, 100)
    heavy = detector.heavy_reorderers()
    assert len(heavy) <= cfg.heavy_capacity


def test_detector_is_deterministic():
    stream = mixed_workload()
    a, _ = run_both(stream)
    b, _ = run_both(stream)
    assert a.heavy_reorderers() == b.heavy_reorderers()
    assert a.stats == b.stats


# -- the full state, pinned ---------------------------------------------------


def churn_stream(seed=7, flows=160, packets=6000):
    """A skewed arrival stream: low-numbered flows are busy, the tail goes
    idle (stale slots) or thrashes the table (evictions); 30 % of a busy
    flow's packets come back up to five MSS below its watermark."""
    rng = random.Random(seed)
    keys = [FiveTuple(1 + i % 16, 100 + i // 16, 20_000 + i, 80)
            for i in range(flows)]
    watermark = [0] * flows
    stream = []
    for _ in range(packets):
        i = min(int(rng.expovariate(1 / 40)), flows - 1)
        seq = watermark[i]
        if seq and rng.random() < 0.3:
            seq = max(0, seq - rng.randrange(1, 6) * MSS)
        else:
            watermark[i] = seq + MSS
        stream.append((keys[i], seq, seq + MSS, MSS))
    return stream


def state_digest(detector):
    """sha256 over everything the detector holds: the three slot columns,
    the sketch rows, the heavy store in insertion order and the stats."""
    h = hashlib.sha256()
    for column in (detector._sig, detector._expected, detector._tick_col,
                   *detector._rows):
        h.update(repr(list(column)).encode())
    h.update(repr([(str(f), v) for f, v in detector._heavy.items()]).encode())
    h.update(repr(dataclasses.astuple(detector.stats)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("budget, stale_after, digest", [
    (256, 6,
     "ce8ad698e58b90b0edc14962625f0ce38701bcf4f2782c041503c46b69e28c70"),
    (1024, 40,
     "0516ecd67b3f6a39f1823f3d5e59fb8e21b2d9a04b0e4d801b0418bec5cbe6fc"),
    (8192, 300,
     "52083e38bb445aeb34ae812bf4274596e1841f1336243a586f8e73d5bdc0fa2b"),
])
def test_full_state_after_a_churning_stream_is_pinned(budget, stale_after,
                                                      digest):
    """Every slot, counter and heavy entry is what the detector computed
    when this pin was recorded — hits, installs, stale reclaims, evictions,
    heavy inserts, refreshes of heavy flows and displacements all occur.
    A detector under another salt sees the same flows first: what one
    detector learns about a flow's hashes is its own."""
    config = DetectorConfig(memory_budget_bytes=budget,
                            heavy_threshold_bytes=4 * MSS,
                            stale_after=stale_after)
    other = ReorderDetector(config, salt=1)
    for args in churn_stream():
        other.observe(*args)
    detector = ReorderDetector(config)
    refreshes = 0
    for args in churn_stream():
        was_heavy = args[0] in detector._heavy
        reordered = detector.stats.reordered_packets
        detector.observe(*args)
        refreshes += was_heavy and detector.stats.reordered_packets > reordered
    stats = detector.stats
    assert min(dataclasses.astuple(stats)) > 0, stats
    assert refreshes > 0 and detector._heavy
    assert state_digest(detector) == digest


# -- the acceptance grade -----------------------------------------------------


def test_default_budget_hits_point_nine_precision_and_recall():
    stream = mixed_workload()
    detector, truth = run_both(stream)
    actual = truth.heavy_reorderers(HEAVY_THRESHOLD)
    assert actual, "workload must actually contain heavy reorderers"
    precision, recall = grade(detector.heavy_reorderers(), actual)
    assert precision >= 0.9, f"precision {precision:.2f} < 0.9"
    assert recall >= 0.9, f"recall {recall:.2f} < 0.9"


def test_memory_accuracy_curve_reported_and_monotonic_at_the_ends():
    """The budget axis is the whole point: tabulate precision/recall per
    budget (docs/fabric.md quotes this curve) and require the generous end
    to do at least as well as the starved end on F1."""
    stream = mixed_workload()
    curve = []
    for budget in (256, 512, 1024, 2048, 4096, 8192):
        detector, truth = run_both(
            stream, DetectorConfig(memory_budget_bytes=budget))
        actual = truth.heavy_reorderers(HEAVY_THRESHOLD)
        p, r = grade(detector.heavy_reorderers(), actual)
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        curve.append((budget, p, r, f1))
    print("\nmemory -> accuracy (heavy-reorderer detection):")
    for budget, p, r, f1 in curve:
        print(f"  {budget:6d} B  precision={p:.2f}  recall={r:.2f}  "
              f"f1={f1:.2f}")
    assert curve[-1][3] >= curve[0][3]
    assert curve[-1][1] >= 0.9 and curve[-1][2] >= 0.9


# -- metrics export -----------------------------------------------------------


def test_bind_metrics_exports_gauges():
    registry = MetricsRegistry()
    detector = ReorderDetector()
    detector.bind_metrics(registry, "fabric.tor0")
    f = flow(0)
    detector.observe(f, 2 * MSS, 3 * MSS, MSS)
    detector.observe(f, 0, MSS, MSS)
    snap = registry.snapshot()
    gauges = snap["gauges"] if "gauges" in snap else snap
    flat = {k: v for k, v in gauges.items()}
    assert flat["fabric.tor0.packets"] == 2
    assert flat["fabric.tor0.reordered_packets"] == 1
    assert flat["fabric.tor0.tracked_flows"] == 1
    assert flat["fabric.tor0.memory_bytes"] == detector.memory_bytes
