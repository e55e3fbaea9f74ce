"""§5.1.2: Juggler adds no latency to short RPCs without reordering."""

import pytest

from conftest import show

from repro.experiments import sec512_latency_overhead as sec512
from repro.experiments.common import run_grid
from repro.experiments.sec512_latency_overhead import Sec512Params, render

PARAMS = Sec512Params(duration_ms=40)


def test_sec512_median_latency_unchanged():
    points = run_grid(sec512, PARAMS)
    show("§5.1.2 — 150B RPC latency, idle network "
         "(paper: median identical with and without Juggler)",
         render(points))
    juggler, vanilla = points
    assert juggler.median_us == pytest.approx(vanilla.median_us, rel=0.02)
    assert juggler.p99_us == pytest.approx(vanilla.p99_us, rel=0.10)
    assert juggler.rpcs > 1000
