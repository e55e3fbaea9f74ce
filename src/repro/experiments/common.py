"""Helpers shared by the per-figure experiment modules: the one sweep loop
every family runs through and the Gb/s conversion.  Cell construction
and the measurement window live in :mod:`repro.experiments.cell`.

A family module is a grid: ``POINT_AXES`` (its ordered ``(axis, params
field)`` pairs), optionally ``PAIRED_AXES`` (the arms of one comparison),
``run_point(params: XParams, **point) -> XPoint`` and ``render(points)``.
:func:`run_grid` runs its points serially; the campaign runner fans the same
points out as tasks."""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Sequence, Tuple, get_type_hints

from repro.nic.nic import NicConfig

#: Adaptive-style coalescing on the 40G testbeds: a short time window, so
#: ACK-side latency does not dominate the (tiny) fabric RTT.
SHORT_COALESCING = NicConfig(num_queues=1, coalesce_ns=30_000,
                             coalesce_frames=32)


def grid_points(axes: Sequence[Tuple[str, str]],
                params) -> Iterator[Dict[str, object]]:
    """Iterate a sweep grid in row-major (outer-axis-first) order.

    ``axes`` is the module's ordered ``(axis_name, params_field)`` pairs;
    each yielded dict maps axis names to one grid point's values.
    :func:`run_grid` iterates through here, in the nesting order the
    campaign runner expands tasks in, so a campaign report lists rows in
    exactly the order the serial sweep would.
    """
    values = [getattr(params, field) for _, field in axes]
    names = [axis for axis, _ in axes]
    for combo in itertools.product(*values):
        yield dict(zip(names, combo))


def params_class(module) -> type:
    """A family module's ``*Params`` class: ``run_point``'s ``params``."""
    return get_type_hints(module.run_point)["params"]


def point_class(module) -> type:
    """A family module's point class: what ``run_point`` returns."""
    return get_type_hints(module.run_point)["return"]


def run_grid(module, params=None) -> List:
    """Every point of ``module``'s grid under ``params`` (the module's
    ``*Params`` defaults when None), in ``POINT_AXES`` order: the list
    ``module.render`` takes."""
    if params is None:
        params = params_class(module)()
    return [module.run_point(params, **point)
            for point in grid_points(module.POINT_AXES, params)]


def gbps(nbytes: int, window_ns: int) -> float:
    """Convert a byte count over a window into Gb/s."""
    if window_ns <= 0:
        return 0.0
    return nbytes * 8 / window_ns
