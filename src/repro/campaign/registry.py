"""Experiment adapters: how the campaign runner drives each experiment.

A worker resolves the experiment *by name* through this registry and asks
its adapter to run one task: one point of the module's grid (see
:mod:`repro.experiments.common`) through ``run_point(params, **point)``.
The reporter reassembles the points into the module's own ``render()``.
The module is the family record (``POINT_AXES``, ``PAIRED_AXES``, and
``run_point``'s annotations for its params and point classes), so an entry
here is a name, a description and, where two families share a module,
this family's slice of the grid.  Axis values are JSON-native; rows cross
the JSON store with enums as their ``.value``.  Modules are imported
lazily, so listing experiments stays cheap.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, \
    get_type_hints


def _tuplify(value):
    """JSON round-trips tuples as lists; params fields expect tuples."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


class Adapter:
    """Interface between the campaign machinery and one experiment."""

    def __init__(self, name: str, module: str, description: str,
                 grid: Optional[Mapping] = None, hidden: bool = False):
        self.name = name
        self.module = module
        self.description = description
        #: Axis values that replace the params defaults for this family.
        self._grid = dict(grid or {})
        #: Hidden adapters are resolvable by name (specs, ``sweep``,
        #: workers) but do not appear in ``juggler-repro list`` or ``all``.
        self.hidden = hidden

    def _mod(self):
        return importlib.import_module(self.module)

    def params_cls(self) -> type:
        from repro.experiments.common import params_class

        return params_class(self._mod())

    @property
    def axes(self) -> Tuple[Tuple[str, str], ...]:
        """The module's ordered ``(axis_name, params_field)`` pairs; the
        order is its own loop nesting, so reports match serial output."""
        return tuple(self._mod().POINT_AXES)

    @property
    def paired_axes(self) -> Tuple[str, ...]:
        """Axes that are arms of one comparison: they pick no randomness."""
        return tuple(getattr(self._mod(), "PAIRED_AXES", ()))

    def axis_names(self) -> Tuple[str, ...]:
        return tuple(axis for axis, _ in self.axes)

    def default_grid(self) -> Dict[str, list]:
        """Axis -> values: this family's slice of the params defaults."""
        defaults = self.params_cls()()
        grid = {axis: list(getattr(defaults, field))
                for axis, field in self.axes}
        grid.update(self._grid)
        return grid

    def build_point_params(self, base: Mapping, seed: Optional[int],
                           point: Mapping):
        """Params for one point: axis tuples collapsed to that point."""
        kwargs = {k: _tuplify(v) for k, v in dict(base).items()}
        for axis, field in self.axes:
            kwargs[field] = (point[axis],)
        if seed is not None:
            kwargs["seed"] = seed
        return self.params_cls()(**kwargs)

    def execute(self, base: Mapping, seed: Optional[int],
                point: Mapping) -> List[dict]:
        """Run one task; return its result rows (JSON-able dicts)."""
        result = self._mod().run_point(
            self.build_point_params(base, seed, point), **point)
        return [{k: v.value if isinstance(v, enum.Enum) else v
                 for k, v in dataclasses.asdict(result).items()}]

    def render(self, records: Sequence[Mapping]) -> str:
        """Rebuild the experiment's table from its completed records."""
        from repro.experiments.common import point_class

        mod = self._mod()
        cls = point_class(mod)
        enums = {k: t for k, t in get_type_hints(cls).items()
                 if isinstance(t, type) and issubclass(t, enum.Enum)}
        points = [cls(**{k: enums[k](v) if k in enums else v
                         for k, v in row.items()})
                  for record in sorted(records, key=lambda r: r["index"])
                  for row in record["rows"]]
        return mod.render(points)

    def run_default(self) -> str:
        """The serial, in-process run of the default grid (what the plain
        CLI prints)."""
        from repro.experiments.common import run_grid

        grid = self.default_grid()
        params = self.params_cls()(**{field: tuple(grid[axis])
                                      for axis, field in self.axes})
        mod = self._mod()
        return mod.render(run_grid(mod, params))


_E = "repro.experiments"

ADAPTERS: Dict[str, Adapter] = {a.name: a for a in [
    Adapter("fig01", f"{_E}.fig01_bandwidth_guarantee",
            "bandwidth-guarantee time series (Figure 1)"),
    Adapter("fig09", f"{_E}.cpu_overhead",
            "CPU overhead, single flow (Figure 9)", grid={"num_flows": [1]}),
    Adapter("fig10", f"{_E}.cpu_overhead",
            "CPU overhead, 256 flows (Figure 10)", grid={"num_flows": [256]}),
    Adapter("fig12", f"{_E}.fig12_inseq_timeout",
            "batching vs inseq_timeout (Figure 12)"),
    Adapter("fig13", f"{_E}.fig13_ofo_timeout_throughput",
            "throughput vs ofo_timeout (Figure 13)"),
    Adapter("fig14", f"{_E}.fig14_ofo_timeout_latency",
            "RPC tail vs ofo_timeout under loss (Figure 14)"),
    Adapter("fig15", f"{_E}.fig15_active_flows",
            "active flows vs concurrency (Figure 15)"),
    Adapter("fig16", f"{_E}.fig16_active_list_histogram",
            "active-list statistics on Clos (Figure 16)"),
    Adapter("fig18", f"{_E}.fig18_bandwidth_sweep",
            "guarantee sweep (Figure 18)"),
    Adapter("fig20", f"{_E}.fig20_load_balancing",
            "load-balancing granularity (Figure 20)"),
    Adapter("sec31", f"{_E}.sec31_chained_gro_cost",
            "linked-list batching cost (Section 3.1)"),
    Adapter("sec512", f"{_E}.sec512_latency_overhead",
            "latency overhead (Section 5.1.2)"),
    Adapter("ablations", f"{_E}.ablations",
            "design-choice ablations (DESIGN.md §5)"),
    Adapter("scheduling", f"{_E}.flow_scheduling",
            "extension: PIAS/pFabric flow scheduling"),
    Adapter("fdir_reordering", f"{_E}.fdir_reordering",
            "self-inflicted reordering: steering policy x flow count "
            "x churn x GRO engine (docs/steering.md)", hidden=True),
    Adapter("cc_reordering", f"{_E}.cc_reordering",
            "congestion control x reordering intensity x GRO engine "
            "(docs/transport.md)", hidden=True),
    Adapter("host_vs_fabric", f"{_E}.host_vs_fabric",
            "host-side Juggler vs fabric-side in-order routing: GRO "
            "engine x routing policy x load x fault (docs/fabric.md)",
            hidden=True),
    Adapter("faults_matrix", "repro.faults.experiments",
            "resilience matrix: fault kind x intensity x GRO engine "
            "(docs/faults.md)", hidden=True),
    Adapter("selftest", "repro.campaign.selftest",
            "campaign failure-injection selftest", hidden=True),
]}


def get(name: str) -> Adapter:
    """Resolve an adapter by experiment name."""
    try:
        return ADAPTERS[name]
    except KeyError:
        raise KeyError(f"unknown experiment: {name}") from None


def names(include_hidden: bool = False) -> List[str]:
    """Registered experiment names, in catalog order."""
    return [n for n, a in ADAPTERS.items()
            if include_hidden or not a.hidden]


def cli_experiments() -> Dict[str, tuple]:
    """The ``{name: (runner, description)}`` dict the CLI lists and runs."""
    return {name: (adapter.run_default, adapter.description)
            for name, adapter in ADAPTERS.items() if not adapter.hidden}


def job_count(text: str) -> int:
    """The ``--jobs N`` argparse type of every command that runs tasks:
    a whole number of at least 1 (argparse exits 2 on anything else)."""
    jobs = int(text)
    if jobs < 1:
        raise ValueError(text)
    return jobs
