"""Experiment adapters: how the campaign runner drives each experiment.

The scheduler moves tasks between processes as plain dicts; a worker
resolves the experiment *by name* through this registry and asks its
adapter to execute one task.  Two shapes exist:

* :class:`GridAdapter` — experiments whose ``run()`` is a parameter sweep
  (fig12–15 and the four reordering families).  One task per grid point;
  the adapter calls the module's ``run_point(params, **point)`` and the
  reporter later reassembles the points into the module's own ``render()``
  table.  The module is the family record: its ``POINT_AXES`` names the
  axes and its ``PAIRED_AXES`` (when present) the axes that are arms of
  one paired comparison; nothing here repeats them.
* :class:`ParamsAdapter` — everything else.  One task runs the whole
  experiment and returns its rendered table as a single ``output`` row.

Adapters import their experiment module lazily, so listing experiments
stays cheap and workers only pay for what they run.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple


def _tuplify(value):
    """JSON round-trips tuples as lists; params fields expect tuples."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


class Adapter:
    """Interface between the campaign machinery and one experiment."""

    is_grid = False
    #: Hidden adapters are resolvable by name (specs, ``sweep``, workers)
    #: but do not appear in ``juggler-repro list`` or ``all``.
    hidden = False

    def __init__(self, name: str, module: str, description: str,
                 params_cls: Optional[str] = None):
        self.name = name
        self.module = module
        self.description = description
        self.params_cls_name = params_cls

    def _mod(self):
        return importlib.import_module(self.module)

    def _params_cls(self):
        return getattr(self._mod(), self.params_cls_name)

    def build_params(self, base: Mapping, seed: Optional[int]):
        """Instantiate the ``*Params`` dataclass with overrides + seed."""
        kwargs = {k: _tuplify(v) for k, v in dict(base).items()}
        if seed is not None:
            kwargs["seed"] = seed
        return self._params_cls()(**kwargs)

    def validate_overrides(self, overrides: Mapping) -> None:
        """Reject overrides that name fields the params class lacks."""
        if not overrides:
            return
        fields = {f.name for f in dataclasses.fields(self._params_cls())}
        unknown = set(overrides) - fields
        if unknown:
            raise ValueError(
                f"{self.name}: unknown override field(s) "
                f"{sorted(unknown)}; valid fields: {sorted(fields)}")

    def axis_names(self) -> Tuple[str, ...]:
        return ()

    def execute(self, base: Mapping, seed: Optional[int], point: Mapping,
                attempt: int = 1) -> List[dict]:
        """Run one task; return its result rows (JSON-able dicts)."""
        raise NotImplementedError

    def render(self, records: Sequence[Mapping]) -> str:
        """Rebuild the experiment's table from its completed records."""
        raise NotImplementedError

    def run_default(self) -> str:
        """The serial, whole-experiment run (what the plain CLI prints)."""
        raise NotImplementedError


class ParamsAdapter(Adapter):
    """Whole-run experiments: one task, output already rendered."""

    def __init__(self, name: str, module: str, description: str,
                 params_cls: str,
                 runner: Optional[Callable] = None):
        super().__init__(name, module, description, params_cls)
        #: ``runner(mod, params_or_None) -> str``; params is None when the
        #: task has no overrides and no derived seed, in which case the
        #: module's own defaults apply (byte-identical to the plain CLI).
        self._runner = runner or (
            lambda mod, params: mod.render(
                mod.run() if params is None else mod.run(params)))

    def execute(self, base, seed, point, attempt=1):
        mod = self._mod()
        params = (None if not base and seed is None
                  else self.build_params(base, seed))
        return [{"output": self._runner(mod, params)}]

    def render(self, records):
        parts = []
        for record in sorted(records, key=lambda r: r["index"]):
            parts.extend(row["output"] for row in record["rows"])
        return "\n".join(parts)

    def run_default(self) -> str:
        return self.execute({}, None, {})[0]["output"]


class GridAdapter(Adapter):
    """Sweep experiments: one task per grid point."""

    is_grid = True

    def __init__(self, name: str, module: str, description: str,
                 params_cls: str, point_cls: str, result_cls: str,
                 hidden: bool = False):
        super().__init__(name, module, description, params_cls)
        self.point_cls_name = point_cls
        self.result_cls_name = result_cls
        self.hidden = hidden

    @property
    def axes(self) -> Tuple[Tuple[str, str], ...]:
        """The module's ordered ``(axis_name, params_field)`` pairs; the
        order is its own loop nesting, so reports match serial output."""
        return tuple(self._mod().POINT_AXES)

    @property
    def paired_axes(self) -> Tuple[str, ...]:
        """Axes that are arms of one comparison: they pick no randomness."""
        return tuple(getattr(self._mod(), "PAIRED_AXES", ()))

    def axis_names(self):
        return tuple(axis for axis, _ in self.axes)

    def default_grid(self) -> Dict[str, list]:
        defaults = self._params_cls()()
        return {axis: list(getattr(defaults, field))
                for axis, field in self.axes}

    def validate_grid(self, grid: Optional[Mapping]) -> Dict[str, list]:
        """Check axis names and shapes; axes left out keep their defaults."""
        out = self.default_grid()
        grid = grid or {}
        unknown = set(grid) - set(out)
        if unknown:
            raise ValueError(
                f"{self.name}: unknown grid axes {sorted(unknown)}; "
                f"expected {sorted(out)}")
        for axis, values in grid.items():
            values = list(values)
            if not values:
                raise ValueError(f"{self.name}: empty grid axis '{axis}'")
            if len(set(values)) != len(values):
                raise ValueError(
                    f"{self.name}: duplicate values on axis '{axis}'")
            out[axis] = values
        return out

    def validate_overrides(self, overrides: Mapping) -> None:
        super().validate_overrides(overrides)
        grid_fields = {field for _, field in self.axes}
        clash = set(overrides) & grid_fields
        if clash:
            raise ValueError(
                f"{self.name}: {sorted(clash)} are grid axes — put them "
                f"in 'grid', not 'overrides'")

    def build_point_params(self, base: Mapping, seed: Optional[int],
                           point: Mapping):
        """Params for one point: axis tuples collapsed to that point."""
        kwargs = {k: _tuplify(v) for k, v in dict(base).items()}
        for axis, field in self.axes:
            kwargs[field] = (point[axis],)
        if seed is not None:
            kwargs["seed"] = seed
        return self._params_cls()(**kwargs)

    def execute(self, base, seed, point, attempt=1):
        mod = self._mod()
        params = self.build_point_params(base, seed, point)
        result = mod.run_point(params, **point)
        return [dataclasses.asdict(result)]

    def render(self, records):
        mod = self._mod()
        point_cls = getattr(mod, self.point_cls_name)
        points = [point_cls(**row)
                  for record in sorted(records, key=lambda r: r["index"])
                  for row in record["rows"]]
        result_cls = getattr(mod, self.result_cls_name)
        return mod.render(result_cls(points=points))

    def run_default(self) -> str:
        mod = self._mod()
        return mod.render(mod.run())


class SelftestAdapter(GridAdapter):
    """The built-in failure-injection experiment (tests and CI)."""

    def execute(self, base, seed, point, attempt=1):
        mod = self._mod()
        params = self.build_point_params(base, seed, point)
        result = mod.run_point(params, attempt=attempt, **point)
        return [dataclasses.asdict(result)]


def _run_cpu_overhead(flows: int) -> Callable:
    def runner(mod, params):
        results = (mod.run_figure(flows) if params is None
                   else mod.run_figure(flows, params))
        return mod.render(results)
    return runner


def _run_ablations(mod, params):
    # The build-up ablation defaults to 60 us reordering (see its
    # docstring); pin that when a params override is supplied too.
    if params is None:
        buildup = mod.run_buildup_ablation()
        eviction = mod.run_eviction_ablation()
        table = mod.run_table_size_ablation()
    else:
        buildup = mod.run_buildup_ablation(
            dataclasses.replace(params, reorder_delay_us=60))
        eviction = mod.run_eviction_ablation(params)
        table = mod.run_table_size_ablation(params)
    return "\n".join([
        "Build-up phase:", mod.render(buildup),
        "\nEviction policy:", mod.render(eviction),
        "\ngro_table size:", mod.render(table),
    ])


_E = "repro.experiments"

ADAPTERS: Dict[str, Adapter] = {a.name: a for a in [
    ParamsAdapter("fig01", f"{_E}.fig01_bandwidth_guarantee",
                  "bandwidth-guarantee time series (Figure 1)",
                  "Fig01Params"),
    ParamsAdapter("fig09", f"{_E}.cpu_overhead",
                  "CPU overhead, single flow (Figure 9)",
                  "CpuOverheadParams", runner=_run_cpu_overhead(1)),
    ParamsAdapter("fig10", f"{_E}.cpu_overhead",
                  "CPU overhead, 256 flows (Figure 10)",
                  "CpuOverheadParams", runner=_run_cpu_overhead(256)),
    GridAdapter("fig12", f"{_E}.fig12_inseq_timeout",
                "batching vs inseq_timeout (Figure 12)", "Fig12Params",
                point_cls="Fig12Point", result_cls="Fig12Result"),
    GridAdapter("fig13", f"{_E}.fig13_ofo_timeout_throughput",
                "throughput vs ofo_timeout (Figure 13)", "Fig13Params",
                point_cls="Fig13Point", result_cls="Fig13Result"),
    GridAdapter("fig14", f"{_E}.fig14_ofo_timeout_latency",
                "RPC tail vs ofo_timeout under loss (Figure 14)",
                "Fig14Params",
                point_cls="Fig14Point", result_cls="Fig14Result"),
    GridAdapter("fig15", f"{_E}.fig15_active_flows",
                "active flows vs concurrency (Figure 15)", "Fig15Params",
                point_cls="Fig15Point", result_cls="Fig15Result"),
    ParamsAdapter("fig16", f"{_E}.fig16_active_list_histogram",
                  "active-list statistics on Clos (Figure 16)",
                  "Fig16Params"),
    ParamsAdapter("fig18", f"{_E}.fig18_bandwidth_sweep",
                  "guarantee sweep (Figure 18)", "Fig18Params"),
    ParamsAdapter("fig20", f"{_E}.fig20_load_balancing",
                  "load-balancing granularity (Figure 20)", "Fig20Params"),
    ParamsAdapter("sec31", f"{_E}.sec31_chained_gro_cost",
                  "linked-list batching cost (Section 3.1)", "Sec31Params"),
    ParamsAdapter("sec512", f"{_E}.sec512_latency_overhead",
                  "latency overhead (Section 5.1.2)", "Sec512Params"),
    ParamsAdapter("ablations", f"{_E}.ablations",
                  "design-choice ablations (DESIGN.md §5)", "AblationParams",
                  runner=_run_ablations),
    ParamsAdapter("scheduling", f"{_E}.flow_scheduling",
                  "extension: PIAS/pFabric flow scheduling",
                  "SchedulingParams"),
    GridAdapter("fdir_reordering", f"{_E}.fdir_reordering",
                "self-inflicted reordering: steering policy x flow count "
                "x churn x GRO engine (docs/steering.md)", "FdirParams",
                point_cls="FdirPoint", result_cls="FdirResult", hidden=True),
    GridAdapter("cc_reordering", f"{_E}.cc_reordering",
                "congestion control x reordering intensity x GRO engine "
                "(docs/transport.md)", "CcParams",
                point_cls="CcPoint", result_cls="CcResult", hidden=True),
    GridAdapter("host_vs_fabric", f"{_E}.host_vs_fabric",
                "host-side Juggler vs fabric-side in-order routing: GRO "
                "engine x routing policy x load x fault (docs/fabric.md)",
                "HostFabricParams", point_cls="HostFabricPoint",
                result_cls="HostFabricResult", hidden=True),
    GridAdapter("faults_matrix", "repro.faults.experiments",
                "resilience matrix: fault kind x intensity x GRO engine "
                "(docs/faults.md)", "MatrixParams",
                point_cls="MatrixPoint", result_cls="MatrixResult",
                hidden=True),
    SelftestAdapter("selftest", "repro.campaign.selftest",
                    "campaign failure-injection selftest", "SelftestParams",
                    point_cls="SelftestPoint", result_cls="SelftestResult",
                    hidden=True),
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
    def make_runner(adapter: Adapter):
        return lambda: adapter.run_default()

    return {name: (make_runner(adapter), adapter.description)
            for name, adapter in ADAPTERS.items() if not adapter.hidden}
