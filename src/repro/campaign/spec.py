"""Declarative sweep specs expanded into fingerprinted tasks.

A campaign is a named set of experiments, each with parameter overrides
and a grid of axis values.  :func:`expand` turns a spec into a flat list
of :class:`Task` objects — one per grid point — each carrying:

* a **fingerprint**: the SHA-256 of the canonical JSON of everything that
  determines the task's output (experiment, overrides, point, seed).  The
  result store keys on it, which is what makes ``campaign resume`` able to
  skip completed work and what makes a re-run with different parameters
  a *different* task rather than a stale cache hit.
* a **seed**: when the spec sets a root seed, each task derives its own
  seed from ``(root, experiment, payload)`` with
  :func:`repro.sim.rng.derive_seed` — so per-task randomness is stable
  across runs and independent of scheduling order or ``--jobs``.  With no
  root seed, tasks keep each experiment's baked-in default seed, which
  makes a campaign's rows byte-identical to the serial
  :func:`repro.experiments.common.run_grid`.
  A family's ``PAIRED_AXES`` (the arms of one comparison, e.g. the GRO
  engine) stay out of the seed payload — see :func:`unpaired` — so every
  arm of a cell gets the same seed; the fingerprint keeps the full point.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.sim.rng import derive_seed, unpaired


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, tuples as lists."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=_jsonify)


def _jsonify(obj):
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"not canonically serialisable: {type(obj).__name__}")


@dataclass(frozen=True)
class Task:
    """One unit of campaign work: a single grid point."""

    campaign: str
    experiment: str
    #: Position in the deterministic expansion order; the reporter sorts on
    #: it so output never depends on completion order.
    index: int
    #: Parameter overrides applied to the experiment's ``*Params`` defaults.
    base: Mapping
    #: Axis values for this grid point.
    point: Mapping
    #: Per-task seed, or None to keep the experiment's default seed.
    seed: Optional[int]
    fingerprint: str

    def to_wire(self) -> dict:
        """A plain JSON-able dict (what crosses the process boundary)."""
        return {
            "campaign": self.campaign,
            "experiment": self.experiment,
            "index": self.index,
            "base": dict(self.base),
            "point": dict(self.point),
            "seed": self.seed,
            "fingerprint": self.fingerprint,
        }

    @property
    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        if not self.point:
            return self.experiment
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.point.items()))
        return f"{self.experiment}[{inner}]"


def make_task(campaign: str, experiment: str, index: int, base: Mapping,
              point: Mapping, root_seed: Optional[int],
              paired: Sequence[str] = ()) -> Task:
    """Build a task, deriving its seed and fingerprint."""
    payload = canonical_json({"base": base,
                              "point": unpaired(point, paired)})
    seed = (None if root_seed is None
            else derive_seed(root_seed, experiment, payload))
    fingerprint = hashlib.sha256(canonical_json({
        "experiment": experiment,
        "base": base,
        "point": point,
        "seed": seed,
    }).encode()).hexdigest()
    return Task(campaign=campaign, experiment=experiment, index=index,
                base=dict(base), point=dict(point), seed=seed,
                fingerprint=fingerprint)


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment's slice of a campaign."""

    experiment: str
    #: ``*Params`` field overrides (grid-axis tuples excluded).
    overrides: Mapping = field(default_factory=dict)
    #: axis name -> list of values; an axis left out (or None for all of
    #: them) keeps the family's default values.
    grid: Optional[Mapping] = None


@dataclass(frozen=True)
class CampaignSpec:
    """A named, seeded collection of experiment sweeps."""

    name: str
    experiments: Sequence[ExperimentSpec]
    #: Root seed for per-task seed derivation; None keeps module defaults.
    seed: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Mapping) -> "CampaignSpec":
        """Parse the JSON spec format (see docs/campaign.md)."""
        if "experiments" not in data:
            raise ValueError("spec needs an 'experiments' list")
        experiments = []
        for entry in data["experiments"]:
            if isinstance(entry, str):
                entry = {"experiment": entry}
            unknown = set(entry) - {"experiment", "overrides", "grid"}
            if unknown:
                raise ValueError(
                    f"unknown experiment-spec keys: {sorted(unknown)}")
            experiments.append(ExperimentSpec(
                experiment=entry["experiment"],
                overrides=dict(entry.get("overrides") or {}),
                grid=(dict(entry["grid"])
                      if entry.get("grid") is not None else None),
            ))
        return cls(name=data.get("name", "campaign"),
                   experiments=tuple(experiments),
                   seed=data.get("seed"))

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        """Load a JSON spec file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> dict:
        """The JSON spec format (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "experiments": [
                {"experiment": e.experiment,
                 **({"overrides": dict(e.overrides)} if e.overrides else {}),
                 **({"grid": dict(e.grid)} if e.grid is not None else {})}
                for e in self.experiments
            ],
        }


def build_default_spec(names: Sequence[str], seed: Optional[int] = None,
                       name: str = "campaign") -> CampaignSpec:
    """A spec running each named experiment with its default parameters."""
    return CampaignSpec(
        name=name,
        experiments=tuple(ExperimentSpec(n) for n in names),
        seed=seed,
    )


def expand(spec: CampaignSpec) -> List[Task]:
    """Flatten a spec into fingerprinted tasks, in deterministic order.

    Each experiment produces one task per grid point, iterated in the
    module's own nesting order (outer axis first), so a campaign report
    lists rows exactly as the serial ``render(run_grid(...))`` would.
    """
    from repro.campaign import registry

    tasks: List[Task] = []
    for espec in spec.experiments:
        adapter = registry.get(espec.experiment)
        _check_overrides(adapter, espec.overrides)
        for point in _grid_points(adapter, espec.grid):
            tasks.append(make_task(spec.name, espec.experiment, len(tasks),
                                   espec.overrides, point, spec.seed,
                                   adapter.paired_axes))
    _check_unique(tasks)
    return tasks


def _grid_points(adapter, chosen: Optional[Mapping]):
    """The points of ``chosen`` over the family's default grid (axes left
    out keep their defaults), after checking its axis names and shapes."""
    grid = adapter.default_grid()
    unknown = set(chosen or {}) - set(grid)
    if unknown:
        raise ValueError(
            f"{adapter.name}: unknown grid axes {sorted(unknown)}; "
            f"expected {sorted(grid)}")
    for axis, values in (chosen or {}).items():
        values = list(values)
        if not values:
            raise ValueError(f"{adapter.name}: empty grid axis '{axis}'")
        if len(set(values)) != len(values):
            raise ValueError(
                f"{adapter.name}: duplicate values on axis '{axis}'")
        grid[axis] = values
    names = adapter.axis_names()
    for combo in itertools.product(*(grid[axis] for axis in names)):
        yield dict(zip(names, combo))


def _check_overrides(adapter, overrides: Mapping) -> None:
    """Reject overrides that name unknown fields or grid axes."""
    known = {f.name for f in fields(adapter.params_cls())}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(
            f"{adapter.name}: unknown override field(s) "
            f"{sorted(unknown)}; valid fields: {sorted(known)}")
    clash = set(overrides) & {name for _, name in adapter.axes}
    if clash:
        raise ValueError(
            f"{adapter.name}: {sorted(clash)} are grid axes — put them "
            f"in 'grid', not 'overrides'")


def _check_unique(tasks: List[Task]) -> None:
    seen: Dict[str, Task] = {}
    for task in tasks:
        other = seen.get(task.fingerprint)
        if other is not None:
            raise ValueError(
                f"duplicate tasks in campaign: {other.label} and "
                f"{task.label} have the same fingerprint")
        seen[task.fingerprint] = task


def load_spec(path) -> CampaignSpec:
    """Convenience wrapper used by the CLI."""
    if not Path(path).exists():
        raise FileNotFoundError(f"spec file not found: {path}")
    return CampaignSpec.from_file(path)
