"""Declarative fault plans — the chaos analogue of ``campaign.spec``.

A :class:`FaultPlan` is a named, seeded list of :class:`FaultSpec` entries.
Each entry names a fault *kind* from the catalog below, an activation
window (``at_us`` + ``duration_us``), an optional repetition schedule
(``every_us`` × ``repeats``), and kind-specific parameters.  The plan is
pure data: :class:`repro.faults.controller.FaultEngine` expands it into
timeline-scheduled activations, drawing randomness only from named
``sim.rng`` streams derived from the plan seed — so a plan replays
byte-identically, survives campaign resume, and never perturbs the
experiment's own random streams.

Fault taxonomy (see docs/faults.md):

========  ================  ==============================================
layer     kind              perturbation
========  ================  ==============================================
wire      loss              i.i.d. packet loss with probability ``p``
wire      burst_loss        Gilbert–Elliott two-state bursty loss
wire      duplicate         forward a second copy with probability ``p``
wire      corrupt           flip payload bits -> NIC checksum drop
wire      jitter            extra per-packet delay (amplifies reordering)
wire      blackhole         drop everything while active (link flap)
link      queue_saturation  clamp queue capacity -> forced tail drops
link      ce_storm          zero the ECN threshold -> CE-mark storm
nic       ring_overflow     shrink the rx ring -> host drops
nic       pause_poll        stall NAPI polling (interrupt storm)
nic       steering_churn    rebalance flow steering -> cross-queue handoffs
host      receiver_stall    app stops reading -> advertised window closes
========  ================  ==============================================
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Sequence, Tuple

from repro.sim.time import US

#: kind -> (layer, {param: default}).  The single source of truth for what
#: a plan entry may configure; validation rejects anything else.
KINDS: Dict[str, Tuple[str, Dict[str, object]]] = {
    "loss": ("wire", {"p": 0.01}),
    "burst_loss": ("wire", {"p_enter": 0.05, "p_exit": 0.3,
                            "p_loss_bad": 0.5, "p_loss_good": 0.0}),
    "duplicate": ("wire", {"p": 0.01}),
    "corrupt": ("wire", {"p": 0.005}),
    "jitter": ("wire", {"p": 0.1, "extra_us_max": 200}),
    "blackhole": ("wire", {}),
    "queue_saturation": ("link", {"capacity_bytes": 9_000}),
    "ce_storm": ("link", {"threshold_bytes": 0}),
    "ring_overflow": ("nic", {"ring_size": 8}),
    "pause_poll": ("nic", {}),
    "steering_churn": ("nic", {"migrate_fraction": 0.5,
                               "flush_table": False}),
    "receiver_stall": ("host", {}),
}

#: param -> what a plan may set it to: ``bool`` for a switch, else a closed
#: range ``(low, high)`` of finite numbers (``high`` None = unbounded).
#: ``extra_us_max`` counts whole microseconds, ``ring_size`` >= 1 is
#: :class:`~repro.nic.nic.NicConfig`'s own rule.
BOUNDS: Dict[str, object] = {
    **dict.fromkeys(("p", "p_enter", "p_exit", "p_loss_bad", "p_loss_good",
                     "migrate_fraction"), (0, 1)),
    "extra_us_max": (1, None),
    "ring_size": (1, None),
    "capacity_bytes": (0, None),
    "threshold_bytes": (0, None),
    "flush_table": bool,
}

#: Kinds that act on the packet stream itself (injector chain members).
WIRE_KINDS = frozenset(k for k, (layer, _) in KINDS.items()
                       if layer == "wire")


@dataclass(frozen=True)
class FaultSpec:
    """One fault: a kind, an activation schedule, and its parameters."""

    name: str
    kind: str
    #: First activation instant (ns, simulation time).
    at_ns: int
    #: How long each activation window stays open (ns).
    duration_ns: int
    #: Window period for repeated activations (ns; 0 with repeats == 1).
    every_ns: int = 0
    #: Number of activation windows.
    repeats: int = 1
    #: Kind-specific parameters, validated against :data:`KINDS`.
    params: Mapping = field(default_factory=dict)

    @property
    def layer(self) -> str:
        """wire / link / nic / host (see the taxonomy table)."""
        return KINDS[self.kind][0]

    def param(self, key: str):
        """A parameter value, falling back to the catalog default."""
        if key in self.params:
            return self.params[key]
        return KINDS[self.kind][1][key]

    def windows(self) -> Sequence[Tuple[int, int]]:
        """Every (open_ns, close_ns) activation window, in order."""
        return [(self.at_ns + i * self.every_ns,
                 self.at_ns + i * self.every_ns + self.duration_ns)
                for i in range(self.repeats)]


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault specs (the JSON spec format)."""

    name: str
    faults: Tuple[FaultSpec, ...]
    #: Root seed for the per-fault rng streams (``faults.<name>``).
    seed: int = 0

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        """Parse and validate the JSON plan format (see docs/faults.md)."""
        if "faults" not in data:
            raise ValueError("fault plan needs a 'faults' list")
        unknown = set(data) - {"name", "seed", "faults"}
        if unknown:
            raise ValueError(f"unknown plan keys: {sorted(unknown)}")
        specs = []
        for i, entry in enumerate(data["faults"]):
            specs.append(_parse_fault(i, entry))
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate fault names in plan: {names}")
        return cls(name=data.get("name", "faults"),
                   faults=tuple(specs),
                   seed=int(data.get("seed", 0)))

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        """Load a JSON plan file."""
        text = Path(path).read_text(encoding="utf-8")
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        """The JSON plan format (round-trips through :meth:`from_dict`)."""
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [
                {
                    "name": s.name,
                    "kind": s.kind,
                    "at_us": s.at_ns // US,
                    "duration_us": s.duration_ns // US,
                    **({"every_us": s.every_ns // US} if s.every_ns else {}),
                    **({"repeats": s.repeats} if s.repeats != 1 else {}),
                    **({"params": dict(s.params)} if s.params else {}),
                }
                for s in self.faults
            ],
        }

    def wire_faults(self) -> Tuple[FaultSpec, ...]:
        """The specs that become packet-stream injectors."""
        return tuple(s for s in self.faults if s.layer == "wire")


def _parse_fault(index: int, entry: Mapping) -> FaultSpec:
    allowed = {"name", "kind", "at_us", "duration_us", "every_us",
               "repeats", "params"}
    unknown = set(entry) - allowed
    if unknown:
        raise ValueError(
            f"fault #{index}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}")
    kind = entry.get("kind")
    if kind not in KINDS:
        raise ValueError(
            f"fault #{index}: unknown kind {kind!r}; "
            f"known kinds: {sorted(KINDS)}")
    params = dict(entry.get("params") or {})
    legal = KINDS[kind][1]
    bad = set(params) - set(legal)
    if bad:
        raise ValueError(
            f"fault #{index} ({kind}): unknown params {sorted(bad)}; "
            f"allowed: {sorted(legal)}")
    for key, value in params.items():
        bound = BOUNDS[key]
        if bound is bool:
            ok, wanted = isinstance(value, bool), "true or false"
        else:
            low, high = bound
            ok = (isinstance(value, (int, float))
                  and not isinstance(value, bool) and math.isfinite(value)
                  and low <= value and (high is None or value <= high))
            wanted = (f"a number >= {low}" if high is None
                      else f"a number in [{low}, {high}]")
        if not ok:
            raise ValueError(
                f"fault #{index} ({kind}): {key} must be {wanted}, "
                f"got {value!r}")
    for key in ("at_us", "duration_us"):
        if key not in entry:
            raise ValueError(f"fault #{index} ({kind}): missing '{key}'")
    at_us = int(entry["at_us"])
    duration_us = int(entry["duration_us"])
    every_us = int(entry.get("every_us", 0))
    repeats = int(entry.get("repeats", 1))
    if at_us < 0 or duration_us <= 0:
        raise ValueError(
            f"fault #{index} ({kind}): need at_us >= 0 and duration_us > 0")
    if repeats < 1:
        raise ValueError(f"fault #{index} ({kind}): repeats must be >= 1")
    if repeats > 1 and every_us < duration_us:
        raise ValueError(
            f"fault #{index} ({kind}): repeated windows need "
            f"every_us >= duration_us (got {every_us} < {duration_us})")
    return FaultSpec(
        name=str(entry.get("name", f"{kind}{index}")),
        kind=kind,
        at_ns=at_us * US,
        duration_ns=duration_us * US,
        every_ns=every_us * US,
        repeats=repeats,
        params=params,
    )


def load_plan(path) -> FaultPlan:
    """Load and validate a plan file (the ``faults run --plan`` path)."""
    if not Path(path).exists():
        raise FileNotFoundError(f"fault plan not found: {path}")
    return FaultPlan.from_file(path)
