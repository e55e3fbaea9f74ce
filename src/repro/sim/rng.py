"""Named, independent random streams and the seeds they hang off.

Every stochastic component (RPC arrivals, load-balancer spraying, NetFPGA
queue choice, drop element, ...) draws from its own stream derived from the
experiment's root seed.  This keeps experiments reproducible and lets one
component's draw count change without perturbing the others — essential when
comparing vanilla vs Juggler runs on "the same" workload.

:func:`derive_seed` is the one hashing rule: streams, grid cells
(:func:`derive_cell_seed`) and campaign tasks all derive their seeds with it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Mapping, Sequence, Tuple


def derive_seed(*parts) -> int:
    """A 64-bit seed: the first 8 bytes (big-endian) of the sha256 of the
    ``":"``-joined ``parts``."""
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def unpaired(point: Mapping, paired: Sequence[str]) -> dict:
    """The axes of a point that pick its randomness: all but the paired
    arms.  The one rule behind both the campaign's per-task seed and the
    family modules' per-cell seed (:func:`derive_cell_seed`)."""
    return {axis: value for axis, value in point.items()
            if axis not in paired}


def derive_cell_seed(seed: int, experiment: str,
                     axes: Sequence[Tuple[str, str]],
                     paired: Sequence[str], point: Mapping) -> int:
    """One cell's seed under ``seed``: hashed from the unpaired axis values
    in ``axes`` (``POINT_AXES``) order, so paired arms share randomness."""
    values = unpaired({axis: point[axis] for axis, _ in axes},
                      paired).values()
    return derive_seed(seed, experiment, ":".join(map(str, values)))


class RngRegistry:
    """Factory of named :class:`random.Random` streams under one root seed."""

    def __init__(self, seed: int = 0):
        self._seed = seed
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically.

        The same ``(seed, name)`` pair always yields an identically-seeded
        stream, regardless of creation order.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self._seed, name))
            self._streams[name] = rng
        return rng
