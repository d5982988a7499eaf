"""Euclidean ball volumes and the point grid of one exploration.

Distance comparisons throughout the package are inclusive: a point at
exactly the query radius counts as "within". Points are coordinate
tuples of 64-bit floats; norms are computed where they are needed.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Iterable

__all__ = [
    "UNATTACHED",
    "CLUSTER",
    "COVERED",
    "SpatialIndex",
    "ball_volume",
    "sphere_surface",
]

# The state of a point in an exploration's grid. A point changes state
# in place, never leaving the grid: generated points start unattached,
# join the cluster when a connection succeeds, and become covered once
# their ball has been processed.
UNATTACHED = 0
CLUSTER = 1
COVERED = 2


def ball_volume(dim: int, radius: float) -> float:
    """Volume of a Euclidean ball of the given radius in `dim` dimensions.

    Args:
        dim: dimension, a positive integer.
        radius: ball radius, finite and positive.

    Returns:
        pi^(d/2) * radius^d / Gamma(d/2 + 1).
    """
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    return math.pi ** (dim / 2.0) * radius**dim / math.gamma(dim / 2.0 + 1.0)


def sphere_surface(dim: int) -> float:
    """Surface measure of the unit sphere in `dim` dimensions: 2 pi^(d/2) / Gamma(d/2)."""
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


# Cell keys are integers: the cell index vector k read as digits of base
# _STRIDE, so the key of cell k + o is key(k) + key(o). Cells whose
# indices reach _STRIDE / 2 may share a key; that only adds points the
# exact distance test then drops.
_STRIDE = 1 << 21


def _cell_key(cell: Iterable[int]) -> int:
    key = 0
    for k in cell:
        key = key * _STRIDE + k
    return key


@functools.cache
def _offset_keys(dim: int) -> tuple[int, ...]:
    """Keys of the 3^d neighbouring cell offsets, own cell first."""
    keys = [_cell_key(o) for o in itertools.product((-1, 0, 1), repeat=dim)]
    keys.remove(0)
    return (0, *keys)


class SpatialIndex:
    """Every point of one exploration: coordinates and a state byte by integer id.

    Ids count up from 0 in insertion order. Ids are filed in a uniform
    grid whose cell edge is the query radius, so a query scans the 3^d
    cells around the query point (own cell first) and filters by exact
    distance and state. Practical for moderate dimensions (the scan
    grows as 3^d). `coords` and `state` are indexed by id; a point
    changes state by an assignment to `state[id]` and never leaves.
    """

    __slots__ = ("radius", "dim", "coords", "state", "_cells", "_offsets")

    def __init__(self, radius: float, dim: int):
        if not (math.isfinite(radius) and radius > 0):
            raise ValueError(f"radius must be finite and positive, got {radius!r}")
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        self.radius = float(radius)
        self.dim = dim
        self.coords: list[tuple[float, ...]] = []
        self.state = bytearray()
        self._cells: dict[int, list[int]] = {}
        self._offsets = _offset_keys(dim)

    def _key(self, coords: tuple[float, ...]) -> int:
        r = self.radius
        return _cell_key(math.floor(c / r) for c in coords)

    def insert(self, coords: tuple[float, ...], state: int) -> int:
        """Store a point in the given state; returns its id."""
        if len(coords) != self.dim:
            raise ValueError(f"point has {len(coords)} coordinates, grid expects {self.dim}")
        i = len(self.coords)
        self.coords.append(coords)
        self.state.append(state)
        self._cells.setdefault(self._key(coords), []).append(i)
        return i

    # query and any_within repeat one scan loop on purpose: sharing it
    # through a generator cost 5-10% on a d=2 critical search.

    def query(self, coords: tuple[float, ...], state: int) -> list[int]:
        """Ids of the points in `state` at distance <= radius from coords, ascending."""
        r = self.radius
        base = self._key(coords)
        cells, points, states = self._cells, self.coords, self.state
        out: list[int] = []
        for off in self._offsets:
            bucket = cells.get(base + off)
            if bucket:
                for i in bucket:
                    if states[i] == state and math.dist(coords, points[i]) <= r:
                        out.append(i)
        out.sort()
        return out

    def any_within(self, coords: tuple[float, ...], state: int) -> bool:
        """Whether some point in `state` lies at distance <= radius from coords."""
        r = self.radius
        base = self._key(coords)
        cells, points, states = self._cells, self.coords, self.state
        for off in self._offsets:
            bucket = cells.get(base + off)
            if bucket:
                for i in bucket:
                    if states[i] == state and math.dist(coords, points[i]) <= r:
                        return True
        return False
