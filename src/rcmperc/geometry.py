"""Euclidean ball volumes and the distance of the float contract.

Distance comparisons throughout the package are inclusive: a point at
exactly the query radius counts as "within". Points are coordinate
tuples of 64-bit floats.

Float contract: every distance and norm on the simulation path is the
square root of the squares summed in coordinate order, one rounding per
operation, as `distance` computes it here and the kernel (`kernel.c`)
computes it for every distance, norm and Gaussian direction length.
`math.hypot`, `math.dist` and `sum()` round differently and are not
used there.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "ball_volume",
    "distance",
    "sphere_surface",
]


def ball_volume(dim: int, radius: float) -> float:
    """Volume of a Euclidean ball of the given radius in `dim` dimensions.

    Args:
        dim: dimension, a positive integer.
        radius: ball radius, finite and positive.

    Returns:
        pi^(d/2) * radius^d / Gamma(d/2 + 1).

    Raises:
        OverflowError: naming the dimension and the radius, when radius^d
        or Gamma(d/2 + 1) overflows a float, or the volume is not finite.
    """
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    try:
        volume = math.pi ** (dim / 2.0) * radius**dim / math.gamma(dim / 2.0 + 1.0)
    except OverflowError:
        volume = math.inf
    if not math.isfinite(volume):
        raise OverflowError(
            f"the volume of a ball of radius {radius!r} in dimension {dim} overflows"
        )
    return volume


def sphere_surface(dim: int) -> float:
    """Surface measure of the unit sphere in `dim` dimensions: 2 pi^(d/2) / Gamma(d/2)."""
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def distance(x: Iterable[float], y: Iterable[float]) -> float:
    """Euclidean distance: the square root of the squared differences summed in coordinate order."""
    s = 0.0
    for a, b in zip(x, y):
        d = a - b
        s += d * d
    return math.sqrt(s)
