"""Euclidean ball volumes and surfaces, and the float contract of distances.

Distance comparisons throughout the package are inclusive: a point at
exactly the query radius counts as "within", and two points at distance
r are joined by a uniform draw u exactly when u <= phi(r). Points are
coordinates in 64-bit floats.

Float contract: every distance and norm on the simulation path is the
square root of the squared coordinate differences summed in coordinate
order, with one rounding per operation and no fused multiply-add. The
kernel (`kernel.c`) computes every distance, norm and Gaussian direction
length this way. `math.hypot`, `math.dist` and `sum()` round
differently and are not used there.
"""

from __future__ import annotations

import math

__all__ = [
    "ball_volume",
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

