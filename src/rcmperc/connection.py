"""Connection functions for random connection models.

A connection function phi maps an inter-point distance r to a connection
probability in [0, 1]. Every model here has finite range: phi(r) = 0 for
r beyond the model's radius, and distances exactly at the radius count as
in range. Two points x, y of the process are joined independently with
probability phi(|x - y|), realized by comparing a uniform draw u against
phi: u joins the pair exactly when r is within the radius and
u <= phi(r). The compiled kernel (`kernel.c`) makes every such decision,
with r computed under the float contract of `rcmperc.geometry`;
`phi_at` is the Python statement of the same phi.

Models:
  * Gilbert: phi(r) = 1 for r <= radius (hard disks / spheres).
  * PenetrableSphere: phi(r) = p for r <= radius, constant p in (0, 1].
  * SoftSphere: phi(r) = 1 - exp(-energy * (radius/r)^hardness) for
    r <= radius, with phi(0) = 1 by continuity.
  * TabulatedRadial: phi linearly interpolated from a user table on
    [0, radius], clamped to [0, 1].

A model's `connectivity_mass(dim)` is the integral of phi over R^d, in
closed form for every model: soft spheres through the upper incomplete
gamma function (DLMF 8.2, 8.8), tables as exact sums of polynomial
integrals, one per knot interval. Its reciprocal is the branching lower
bound on the critical intensity (see `rcmperc.bounds`).

`MODEL_KINDS` maps each model's `kind` name to its class; `to_config`
emits the kind plus the constructor fields, so configs rebuild models.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Any, ClassVar

import numpy as np

from .geometry import ball_volume, sphere_surface

__all__ = [
    "ConnectionModel",
    "Gilbert",
    "PenetrableSphere",
    "SoftSphere",
    "TabulatedRadial",
    "MODEL_KINDS",
]

class ConnectionModel(ABC):
    """Base class: a finite-range radial connection function."""

    kind: ClassVar[str]
    radius: float

    @abstractmethod
    def phi_at(self, r: float) -> float:
        """Connection probability at distance r. Zero for r > radius."""

    @abstractmethod
    def connectivity_mass(self, dim: int) -> float:
        """Integral of phi over R^d, in closed form.

        Raises OverflowError, naming the radius and the dimension, when
        the mass does not fit in a float.
        """

    @abstractmethod
    def describe(self) -> str:
        """Short human-readable descriptor, e.g. 'gilbert(radius=2)'."""

    def to_config(self) -> dict[str, Any]:
        """JSON-friendly model description: the kind plus the constructor fields.

        Tuple fields become lists, as JSON reads them back;
        `MODEL_KINDS[kind](**fields)` rebuilds the model from it.
        """
        config: dict[str, Any] = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            config[f.name] = list(value) if isinstance(value, tuple) else value
        return config


def _check_radius(radius: float) -> None:
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")


@dataclass(frozen=True)
class Gilbert(ConnectionModel):
    """Connect with probability one at distance <= radius."""

    kind = "gilbert"
    radius: float

    def __post_init__(self):
        _check_radius(self.radius)

    def phi_at(self, r: float) -> float:
        return 1.0 if r <= self.radius else 0.0

    def connectivity_mass(self, dim: int) -> float:
        return ball_volume(dim, self.radius)

    def describe(self) -> str:
        return f"gilbert(radius={self.radius:g})"


@dataclass(frozen=True)
class PenetrableSphere(ConnectionModel):
    """Connect with constant probability `prob` at distance <= radius."""

    kind = "penetrable"
    radius: float
    prob: float

    def __post_init__(self):
        _check_radius(self.radius)
        if not (0.0 < self.prob <= 1.0):
            raise ValueError(f"connection probability must lie in (0, 1], got {self.prob!r}")

    def phi_at(self, r: float) -> float:
        return self.prob if r <= self.radius else 0.0

    def connectivity_mass(self, dim: int) -> float:
        return self.prob * ball_volume(dim, self.radius)

    def describe(self) -> str:
        return f"penetrable(radius={self.radius:g}, prob={self.prob:g})"


@dataclass(frozen=True)
class SoftSphere(ConnectionModel):
    """Inverse-power repulsion, truncated at `radius`.

    phi(r) = 1 - exp(-energy * (radius/r)^hardness) for 0 < r <= radius,
    and phi(0) = 1. Larger hardness makes the profile closer to the hard
    Gilbert disk; `energy` scales the exponent (default 1).
    """

    kind = "soft-sphere"
    radius: float
    hardness: int
    energy: float = 1.0

    def __post_init__(self):
        _check_radius(self.radius)
        if not isinstance(self.hardness, int) or self.hardness < 1:
            raise ValueError(f"hardness must be a positive integer, got {self.hardness!r}")
        if not (math.isfinite(self.energy) and self.energy > 0):
            raise ValueError(f"energy must be finite and positive, got {self.energy!r}")

    def phi_at(self, r: float) -> float:
        if r > self.radius:
            return 0.0
        if r <= 0.0:
            return 1.0
        try:
            exponent = self.energy * (self.radius / r) ** self.hardness
        except OverflowError:
            return 1.0
        return -math.expm1(-exponent)

    def connectivity_mass(self, dim: int) -> float:
        """ball_volume(d, R) * (1 - e^-beta + beta^s Gamma(1 - s, beta)), s = d / hardness.

        The substitution t = beta (R/r)^hardness turns the radial integral
        into the upper incomplete gamma function Gamma(1 - s, beta). For
        integer s, beta^s Gamma(1 - s, beta) is beta E_s(beta) (DLMF
        8.19.1). Otherwise it starts from a = 1 - s + floor(s) in (0, 1),
        where scipy's regularized `gammaincc` applies, and steps a down by
        Gamma(a, x) = (Gamma(a + 1, x) - x^a e^-x) / a (DLMF 8.8.2), scaled
        by x^(s - floor(s) + k) after k steps so that no power of x overflows.
        """
        volume = ball_volume(dim, self.radius)
        from scipy.special import expn, gamma, gammaincc  # here: the other models never load scipy

        x = self.energy
        steps, rest = divmod(dim, self.hardness)
        if rest == 0:
            scaled = x * float(expn(steps, x))
        else:
            a = 1.0 - rest / self.hardness
            scaled = x ** (rest / self.hardness) * float(gammaincc(a, x) * gamma(a))
            for _ in range(steps):
                a -= 1.0
                scaled = x * (scaled - math.exp(-x)) / a
        return volume * (scaled - math.expm1(-x))

    def describe(self) -> str:
        return f"soft-sphere(radius={self.radius:g}, hardness={self.hardness}, energy={self.energy:g})"


@dataclass(frozen=True)
class TabulatedRadial(ConnectionModel):
    """Connection probabilities interpolated linearly from a radial table.

    The grid must start at 0, be strictly increasing, and its last entry
    defines the model radius. Values must lie in [0, 1]; interpolated
    output is clamped to [0, 1] against rounding.
    """

    kind = "tabulated"
    radii: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "values", values)
        if len(radii) != len(values):
            raise ValueError("radii and values must have equal length")
        if len(radii) < 2:
            raise ValueError("table needs at least two rows")
        if radii[0] != 0.0:
            raise ValueError(f"first table radius must be 0, got {radii[0]!r}")
        if any(not math.isfinite(r) for r in radii) or any(
            b <= a for a, b in zip(radii, radii[1:])
        ):
            raise ValueError("table radii must be finite and strictly increasing")
        if any(not (math.isfinite(v) and 0.0 <= v <= 1.0) for v in values):
            raise ValueError("table values must lie in [0, 1]")

    @property
    def radius(self) -> float:  # type: ignore[override]
        return self.radii[-1]

    def phi_at(self, r: float) -> float:
        if r > self.radius or r < 0.0:
            return 0.0
        v = float(np.interp(r, self.radii, self.values))
        return min(1.0, max(0.0, v))

    def connectivity_mass(self, dim: int) -> float:
        """The sum over knot intervals of the exact radial integral.

        On [r0, r0 + h] phi is the line from v0 to v1 (the clamp never
        acts there). Expanding r^(d-1) = (r0 + t)^(d-1) binomially, the
        interval contributes the sum over k < d of
        C(d-1, k) r0^(d-1-k) h^(k+1) (v0 + (k+1) v1) / ((k+1) (k+2)):
        terms of one sign, so no digits cancel, however narrow or far out
        the interval is.
        """
        try:
            surface = sphere_surface(dim)  # checks dim first
            total = 0.0
            for r0, r1, v0, v1 in zip(self.radii, self.radii[1:], self.values, self.values[1:]):
                h = r1 - r0
                for k in range(dim):
                    total += (math.comb(dim - 1, k) * r0 ** (dim - 1 - k) * h ** (k + 1)
                              * (v0 + (k + 1) * v1) / ((k + 1) * (k + 2)))
            mass = surface * total
        except OverflowError:
            mass = math.inf
        if not math.isfinite(mass):
            raise OverflowError(
                f"the connectivity mass of a table of radius {self.radius!r} "
                f"in dimension {dim} overflows"
            )
        return mass

    def describe(self) -> str:
        return f"tabulated(radius={self.radius:g}, rows={len(self.radii)})"

    @classmethod
    def from_csv(cls, path: str) -> "TabulatedRadial":
        """Load a two-column (r, phi) CSV with a header row."""
        radii: list[float] = []
        values: list[float] = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty CSV") from None
            try:
                float(header[0])
            except (ValueError, IndexError):
                pass
            else:
                raise ValueError(f"{path}: expected a header row, found numeric data")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not cell.strip() for cell in row):
                    continue
                if len(row) < 2:
                    raise ValueError(f"{path}:{lineno}: expected two columns")
                try:
                    radii.append(float(row[0]))
                    values.append(float(row[1]))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
        return cls(tuple(radii), tuple(values))


# Model classes by the `kind` their `to_config` emits.
MODEL_KINDS: dict[str, type[ConnectionModel]] = {
    cls.kind: cls for cls in (Gilbert, PenetrableSphere, SoftSphere, TabulatedRadial)
}

