"""Connection functions for random connection models.

A connection function phi maps an inter-point distance r to a connection
probability in [0, 1]. Every model here has finite range: phi(r) = 0 for
r beyond the model's radius, and distances exactly at the radius count as
in range. Two points x, y of the process are joined independently with
probability phi(|x - y|), realized by comparing a uniform draw u against
phi.

Models:
  * Gilbert: phi(r) = 1 for r <= radius (hard disks / spheres).
  * PenetrableSphere: phi(r) = p for r <= radius, constant p in (0, 1].
  * SoftSphere: phi(r) = 1 - exp(-energy * (radius/r)^hardness) for
    r <= radius, with phi(0) = 1 by continuity.
  * TabulatedRadial: phi linearly interpolated from a user table on
    [0, radius], clamped to [0, 1].

A model's `connectivity_mass(dim)` is the integral of phi over R^d:
closed forms for Gilbert and penetrable spheres, adaptive radial
quadrature otherwise. Its reciprocal is the branching lower bound on the
critical intensity (see `rcmperc.bounds`).

`MODEL_KINDS` maps each model's `kind` name to its class; `to_config`
emits the kind plus the constructor fields, so configs rebuild models.
"""

from __future__ import annotations

import csv
import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Any, ClassVar

import numpy as np

from .geometry import ball_volume, distance, sphere_surface

__all__ = [
    "ConnectionModel",
    "Gilbert",
    "PenetrableSphere",
    "SoftSphere",
    "TabulatedRadial",
    "QuadratureError",
    "MODEL_KINDS",
    "decide_connection",
]

# Absolute tolerance of the radial quadrature in `connectivity_mass`.
DEFAULT_QUAD_TOL = 1e-10


def check_quad_tol(quad_tol: float) -> None:
    """Refuse a quadrature tolerance that is not finite and positive.

    A NaN would pass every `err > quad_tol` test and so switch the
    quadrature check off.
    """
    if not (math.isfinite(quad_tol) and quad_tol > 0.0):
        raise ValueError(f"quadrature tolerance must be finite and positive, got {quad_tol!r}")


class QuadratureError(RuntimeError):
    """Raised when the radial quadrature cannot reach the requested tolerance."""

    def __init__(self, message: str, estimate: float, error: float):
        super().__init__(message)
        self.estimate = estimate
        self.error = error


class ConnectionModel(ABC):
    """Base class: a finite-range radial connection function."""

    kind: ClassVar[str]
    radius: float

    @abstractmethod
    def phi_at(self, r: float) -> float:
        """Connection probability at distance r. Zero for r > radius."""

    def connectivity_mass(self, dim: int, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
        """Integral of phi over R^d, via adaptive radial quadrature.

        Subclasses with a closed form override this. The quadrature is
        required to reach absolute tolerance `quad_tol`, finite and
        positive, on the radial integral; otherwise QuadratureError is
        raised with the achieved error attached. scipy's IntegrationWarning
        is kept off stderr: this check and the callers' finiteness check
        decide and report.
        """
        if not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {dim!r}")
        check_quad_tol(quad_tol)
        from scipy import integrate  # here: models with a closed form never need scipy

        radius = self.radius
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            value, err = integrate.quad(
                lambda r: self.phi_at(r) * r ** (dim - 1),
                0.0,
                radius,
                epsabs=quad_tol,
                epsrel=1e-12,
                limit=200,
            )
        if err > quad_tol:
            raise QuadratureError(
                f"radial quadrature achieved absolute error {err:.3e}, "
                f"above the requested tolerance {quad_tol:.3e}",
                estimate=value,
                error=err,
            )
        return sphere_surface(dim) * value

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

    def connectivity_mass(self, dim: int, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
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

    def connectivity_mass(self, dim: int, quad_tol: float = DEFAULT_QUAD_TOL) -> float:
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


def decide_connection(
    model: ConnectionModel, x: tuple[float, ...], y: tuple[float, ...], u: float
) -> bool:
    """Whether the points at coordinates x and y are joined given the uniform draw u in [0, 1).

    Distances beyond the model radius never connect, regardless of u.
    """
    r = distance(x, y)
    if r > model.radius:
        return False
    return u <= model.phi_at(r)

