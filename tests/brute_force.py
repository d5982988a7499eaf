"""Brute-force reference implementation used as a test oracle.

Realizes the whole point process in one shot and extracts the origin's
component from the full adjacency structure, sharing no code with the
lazy exploration path: placement uses batched numpy sampling, connection
probabilities are reimplemented from the model parameters, and the
component comes from scipy's connected_components.

Points are sampled in B(0, system_size + radius): the exploration can
never create a point farther out, and any member of the origin's
component beyond the escape radius is reachable through members inside
it, so the escape verdict computed here has the same law as the
exploration's.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from rcmperc import ConnectionModel, Gilbert, PenetrableSphere, SoftSphere, TabulatedRadial


def phi_reference(model: ConnectionModel, r: np.ndarray) -> np.ndarray:
    """Connection probabilities recomputed from the model parameters."""
    r = np.asarray(r, dtype=float)
    if isinstance(model, Gilbert):
        return (r <= model.radius).astype(float)
    if isinstance(model, PenetrableSphere):
        return np.where(r <= model.radius, model.prob, 0.0)
    if isinstance(model, SoftSphere):
        out = np.zeros_like(r)
        inside = (r <= model.radius) & (r > 0.0)
        rr = r[inside]
        out[inside] = 1.0 - np.exp(-model.energy * (model.radius / rr) ** model.hardness)
        out[r == 0.0] = 1.0
        return out
    if isinstance(model, TabulatedRadial):
        out = np.interp(r, model.radii, model.values)
        return np.where(r <= model.radius, np.clip(out, 0.0, 1.0), 0.0)
    raise TypeError(f"no reference implementation for {type(model).__name__}")


def sample_ball_points(gen: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """n points uniform in B(0, radius), batched."""
    if n == 0:
        return np.zeros((0, dim))
    directions = gen.standard_normal((n, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    radii = radius * gen.random(n) ** (1.0 / dim)
    return directions / norms * radii[:, None]


def brute_force_trial(
    gen: np.random.Generator,
    model: ConnectionModel,
    dim: int,
    gamma: float,
    system_size: float,
    probe: np.ndarray | None = None,
):
    """One full-window realization; returns (escaped, size, probe_in_cluster).

    escaped is True when the origin's component contains a point with
    norm above system_size; size is the component size (origin and probe
    included when connected). probe_in_cluster is None when no probe is
    given.
    """
    sample_radius = system_size + model.radius
    volume = math.pi ** (dim / 2.0) * sample_radius**dim / math.gamma(dim / 2.0 + 1.0)
    n = int(gen.poisson(gamma * volume))
    pts = sample_ball_points(gen, n, dim, sample_radius)

    fixed = [np.zeros(dim)]
    if probe is not None:
        fixed.append(np.asarray(probe, dtype=float))
    vertices = np.vstack([np.array(fixed), pts]) if n else np.array(fixed)
    m = len(vertices)

    diff = vertices[:, None, :] - vertices[None, :, :]
    dists = np.sqrt((diff * diff).sum(axis=2))
    phi = phi_reference(model, dists)
    uniforms = gen.random((m, m))
    upper = np.triu(np.ones((m, m), dtype=bool), k=1)
    adj = upper & (uniforms <= phi)
    adj = adj | adj.T

    _, labels = connected_components(csr_matrix(adj), directed=False)
    members = labels == labels[0]
    size = int(members.sum())
    norms = np.linalg.norm(vertices, axis=1)
    escaped = bool((norms[members] > system_size).any())
    probe_in = bool(members[1]) if probe is not None else None
    return escaped, size, probe_in


def brute_force_escape_key(
    gen: np.random.Generator,
    model: ConnectionModel,
    dim: int,
    gamma_max: float,
    system_size: float,
) -> float:
    """One marked full-window realization; returns its escape key gamma*.

    The points of B(0, system_size + radius) at intensity gamma_max each
    get a mark uniform in [0, gamma_max); the origin's mark is 0. A path's
    level is the largest mark on it, so gamma* is the smallest level of a
    path from the origin to a point with norm above system_size: the
    points with mark <= gamma form the process at intensity gamma, and
    its origin cluster escapes exactly when gamma >= gamma*. It is found
    by union-find over the open edges in order of the larger mark of
    their ends (Kruskal), stopping when the origin's set first holds such
    a point; +inf when none is ever reached.
    """
    sample_radius = system_size + model.radius
    volume = math.pi ** (dim / 2.0) * sample_radius**dim / math.gamma(dim / 2.0 + 1.0)
    n = int(gen.poisson(gamma_max * volume))
    vertices = np.vstack([np.zeros((1, dim)), sample_ball_points(gen, n, dim, sample_radius)])
    marks = np.concatenate(([0.0], gamma_max * gen.random(n)))
    m = n + 1

    diff = vertices[:, None, :] - vertices[None, :, :]
    phi = phi_reference(model, np.sqrt((diff * diff).sum(axis=2)))
    u, v = np.nonzero(np.triu(gen.random((m, m)) <= phi, k=1))
    level = np.maximum(marks[u], marks[v])
    beyond = np.linalg.norm(vertices, axis=1) > system_size

    parent = list(range(m))
    outside = beyond.tolist()  # per root: whether its set holds a point beyond

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for k in np.argsort(level, kind="stable"):
        a, b = root(int(u[k])), root(int(v[k]))
        if a == b:
            continue
        parent[b] = a
        outside[a] = outside[a] or outside[b]
        if outside[a] and root(0) == a:
            return float(level[k])
    return math.inf
