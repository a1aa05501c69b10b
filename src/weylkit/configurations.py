"""Weighted point configurations on the circle (and sphere): stability.

A weighted configuration is stable when no single location carries at
least half of the total mass, semistable when none carries more than
half.  On the circle, instability is equivalent to landing inside the
half-space thickening of the diagonal cut out by the weight vector in
the sign group; the membership check is computed both ways and any
disagreement is reported as a bug, not a data condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import thickenings
from .errors import InconsistentBackends

TWO_PI = 2.0 * math.pi
FLOAT_TOL = 1e-9


def _is_exact(values):
    return all(isinstance(v, (int, Fraction)) for v in values)


def _mass(weights):
    """Summed weights: a Fraction when every weight is exact, else a float."""
    return sum(map(Fraction, weights)) if _is_exact(weights) \
        else float(sum(weights))


@dataclass(frozen=True)
class WeightedConfig:
    """Points with positive weights; circle points are angles in
    [0, 2 pi) (exact Fractions allowed), sphere points unit vectors."""

    points: tuple
    weights: tuple
    sphere: bool = False

    def __post_init__(self):
        if len(self.points) != len(self.weights) or not self.points:
            raise ValueError("need matching nonempty points and weights")
        if bad := [w for w in self.weights if not 0 < w < math.inf]:
            raise ValueError(f"weights must be positive and finite, "
                             f"got {bad[0]}")

    @staticmethod
    def circle(angles, weights):
        angles = tuple(a if isinstance(a, Fraction) else
                       (Fraction(a) if isinstance(a, int) else float(a))
                       for a in angles)
        for a in angles:
            if not (0 <= float(a) < TWO_PI):
                raise ValueError("angles must lie in [0, 2 pi)")
        weights = tuple(w if isinstance(w, (Fraction, int)) else float(w)
                        for w in weights)
        return WeightedConfig(angles, weights, sphere=False)

    @staticmethod
    def on_sphere(points, weights):
        pts = np.asarray(points, dtype=float)
        norms = np.linalg.norm(pts, axis=1)
        if np.abs(norms - 1.0).max() > 1e-9:
            raise ValueError("sphere points must be unit vectors")
        return WeightedConfig(tuple(map(tuple, pts.tolist())),
                              tuple(float(w) for w in weights), sphere=True)

    @property
    def n(self):
        return len(self.points)

    @property
    def total_mass(self):
        return _mass(self.weights)

    def exact(self):
        return not self.sphere and _is_exact(self.points) \
            and _is_exact(self.weights)


def _coincide(a, b, sphere, tol):
    """Do two points (of a sphere, or angles on the circle) coincide?"""
    if sphere:
        return float(np.linalg.norm(np.asarray(a) - np.asarray(b))) <= tol
    if tol == 0:
        return a == b
    d = abs(float(a) - float(b))
    return min(d, TWO_PI - d) <= tol


def default_tol(config):
    return Fraction(0) if config.exact() else FLOAT_TOL


def aggregate_masses(config):
    """Cluster coinciding points; masses are the summed member weights."""
    tol = default_tol(config)
    n = config.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if _coincide(config.points[i], config.points[j], config.sphere,
                         tol):
                parent[find(i)] = find(j)
    clusters = {}  # in order of their first members, each one ascending
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    return [(config.points[m[0]], _mass([config.weights[i] for i in m]),
             tuple(m)) for m in clusters.values()]


def is_stable(config):
    """No location carries mass >= half of the total."""
    total = config.total_mass
    return all(2 * mass < total for _, mass, _ in aggregate_masses(config))


def is_semistable(config):
    """No location carries mass > half of the total."""
    total = config.total_mass
    return all(2 * mass <= total for _, mass, _ in aggregate_masses(config))


def relpos_config(z, zp):
    """Sign vector of the relative position: +1 where the entries agree."""
    if z.n != zp.n or z.sphere != zp.sphere:
        raise ValueError("configurations must have the same shape")
    tol = max(default_tol(z), default_tol(zp))
    return tuple(1 if _coincide(a, b, z.sphere, tol) else -1
                 for a, b in zip(z.points, zp.points))


def diagonal_thickening_check(z, strict=True):
    """Does the configuration lie in the (strict or nonstrict) half-space
    thickening of the diagonal?

    Computed two independent ways and cross-checked: (i) failure of
    semistability (strict) or stability (nonstrict) of the mass measure;
    (ii) existence of a diagonal configuration whose relative position
    sign vector lands inside the corresponding thickening of the sign
    group.  A mismatch raises: it signals a bug, not a data condition.
    """
    if z.sphere:
        raise ValueError("the cross-check is defined for circle configurations")
    tol = default_tol(z)
    clusters = aggregate_masses(z)
    total = z.total_mass
    backend_measure = any(2 * mass > total if strict else 2 * mass >= total
                          for _, mass, _ in clusters)

    strict_th, nonstrict_th = thickenings.metric_thickening(z.weights)
    th = strict_th if strict else nonstrict_th
    backend_thickening = False
    for rep, _, _ in clusters:
        # the diagonal configuration at rep must be a circle configuration
        if not 0 <= float(rep) < TWO_PI:
            raise ValueError("angles must lie in [0, 2 pi)")
        eps = tuple(1 if _coincide(p, rep, False, tol) else -1
                    for p in z.points)
        if th.group.element_from_signs(eps) in th:
            backend_thickening = True
            break
    if backend_measure != backend_thickening:
        raise InconsistentBackends(
            f"measure backend says {backend_measure}, "
            f"thickening backend says {backend_thickening}")
    return backend_measure


@dataclass
class WallChamberReport:
    weights: tuple
    walls: list           # index sets I (0-based, containing 0) on walls
    chamber_signs: dict   # I -> sign of sum_I - sum_complement
    in_open_chamber: bool


def wall_chamber_report(weights):
    """Exact location of a weight vector relative to the subset-sum
    walls: the hyperplanes where some subset of weights balances its
    complement.  Index sets are canonicalized to contain index 0."""
    if bad := [w for w in weights if not 0 < w < math.inf]:
        raise ValueError(f"weights must be positive and finite, got {bad[0]}")
    vals = [Fraction(w) for w in weights]
    n = len(vals)
    if n > 22:
        raise ValueError("wall scan capped at 22 weights")
    total = sum(vals)
    walls = []
    signs = {}
    for mask in range(1 << (n - 1)):
        subset = frozenset([0] + [i + 1 for i in range(n - 1)
                                  if (mask >> i) & 1])
        s = sum(vals[i] for i in subset)
        diff = 2 * s - total
        key = tuple(sorted(subset))
        if diff == 0:
            walls.append(key)
            signs[key] = 0
        else:
            signs[key] = 1 if diff > 0 else -1
    return WallChamberReport(tuple(vals), sorted(walls), signs,
                             in_open_chamber=not walls)
