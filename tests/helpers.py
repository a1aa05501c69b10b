"""Test-side references and fixtures that the library does not need.

The brute-force Bruhat oracle, random and iterated flags, the chart of
the n=3 model flat, ray points, the dual-cone defect of a triangle and
rigid rotations of circle configurations.  The tests compare the library
against them or build their inputs with them.
"""

import numpy as np

from weylkit.configurations import TWO_PI, WeightedConfig
from weylkit.coxeter import _same_group
from weylkit.flagdyn import flag_from_basis
from weylkit.symspace import SymPoint, delta_distance, flat_point


def subword_leq(u, v):
    """Brute-force Bruhat oracle: some subword of a reduced word of v is
    a reduced word for u.  Exponential in length(v); for tests."""
    W = _same_group(u, v)
    word = W.words[v.index]
    target_len = W.lengths[u.index]
    n = len(word)
    for mask in range(1 << n):
        if mask.bit_count() != target_len:
            continue
        i = 0
        for p in range(n):
            if (mask >> p) & 1:
                i = W.gen_mult[i][word[p]]
        if i == u.index and W.lengths[i] == target_len:
            return True
    return False


def random_flag(n, rng):
    m = rng.standard_normal((n, n))
    return flag_from_basis(m)


def iterate_flag(g, flag, steps):
    """Apply g to a flag ``steps`` times, reorthonormalizing at every
    step so large powers stay well conditioned."""
    g = np.asarray(g, dtype=float)
    for _ in range(steps):
        flag = flag_from_basis(g @ flag.basis)
    return flag


def sl3_flat_chart(x, y):
    """Isometric chart of the rank-2 model flat of the n=3 space.

    The x-axis is the wall y1 = y2, and the positive chamber is the
    sector of slopes between 0 and sqrt(3).
    """
    ex = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    ey = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return flat_point(x * ex + y * ey)


def chamber_ray_point(p, direction, t):
    """Point at parameter t of the ray from p whose chamber-valued speed
    is ``direction`` (only for moderate t; see horofunction_estimate for
    the well-conditioned large-t path)."""
    direction = np.asarray(direction, dtype=float)
    rp = p.sqrt()
    return SymPoint(rp @ np.diag(np.exp(2.0 * t * direction)) @ rp)


def dual_cone_defect(x, y, z):
    """Slack of the dual-cone triangle inequality for the chamber-valued
    distance: the amount by which d(x,y) + d(y,z) - d(x,z) fails to lie
    in the root cone (0 when it holds)."""
    u = delta_distance(x, y) + delta_distance(y, z) - delta_distance(x, z)
    n = len(u)
    partial = np.cumsum(u)
    worst = min(partial[k] - (k + 1) / n * partial[-1] for k in range(n - 1))
    return -min(worst, 0.0)


def rotate(config, angle):
    """Rotate a circle configuration rigidly (float angles)."""
    pts = tuple((float(a) + angle) % TWO_PI for a in config.points)
    return WeightedConfig(pts, config.weights, sphere=False)
