"""Test-side references and fixtures that the library does not need.

The brute-force Bruhat oracle, random and iterated flags, the chart of
the n=3 model flat, ray points, the dual-cone defect of a triangle,
rigid rotations of circle configurations and the nondiscreteness probe
that builds every word length.  The tests compare the library against
them or build their inputs with them.
"""

import numpy as np

from weylkit.configurations import TWO_PI, WeightedConfig
from weylkit.coxeter import _same_group
from weylkit import symspace
from weylkit.errors import BudgetExceeded
from weylkit.flagdyn import (NondiscretenessCertificate, NondiscretenessResult,
                             _near_identity, _word_label, flag_from_basis,
                             reduced_words, stack_letters, word_of)
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


def probe_building_every_length(generators, epsilon=0.1, max_len=12,
                                max_words=3_000_000):
    """The nondiscreteness probe that forms every word up to ``max_len``
    and screens each length with ``_near_identity``: the reference for
    ``nondiscreteness_certificate``, which never holds a whole length.
    Products past the float range warn here."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    gens = symspace._square_generators(generators)
    if not gens:
        return NondiscretenessResult(None, 0, False)
    n = gens[0].shape[0]
    ident = np.eye(n)
    levels = []
    searched = 0
    exhausted = False
    small = []  # (levels up to the word, row, matrix) of elements near 1
    try:
        for parent, letter, mats in reduced_words(stack_letters(gens),
                                                  max_len, max_words):
            levels.append((parent, letter))
            searched += len(mats)
            rows = _near_identity(mats, epsilon)
            dist = np.linalg.svd(mats[rows] - ident,
                                 compute_uv=False).max(axis=1)
            for row in rows[(dist > 1e-12) & (dist < epsilon)]:
                small.append((len(levels), int(row), mats[row].copy()))
    except BudgetExceeded:
        exhausted = True

    tried = 0
    for i, (li, ri, mi) in enumerate(small):
        for j, (lj, rj, mj) in enumerate(small):
            if j == i:
                continue
            chain = [(li, ri), (lj, rj)]
            cm = mi @ mj @ np.linalg.inv(mi) @ np.linalg.inv(mj)
            for step in range(n - 2):
                lk, rk, mk = small[(i + j + step) % len(small)]
                cm = cm @ mk @ np.linalg.inv(cm) @ np.linalg.inv(mk)
                chain.append((lk, rk))
            tried += 1
            if tried > 5000:
                return NondiscretenessResult(None, searched, True)
            norm = float(np.linalg.svd(cm - ident, compute_uv=False).max())
            if norm > 1e-6:
                cert = NondiscretenessCertificate(
                    [_word_label(word_of(2 * len(gens), l, r))
                     for l, r in chain],
                    norm)
                return NondiscretenessResult(cert, searched, exhausted)
    return NondiscretenessResult(None, searched, exhausted)
