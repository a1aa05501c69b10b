"""Test-side references and fixtures that the library does not need.

The brute-force Bruhat oracle, random and iterated flags, the chart of
the n=3 model flat, ray points, the dual-cone defect of a triangle,
rigid rotations of circle configurations, reduced words and the
nondiscreteness probe built one whole word length at a time, the
standard Schottky pair, and the Schottky certificate and horofunction
estimate read one triple and one ray parameter at a time.  The tests
compare the library against them or build their inputs with them.
"""

from itertools import product

import numpy as np

from weylkit.configurations import TWO_PI, WeightedConfig
from weylkit.coxeter import _same_group
from weylkit import flagdyn, graded, morse, symspace
from weylkit.errors import (AmbiguousRank, BudgetExceeded,
                            NotAntipodalGenerators)
from weylkit.flagdyn import (BLOCK_ENTRIES, NondiscretenessCertificate,
                             NondiscretenessResult, _children, _near_identity,
                             _word_label, flag_from_basis, stack_letters,
                             word_of)
from weylkit.morse import (SchottkyReport, TripleReport, ZetaType, _frame,
                           _frame_angle)
from weylkit.symspace import (FinslerFunctional, RegularityCone, SymPoint,
                              delta_distance, flat_point)


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


def reduced_words(letters, max_len, max_words=None):
    """Reduced words in stacked ``letters``, one length at a time in
    shortlex order: the level-by-level reference for ``flagdyn.walk_words``,
    at the default block size.

    Yields ``(parent, letter, products)`` per length: word i is word
    ``parent[i]`` of the previous length followed by ``letter[i]``, and
    ``products[i]`` is its matrix.  Raises BudgetExceeded before building
    a length that would take the count of words past ``max_words``.
    ``letters`` come in inverse pairs a, a ^ 1: a stack of matrices, or
    one like ``graded.Graded``.  Words are parent-major and parents of
    length >= 1 have k - 1 children, so parents s..e make rows
    (k-1)s..(k-1)e in one block: ``_children`` of those rows' parents
    (less s) and last letters for dense letters, or for a graded stack
    one batched ``@``.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    k, n = letters.shape[0], letters.shape[-1]
    step = BLOCK_ENTRIES // max(k * n * n, 1) + 1  # parents per block
    mats = None
    last = np.array([-1])
    total = 0
    for _ in range(max_len):
        keep = last[:, None] != np.arange(k) ^ 1
        total += int(keep.sum())
        if max_words is not None and total > max_words:
            raise BudgetExceeded(f"word budget {max_words} exhausted")
        parent, last = np.nonzero(keep)
        dense = mats is not None and isinstance(letters, np.ndarray)
        # the letters at length 1; from length 2 on, rows are overwritten
        out = np.empty((len(last), n, n)) if dense else letters[last]
        for s in range(0, 0 if mats is None else len(mats), step):
            rows = slice((k - 1) * s, (k - 1) * (s + step))
            if dense:
                out[rows] = _children(mats[s:s + step], letters,
                                      parent[rows] - s, last[rows])
            else:
                out[rows] = mats[parent[rows]] @ letters[last[rows]]
        mats = out
        yield parent, last, mats


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


def standard_pair():
    """diag(4, 1, 1/4) and its conjugate by a fixed rotation: the pair
    whose powers pass the Schottky certificate from N = 6 on."""
    def rot(t, i, j):
        m = np.eye(3)
        m[i, i] = m[j, j] = np.cos(t)
        m[j, i] = np.sin(t)
        m[i, j] = -m[j, i]
        return m
    g1 = np.diag([4.0, 1.0, 0.25])
    h = rot(0.8, 0, 1) @ rot(0.5, 1, 2) @ rot(0.3, 0, 1)
    return [g1, h @ g1 @ h.T]


def general_position_pair_by_pair(generators):
    """The axis flag check one pair at a time through ``is_antipodal``:
    the reference for the general position check of ``morse``, which
    reads all pairs in one stack."""
    flags = []
    for g in generators:
        flags.append(flagdyn.attracting_flag(g))
        flags.append(flagdyn.repelling_flag(g))
    for i in range(len(flags)):
        for j in range(i + 1, len(flags)):
            try:
                ok = flagdyn.is_antipodal(flags[i], flags[j])
            except AmbiguousRank as exc:
                raise NotAntipodalGenerators(
                    f"flag pair ({i},{j}) too degenerate to decide") from exc
            if not ok:
                raise NotAntipodalGenerators(
                    f"axis flags {i} and {j} are not antipodal")


def schottky_triple_by_triple(generators, N, cone=None, zeta=None,
                              epsilon=0.2, spacing=10.0):
    """``morse.schottky_certificate`` read one triple at a time, with
    norms, cone tests, frames and angles of single segments, from the
    same ``_midpoint_segments``: the reference for its stacked arithmetic
    over all triples."""
    symspace.check_finite(epsilon=epsilon, spacing=spacing)
    gens = symspace._square_generators(generators)
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    general_position_pair_by_pair(gens)
    if cone is None:
        cone = RegularityCone(0.05)
    if zeta is None:
        zeta = ZetaType.default(n)
    (back, back_v), (to_o, to_o_v), (to_b, to_b_v), (ahead, ahead_v) = \
        morse._midpoint_segments(morse._power_letters(gens, N))

    report = SchottkyReport(N, epsilon, spacing)
    for alpha, beta, gamma in product(range(len(back)), repeat=3):
        if alpha == beta or gamma == beta ^ 1:
            continue  # alpha = beta, or beta gamma = 1
        # midpoints of the orbit quadruple (alpha o, o, beta o,
        # beta gamma o), handled in graded form throughout: the points
        # themselves are too ill-conditioned to materialize for large N
        d1 = back_v[alpha, beta]
        d2 = ahead_v[beta, gamma]
        seg1 = 2.0 * float(np.linalg.norm(d1))
        seg2 = 2.0 * float(np.linalg.norm(d2))
        reg1 = cone.contains(d1)
        reg2 = cone.contains(d2)
        ang1 = _frame_angle(_frame(back[beta, alpha], back_v[beta, alpha]),
                            _frame(to_o[beta], to_o_v[beta]), zeta)
        ang2 = _frame_angle(_frame(ahead[beta, gamma], d2),
                            _frame(to_b[beta], to_b_v[beta]), zeta)
        passed = (seg1 >= spacing and seg2 >= spacing and reg1 and reg2
                  and ang1 < epsilon / 2 and ang2 < epsilon / 2)
        name = _word_label((alpha, beta, gamma))
        report.triples.append(TripleReport(
            name, (float(seg1), float(seg2)), (reg1, reg2),
            (float(ang1), float(ang2)), bool(passed)))
    return report


def horofunction_per_t(p, direction, x, t_list, phi=None, offset=None):
    """The estimates of ``symspace.horofunction_estimate`` read one t at a
    time, two graded read-outs each: the reference for its one stacked
    read of all t."""
    direction = np.asarray(direction, dtype=float)
    off = np.zeros(p.n) if offset is None else np.asarray(offset, dtype=float)
    direction = direction - direction.mean()
    if phi is None:
        phi = FinslerFunctional.default(p.n)
    off = off - off.mean()
    rp = p.sqrt()
    mx = np.linalg.cholesky(np.linalg.inv(x.mat)).T @ rp
    estimates = []
    for t in t_list:
        h = t * direction + off
        _, dx = graded.Graded(np.eye(p.n), h, mx.T).chamber()
        _, do = graded.Graded(np.eye(p.n), h, rp.T).chamber()
        estimates.append(phi(dx) - phi(do))
    return estimates
