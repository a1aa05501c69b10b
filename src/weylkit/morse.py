"""Straightness certificates for piecewise geodesic paths.

A spaced, straight, chamber-interior piecewise geodesic path stays
uniformly quasigeodesic; the straightness measure at a vertex is the
angle between the canonical interior-type unit vectors of the two
adjacent diamonds.  The free-group certificate checks the standard
midpoint-path reduction: for every non-backtracking triple of generator
letters, the midpoints of consecutive orbit segments must be spaced,
regular, and bend by less than half the allowed straightness defect.

The certificate and the orbit growth data work on long word products,
whose small singular values float64 matrices cannot hold.  Both keep
letters and products in the graded form of ``weylkit.graded`` and read
distances and frames from it, so no ill-conditioned matrix is ever
formed and no multiprecision arithmetic is needed; a product the kernel
cannot vouch for raises SingularInput.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

import numpy as np

from . import flagdyn, graded, symspace
from .errors import (AmbiguousRank, DegenerateSegment,
                     NotAntipodalGenerators, TieError)
from .symspace import FinslerFunctional, RegularityCone, finsler_distance

GAP_TOL = 1e-8


@dataclass(frozen=True)
class ZetaType:
    """Regular, duality-symmetric unit direction in the model chamber."""

    vector: tuple

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
        symspace.check_finite(**{"type vector": v})
        if abs(v.sum()) > 1e-10:
            raise ValueError("type vector must be traceless")
        if np.min(v[:-1] - v[1:]) <= 0:
            raise ValueError("type vector must be regular (strict gaps)")
        if np.abs(v + v[::-1]).max() > 1e-10:
            raise ValueError("type vector must be symmetric under duality")
        if abs(np.dot(v, v) - 1.0) > 1e-10:
            raise ValueError("type vector must have unit norm")

    @staticmethod
    def default(n):
        v = np.array([n + 1 - 2 * i for i in range(1, n + 1)], dtype=float)
        return ZetaType(tuple(float(x) for x in v / np.linalg.norm(v)))

    @property
    def array(self):
        return np.asarray(self.vector, dtype=float)


def _frame(frames, vectors):
    """Chamber frames of a stack of segments, refused when one of them is
    degenerate or lies on a wall."""
    gaps = vectors[..., :-1] - vectors[..., 1:]
    norms = np.sqrt(np.vecdot(vectors, vectors))  # np.linalg.norm's dot
    if np.any((norms < GAP_TOL) | (gaps.min(axis=-1) < GAP_TOL)):
        raise TieError("segment is degenerate or lies on a wall")
    return frames


def _frame_angle(u1, u2, zeta):
    """Angles between the unit matrices W_i = u_i diag(zeta) u_i^T of two
    stacks of frames, read as 2 atan2(|W_1 - W_2|, |W_1 + W_2|): arccos
    of their trace cannot resolve angles below about 1e-8."""
    w1 = (u1 * zeta.array) @ np.swapaxes(u1, -1, -2)
    w2 = (u2 * zeta.array) @ np.swapaxes(u2, -1, -2)
    w = np.stack([w1 - w2, w1 + w2]).reshape(2, *w1.shape[:-2], -1)
    return 2.0 * np.arctan2(*np.sqrt(np.vecdot(w, w)))


def _chamber_frame(x, y):
    """Eigenframe (descending) of the segment x -> y, seen from x."""
    rxi = x.inv_sqrt()
    w, v = np.linalg.eigh(rxi @ y.mat @ rxi)
    return _frame(v[:, ::-1], np.log(w)[::-1])


def zeta_direction(x, y, zeta=None):
    """Unit tangent vector at x of the given chamber type pointing into
    the diamond of the segment x -> y (a symmetric matrix, unit norm in
    the trace form metric at x)."""
    if zeta is None:
        zeta = ZetaType.default(x.n)
    frame = _chamber_frame(x, y)
    w0 = (frame * zeta.array) @ frame.T
    rx = x.sqrt()
    return rx @ w0 @ rx


def zeta_angle(x, y1, y2, zeta=None):
    """Angle at x between the canonical type vectors of the diamonds
    toward y1 and y2, in [0, pi].  With v_i = x^1/2 W_i x^1/2 for the
    chamber frames u_i, tr(x^-1 v_1 x^-1 v_2) = tr(W_1 W_2), so this is
    the angle between W_1 and W_2."""
    if zeta is None:
        zeta = ZetaType.default(x.n)
    return float(_frame_angle(_chamber_frame(x, y1), _chamber_frame(x, y2),
                              zeta))


def flat_zeta_vector(direction, zeta):
    """Closed-form type vector for a segment inside the diagonal flat:
    permute the type entries by the sorting order of the direction."""
    direction = np.asarray(direction, dtype=float)
    order = np.argsort(-direction, kind="stable")
    out = np.empty_like(zeta.array)
    out[order] = zeta.array
    return out


def finsler_betweenness_defect(x, y, z, phi=None):
    """Nonnegative defect d(x,z) + d(z,y) - d(x,y) in the polyhedral
    metric; zero exactly when z lies in the diamond of x and y."""
    if phi is None:
        phi = FinslerFunctional.default(x.n)
    return (finsler_distance(x, z, phi) + finsler_distance(z, y, phi)
            - finsler_distance(x, y, phi))


def diamond_membership(x, y, z, phi=None):
    """Is z on some Finsler geodesic from x to y (defect at most 1e-8)?"""
    return finsler_betweenness_defect(x, y, z, phi) <= 1e-8


@dataclass
class PathCertificate:
    spacing_margin: float
    straightness_margin: float
    regularity_flags: list
    verdict: bool
    first_violation: tuple | None


def straightness_check(path, cone, zeta=None, epsilon=0.2, spacing=10.0):
    """Certificate that a piecewise geodesic path is spaced, regular and
    straight: segment lengths >= spacing, segment directions in the
    cone, vertex angles >= pi - epsilon."""
    symspace.check_finite(epsilon=epsilon, spacing=spacing)
    if len(path) < 2:
        raise ValueError("need at least two points")
    if zeta is None:
        zeta = ZetaType.default(path[0].n)
    first_violation = None
    spacing_margin = np.inf
    flags = []
    mats, xi = map(np.array, zip(*[(p.mat, p.inv_sqrt()) for p in path]))
    for i, v in enumerate(symspace.delta_stack(xi[:-1], mats[1:])):
        seg = 2.0 * float(np.linalg.norm(v))
        spacing_margin = min(spacing_margin, seg - spacing)
        if seg - spacing < 0 and first_violation is None:
            first_violation = ("spacing", i)
        ok = symspace.theta_regular_vector(v, cone)
        flags.append(ok)
        if not ok and first_violation is None:
            first_violation = ("regularity", i)
    straightness_margin = np.inf
    for i in range(1, len(path) - 1):
        try:
            ang = zeta_angle(path[i], path[i - 1], path[i + 1], zeta)
        except TieError:
            raise TieError(f"vertex {i}: adjacent segment on a wall")
        margin = ang - (np.pi - epsilon)
        straightness_margin = min(straightness_margin, margin)
        if margin < 0 and first_violation is None:
            first_violation = ("straightness", i)
    verdict = (spacing_margin >= 0 and all(flags)
               and (straightness_margin >= 0 or straightness_margin == np.inf))
    return PathCertificate(float(spacing_margin), float(straightness_margin),
                           flags, bool(verdict), first_violation)


# --- free group certificates -------------------------------------------------

def _power_letters(gens, N):
    """Letters g0^N, g0^-N, g1^N, ... as one graded stack, the letters of
    ``flagdyn.walk_words`` for graded products."""
    return graded.power(flagdyn.stack_letters(gens), N)


def _segments(left, x, right):
    """Left frames and chamber vectors of diag(e^left) x diag(e^right),
    x orthogonal, for stacks of each."""
    return (graded.Graded.diag(left)
            @ graded.Graded(x, right, np.eye(x.shape[-1]))).chamber()


def _midpoint_segments(letters):
    """The segments of the midpoint path, seen from its middle midpoint.

    With the letter x = u_x e^{l_x} w_x^T and h_x = l_x / 2, the midpoint
    of o and x.o is m_x.o for m_x = u_x e^{h_x} (a representative up to a
    right orthogonal factor, which changes no distance or angle).  Seen
    from m_b, that is after applying m_b^-1, the other points are
    m_a -> e^{-h_b} u_b^T u_a e^{h_a}, o -> e^{-h_b} u_b^T,
    b.o -> e^{h_b} w_b^T and b m_c -> e^{h_b} w_b^T u_c e^{h_c}.
    Returns (frames, chamber vectors) of these four, indexed [b, a],
    [b], [b] and [b, c], read as one stack by one ``_segments`` call.
    """
    u, logs, w = letters.svd()
    h, (k, n) = logs / 2.0, logs.shape
    ut, wt = np.swapaxes(u, -1, -2), np.swapaxes(w, -1, -2)
    back, ahead = ((m[:, None] @ u[None]).reshape(-1, n, n) for m in (ut, wt))
    hb, ha = np.repeat(h, k, axis=0), np.tile(h, (k, 1))
    frames, vectors = _segments(np.concatenate([-hb, -h, h, hb]),
                                np.concatenate([back, ut, wt, ahead]),
                                np.concatenate([ha, np.zeros((2 * k, n)), ha]))
    cuts = np.cumsum([k * k, k, k])
    return tuple((f.reshape(*s, n, n), v.reshape(*s, n)) for f, v, s in zip(
        np.split(frames, cuts), np.split(vectors, cuts),
        [(k, k), (k,), (k,), (k, k)]))


@dataclass
class TripleReport:
    triple: str
    spacing: tuple
    regular: tuple
    angles: tuple
    passed: bool


@dataclass
class SchottkyReport:
    N: int
    epsilon: float
    spacing: float
    triples: list = field(default_factory=list)

    @property
    def passed(self):
        return all(t.passed for t in self.triples)

    @property
    def min_spacing(self):
        return min((min(t.spacing) for t in self.triples), default=np.inf)

    @property
    def max_angle(self):
        return max((max(t.angles) for t in self.triples), default=0.0)


def _checked_generators(generators, epsilon, spacing):
    """The generators, after the checks that do not depend on N: finite
    bounds, matrices, and NotAntipodalGenerators for the first axis flag
    pair (i, j), i < j, refused or not antipodal, all read in one stack."""
    symspace.check_finite(epsilon=epsilon, spacing=spacing)
    gens = symspace._square_generators(generators)
    if not gens:
        raise ValueError("need at least one generator")
    flags = np.array([f.basis for g in gens for f in (
        flagdyn.attracting_flag(g), flagdyn.repelling_flag(g))])
    first, second = np.triu_indices(len(flags), 1)
    ranks, _, early = flagdyn._corner_ranks(
        np.swapaxes(flags[first], -1, -2) @ flags[second], flagdyn.RANK_TOL)
    w, _, late = flagdyn._read_positions(ranks)
    refusals = np.where(np.equal(early, None), late, early)
    for i, j, pos, refusal in zip(first, second, w, refusals):
        if refusal is not None:
            raise NotAntipodalGenerators(
                f"flag pair ({i},{j}) too degenerate to decide"
            ) from AmbiguousRank(refusal)
        if np.any(pos != np.arange(len(pos), 0, -1)):  # not the longest one
            raise NotAntipodalGenerators(
                f"axis flags {i} and {j} are not antipodal")
    return gens


def schottky_certificate(generators, N, cone=None, zeta=None, epsilon=0.2,
                         spacing=10.0):
    """Midpoint-path straightness certificate for powers of the given
    axial generators.

    For every triple (alpha, beta, gamma) of generators and inverses
    with alpha != beta and beta gamma != 1, takes the orbit quadruple
    (alpha^N o, o, beta^N o, beta^N gamma^N o), forms the midpoints of
    its three segments, and checks midpoint spacing, chamber interior
    regularity, and that the diamonds toward the adjacent midpoint and
    toward the orbit point bend by less than epsilon / 2 at the middle
    midpoint.
    """
    symspace.check_integer("N", N, 1)
    return _certificate(_checked_generators(generators, epsilon, spacing), N,
                        cone, zeta, epsilon, spacing)


def _certificate(gens, N, cone, zeta, epsilon, spacing):
    """``schottky_certificate`` of checked generators."""
    if cone is None:
        cone = RegularityCone(0.05)
    if zeta is None:
        zeta = ZetaType.default(gens[0].shape[0])
    (back, back_v), (to_o, to_o_v), (to_b, to_b_v), (ahead, ahead_v) = \
        _midpoint_segments(_power_letters(gens, N))
    # the triples (alpha, beta, gamma) in product order, but for alpha = beta
    # and beta gamma = 1; the midpoints of (alpha o, o, beta o, beta gamma o)
    # stay graded: the points are too ill-conditioned to form for large N
    abc = np.indices((len(back),) * 3).reshape(3, -1)
    a, b, c = abc[:, (abc[0] != abc[1]) & (abc[2] != abc[1] ^ 1)]
    d1, d2 = back_v[a, b], ahead_v[b, c]
    seg1, seg2 = (2.0 * np.sqrt(np.vecdot(d, d)) for d in (d1, d2))
    reg1, reg2 = cone.contains(d1), cone.contains(d2)
    ang1 = _frame_angle(_frame(back[b, a], back_v[b, a]),
                        _frame(to_o[b], to_o_v[b]), zeta)
    ang2 = _frame_angle(_frame(ahead[b, c], d2), _frame(to_b[b], to_b_v[b]),
                        zeta)
    passed = ((seg1 >= spacing) & (seg2 >= spacing) & reg1 & reg2
              & (ang1 < epsilon / 2) & (ang2 < epsilon / 2))
    rows = zip(*(x.tolist() for x in (a, b, c, seg1, seg2, reg1, reg2, ang1,
                                      ang2, passed)))
    return SchottkyReport(N, epsilon, spacing, [TripleReport(
        flagdyn._word_label(r[:3]), r[3:5], r[5:7], r[7:9], r[9])
        for r in rows])


def find_schottky_threshold(generators, max_power=60, **kwargs):
    """Smallest N whose certificate passes, by incremental search, with
    the options and checks of ``schottky_certificate`` taken once."""
    symspace.check_integer("max_power", max_power, 1)
    options = inspect.signature(schottky_certificate).bind(generators, 1,
                                                           **kwargs)
    options.apply_defaults()
    _, _, cone, zeta, epsilon, spacing = options.args
    gens = _checked_generators(generators, epsilon, spacing)
    return next((N for N in range(1, max_power + 1) if _certificate(
        gens, N, cone, zeta, epsilon, spacing).passed), None)


def orbit_growth(generators, N, max_word_length):
    """Word length vs orbit distance for all short reduced words of the
    N-th powers: the undistortion witness data, twice the norms of the
    chamber vectors (so a scalar factor of a generator drops out)."""
    symspace.check_integer("N", N, 1)
    gens = symspace._square_generators(generators)
    if not gens:
        raise ValueError("need at least one generator")
    letters = _power_letters(gens, N)
    depth, _ = flagdyn.word_depth(len(letters), "max_word_length",
                                  max_word_length, None)
    walk = flagdyn.walk_words(letters, depth)
    # no two blocks share (length, first row): they sort into shortlex order
    blocks = sorted((length, first, np.linalg.norm(w.chamber()[1], axis=1))
                    for length, first, _, w in walk)
    return [(length, 2.0 * float(d)) for length, _, dist in blocks
            for d in dist]


# --- quasigeodesic defect reports --------------------------------------------

@dataclass
class MorseDefectReport:
    qi_lower_margin: float
    qi_upper_margin: float
    window_lengths: np.ndarray
    window_defects: np.ndarray
    segment_regular: list | None


def morse_defect_report(path, cone=None, window=10.0, L=2.0, A=1.0, phi=None):
    """Quasi-isometry margins and diamond-betweenness defects of an
    integer-parametrized path.

    For every index pair (s, t) the distance must satisfy the (L, A)
    bounds; for every window longer than ``window`` the report records
    the largest polyhedral-metric betweenness defect of an interior
    point relative to the endpoints, the practical stand-in for the
    distance to the endpoint diamond.

    The chamber vectors of all m(m-1)/2 pairs are read row by row: row s
    is one batched eigvalsh over x_s^-1/2 x_t x_s^-1/2 for t > s, from
    each point's own x^-1/2, bit-identical to ``delta_distance``.  Each
    row folds into the (L, A) margins and into two skewed m x m tables,
    ahead[s, j] = d(x_s, x_{s+j}) and behind[t, i] = d(x_{t-i}, x_t), of
    Finsler distances.  Each window length reads its defects from slices
    of the two tables; O(m^2) memory, no index arrays.  The temporaries
    are O(m n^2) per row, where one stack of all pairs would take O(m^2 n^2).
    """
    symspace.check_finite(window=window, L=L, A=A)
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")
    if not A >= 0:
        raise ValueError(f"A must be non-negative, got {A}")
    m = len(path)
    if m < 2:
        raise ValueError("need at least two points")
    n = path[0].n
    for i, p in enumerate(path):
        if p.n != n:
            raise ValueError(f"path points must share one dimension: "
                             f"point 0 has n = {n}, point {i} has n = {p.n}")
    if phi is None:
        phi = FinslerFunctional.default(n)
    mats, xi = map(np.array, zip(*[(p.mat, p.inv_sqrt()) for p in path]))
    qi_lower = qi_upper = np.inf
    ahead, behind = np.zeros((m, m)), np.zeros((m, m))
    steps = np.empty((m - 1, n))
    for s in range(m - 1):
        v = symspace.delta_stack(xi[s], mats[s + 1:])
        # np.vecdot takes the 1-D dot that norm and phi take, so the
        # values are bit-identical to theirs
        riem = 2.0 * np.sqrt(np.vecdot(v, v))
        gap = np.arange(1, m - s)
        qi_lower = min(qi_lower, (riem - (gap / L - A)).min())
        qi_upper = min(qi_upper, ((L * gap + A) - riem).min())
        ahead[s, 1:m - s] = behind[s + gap, gap] = np.vecdot(v, phi.c)
        steps[s] = v[0]
    segment_regular = None
    if cone is not None:
        segment_regular = []
        for v in steps:
            try:
                segment_regular.append(symspace.theta_regular_vector(v, cone))
            except DegenerateSegment:
                segment_regular.append(False)
    lengths = [gap for gap in range(2, m) if gap > window]
    defects = []
    for g in lengths:
        inner = (ahead[:m - g, 1:g] + behind[g:, g - 1:0:-1]
                 - ahead[:m - g, g, None])
        defects.append(max(0.0, float(inner.max())))
    return MorseDefectReport(float(qi_lower), float(qi_upper),
                             np.array(lengths, dtype=int), np.array(defects),
                             segment_regular)
