"""Straightness certificates for piecewise geodesic paths.

A spaced, straight, chamber-interior piecewise geodesic path stays
uniformly quasigeodesic; the straightness measure at a vertex is the
angle between the canonical interior-type unit vectors of the two
adjacent diamonds.  The free-group certificate checks the standard
midpoint-path reduction: for every non-backtracking triple of generator
letters, the midpoints of consecutive orbit segments must be spaced,
regular, and bend by less than half the allowed straightness defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import flagdyn, symspace
from .errors import DegenerateSegment, NotAntipodalGenerators, TieError
from .symspace import (FinslerFunctional, RegularityCone,
                       finsler_distance, riemannian_distance)

GAP_TOL = 1e-8


@dataclass(frozen=True)
class ZetaType:
    """Regular, duality-symmetric unit direction in the model chamber."""

    vector: tuple

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=float)
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


def _chamber_frame(x, y):
    """Eigenframe (descending) of the segment x -> y, seen from x."""
    rxi = x.inv_sqrt()
    w, v = np.linalg.eigh(rxi @ y.mat @ rxi)
    w = np.log(w)[::-1]
    v = v[:, ::-1]
    gaps = w[:-1] - w[1:]
    if np.linalg.norm(w) < GAP_TOL or np.min(gaps) < GAP_TOL:
        raise TieError("segment is degenerate or lies on a wall")
    return v


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
    toward y1 and y2, in [0, pi]."""
    if zeta is None:
        zeta = ZetaType.default(x.n)
    v1 = zeta_direction(x, y1, zeta)
    v2 = zeta_direction(x, y2, zeta)
    xi = np.linalg.inv(x.mat)
    cosang = float(np.trace(xi @ v1 @ xi @ v2))
    return float(np.arccos(min(1.0, max(-1.0, cosang))))


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


def diamond_membership(x, y, z, phi=None, tol=1e-8):
    """Is z on some Finsler geodesic from x to y?"""
    return finsler_betweenness_defect(x, y, z, phi) <= tol


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
    if len(path) < 2:
        raise ValueError("need at least two points")
    if zeta is None:
        zeta = ZetaType.default(path[0].n)
    first_violation = None
    spacing_margin = np.inf
    flags = []
    for i in range(len(path) - 1):
        seg = riemannian_distance(path[i], path[i + 1])
        spacing_margin = min(spacing_margin, seg - spacing)
        if seg - spacing < 0 and first_violation is None:
            first_violation = ("spacing", i)
        ok = symspace.theta_regular_segment(path[i], path[i + 1], cone)
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

def _eig_power(g, N):
    evals, evecs = np.linalg.eig(np.asarray(g, dtype=float))
    return (evecs * evals ** N @ np.linalg.inv(evecs)).real


def _power_letters(gens, N):
    """Stacked letters g0^N, g0^-N, g1^N, ... for flagdyn.reduced_words."""
    return flagdyn.stack_letters(
        gens, lambda g: (_eig_power(g, N), _eig_power(g, -N)))


def _graded_svd(k):
    """Left frame and descending log singular values of k.

    High powers give singular value spreads beyond float conditioning,
    so the decomposition switches to multiprecision when the spread
    (bounded through the determinant) gets large.
    """
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    smax = n * float(np.abs(k).max())
    _, logdet = np.linalg.slogdet(k)
    if not np.isfinite(logdet):
        logdet = 0.0  # all callers pass unimodular products
    span = max(0.0, n * np.log(smax) - float(logdet))
    if span < 20.0:
        u, s, _ = np.linalg.svd(k)
        return u, np.log(s)
    import mpmath as mp
    with mp.workdps(int(span * 0.4343) + 40):
        mu, ms, _ = mp.svd_r(mp.matrix(k.tolist()))
        logs = np.array([float(mp.log(ms[i])) for i in range(n)])
        u = np.array([[float(mu[i, j]) for j in range(n)] for i in range(n)])
    return u, logs


def _orbit_delta(p_inv, q):
    """Chamber-valued distance between orbit points p.o and q.o."""
    _, logs = _graded_svd(p_inv @ q)
    return logs - logs.mean()


def _orbit_frame(p_inv, q, tol=GAP_TOL):
    """Chamber frame of the segment p.o -> q.o seen from p.o, up to the
    common orthogonal factor of p (which cancels in angles)."""
    u, logs = _graded_svd(p_inv @ q)
    logs = logs - logs.mean()
    gaps = logs[:-1] - logs[1:]
    if np.linalg.norm(logs) < tol or gaps.min() < tol:
        raise TieError("orbit segment is degenerate or on a wall")
    return u


def _orbit_angle(u1, u2, zeta):
    w1 = (u1 * zeta.array) @ u1.T
    w2 = (u2 * zeta.array) @ u2.T
    cosang = float(np.trace(w1 @ w2))
    return float(np.arccos(min(1.0, max(-1.0, cosang))))


def _orbit_midpoint(p, p_inv, q):
    """Representative of the geodesic midpoint of p.o and q.o, plus its
    inverse (kept explicitly for stability)."""
    u, logs = _graded_svd(p_inv @ q)
    half = (u * np.exp(logs / 2.0)) @ u.T
    half_inv = (u * np.exp(-logs / 2.0)) @ u.T
    return p @ half, half_inv @ p_inv


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


def _check_general_position(generators):
    flags = []
    for g in generators:
        flags.append(flagdyn.attracting_flag(g))
        flags.append(flagdyn.repelling_flag(g))
    for i in range(len(flags)):
        for j in range(i + 1, len(flags)):
            try:
                ok = flagdyn.is_antipodal(flags[i], flags[j])
            except Exception as exc:
                raise NotAntipodalGenerators(
                    f"flag pair ({i},{j}) too degenerate to decide") from exc
            if not ok:
                raise NotAntipodalGenerators(
                    f"axis flags {i} and {j} are not antipodal")


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
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    _check_general_position(gens)
    if cone is None:
        cone = RegularityCone(0.05)
    if zeta is None:
        zeta = ZetaType.default(n)
    powers = _power_letters(gens, N)
    ident = np.eye(n)

    report = SchottkyReport(N, epsilon, spacing)
    for alpha, beta, gamma in product(range(len(powers)), repeat=3):
        if alpha == beta or gamma == beta ^ 1:
            continue  # alpha = beta, or beta gamma = 1
        # orbit quadruple (alpha o, o, beta o, beta gamma o), handled by
        # group representatives throughout: the points themselves are too
        # ill-conditioned to materialize for large N
        a_inv = powers[alpha ^ 1]
        b = powers[beta]
        b_inv = powers[beta ^ 1]
        c = b @ powers[gamma]
        ma, ma_inv = _orbit_midpoint(powers[alpha], a_inv, ident)
        mb, mb_inv = _orbit_midpoint(ident, ident, b)
        mc, mc_inv = _orbit_midpoint(b, b_inv, c)
        d1 = _orbit_delta(ma_inv, mb)
        d2 = _orbit_delta(mb_inv, mc)
        seg1 = 2.0 * float(np.linalg.norm(d1))
        seg2 = 2.0 * float(np.linalg.norm(d2))
        reg1 = cone.contains(d1)
        reg2 = cone.contains(d2)
        ang1 = _orbit_angle(_orbit_frame(mb_inv, ma),
                            _orbit_frame(mb_inv, ident), zeta)
        ang2 = _orbit_angle(_orbit_frame(mb_inv, mc),
                            _orbit_frame(mb_inv, b), zeta)
        passed = (seg1 >= spacing and seg2 >= spacing and reg1 and reg2
                  and ang1 < epsilon / 2 and ang2 < epsilon / 2)
        name = flagdyn._word_label((alpha, beta, gamma))
        report.triples.append(TripleReport(
            name, (float(seg1), float(seg2)), (reg1, reg2),
            (float(ang1), float(ang2)), bool(passed)))
    return report


def find_schottky_threshold(generators, max_power=60, **kwargs):
    """Smallest N whose certificate passes, by incremental search."""
    for N in range(1, max_power + 1):
        if schottky_certificate(generators, N, **kwargs).passed:
            return N
    return None


def orbit_growth(generators, N, max_word_length):
    """Word length vs orbit distance for all short reduced words of the
    N-th powers: the undistortion witness data."""
    gens = [np.asarray(g, dtype=float) for g in generators]
    out = []
    for length, (_, _, mats) in enumerate(
            flagdyn.reduced_words(_power_letters(gens, N), max_word_length),
            start=1):
        for m in mats:
            _, logs = _graded_svd(m)
            out.append((length, 2.0 * float(np.linalg.norm(logs))))
    return out


# --- quasigeodesic defect reports --------------------------------------------

@dataclass
class MorseDefectReport:
    qi_lower_margin: float
    qi_upper_margin: float
    window_lengths: np.ndarray
    window_defects: np.ndarray
    segment_regular: list | None

    def worst_defect(self):
        return float(self.window_defects.max()) if len(self.window_defects) else 0.0


def morse_defect_report(path, cone=None, window=10.0, L=2.0, A=1.0, phi=None):
    """Quasi-isometry margins and diamond-betweenness defects of an
    integer-parametrized path.

    For every index pair (s, t) the distance must satisfy the (L, A)
    bounds; for every window longer than ``window`` the report records
    the largest polyhedral-metric betweenness defect of an interior
    point relative to the endpoints, the practical stand-in for the
    distance to the endpoint diamond.
    """
    m = len(path)
    if m < 2:
        raise ValueError("need at least two points")
    if phi is None:
        phi = FinslerFunctional.default(path[0].n)
    segment_regular = None
    if cone is not None:
        segment_regular = []
        for s in range(m - 1):
            try:
                segment_regular.append(
                    symspace.theta_regular_segment(path[s], path[s + 1], cone))
            except DegenerateSegment:
                segment_regular.append(False)
    riem = np.zeros((m, m))
    fins = np.zeros((m, m))
    for s in range(m):
        for t in range(s + 1, m):
            v = symspace.delta_distance(path[s], path[t])
            riem[s, t] = riem[t, s] = 2.0 * float(np.linalg.norm(v))
            fins[s, t] = fins[t, s] = phi(v)
    qi_lower = np.inf
    qi_upper = np.inf
    for s in range(m):
        for t in range(s + 1, m):
            d = riem[s, t]
            gap = t - s
            qi_lower = min(qi_lower, d - (gap / L - A))
            qi_upper = min(qi_upper, (L * gap + A) - d)
    lengths = []
    defects = []
    for gap in range(2, m):
        if gap <= window:
            continue
        worst = 0.0
        for s in range(m - gap):
            t = s + gap
            inner = fins[s, s + 1:t] + fins[s + 1:t, t] - fins[s, t]
            worst = max(worst, float(inner.max()))
        lengths.append(gap)
        defects.append(worst)
    return MorseDefectReport(float(qi_lower), float(qi_upper),
                             np.array(lengths), np.array(defects),
                             segment_regular)
