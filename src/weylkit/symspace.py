"""Numerical model of the space of positive definite unit-determinant forms.

Points are symmetric positive definite n x n matrices normalized to
determinant one.  The chamber-valued distance between two points is the
descending vector of half log eigenvalues of x^{-1} y; composing it with
a dual-regular linear functional gives the polyhedral Finsler distance,
and twice its euclidean norm is the Riemannian distance for the trace
form metric (the doubling constant is pinned by a geodesic-integration
cross-check in the tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSegment, NonRegularDirection,
                     NotPositiveDefinite, SingularInput)

SYM_TOL = 1e-12
DET_TOL = 1e-10


class SymPoint:
    """Symmetric positive definite matrix with det normalized to 1."""

    __slots__ = ("mat", "n")

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotPositiveDefinite("point must be a square matrix")
        scale = max(1.0, float(np.abs(mat).max()))
        if np.abs(mat - mat.T).max() > SYM_TOL * scale:
            raise NotPositiveDefinite("matrix is not symmetric")
        mat = 0.5 * (mat + mat.T)
        evals = np.linalg.eigvalsh(mat)
        if evals[0] <= 0:
            raise NotPositiveDefinite("matrix is not positive definite")
        # normalize det to 1 by scalar division
        logdet = float(np.sum(np.log(evals)))
        mat = mat * np.exp(-logdet / mat.shape[0])
        self.mat = mat
        self.n = mat.shape[0]
        residual = abs(float(np.linalg.slogdet(self.mat)[1]))
        spread = float(np.log(evals[-1] / evals[0]))
        if residual > DET_TOL * max(1.0, spread):
            raise NotPositiveDefinite("determinant normalization failed")

    def sqrt(self):
        w, v = np.linalg.eigh(self.mat)
        return (v * np.sqrt(w)) @ v.T

    def inv_sqrt(self):
        w, v = np.linalg.eigh(self.mat)
        return (v / np.sqrt(w)) @ v.T

    def __repr__(self):
        return f"SymPoint({self.mat.tolist()})"


def origin(n):
    return SymPoint(np.eye(n))


def point_from_group(g):
    """Orbit point g . o = g g^T of a unimodular matrix."""
    g = np.asarray(g, dtype=float)
    d = abs(np.linalg.det(g))
    if d < 1e-300:
        raise SingularInput("matrix is singular")
    g = g / d ** (1.0 / g.shape[0])
    return SymPoint(g @ g.T)


def apply_isometry(g, x):
    """The congruence action g . P = g P g^T (renormalized)."""
    g = np.asarray(g, dtype=float)
    return SymPoint(g @ x.mat @ g.T)


def flat_point(y):
    """Point exp(diag(y)) of the diagonal model flat; y sums to zero."""
    y = np.asarray(y, dtype=float)
    y = y - y.mean()
    return SymPoint(np.diag(np.exp(y)))


def sl3_flat_chart(x, y):
    """Isometric chart of the rank-2 model flat of the n=3 space.

    The x-axis is the wall y1 = y2, and the positive chamber is the
    sector of slopes between 0 and sqrt(3).
    """
    ex = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    ey = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return flat_point(x * ex + y * ey)


def cartan(g, cond_cap=1e12):
    """Singular value decomposition g = U diag(mu) V^T with descending
    mu of product one and a deterministic sign convention (first entry
    of each column of U above 1e-12 is positive)."""
    g = np.asarray(g, dtype=float)
    d = np.linalg.det(g)
    if abs(d) < 1e-300:
        raise SingularInput("matrix is singular")
    g = g / abs(d) ** (1.0 / g.shape[0])
    u, mu, vt = np.linalg.svd(g)
    if mu[-1] <= 0 or mu[0] / mu[-1] > cond_cap:
        raise SingularInput("matrix too ill-conditioned for a Cartan split")
    v = vt.T
    for j in range(u.shape[1]):
        col = u[:, j]
        lead = col[np.abs(col) > 1e-12]
        if lead.size and lead[0] < 0:
            u[:, j] = -u[:, j]
            v[:, j] = -v[:, j]
    return u, mu, v


def delta_distance(x, y):
    """Chamber-valued distance: descending half log spectrum of x^{-1} y."""
    xi = x.inv_sqrt()
    w = np.linalg.eigvalsh(xi @ y.mat @ xi)
    if w[0] <= 0:
        raise NotPositiveDefinite("relative form is not positive definite")
    v = 0.5 * np.log(w)[::-1]
    return v - v.mean()


def delta_iota(v):
    """Opposition involution on chamber vectors: reverse and negate."""
    v = np.asarray(v, dtype=float)
    return -v[::-1]


class FinslerFunctional:
    """Linear functional on the chamber; dual vector must be regular
    (strictly decreasing coefficients) and symmetric under the
    opposition involution."""

    def __init__(self, c):
        c = np.asarray(c, dtype=float)
        if np.max(np.abs(c + c[::-1])) > 1e-12:
            raise ValueError("coefficients must be antisymmetric (iota-invariant)")
        if np.min(c[:-1] - c[1:]) <= 0:
            raise ValueError("coefficients must be strictly decreasing")
        self.c = c - c.mean()

    @staticmethod
    def default(n):
        """Sum-of-positive-roots functional: c_i = n + 1 - 2 i."""
        return FinslerFunctional([n + 1 - 2 * i for i in range(1, n + 1)])

    def __call__(self, v):
        return float(np.dot(self.c, np.asarray(v, dtype=float)))

    def norm(self, v):
        """Polyhedral norm of an arbitrary flat vector: evaluate on the
        descending rearrangement (the chamber projection)."""
        v = np.asarray(v, dtype=float)
        return float(np.dot(self.c, np.sort(v)[::-1]))


def finsler_distance(x, y, phi=None):
    if phi is None:
        phi = FinslerFunctional.default(x.n)
    return phi(delta_distance(x, y))


def riemannian_distance(x, y):
    return 2.0 * float(np.linalg.norm(delta_distance(x, y)))


def geodesic(x, y, t):
    """Point at parameter t on the geodesic through x (t=0) and y (t=1)."""
    rx = x.sqrt()
    rxi = x.inv_sqrt()
    w, v = np.linalg.eigh(rxi @ y.mat @ rxi)
    mid = (v * w ** t) @ v.T
    return SymPoint(rx @ mid @ rx)


def midpoint(x, y):
    return geodesic(x, y, 0.5)


@dataclass(frozen=True)
class RegularityCone:
    """Uniform chamber-interior cone: every consecutive gap of the
    normalized chamber vector must be at least ``lower_margin``.
    Optional extra half-space constraints rows . v >= 0 on normalized
    vectors refine the cone; the constraint set must be symmetric under
    the opposition involution (so regularity is orientation-free)."""

    lower_margin: float
    constraints: tuple = ()

    def __post_init__(self):
        if self.lower_margin <= 0:
            raise ValueError("margin must be positive")
        rows = [np.asarray(r, dtype=float) for r in self.constraints]
        for r in rows:
            dual = -r[::-1]
            if not any(np.abs(dual - other).max() < 1e-12 for other in rows):
                raise ValueError(
                    "constraints must be closed under the opposition "
                    "involution (reverse and negate)")

    def contains(self, v):
        v = np.asarray(v, dtype=float)
        nv = np.linalg.norm(v)
        if nv == 0:
            return False
        u = v / nv
        if np.min(u[:-1] - u[1:]) < self.lower_margin:
            return False
        return all(np.dot(row, u) >= 0 for row in self.constraints)


def singular_value_margins(g):
    """log(mu_l / mu_{l+1}) for the singular values of g."""
    _, mu, _ = cartan(g, cond_cap=np.inf)
    lo = np.log(mu)
    return lo[:-1] - lo[1:]


@dataclass
class RegularityReport:
    margins: np.ndarray          # one row per input matrix
    regular_trend: bool
    theta_flags: list | None
    threshold: float


def sequence_regularity(gs, threshold=1.0, cone=None):
    """Margins report for a sequence of matrices.

    The verdict ``regular_trend`` holds when every margin column is
    nondecreasing along the sequence (up to a small slack) and ends
    above ``threshold``; this is the finite-sample proxy for all
    singular value ratios diverging.
    """
    if len(gs) < 2:
        raise ValueError("need at least two matrices")
    margins = np.array([singular_value_margins(g) for g in gs])
    increasing = bool(np.all(margins[1:] >= margins[:-1] - 1e-9))
    verdict = increasing and bool(np.all(margins[-1] >= threshold))
    flags = None
    if cone is not None:
        flags = []
        for row in margins:
            # reconstruct a chamber vector from the margins
            v = np.zeros(len(row) + 1)
            for i, m in enumerate(row):
                v[i + 1] = v[i] - m
            v -= v.mean()
            flags.append(cone.contains(v) if np.linalg.norm(v) > 0 else False)
    return RegularityReport(margins, verdict, flags, threshold)


def theta_regular_segment(x, y, cone):
    v = delta_distance(x, y)
    if np.linalg.norm(v) < 1e-12:
        raise DegenerateSegment("points coincide")
    return cone.contains(v)


@dataclass
class HorofunctionEstimate:
    t_values: list
    estimates: list
    converged: bool
    value: float


def chamber_ray_point(p, direction, t):
    """Point at parameter t of the ray from p whose chamber-valued speed
    is ``direction`` (only for moderate t; see horofunction_estimate for
    the well-conditioned large-t path)."""
    direction = np.asarray(direction, dtype=float)
    rp = p.sqrt()
    return SymPoint(rp @ np.diag(np.exp(2.0 * t * direction)) @ rp)


def _graded_delta(m, exponents):
    """Chamber vector of the form m diag(e^exponents) m^T relative to the
    identity, i.e. descending half log eigenvalues, computed in
    multiprecision: the exponent spread can exceed float conditioning."""
    import mpmath as mp

    exponents = np.asarray(exponents, dtype=float)
    k = m.T @ m
    span = float(exponents.max() - exponents.min())
    with mp.workdps(int(span * 0.4343) + 50):
        n = k.shape[0]
        s = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                s[i, j] = mp.exp((exponents[i] + exponents[j]) / 2) * k[i, j]
        evals, _ = mp.eigsy(s)
        logs = sorted((0.5 * mp.log(evals[i]) for i in range(n)), reverse=True)
        v = np.array([float(l) for l in logs])
    return v - v.mean()


def horofunction_estimate(p, direction, x, t_list, phi=None, offset=None,
                          conv_tol=1e-6):
    """Normalized Finsler distance differences along a chamber ray.

    Evaluates phi-distance(x, p_t) - phi-distance(o, p_t) for the ray
    p_t from p with chamber-valued speed ``direction``; the values
    converge (to the horofunction of the ray's chamber, normalized to
    vanish at the origin).  ``offset`` shifts the sampling inside the
    same sector, which must not change the limit.
    """
    direction = np.asarray(direction, dtype=float)
    direction = direction - direction.mean()
    if np.min(direction[:-1] - direction[1:]) <= 0:
        raise NonRegularDirection("direction must have strictly positive gaps")
    if phi is None:
        phi = FinslerFunctional.default(p.n)
    off = np.zeros(p.n) if offset is None else np.asarray(offset, dtype=float)
    off = off - off.mean()
    rp = p.sqrt()
    mx = np.linalg.cholesky(np.linalg.inv(x.mat)).T @ rp
    mo = rp
    estimates = []
    for t in t_list:
        vec = 2.0 * (t * direction + off)
        dx = _graded_delta(mx, vec)
        do = _graded_delta(mo, vec)
        estimates.append(phi(dx) - phi(do))
    diffs = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    converged = bool(diffs) and diffs[-1] < conv_tol and \
        all(d2 <= d1 + conv_tol for d1, d2 in zip(diffs, diffs[1:]))
    return HorofunctionEstimate(list(t_list), estimates, converged, estimates[-1])


def dual_cone_defect(x, y, z):
    """Slack of the dual-cone triangle inequality for the chamber-valued
    distance: the amount by which d(x,y) + d(y,z) - d(x,z) fails to lie
    in the root cone (0 when it holds)."""
    u = delta_distance(x, y) + delta_distance(y, z) - delta_distance(x, z)
    n = len(u)
    partial = np.cumsum(u)
    worst = min(partial[k] - (k + 1) / n * partial[-1] for k in range(n - 1))
    return -min(worst, 0.0)
