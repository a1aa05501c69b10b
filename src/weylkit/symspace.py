"""Numerical model of the space of positive definite unit-determinant forms.

Points are symmetric positive definite n x n matrices normalized to
determinant one.  The chamber-valued distance between two points is the
descending vector of half log eigenvalues of x^{-1} y; composing it with
a dual-regular linear functional gives the polyhedral Finsler distance,
and twice its euclidean norm is the Riemannian distance for the trace
form metric (the doubling constant is pinned by a geodesic-integration
cross-check in the tests).  Horofunction estimates read distances to far
ray points through the graded kernel of ``weylkit.graded``, which keeps
full relative accuracy where the exponent spread exceeds float
conditioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.linalg._linalg import _umath_linalg

from . import graded
from .errors import (DegenerateSegment, NonRegularDirection,
                     NotPositiveDefinite, SingularInput)

SYM_TOL = 1e-12
DET_TOL = 1e-10


class SymPoint:
    """Read-only positive definite matrix of det 1, its eigh and x^-1/2."""

    __slots__ = ("mat", "n", "_eig", "_inv_sqrt")

    def __init__(self, mat):
        mat = _float_matrix(mat)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise NotPositiveDefinite("point must be a square matrix")
        scale = max(1.0, float(np.abs(mat).max()))
        # from 2^1023 on the sums below can overflow; halving keeps the point
        if scale >= 2.0 ** 1023:
            mat, scale = 0.5 * mat, 0.5 * scale
        if np.abs(mat - mat.T).max() > SYM_TOL * scale:
            raise NotPositiveDefinite("matrix is not symmetric")
        mat = 0.5 * (mat + mat.T)
        evals = np.linalg.eigvalsh(mat)
        if evals[0] <= 0:
            raise NotPositiveDefinite("matrix is not positive definite")
        # normalize det to 1 by scalar division
        logdet = float(np.sum(np.log(evals)))
        mat = mat * np.exp(-logdet / mat.shape[0])
        mat.flags.writeable = False
        self.mat = mat
        self.n = mat.shape[0]
        residual = abs(float(np.linalg.slogdet(self.mat)[1]))
        cond = float(evals[-1]) / float(evals[0])  # inf past the float range
        # rounding moves the smallest eigenvalue by about eps * cond
        # relative, and the residual with it; from eps * cond = 1 on that
        # eigenvalue is noise, and only the fixed bound is left; >= refuses
        # an overflowed determinant, whose residual and bound are both inf
        noise = np.finfo(float).eps * cond
        bound = DET_TOL * max(1.0, float(np.log(cond)))
        if residual >= bound + (noise if noise < 1.0 else 0.0):
            raise NotPositiveDefinite("determinant normalization failed")
        self._eig = np.linalg.eigh(mat)

    def sqrt(self):
        w, v = self._eig
        return (v * np.sqrt(w)) @ v.T

    def inv_sqrt(self):
        if not hasattr(self, "_inv_sqrt"):
            w, v = self._eig
            self._inv_sqrt = (v / np.sqrt(w)) @ v.T
            self._inv_sqrt.flags.writeable = False
        return self._inv_sqrt

    def __repr__(self):
        return f"SymPoint({self.mat.tolist()})"


def check_finite(**params):
    """ValueError naming the first parameter that is NaN or infinite, or
    holds such an entry: every comparison with NaN is false, so such a
    value passes any test."""
    for name, value in params.items():
        bad = np.asarray(value, dtype=float)
        bad = bad[~np.isfinite(bad)]
        if bad.size and np.ndim(value) == 0:
            raise ValueError(f"{name} must be a finite number, got {value}")
        if bad.size:
            raise ValueError(f"{name} entries must be finite, got {bad[0]}")


def check_integer(name, value, minimum):
    """ValueError naming ``name`` unless value is an integer >= minimum
    (not a bool; a numpy integer is one)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, "
                         f"got {value}")


def origin(n):
    return SymPoint(np.eye(n))


def unimodular(g):
    """g scaled by a positive factor to |det| = 1; SingularInput when the
    determinant is zero to float precision."""
    g = _float_matrix(g)
    with np.errstate(over="ignore"):
        d = abs(np.linalg.det(g))
    if not 1e-300 <= d < np.inf:
        # det under- or overflowed: bring max|g| into [1/2, 1) by an exact
        # power of two, which leaves g / |det g|^(1/n) as it is
        g = np.ldexp(g, -np.frexp(np.abs(g).max())[1])
        d = abs(np.linalg.det(g))
    if d < 1e-300:
        raise SingularInput("matrix is singular")
    return g / d ** (1.0 / g.shape[0])


def _float_matrix(data):
    """``data`` as a float array; a ValueError naming the row lengths when
    they differ, or the first entry that is NaN or infinite."""
    try:
        m = np.asarray(data, dtype=float)
    except ValueError:
        lengths = [len(row) for row in data]
        if len(set(lengths)) < 2:
            raise
        raise ValueError(f"matrix rows differ in length: {lengths}") from None
    check_finite(matrix=m)
    return m


def _square_generators(generators):
    """The generators as float arrays; ValueError naming their shapes
    unless they are square matrices of one size."""
    gens = [_float_matrix(g) for g in generators]
    shapes = [g.shape for g in gens]
    if any(len(s) != 2 or s[0] != s[1] or s != shapes[0] for s in shapes):
        raise ValueError("generators must be square matrices of one size, "
                         f"got shapes {', '.join(map(str, shapes))}")
    return gens


def column_signs(m):
    """+-1 per column: the sign of its first entry above 1e-12 in absolute
    value, the sign convention of flags and Cartan frames."""
    big = np.abs(m) > 1e-12
    lead = m[big.argmax(axis=0), np.arange(m.shape[1])]
    return np.where(big.any(axis=0) & (lead < 0), -1.0, 1.0)


def point_from_group(g):
    """Orbit point g . o = g g^T of a unimodular matrix."""
    g = unimodular(g)
    return SymPoint(g @ g.T)


def apply_isometry(g, x):
    """The congruence action g . P = g P g^T (renormalized)."""
    g = _float_matrix(g)
    return SymPoint(g @ x.mat @ g.T)


def flat_point(y):
    """Point exp(diag(y)) of the diagonal model flat; y sums to zero."""
    y = np.asarray(y, dtype=float)
    y = y - y.mean()
    return SymPoint(np.diag(np.exp(y)))


def cartan(g):
    """Singular value decomposition g = U diag(mu) V^T with descending
    mu of product one and a deterministic sign convention (first entry
    of each column of U above 1e-12 is positive)."""
    u, mu, vt = np.linalg.svd(unimodular(g))
    if mu[-1] <= 0 or mu[0] / mu[-1] > 1e12:
        raise SingularInput("matrix too ill-conditioned for a Cartan split")
    signs = column_signs(u)
    return u * signs, mu, vt.T * signs


def delta_distance(x, y):
    """Chamber-valued distance: descending half log spectrum of x^{-1} y."""
    return delta_stack(x.inv_sqrt(), y.mat)


def delta_stack(xi, ys):
    """``delta_distance`` for a stack of pairs, from one batched eigvalsh:
    the chamber vectors of the matrices ``ys`` seen from the points whose
    inverse square roots are ``xi`` (one matrix, or a stack matched with
    ``ys``), each row bit-identical to ``delta_distance``.  The eigvalsh
    kernel ``_umath_linalg.eigvalsh_lo`` (numpy 2.4.6) reads the lower
    triangle: a sum of squares below inf vouches for the whole form."""
    with np.errstate(all="ignore"):
        form = xi @ ys @ xi
        w = _umath_linalg.eigvalsh_lo(form, signature="d->d")
    if not (w[..., 0].min(initial=np.inf) > 0
            and np.vdot(form, form) < np.inf):
        if not np.isfinite(form).all():
            raise SingularInput("relative form spans more than the float range")
        np.linalg.eigvalsh(form)  # its LinAlgError where a solve failed
        if not w[..., 0].min(initial=np.inf) > 0:
            raise NotPositiveDefinite("relative form is not positive definite")
    v = 0.5 * np.log(w)[..., ::-1]
    # the arithmetic of mean, without its per-call cost on one pair
    return v - v.sum(axis=-1, keepdims=True) / v.shape[-1]


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
        check_finite(coefficient=c)
        if np.max(np.abs(c + c[::-1])) > 1e-12:
            raise ValueError("coefficients must be antisymmetric (iota-invariant)")
        if np.min(c[:-1] - c[1:]) <= 0:
            raise ValueError("coefficients must be strictly decreasing")
        self.c = c - c.mean()
        self.c.flags.writeable = False

    @staticmethod
    @cache
    def default(n):
        """Sum-of-positive-roots functional c_i = n + 1 - 2 i, once per n."""
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
    normalized chamber vector must be at least ``lower_margin``."""

    lower_margin: float

    def __post_init__(self):
        check_finite(margin=self.lower_margin)
        if self.lower_margin <= 0:
            raise ValueError("margin must be positive")

    def contains(self, v):
        """Is v, or each row of a stack v, in the cone?  0 is not."""
        v = np.asarray(v, dtype=float)
        check_finite(**{"chamber vector": v})
        nv = np.sqrt(np.vecdot(v, v))[..., None]  # np.linalg.norm's dot
        u = np.divide(v, nv, out=np.zeros_like(v), where=nv > 0)
        inside = np.min(u[..., :-1] - u[..., 1:], axis=-1) >= self.lower_margin
        return bool(inside) if inside.ndim == 0 else inside


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
    check_finite(threshold=threshold)
    if len(gs) < 2:
        raise ValueError("need at least two matrices")
    mu = np.linalg.svd(np.array([unimodular(g)
                                 for g in _square_generators(gs)]))[1]
    if mu[:, -1].min() <= 0:
        raise SingularInput("matrix too ill-conditioned for a Cartan split")
    lo = np.log(mu)
    margins = lo[:, :-1] - lo[:, 1:]
    increasing = bool(np.all(margins[1:] >= margins[:-1] - 1e-9))
    verdict = increasing and bool(np.all(margins[-1] >= threshold))
    flags = None
    if cone is not None:
        flags = [cone.contains(v) for v in lo - lo.mean(axis=1, keepdims=True)]
    return RegularityReport(margins, verdict, flags, threshold)


def theta_regular_segment(x, y, cone):
    return theta_regular_vector(delta_distance(x, y), cone)


def theta_regular_vector(v, cone):
    """Is the chamber vector v of a segment in the cone?  A segment whose
    points coincide is refused."""
    if np.linalg.norm(v) < 1e-12:
        raise DegenerateSegment("points coincide")
    return cone.contains(v)


@dataclass
class HorofunctionEstimate:
    t_values: list
    estimates: list
    converged: bool
    value: float


def horofunction_estimate(p, direction, x, t_list, phi=None, offset=None):
    """Normalized Finsler distance differences along a chamber ray.

    Evaluates phi-distance(x, p_t) - phi-distance(o, p_t) for the ray
    p_t from p with chamber-valued speed ``direction``; the values
    converge (to the horofunction of the ray's chamber, normalized to
    vanish at the origin).  ``offset`` shifts the sampling inside the
    same sector, which must not change the limit.  Every t, for x and
    for the origin, is read in one stacked graded read-out.
    """
    direction = np.asarray(direction, dtype=float)
    off = np.zeros(p.n) if offset is None else np.asarray(offset, dtype=float)
    check_finite(direction=direction, t_list=t_list, offset=off)
    t = np.asarray(t_list, dtype=float)
    if t.ndim != 1 or not t.size or t[0] <= 0 or np.any(t[1:] <= t[:-1]):
        raise ValueError("t_list must be a nonempty increasing list of "
                         f"positive times, got {t.tolist()}")
    direction = direction - direction.mean()
    if np.min(direction[:-1] - direction[1:]) <= 0:
        raise NonRegularDirection("direction must have strictly positive gaps")
    if phi is None:
        phi = FinslerFunctional.default(p.n)
    off = off - off.mean()
    # chamber vectors of m e^h, m = chol(x^-1)^T p^1/2 and p^1/2, read graded
    # (the spread of h can exceed float conditioning); vecdot is phi's dot
    rp = p.sqrt()
    mx = np.linalg.cholesky(np.linalg.inv(x.mat)).T @ rp
    h = np.tile(t[:, None] * direction + off, (2, 1))
    right = np.repeat([mx.T, rp.T], len(t), axis=0)
    fx, fo = np.vecdot(graded.Graded(np.eye(p.n), h, right).chamber()[1],
                       phi.c).reshape(2, -1)
    estimates = (fx - fo).tolist()
    diffs = [abs(b - a) for a, b in zip(estimates, estimates[1:])]
    converged = bool(diffs) and diffs[-1] < 1e-6 and \
        all(d2 <= d1 + 1e-6 for d1, d2 in zip(diffs, diffs[1:]))
    return HorofunctionEstimate(list(t_list), estimates, converged, estimates[-1])
