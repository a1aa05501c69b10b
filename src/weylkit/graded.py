"""Graded products: long matrix products in a form float64 can hold.

A product is held as U diag(e^logs) T, with U orthogonal, ``logs`` the
log scales and T well conditioned, so singular values far below the
largest one keep full relative accuracy however long the product gets.
A letter g^N comes from one eigendecomposition of g.  A factor is
applied by a QR of the graded middle matrix, with its columns sorted by
norm first: the pre-pivoted UDT update of Bai, Lee, Li and Xu (LAA 435,
2011).  Its rows are sorted by norm too, because a left grading need
not be decreasing (the inverse of a midpoint has increasing scales).
Log singular values and frames are read out by one-sided Jacobi, which
is accurate to the conditioning of T, not of the product (Demmel and
Veselic, SIMAX 13, 1992), and ``chamber`` centres the logs into the
chamber vectors.  Every operation works on stacks of matrices, and the
Jacobi read-out rotates only members that are not yet orthogonal, so a
read-out depends only on its own product, the same bits in any stack.
``flagdyn.walk_words`` needs of a stack its ``shape`` and length,
indexing by integer arrays and by slices of rows, and ``@`` between two
stacks of one length, one product per row.

When an eigenbasis or T is worse conditioned than COND_LIMIT, or a
product spans more than the float range, the kernel raises
SingularInput instead of returning digits it cannot vouch for.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularInput

COND_LIMIT = 1e8      # relative error of a read-out is about 1e-16 cond(T)
EXP_RANGE = 700.0     # e^-700 is still a normal float64
JACOBI_SWEEPS = 30


class Graded:
    """Stack of products u diag(e^logs) t; u and t have shape (..., n, n)
    and logs (..., n)."""

    __slots__ = ("u", "logs", "t")

    def __init__(self, u, logs, t):
        self.u, self.logs, self.t = u, logs, t

    @staticmethod
    def diag(logs):
        """diag(e^logs) itself."""
        logs = np.asarray(logs, dtype=float)
        n = logs.shape[-1]
        eye = np.broadcast_to(np.eye(n), logs.shape + (n,))
        return Graded(eye, logs, eye)

    def __len__(self):
        return len(self.logs)

    @property
    def shape(self):
        return self.u.shape

    def __getitem__(self, idx):
        return Graded(self.u[idx], self.logs[idx], self.t[idx])

    def __setitem__(self, idx, other):
        self.u[idx], self.logs[idx], self.t[idx] = other.u, other.logs, other.t

    def __matmul__(self, other):
        """Product with ``other``, whose u need not be orthogonal."""
        middle = self.t @ other.u
        scale = self.logs[..., :, None] + other.logs[..., None, :]
        top = scale.max(axis=(-2, -1), keepdims=True)
        if (scale - top).min(initial=0.0) < -EXP_RANGE:
            raise SingularInput("product spans more than the float range")
        middle = middle * np.exp(scale - top)
        # rows and then columns in order of decreasing norm, so that
        # Householder QR keeps the small entries of a graded matrix
        rows = np.argsort(-np.linalg.norm(middle, axis=-1), axis=-1,
                          kind="stable")[..., None, :]
        middle = np.take_along_axis(middle, np.swapaxes(rows, -1, -2), axis=-2)
        order = np.argsort(-np.linalg.norm(middle, axis=-2), axis=-1,
                           kind="stable")[..., None, :]
        q, r = np.linalg.qr(np.take_along_axis(middle, order, axis=-1))
        d = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        if not np.all(d > 0):
            raise SingularInput("product is singular")
        t = np.empty_like(r)
        np.put_along_axis(t, order, r / d[..., :, None], axis=-1)
        u = np.take_along_axis(self.u, rows, axis=-1) @ q
        return Graded(u, np.log(d) + top[..., 0], t @ other.t)

    def svd(self):
        """Left frames, descending log singular values and right frames:
        the product is frames diag(e^logs) right^T."""
        norms = np.linalg.norm(self.t, axis=-1)
        hat = np.swapaxes(self.t / norms[..., :, None], -1, -2)
        if np.linalg.cond(hat).max(initial=1.0) > COND_LIMIT:
            raise SingularInput(
                f"graded product too ill-conditioned (cond T > {COND_LIMIT:.0e})")
        hat, s, j = _jacobi(hat, self.logs + np.log(norms))
        order = np.argsort(-s, axis=-1, kind="stable")
        s = np.take_along_axis(s, order, axis=-1)
        order = order[..., None, :]
        return (self.u @ np.take_along_axis(j, order, axis=-1), s,
                np.take_along_axis(hat, order, axis=-1))

    def chamber(self):
        """Left frames and chamber vectors (the logs of ``svd`` centred to
        sum zero, so a scalar factor of the product drops out)."""
        frames, logs, _ = self.svd()
        return frames, logs - logs.mean(axis=-1, keepdims=True)


def _jacobi(hat, s):
    """One-sided Jacobi on the stack of matrices hat diag(e^s), whose
    columns hat[..., :, k] have unit norm.

    Returns the orthogonalised unit columns, their log norms (the log
    singular values) and the accumulated rotation j, so that
    hat diag(e^s) j = hat' diag(e^s').  Each rotation is written in the
    scaled columns, with r = e^-|s_p - s_q| <= 1 in place of the scales
    themselves, so no scale is ever formed and nothing overflows.
    """
    hat, s = hat.copy(), s.copy()
    n = hat.shape[-1]
    tol = hat.shape[-2] * np.finfo(float).eps
    j = np.broadcast_to(np.eye(n), hat.shape).copy()
    for _ in range(JACOBI_SWEEPS):
        converged = True
        for p in range(n - 1):
            for q in range(p + 1, n):
                a, b = hat[..., :, p], hat[..., :, q]
                cos = np.sum(a * b, axis=-1)
                if not (live := np.abs(cos) > tol).any():
                    continue
                converged = False
                d = s[..., q] - s[..., p]
                r = np.exp(-np.abs(d))
                # tan(theta) = x r solves the 2x2 Gram problem; x stays
                # moderate for any scale ratio
                with np.errstate(divide="ignore", invalid="ignore"):
                    z = np.sign(d) * (1.0 - r * r) / (2.0 * cos)
                    x = np.where(z < 0, -1.0, 1.0) / (np.abs(z)
                                                      + np.sqrt(r * r + z * z))
                x = np.where(live, x, 0.0)
                c = 1.0 / np.sqrt(1.0 + (x * r) ** 2)
                # tan(theta) e^d and tan(theta) e^-d
                up = np.where(d > 0, x, x * r * r)
                down = np.where(d > 0, x * r * r, x)
                new_a = c[..., None] * (a - up[..., None] * b)
                new_b = c[..., None] * (down[..., None] * a + b)
                sn = (c * x * r)[..., None]
                jp, jq = j[..., :, p].copy(), j[..., :, q]
                j[..., :, p] = c[..., None] * jp - sn * jq
                j[..., :, q] = sn * jp + c[..., None] * jq
                na = np.where(live, np.linalg.norm(new_a, axis=-1), 1.0)
                nb = np.where(live, np.linalg.norm(new_b, axis=-1), 1.0)
                hat[..., :, p] = new_a / na[..., None]
                hat[..., :, q] = new_b / nb[..., None]
                s[..., p] += np.log(na)
                s[..., q] += np.log(nb)
        if converged:
            return hat, s, j
    raise SingularInput("Jacobi read-out did not converge")


def power(g, N):
    """Stack of g^N for a stack g of real invertible matrices, each from
    one eigendecomposition g = V diag(w) V^-1: g^N is
    V diag(|w|^N) B^N V^-1, where B holds the signs of real eigenvalues
    and a rotation block for each complex pair (in the real basis
    Re v, Im v of that pair)."""
    g = np.asarray(g, dtype=float)
    w, v = np.linalg.eig(g)
    if not np.all(np.abs(w) > 0):
        raise SingularInput("matrix is singular")
    x = v.real.copy()
    phase = np.zeros(g.shape)
    idx = np.arange(g.shape[-1])
    phase[..., idx, idx] = np.sign(w.real) ** N
    for *i, k in zip(*np.nonzero(w.imag > 0)):
        x[(*i, slice(None), k + 1)] = v[(*i, slice(None), k)].imag
        angle = N * np.angle(w[(*i, k)])
        c, sn = np.cos(angle), np.sin(angle)
        phase[(*i, slice(k, k + 2), slice(k, k + 2))] = [[c, sn], [-sn, c]]
    if np.linalg.cond(x).max() > COND_LIMIT:
        # a defective g: V diag(w^N) V^-1 is not g^N to working precision
        raise SingularInput(
            f"eigenbasis too ill-conditioned (cond > {COND_LIMIT:.0e})")
    raw = Graded(x, N * np.log(np.abs(w)), phase @ np.linalg.inv(x))
    return Graded.diag(np.zeros(w.shape)) @ raw
