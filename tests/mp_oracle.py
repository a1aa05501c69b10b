"""Multiprecision oracles for graded word products.

Every product is formed exactly (to the working precision) in mpmath
from the float letters weylkit starts from, so the oracles measure the
error of the float kernel and nothing else.
"""

import mpmath as mp
import numpy as np

from weylkit import flagdyn


def power_letters(gens, N):
    """The letters g0^N, g0^-N, g1^N, ... of morse._power_letters: the
    float matrices of flagdyn.stack_letters, raised to N in mpmath."""
    return [mp.matrix(g.tolist()) ** N for g in flagdyn.stack_letters(gens)]


def _svd(m):
    """Frame and descending singular values of an mpmath matrix."""
    u, s, _ = mp.svd_r(m)
    order = sorted(range(m.rows), key=lambda i: -s[i])
    return u, [s[i] for i in order], order


def _word(letters, word):
    """Product of ``letters`` along ``word`` (letter indices, left to
    right)."""
    prod = mp.eye(letters[0].rows)
    for a in word:
        prod = prod * letters[a]
    return prod


def word_logs(letters, word):
    """Descending log singular values of the product of ``letters``
    along ``word`` (letter indices, left to right)."""
    _, s, _ = _svd(_word(letters, word))
    return np.array([float(mp.log(x)) for x in s])


def word_frame(letters, word):
    """Left singular frame of the same product, columns in order of
    descending singular value, rounded to a float array: the basis of
    the word's attracting flag."""
    u, _, order = _svd(_word(letters, word))
    return np.array([[float(u[i, j]) for j in order] for i in range(u.rows)])


def _chamber(m):
    """Frame (descending, an mpmath matrix) and centred chamber vector."""
    u, s, order = _svd(m)
    logs = np.array([float(mp.log(x)) for x in s])
    frame = mp.matrix([[u[i, j] for j in order] for i in range(m.rows)])
    return frame, logs - logs.mean()


def _angle(u1, u2, zeta):
    """acos tr(W1 W2) for W_i = u_i diag(zeta) u_i^T, at working precision,
    with zeta normalised there: a float unit vector is unit only to about
    1e-16, which acos would read as an angle of about 1e-8."""
    z = [mp.mpf(float(x)) for x in zeta]
    z = mp.diag([x / mp.sqrt(sum(y * y for y in z)) for x in z])
    w1 = u1 * z * u1.T
    w2 = u2 * z * u2.T
    cos = sum((w1 * w2)[i, i] for i in range(w1.rows))
    return float(mp.acos(max(-1, min(1, cos))))


def schottky_rows(gens, N, zeta, dps=60):
    """Spacings and angles of every triple of the midpoint-path
    certificate, in the triple order of morse.schottky_certificate.

    The midpoint of p.o and q.o is p h.o, where p^-1 q = u diag(s) v^T
    and h = u diag(sqrt(s)).
    """
    with mp.workdps(dps):
        letters = power_letters(gens, N)
        n = letters[0].rows
        eye = mp.eye(n)

        def midpoint(p, q):
            u, s, order = _svd(p ** -1 * q)
            h = mp.matrix(n, n)
            for j, k in enumerate(order):
                for i in range(n):
                    h[i, j] = u[i, k] * mp.sqrt(s[j])
            return p * h

        rows = []
        k = len(letters)
        for alpha in range(k):
            for beta in range(k):
                for gamma in range(k):
                    if alpha == beta or gamma == beta ^ 1:
                        continue
                    b = letters[beta]
                    ma = midpoint(letters[alpha], eye)
                    mb = midpoint(eye, b)
                    mc = midpoint(b, b * letters[gamma])
                    mb_inv = mb ** -1
                    _, d1 = _chamber(ma ** -1 * mb)
                    f2, d2 = _chamber(mb_inv * mc)
                    f1, _ = _chamber(mb_inv * ma)
                    ang1 = _angle(f1, _chamber(mb_inv)[0], zeta)
                    ang2 = _angle(f2, _chamber(mb_inv * b)[0], zeta)
                    rows.append((2 * np.linalg.norm(d1), 2 * np.linalg.norm(d2),
                                 ang1, ang2))
    return rows
