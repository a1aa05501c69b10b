"""The graded product kernel: letters, products and read-outs.

Long products against mpmath are in test_morse.py and test_symspace.py;
these tests cover the letter factorisation, the stack invariance of the
read-out and the refusals.
"""

import numpy as np
import pytest

from helpers import reduced_words, standard_pair
from weylkit import flagdyn, graded, morse
from weylkit.errors import SingularInput


def _rot(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _dense(p):
    u, logs, w = p.svd()
    return (u * np.exp(logs)[..., None, :]) @ np.swapaxes(w, -1, -2)


def test_power_of_real_and_complex_spectra():
    # real eigenvalues of both signs, and a complex pair (rotation block)
    gs = np.array([np.diag([-2.0, 1.0, -0.5]),
                   _rot(0.7) @ np.diag([2.0, 2.0, 0.25]),
                   _rot(0.3) @ np.diag([1.5, -1.0, 0.5]) @ _rot(-1.1)])
    for N in (1, 2, 5, -3):
        want = np.array([np.linalg.matrix_power(g, N) for g in gs])
        got = _dense(graded.power(gs, N))
        assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


def test_reduced_words_on_graded_letters():
    # the one walker builds graded products in the same blocks, order and
    # values as float products, while both are exact enough
    gens = [np.diag([2.0, 1.0, 0.5]), _rot(0.4) @ np.diag([1.5, 1.0, 2 / 3])
            @ _rot(-0.4)]
    letters = flagdyn.stack_letters(gens)
    plain = flagdyn.walk_words(letters, 4)
    kernel = flagdyn.walk_words(graded.power(letters, 1), 4)
    for (l1, f1, a1, mats), (l2, f2, a2, words) in zip(plain, kernel,
                                                       strict=True):
        assert (l1, f1) == (l2, f2) and np.array_equal(a1, a2)
        assert np.abs(_dense(words) - mats).max() < 1e-12


def _mixed_stack(n, m, rng):
    """m products of size n, about half of them diagonal (nothing for the
    read-out to rotate) and the others generic, with log spreads of up to
    60."""
    u = np.linalg.qr(rng.standard_normal((m, n, n)))[0]
    logs = rng.uniform(-30.0, 30.0, (m, n))
    t = np.eye(n) + 0.3 * rng.standard_normal((m, n, n))
    diagonal = rng.random(m) < 0.5
    u[diagonal] = t[diagonal] = np.eye(n)
    return graded.Graded(u, logs, t)


def test_read_out_depends_only_on_its_own_product():
    # a member that has converged is not rotated while others still are,
    # so its frames, logs and right frames are the bits of its own read
    rng = np.random.default_rng(3703)
    stacks = [_mixed_stack(n, 40, rng) for n in (2, 3, 4, 5)]
    stacks += [words for _, _, words in reduced_words(
        morse._power_letters(standard_pair(), 6), 4)]
    for stack in stacks:
        whole = stack.svd()
        for i in range(len(stack)):
            alone = stack[i:i + 1].svd()
            for a, b in zip(alone, whole, strict=True):
                assert np.array_equal(a[0], b[i])


def test_refusals():
    jordan = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularInput, match="ill-conditioned"):
        graded.power(jordan[None], 3)
    near = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-12, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(SingularInput, match="ill-conditioned"):
        graded.Graded(np.eye(3), np.zeros(3), near).svd()
    with pytest.raises(SingularInput, match="singular"):
        graded.power(np.diag([1.0, 0.0, 1.0])[None], 2)
    wide = graded.Graded.diag([400.0, 0.0, -400.0])
    with pytest.raises(SingularInput, match="float range"):
        wide @ wide
