"""The graded product kernel: letters, products and read-outs.

Long products against mpmath are in test_morse.py and test_symspace.py;
these tests cover the letter factorisation and the refusals.
"""

import numpy as np
import pytest

from weylkit import flagdyn, graded
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
    # the one enumerator builds graded products in the same order and
    # with the same values as float products, while both are exact enough
    gens = [np.diag([2.0, 1.0, 0.5]), _rot(0.4) @ np.diag([1.5, 1.0, 2 / 3])
            @ _rot(-0.4)]
    letters = flagdyn.stack_letters(gens)
    plain = flagdyn.reduced_words(letters, 4)
    kernel = flagdyn.reduced_words(graded.power(letters, 1), 4)
    for (p1, l1, mats), (p2, l2, words) in zip(plain, kernel, strict=True):
        assert np.array_equal(p1, p2) and np.array_equal(l1, l2)
        assert np.abs(_dense(words) - mats).max() < 1e-12


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
