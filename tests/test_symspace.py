"""Chamber-valued, Finsler, and Riemannian distances on positive forms.

The Riemannian normalization is pinned by an independent numerical
integration of path length in the trace-form metric, and the Finsler
metric laws are sampled over random triples.
"""

import re

import numpy as np
import pytest

from helpers import (chamber_ray_point, delta_stack_reference,
                     dual_cone_defect, horofunction_per_t)
from weylkit import symspace as ss
from weylkit.errors import (DegenerateSegment, NonRegularDirection,
                            NotPositiveDefinite, SingularInput, WeylkitError)
from weylkit.graded import Graded


def _rng():
    return np.random.default_rng(20240801)


def _random_point(rng, n=3, scale=1.0):
    g = np.eye(n) + scale * rng.standard_normal((n, n)) * 0.4
    while abs(np.linalg.det(g)) < 0.1:
        g = np.eye(n) + scale * rng.standard_normal((n, n)) * 0.4
    return ss.point_from_group(g)


# --- points -------------------------------------------------------------------

def test_sympoint_normalizes_det():
    p = ss.SymPoint(2.0 * np.eye(3))
    assert abs(np.linalg.det(p.mat) - 1.0) < 1e-10


def test_sympoint_rejects_asymmetric():
    with pytest.raises(NotPositiveDefinite):
        ss.SymPoint(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_sympoint_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        ss.SymPoint(np.diag([1.0, -2.0]))


def _standard_g2():
    """The second matrix of the standard pair: diag(4, 1, 1/4) turned by h."""
    def rot(t, i, j):
        m = np.eye(3)
        m[i, i] = m[j, j] = np.cos(t)
        m[j, i] = np.sin(t)
        m[i, j] = -m[j, i]
        return m
    h = rot(0.8, 0, 1) @ rot(0.5, 1, 2) @ rot(0.3, 0, 1)
    return h @ np.diag([4.0, 1.0, 0.25]) @ h.T


def test_sympoint_accepts_what_conditioning_allows():
    # g2^k.o has condition number 4^(4k); its determinant residual is
    # rounding of about eps times that, which is accepted until the
    # smallest eigenvalue is noise (eps 4^(4k) > 1 from k = 7 on)
    import mpmath as mp
    import mp_oracle

    g2 = _standard_g2()
    eps = np.finfo(float).eps
    with mp.workdps(40):
        letters = mp_oracle.power_letters([g2], 1)
        for k in (4, 5):
            p = ss.point_from_group(np.linalg.matrix_power(g2, k))
            got = ss.delta_distance(ss.origin(3), p)
            want = mp_oracle.word_logs(letters, [0] * k)
            err = np.abs(got - (want - want.mean())).max()
            assert err < eps * 4.0 ** (4 * k)
    for k in (7, 8):
        with pytest.raises(NotPositiveDefinite):
            ss.point_from_group(np.linalg.matrix_power(g2, k))


def test_midpoint_of_b_and_b_squared():
    # B = g2^2: B.o = g2^4 and B^2.o = g2^8 lie on one axis, so their
    # midpoint is g2^6 = g2^3.o, at chamber distance 3 log(4, 1, 1/4)
    B = np.linalg.matrix_power(_standard_g2(), 2)
    mid = ss.midpoint(ss.point_from_group(B), ss.point_from_group(B @ B))
    got = ss.delta_distance(ss.origin(3), mid)
    cond = 4.0 ** 16  # of B^2.o
    assert np.abs(got - 3 * np.log([4.0, 1.0, 0.25])).max() \
        < np.finfo(float).eps * cond


# --- cartan -------------------------------------------------------------------

def test_cartan_identity():
    _, mu, _ = ss.cartan(np.eye(3))
    assert np.allclose(mu, 1.0)


def test_cartan_diagonal():
    _, mu, _ = ss.cartan(np.diag([4.0, 1.0, 0.25]))
    assert np.allclose(mu, [4.0, 1.0, 0.25])


def test_cartan_reconstruction_and_signs():
    rng = _rng()
    for _ in range(25):
        g = rng.standard_normal((4, 4))
        if abs(np.linalg.det(g)) < 0.05:
            continue
        u, mu, v = ss.cartan(g)
        gn = g / abs(np.linalg.det(g)) ** 0.25
        assert np.abs(u @ np.diag(mu) @ v.T - gn).max() < 1e-9
        assert np.abs(u @ u.T - np.eye(4)).max() < 1e-10
        assert np.abs(v @ v.T - np.eye(4)).max() < 1e-10
        assert abs(np.prod(mu) - 1.0) < 1e-9
        assert np.all(np.diff(mu) <= 1e-12)
        for j in range(4):
            lead = u[:, j][np.abs(u[:, j]) > 1e-12]
            assert lead[0] > 0


def test_cartan_singular_input():
    with pytest.raises(SingularInput):
        ss.cartan(np.diag([1.0, 1.0, 0.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-160, 1e160, 1e-300, 1e300])
def test_unimodular_at_extreme_scales(scale):
    # det(scale * g) under- or overflows here; the point and the Cartan
    # projection of scale * g are those of g
    g = np.array([[2.0, 1.0], [1.0, 3.0]])
    o = ss.origin(2)
    assert np.array_equal(ss.delta_distance(o, ss.point_from_group(scale * g)),
                          ss.delta_distance(o, ss.point_from_group(g)))
    _, mu, _ = ss.cartan(scale * g)
    assert np.abs(mu - ss.cartan(g)[1]).max() <= np.finfo(float).eps


# --- chamber-valued distance ----------------------------------------------------

def test_delta_at_origin():
    o = ss.origin(3)
    assert np.allclose(ss.delta_distance(o, o), 0.0)


def test_delta_diagonal_example():
    lam = 2.5
    o = ss.origin(3)
    y = ss.point_from_group(np.diag([lam, 1.0, 1.0 / lam]))
    assert np.allclose(ss.delta_distance(o, y),
                       [np.log(lam), 0.0, -np.log(lam)], atol=1e-12)


def test_delta_reversal_identity():
    rng = _rng()
    for _ in range(30):
        x = _random_point(rng)
        y = _random_point(rng)
        lhs = ss.delta_distance(y, x)
        rhs = ss.delta_iota(ss.delta_distance(x, y))
        assert np.abs(lhs - rhs).max() < 1e-9


def test_delta_congruence_invariance():
    rng = _rng()
    for _ in range(20):
        x = _random_point(rng)
        y = _random_point(rng)
        g = rng.standard_normal((3, 3))
        g /= abs(np.linalg.det(g)) ** (1 / 3)
        lhs = ss.delta_distance(ss.apply_isometry(g, x), ss.apply_isometry(g, y))
        assert np.abs(lhs - ss.delta_distance(x, y)).max() < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_reader_is_bit_identical_to_delta_distance(n):
    rng = _rng()
    pts = [_random_point(rng, n, scale=2.0) for _ in range(12)]
    pts += [ss.flat_point(rng.standard_normal(n)) for _ in range(4)]
    pts.append(pts[3])  # a repeated point gives a zero vector
    mats = np.array([p.mat for p in pts])
    xi = np.array([p.inv_sqrt() for p in pts])
    for s, x in enumerate(pts):
        row = ss.delta_stack(xi[s], mats[s + 1:])
        for v, y in zip(row, pts[s + 1:]):
            assert np.array_equal(v, ss.delta_distance(x, y))
    steps = ss.delta_stack(xi[:-1], mats[1:])
    for v, x, y in zip(steps, pts, pts[1:]):
        assert np.array_equal(v, ss.delta_distance(x, y))


def _outcome(call):
    """The dtype, shape and bytes of what ``call`` returns, or the type
    and message of what it raises."""
    try:
        out = np.asarray(call())
    except (WeylkitError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return out.dtype, out.shape, out.tobytes()


def _points_up_to_the_float_range(rng, n):
    """Rotated points of spread up to e^+-14, whose forms from each other
    are near-singular, and diagonal ones and their inverses, exact in
    float, of spread up to e^+-690 where ``SymPoint`` takes them, whose
    forms from each other come near the float range or pass it."""
    pts = [_random_point(rng, n, scale) for scale in (0.3, 1.0, 3.0)]
    for top in (1.0, 8.0, 14.0, 60.0, 250.0, 450.0, 690.0):
        y = rng.standard_normal(n)
        y = top * (y - y.mean()) / np.abs(y - y.mean()).max()
        try:
            pts += [ss.flat_point(y), ss.flat_point(-y)]
        except NotPositiveDefinite:  # the eigen solver lost e^-690
            continue
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        if top < 15.0:
            pts.append(ss.apply_isometry(q, pts[-1]))
    return pts


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", range(2, 7))
def test_distances_are_bit_identical_to_the_reference(n):
    # x^-1/2 kept per point, one kernel call and the shared default
    # functional against x^-1/2 formed afresh, numpy's wrapper and a
    # functional built per call: the same bits, or the same refusal
    rng = np.random.default_rng(44 + n)
    pts = _points_up_to_the_float_range(rng, n)
    c = ss.FinslerFunctional([n + 1 - 2 * i for i in range(1, n + 1)]).c
    xi = np.array([(p._eig[1] / np.sqrt(p._eig[0])) @ p._eig[1].T
                   for p in pts])
    mats = np.array([p.mat for p in pts])
    refused = set()
    for s, x in enumerate(pts):
        for y, ym in zip(pts, mats):
            ref = _outcome(lambda: delta_stack_reference(xi[s], ym)[None])
            assert _outcome(lambda: ss.delta_distance(x, y)[None]) == ref
            refused.add(ref[0] if len(ref) == 2 else None)
            if len(ref) == 3:
                v = np.frombuffer(ref[2])
                assert ss.finsler_distance(x, y) == float(np.dot(c, v))
                assert ss.riemannian_distance(x, y) == \
                    2.0 * float(np.linalg.norm(v))
        for rows in (slice(None), slice(s + 1, None), slice(0, s)):
            assert _outcome(lambda: ss.delta_stack(xi[s], mats[rows])) == \
                _outcome(lambda: delta_stack_reference(xi[s], mats[rows]))
    assert _outcome(lambda: ss.delta_stack(xi, mats[::-1])) == \
        _outcome(lambda: delta_stack_reference(xi, mats[::-1]))
    assert refused == {None, SingularInput, NotPositiveDefinite}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", range(2, 7))
def test_forms_that_are_not_finite_are_refused_as_the_reference_does(n):
    rng = np.random.default_rng(440 + n)
    values = [np.inf, -np.inf, np.nan, 1e308, -1e308]
    not_finite = 0
    for _ in range(150):
        k = int(rng.integers(1, 4))
        xi = np.array([np.linalg.qr(rng.standard_normal((n, n)))[0] * 3
                       for _ in range(k)])
        ys = xi @ np.swapaxes(xi, -1, -2) + np.eye(n)
        for _ in range(int(rng.integers(1, 4))):
            m, i, j = rng.integers(0, k), *rng.integers(0, n, 2)
            target = xi if rng.random() < 0.3 else ys
            target[m, i, j] = values[rng.integers(len(values))]
            if rng.random() < 0.5:
                target[m, j, i] = target[m, i, j]
        ref = _outcome(lambda: delta_stack_reference(xi, ys))
        assert _outcome(lambda: ss.delta_stack(xi, ys)) == ref
        with np.errstate(all="ignore"):
            if not np.isfinite(xi @ ys @ xi).all():
                not_finite += 1
                assert ref[0] is SingularInput
    assert not_finite > 75


def test_a_form_past_the_float_range_above_its_diagonal_alone_is_refused():
    # (x y) x overflows only at [0, 1]; the eigenvalue kernel reads the
    # lower triangle [[1e308, .], [0, 1]], whose eigenvalues are positive
    xi = np.array([[1.0, 1.0], [0.0, 1.0]])
    ys = np.array([[1e308, 1e308], [0.0, 1.0]])
    with pytest.raises(SingularInput, match="^relative form spans more "
                       "than the float range$"):
        ss.delta_stack(xi, ys)


@pytest.mark.filterwarnings("error")
def test_a_finite_form_whose_sum_of_squares_overflows_keeps_its_distance():
    # entries past 1e154 fail the sum-of-squares screen; tested entry by
    # entry, the form is finite and positive definite, so it is read
    xi = np.eye(3)
    ys = np.array([np.diag([1e200, 1.0, 1e-200]), np.diag([1e300, 1e8, 1.0])])
    assert not np.vdot(ys, ys) < np.inf
    v = ss.delta_stack(xi, ys)
    assert np.array_equal(v, delta_stack_reference(xi, ys))
    assert v[0, 0] == pytest.approx(230.2585, abs=1e-4)


def test_distances_read_the_eigenvalue_kernel_once(monkeypatch):
    kernel, calls = ss._umath_linalg.eigvalsh_lo, []

    class Counting:
        @staticmethod
        def eigvalsh_lo(a, signature):
            calls.append(a.shape)
            return kernel(a, signature=signature)

    rng = _rng()
    pts = [_random_point(rng) for _ in range(5)]
    monkeypatch.setattr(ss, "_umath_linalg", Counting)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    ss.delta_stack(pts[0].inv_sqrt(), np.array([p.mat for p in pts[1:]]))
    ss.finsler_distance(pts[0], pts[1])
    ss.riemannian_distance(pts[0], pts[1])
    assert calls == [(4, 3, 3), (3, 3), (3, 3)]


def test_a_solve_that_does_not_converge_raises_the_wrappers_error(
        monkeypatch):
    # the kernel leaves NaN where its solve fails, and np.linalg.eigvalsh
    # raises on that solve; a stand-in of each shows the form goes on to it
    class Failing:
        @staticmethod
        def eigvalsh_lo(a, signature):
            return np.full(a.shape[:-1], np.nan)

    def eigvalsh(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(ss, "_umath_linalg", Failing)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    with pytest.raises(np.linalg.LinAlgError,
                       match="^Eigenvalues did not converge$"):
        ss.delta_stack(np.eye(3), np.eye(3))


def test_shared_functional_and_kept_roots_are_read_only():
    rng = _rng()
    x, y = _random_point(rng), _random_point(rng)
    before = ss.finsler_distance(x, y), ss.riemannian_distance(x, y)
    phi = ss.FinslerFunctional.default(3)
    assert phi is ss.FinslerFunctional.default(3)
    assert x.inv_sqrt() is x.inv_sqrt()
    for array in (phi.c, x.inv_sqrt()):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0
    assert (ss.finsler_distance(x, y), ss.riemannian_distance(x, y)) == before
    c = np.array([1.0, 0.0, -1.0])
    ss.FinslerFunctional(c)
    c[0] = 2.0  # the caller's coefficients stay theirs


def test_iota_examples():
    assert np.allclose(ss.delta_iota([0.0, 0.0, 0.0]), 0.0)
    assert np.allclose(ss.delta_iota([1.0, 0.0, -1.0]), [1.0, 0.0, -1.0])
    assert np.allclose(ss.delta_iota([2.0, 1.0, -3.0]), [3.0, -1.0, -2.0])
    v = np.array([0.7, 0.1, -0.8])
    assert np.allclose(ss.delta_iota(ss.delta_iota(v)), v)


# --- Finsler distance ------------------------------------------------------------

def test_default_functional_is_positive_and_symmetric():
    phi = ss.FinslerFunctional.default(4)
    assert np.allclose(phi.c, [3.0, 1.0, -1.0, -3.0])
    rng = _rng()
    for _ in range(50):
        v = np.sort(rng.standard_normal(4))[::-1]
        v -= v.mean()
        if np.linalg.norm(v) < 1e-9:
            continue
        assert phi(v) > 0
        assert abs(phi(ss.delta_iota(v)) - phi(v)) < 1e-12


def test_finsler_diagonal_value():
    lam = 1.7
    o = ss.origin(3)
    y = ss.point_from_group(np.diag([lam, 1.0, 1.0 / lam]))
    assert abs(ss.finsler_distance(o, y) - 4 * np.log(lam)) < 1e-12


def test_finsler_symmetry_and_positivity():
    rng = _rng()
    for _ in range(50):
        x = _random_point(rng)
        y = _random_point(rng)
        d1 = ss.finsler_distance(x, y)
        d2 = ss.finsler_distance(y, x)
        assert abs(d1 - d2) < 1e-9
        assert d1 > 0
    x = _random_point(rng)
    assert abs(ss.finsler_distance(x, x)) < 1e-10


def test_finsler_triangle_inequality():
    rng = _rng()
    for _ in range(1000):
        x = _random_point(rng)
        y = _random_point(rng)
        z = _random_point(rng)
        defect = (ss.finsler_distance(x, y) + ss.finsler_distance(y, z)
                  - ss.finsler_distance(x, z))
        assert defect >= -1e-9


def test_finsler_riemannian_comparability():
    # min of phi over the unit sphere of the rank-2 chamber sits on its
    # two extreme rays; the max is at the dual vector itself
    n = 3
    phi = ss.FinslerFunctional.default(n)
    rays = []
    for k in range(1, n):
        r = np.array([1.0] * k + [0.0] * (n - k))
        r -= r.mean()
        rays.append(r / np.linalg.norm(r))
    c1 = min(phi(r) for r in rays) / 2.0  # riemannian = 2 |v|
    c2 = float(np.linalg.norm(phi.c)) / 2.0
    rng = _rng()
    for _ in range(200):
        x = _random_point(rng)
        y = _random_point(rng)
        dr = ss.riemannian_distance(x, y)
        df = ss.finsler_distance(x, y)
        assert c1 * dr - 1e-9 <= df <= c2 * dr + 1e-9


def test_dual_cone_triangle_inequality():
    rng = _rng()
    for _ in range(300):
        x = _random_point(rng)
        y = _random_point(rng)
        z = _random_point(rng)
        assert dual_cone_defect(x, y, z) < 1e-9


# --- Riemannian distance ----------------------------------------------------------

def _path_length(points):
    """Independent oracle: discrete path length in the trace-form metric
    ds^2 = tr((P^-1 dP)^2)."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        pinv = np.linalg.inv(0.5 * (a + b))
        step = pinv @ (b - a)
        total += np.sqrt(max(0.0, np.trace(step @ step)))
    return total


def test_riemannian_example():
    o = ss.origin(3)
    y = ss.SymPoint(np.diag([np.e ** 2, 1.0, np.e ** -2]))
    assert abs(ss.riemannian_distance(o, y) - 2 * np.sqrt(2)) < 1e-12


def test_riemannian_matches_integrated_length():
    rng = _rng()
    for _ in range(5):
        x = _random_point(rng)
        y = _random_point(rng)
        ts = np.linspace(0.0, 1.0, 4001)
        pts = [ss.geodesic(x, y, t).mat for t in ts]
        assert abs(_path_length(pts) - ss.riemannian_distance(x, y)) < 1e-5


def test_geodesic_midpoint():
    rng = _rng()
    x = _random_point(rng)
    y = _random_point(rng)
    m = ss.midpoint(x, y)
    d = ss.riemannian_distance(x, y)
    assert abs(ss.riemannian_distance(x, m) - d / 2) < 1e-8
    assert abs(ss.riemannian_distance(m, y) - d / 2) < 1e-8


# --- regularity ---------------------------------------------------------------------

def test_sequence_regularity_diagonal():
    gs = [np.diag([2.0 ** k, 1.0, 2.0 ** -k]) for k in range(1, 8)]
    rep = ss.sequence_regularity(gs)
    for k, row in zip(range(1, 8), rep.margins):
        assert np.allclose(row, k * np.log(2.0), atol=1e-10)
    assert rep.regular_trend


def test_sequence_regularity_wall_sequence():
    gs = [np.diag([2.0 ** k, 2.0 ** k, 4.0 ** -k]) for k in range(1, 8)]
    rep = ss.sequence_regularity(gs)
    assert np.allclose(rep.margins[:, 0], 0.0, atol=1e-9)
    assert not rep.regular_trend


def test_sequence_regularity_rotations():
    thetas = np.linspace(0.3, 2.0, 6)
    gs = []
    for t in thetas:
        c, s = np.cos(t), np.sin(t)
        gs.append(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]]))
    rep = ss.sequence_regularity(gs)
    assert np.abs(rep.margins).max() < 1e-9
    assert not rep.regular_trend


def _regularity_oracle(gs, cone):
    """Margins from one Cartan read per matrix, and theta flags of the
    chamber vectors rebuilt from those margins."""
    margins = []
    for g in gs:
        _, mu, _ = np.linalg.svd(ss.unimodular(g))
        lo = np.log(mu)
        margins.append(lo[:-1] - lo[1:])
    flags = []
    for row in margins:
        v = np.zeros(len(row) + 1)
        for i, m in enumerate(row):
            v[i + 1] = v[i] - m
        v -= v.mean()
        flags.append(cone.contains(v) if np.linalg.norm(v) > 0 else False)
    return np.array(margins), flags


def _regularity_sequences():
    rng = _rng()
    for n in range(2, 6):
        a = np.eye(n) + 0.5 * rng.standard_normal((n, n))
        yield f"powers{n}", [np.linalg.matrix_power(a, k) for k in range(1, 9)]
        yield f"random{n}", [rng.standard_normal((n, n)) for _ in range(8)]
    yield "wall", [np.diag([2.0 ** k, 2.0 ** k, 4.0 ** -k]) for k in range(1, 8)]
    yield "rotations", [np.array([[np.cos(t), -np.sin(t), 0.0],
                                  [np.sin(t), np.cos(t), 0.0],
                                  [0.0, 0.0, 1.0]])
                        for t in np.linspace(0.3, 2.0, 6)]


def test_sequence_regularity_matches_per_matrix_oracle():
    seen = set()
    for name, gs in _regularity_sequences():
        for margin in (0.05, 0.3):
            cone = ss.RegularityCone(margin)
            rep = ss.sequence_regularity(gs, cone=cone)
            margins, flags = _regularity_oracle(gs, cone)
            assert np.array_equal(rep.margins, margins), name
            assert rep.theta_flags == flags, name
            seen.update(flags)
    assert seen == {True, False}


def test_theta_regular_segment():
    cone = ss.RegularityCone(0.3)
    o = ss.origin(3)
    y = ss.flat_point([1.0, 0.0, -1.0])
    assert ss.theta_regular_segment(o, y, cone)
    wall = ss.flat_point([1.0, 1.0, -2.0])
    assert not ss.theta_regular_segment(o, wall, cone)
    scaled = ss.flat_point([2.0, 0.0, -2.0])
    assert ss.theta_regular_segment(o, scaled, cone)
    with pytest.raises(DegenerateSegment):
        ss.theta_regular_segment(o, o, cone)


def test_regularity_cone_flags_in_report():
    cone = ss.RegularityCone(0.5)
    gs = [np.diag([2.0 ** k, 1.0, 2.0 ** -k]) for k in range(1, 5)]
    rep = ss.sequence_regularity(gs, cone=cone)
    assert rep.theta_flags == [True] * 4


# --- horofunctions --------------------------------------------------------------------

def test_horofunction_at_origin_is_zero():
    o = ss.origin(3)
    est = ss.horofunction_estimate(o, [1.0, 0.0, -1.0], o, [5, 10, 20, 40])
    assert np.abs(np.array(est.estimates)).max() < 1e-12
    assert est.converged


def test_horofunction_on_ray_value():
    # base the ray at the origin; a point at ray parameter s has
    # horofunction value -phi(direction) * s
    o = ss.origin(3)
    direction = np.array([1.0, 0.0, -1.0])
    phi = ss.FinslerFunctional.default(3)
    s = 0.7
    x = chamber_ray_point(o, direction, s)
    assert np.allclose(ss.delta_distance(o, x), s * direction, atol=1e-12)
    est = ss.horofunction_estimate(o, direction, x, [5, 10, 20, 40])
    assert est.converged
    assert abs(est.value - (-phi(direction) * s)) < 1e-9


def test_horofunction_generic_convergence_and_scheme_independence():
    rng = _rng()
    for _ in range(8):
        p = _random_point(rng)
        x = _random_point(rng)
        gaps = 1.0 + rng.random(2)
        direction = np.array([gaps[0] + gaps[1], gaps[1], 0.0])
        direction -= direction.mean()
        est_a = ss.horofunction_estimate(p, direction, x, [5, 10, 20, 40])
        assert est_a.converged
        assert abs(est_a.estimates[-1] - est_a.estimates[-2]) < 1e-6
        off = rng.standard_normal(3)
        est_b = ss.horofunction_estimate(p, direction, x, [5, 10, 20, 40],
                                         offset=off)
        assert abs(est_a.value - est_b.value) < 1e-6


def test_horofunction_reads_every_t_as_the_per_t_reference():
    # one stacked read of all t, for x and for the origin, gives the bits
    # of one pair of read-outs per t
    rng = np.random.default_rng(3701)
    for k in range(30):
        n = 3 + k % 2
        p, x = _random_point(rng, n), _random_point(rng, n)
        direction = np.cumsum(1.0 + rng.random(n))[::-1]
        offset = rng.standard_normal(n) if k % 3 else None
        t_list = np.cumsum(rng.uniform(0.5, 20.0, 1 + k % 6)).tolist()
        est = ss.horofunction_estimate(p, direction, x, t_list, offset=offset)
        want = horofunction_per_t(p, direction, x, t_list, offset=offset)
        assert est.estimates == want and est.value == want[-1]


@pytest.mark.parametrize("t_list", [[], [0, 5], [-1, 5], [5, 5], [40, 5],
                                    [5, 10, 10]],
                         ids=["empty", "zero", "negative", "repeated",
                              "decreasing", "repeated-last"])
def test_horofunction_refuses_a_bad_t_list(t_list):
    # [] raised IndexError, and [5, 5] or [40, 5] reported convergence
    o = ss.origin(3)
    with pytest.raises(ValueError) as exc:
        ss.horofunction_estimate(o, [1.0, 0.0, -1.0], o, t_list)
    got = [float(t) for t in t_list]
    assert str(exc.value) == ("t_list must be a nonempty increasing list of "
                              f"positive times, got {got}")


def test_cone_reads_a_stack_as_row_by_row():
    rng = np.random.default_rng(3702)
    cone = ss.RegularityCone(0.2)
    v = rng.standard_normal((50, 4))
    v[::7] = 0.0
    got = cone.contains(v)
    assert got.tolist() == [cone.contains(row) for row in v]
    assert cone.contains(v[0]) is False and type(cone.contains(v[1])) is bool


def test_horofunction_rejects_wall_direction():
    o = ss.origin(3)
    with pytest.raises(NonRegularDirection):
        ss.horofunction_estimate(o, [1.0, 1.0, -2.0], o, [5, 10])


def test_riemannian_at_origin():
    o = ss.origin(4)
    assert ss.riemannian_distance(o, o) < 1e-12


def test_polyhedral_norm_properties():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    phi = ss.FinslerFunctional.default(3)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
           st.lists(st.floats(-10, 10), min_size=3, max_size=3))
    def check(u, v):
        u = np.array(u) - np.mean(u)
        v = np.array(v) - np.mean(v)
        # triangle inequality and duality invariance of the norm
        assert phi.norm(u + v) <= phi.norm(u) + phi.norm(v) + 1e-9
        assert abs(phi.norm(-u[::-1]) - phi.norm(u)) < 1e-9
        if np.linalg.norm(u) > 1e-6:
            assert phi.norm(u) > 0

    check()


def test_graded_distance_matches_plain_path():
    # the graded distance used inside horofunction estimates must agree
    # with the float path while both are well conditioned
    rng = _rng()
    phi = ss.FinslerFunctional.default(3)
    for _ in range(5):
        p = _random_point(rng)
        x = _random_point(rng)
        direction = np.array([1.3, 0.1, -1.4])
        t = 2.0
        pt = chamber_ray_point(p, direction, t)
        direct = ss.finsler_distance(x, pt, phi) - ss.finsler_distance(
            ss.origin(3), pt, phi)
        est = ss.horofunction_estimate(p, direction, x, [t], phi)
        assert abs(est.estimates[0] - direct) < 1e-7


def test_graded_delta_matches_mpmath():
    # the inputs of horofunction_estimate at ray parameters up to 40:
    # exponent spreads up to about 260, far beyond float conditioning
    import mpmath as mp

    rng = _rng()
    worst = 0.0
    for _ in range(40):
        p = _random_point(rng)
        x = _random_point(rng)
        gaps = 1.0 + rng.random(2)
        direction = np.array([gaps[0] + gaps[1], gaps[1], 0.0])
        exponents = 2.0 * rng.uniform(5.0, 40.0) * (direction - direction.mean())
        m = np.linalg.cholesky(np.linalg.inv(x.mat)).T @ p.sqrt()
        _, got = Graded(np.eye(3), exponents / 2.0, m.T).chamber()
        with mp.workdps(50 + int(np.ptp(exponents))):
            graded = mp.matrix(m.tolist()) * mp.diag(
                [mp.exp(mp.mpf(e) / 2) for e in exponents])
            s = mp.svd_r(graded, compute_uv=False)
            want = np.sort([float(mp.log(v)) for v in s])[::-1]
        want -= want.mean()
        worst = max(worst, float(np.abs(got - want).max()
                                 / np.abs(want).max()))
    assert worst < 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_parameters_that_cannot_be_compared_are_refused(value):
    # a NaN cone margin used to pass the <= 0 check and call a wall regular
    with pytest.raises(ValueError, match=f"^margin must be a finite number, "
                                         f"got {value}$"):
        ss.RegularityCone(value)
    gs = [np.diag([2.0 ** k, 1.0, 2.0 ** -k]) for k in range(1, 4)]
    with pytest.raises(ValueError, match=f"^threshold must be a finite "
                                         f"number, got {value}$"):
        ss.sequence_regularity(gs, threshold=value)


@pytest.mark.parametrize("gs,message", [
    ([np.eye(2), np.eye(3)], "generators must be square matrices of one "
                             "size, got shapes (2, 2), (3, 3)"),
    ([np.eye(2), [[1.0, 0.0], [0.0, 1.0, 2.0]]],
     "matrix rows differ in length: [2, 3]"),
    ([np.eye(3), np.diag([np.nan] * 3)],
     "matrix entries must be finite, got nan"),
    ([np.eye(3), np.diag([np.inf, 1.0, 1.0])],
     "matrix entries must be finite, got inf"),
], ids=["two-sizes", "ragged", "nan", "inf"])
def test_sequence_regularity_refuses_bad_generators(gs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ss.sequence_regularity(gs)


@pytest.mark.parametrize("vector", [[np.nan] * 3, [np.inf, 0.0, -np.inf]],
                         ids=["nan", "inf"])
def test_vectors_that_are_not_finite_are_refused(vector):
    # every comparison with NaN is false, so the checks of the cone and of
    # the functional would pass both vectors
    bad = vector[0]
    with pytest.raises(ValueError) as exc:
        ss.RegularityCone(0.1).contains(vector)
    assert str(exc.value) == \
        f"chamber vector entries must be finite, got {bad}"
    with pytest.raises(ValueError) as exc:
        ss.FinslerFunctional(vector)
    assert str(exc.value) == f"coefficient entries must be finite, got {bad}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, kwargs", [
    ("direction", lambda v: {"direction": [1.0, v, -1.0]}),
    ("t_list", lambda v: {"t_list": [5, v]}),
    ("offset", lambda v: {"offset": [0.0, v, 0.0]}),
], ids=["direction", "t_list", "offset"])
def test_horofunction_refuses_entries_that_are_not_finite(name, kwargs, value):
    # a NaN direction or ray parameter would give a NaN estimate
    o = ss.origin(3)
    args = {"direction": [1.0, 0.0, -1.0], "t_list": [5, 10], **kwargs(value)}
    with pytest.raises(ValueError) as exc:
        ss.horofunction_estimate(o, x=o, **args)
    assert str(exc.value) == f"{name} entries must be finite, got {value}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    ss.SymPoint,
    ss.unimodular,
    lambda m: ss.apply_isometry(m, ss.origin(2)),
], ids=["SymPoint", "unimodular", "apply_isometry"])
def test_matrix_entries_that_are_not_finite_are_refused(call, value):
    with pytest.raises(ValueError) as exc:
        call([[value, 0.0], [0.0, 1.0]])
    assert str(exc.value) == f"matrix entries must be finite, got {value}"


def test_point_entries_whose_sum_overflows_are_halved_first():
    # 1e308 + 1e308 overflows, and the distances read NaN; the point of
    # diag(1e308, 1e-100, 1e-100) is that of diag(1e208, 1e-200, 1e-200)
    o = ss.origin(3)
    far = ss.delta_distance(o, ss.SymPoint(np.diag([1e308, 1e-100, 1e-100])))
    near = ss.delta_distance(o, ss.SymPoint(np.diag([1e208, 1e-200, 1e-200])))
    assert np.allclose(far, near, rtol=1e-14, atol=0)
    assert np.allclose(far, np.log(1e136) * np.array([1.0, -0.5, -0.5]))
    big = ss.SymPoint([[1e308, 1e308], [1e308, 1.5e308]])
    assert np.allclose(big.mat, ss.SymPoint([[1.0, 1.0], [1.0, 1.5]]).mat,
                       rtol=1e-12, atol=0)


def test_point_is_read_only_and_keeps_its_roots():
    x = ss.point_from_group([[2.0, 1.0, 0.0], [0.0, 1.0, 3.0],
                             [1.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        x.mat[0, 0] = 1.0
    assert np.allclose(x.sqrt() @ x.sqrt(), x.mat, rtol=0, atol=1e-12)
    assert np.allclose(x.sqrt() @ x.inv_sqrt(), np.eye(3), rtol=0, atol=1e-12)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: ss.SymPoint([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
                 NotPositiveDefinite, "point must be a square matrix",
                 id="point-not-square"),
    pytest.param(lambda: ss.cartan(np.diag([1e7, 1.0, 1e-7])), SingularInput,
                 "matrix too ill-conditioned for a Cartan split",
                 id="cartan-condition"),
    pytest.param(lambda: ss.FinslerFunctional([1.0, 0.0, 0.0]), ValueError,
                 "coefficients must be antisymmetric (iota-invariant)",
                 id="finsler-not-antisymmetric"),
    pytest.param(lambda: ss.FinslerFunctional([-1.0, 0.0, 1.0]), ValueError,
                 "coefficients must be strictly decreasing",
                 id="finsler-not-decreasing"),
    pytest.param(lambda: ss.sequence_regularity([np.eye(2)]), ValueError,
                 "need at least two matrices", id="one-matrix"),
    # 1e-300 / det^(1/3) = 1e-400 underflows to a zero singular value
    pytest.param(lambda: ss.sequence_regularity(
        [np.eye(3), np.diag([1e300, 1e300, 1e-300])]), SingularInput,
        "matrix too ill-conditioned for a Cartan split",
        id="sequence-singular-value-zero"),
    pytest.param(lambda: ss.delta_stack(np.eye(2), np.diag([1.0, -1.0])),
                 NotPositiveDefinite, "relative form is not positive definite",
                 id="relative-form-indefinite"),
    # x^-1/2 y x^-1/2 = diag(1e400, 1e-400) overflows
    pytest.param(lambda: ss.delta_stack(np.diag([1e100, 1e-100]),
                                        np.diag([1e200, 1e-200])),
                 SingularInput, "relative form spans more than the float range",
                 id="relative-form-past-float-range"),
    # the eigen solver scales the matrix down, and 1e-308 underflows to 0
    pytest.param(lambda: ss.SymPoint([[1e308, 0.0], [0.0, 1e-308]]),
                 NotPositiveDefinite, "matrix is not positive definite",
                 id="point-spread-past-float-range"),
    # its largest eigenvalue, 2.2e308, overflows to inf
    pytest.param(lambda: ss.SymPoint(
        np.full((3, 3), 7e307) + 1e307 * np.eye(3)), NotPositiveDefinite, "determinant normalization failed",
                 id="point-eigenvalue-overflow"),
])
def test_refusals_name_their_condition(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
