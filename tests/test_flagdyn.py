"""Flags, relative position, limit sets, expansion, discreteness probe.

Float rank decisions are validated against the exact fraction-arithmetic
oracle on random rational flags; the dynamics tests exercise the
semicontinuity, disjointness and coverage statements behind the
domain-of-discontinuity machinery.
"""

from fractions import Fraction

import numpy as np
import pytest

from weylkit import flagdyn as fd
from weylkit import thickenings as th
from weylkit.coxeter import build_group, bruhat_leq, multiply
from weylkit.errors import (AmbiguousRank, BudgetExceeded, NearSingular,
                            NotRegular, StepTooLarge)


def _rng():
    return np.random.default_rng(424242)


def _random_rational_basis(rng, n, denom=16):
    while True:
        m = [[Fraction(int(rng.integers(-8, 9)), denom) for _ in range(n)]
             for _ in range(n)]
        num = np.array([[float(x) for x in row] for row in m])
        if abs(np.linalg.det(num)) > 1e-3:
            return m, num


# --- flag construction -------------------------------------------------------

def test_standard_flag_from_identity():
    f = fd.flag_from_basis(np.eye(3))
    assert np.allclose(f.basis, np.eye(3))


def test_opposite_flag_from_reversed_identity():
    f = fd.flag_from_basis(np.eye(3)[:, ::-1])
    assert np.allclose(f.basis, np.eye(3)[:, ::-1])


def test_flag_nesting_preserved():
    rng = _rng()
    for _ in range(20):
        m = rng.standard_normal((4, 4))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        f = fd.flag_from_basis(m)
        for i in range(1, 5):
            span = m[:, :i]
            q = f.subspace(i)
            proj = q @ q.T
            assert np.abs(proj @ span - span).max() < 1e-10


def test_near_singular_basis_rejected():
    m = np.eye(3)
    m[:, 2] = m[:, 0] + 1e-12
    with pytest.raises(NearSingular):
        fd.flag_from_basis(m)


# --- relative position ----------------------------------------------------------

def test_position_of_flag_with_itself():
    f = fd.standard_flag(4)
    res = fd.relative_position(f, f)
    assert res.w == res.w.group.identity


def test_position_transversal_is_longest():
    res = fd.relative_position(fd.standard_flag(4), fd.opposite_flag(4))
    assert res.w == res.w.group.w0


def test_position_shared_line_only():
    # flags sharing exactly the first subspace: position fixes the first
    # letter (frozen from the exact oracle)
    f = fd.flag_from_basis(np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]]).T)
    res = fd.relative_position(f, fd.standard_flag(3))
    assert res.w.label() == "132"
    exact = fd.relative_position_exact(
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert exact.w.label() == "132"


def test_position_inverse_identity():
    rng = _rng()
    for _ in range(30):
        a = fd.random_flag(4, rng)
        b = fd.random_flag(4, rng)
        wab = fd.relative_position(a, b).w
        wba = fd.relative_position(b, a).w
        assert wab.inverse() == wba


def test_float_position_matches_exact_oracle():
    rng = _rng()
    for n in (3, 4, 5):
        for _ in range(25):
            ma, fa = _random_rational_basis(rng, n)
            mb, fb = _random_rational_basis(rng, n)
            exact = fd.relative_position_exact(ma, mb)
            numeric = fd.relative_position(fd.flag_from_basis(fa),
                                           fd.flag_from_basis(fb))
            assert numeric.w == exact.w
            assert np.array_equal(numeric.rank_matrix, exact.rank_matrix)
            assert numeric.confidence > 100


def test_rank_matrix_invariants():
    rng = _rng()
    for _ in range(10):
        a = fd.random_flag(4, rng)
        b = fd.random_flag(4, rng)
        d = fd.relative_position(a, b).rank_matrix
        assert d[4][4] == 4
        assert np.all(np.diff(d, axis=0) >= 0)
        assert np.all(np.diff(d, axis=1) >= 0)
        assert np.all(np.diff(d, axis=1) <= 1)


def test_ambiguous_rank_raises():
    # first subspaces at an angle inside the gray band of the rank
    # threshold: the computation must refuse to guess
    eps = 2e-8
    m = np.array([[1.0, eps, 0], [0, 1, 0], [0, 0, 1.0]]).T
    f = fd.flag_from_basis(m)
    with pytest.raises(AmbiguousRank):
        fd.relative_position(f, fd.standard_flag(3))


# --- antipodality ----------------------------------------------------------------

def test_antipodal_examples():
    assert fd.is_antipodal(fd.standard_flag(3), fd.opposite_flag(3))
    assert not fd.is_antipodal(fd.standard_flag(3), fd.standard_flag(3))


def test_random_pairs_generically_antipodal():
    rng = _rng()
    for _ in range(1000):
        a = fd.random_flag(3, rng)
        b = fd.random_flag(3, rng)
        assert fd.is_antipodal(a, b)


# --- attracting and repelling flags ------------------------------------------------

def test_attracting_flag_of_diagonal():
    g = np.diag([4.0, 1.0, 0.25])
    a = fd.attracting_flag(g)
    r = fd.repelling_flag(g)
    assert np.allclose(np.abs(a.basis), np.eye(3))
    assert np.allclose(np.abs(r.basis), np.eye(3)[:, ::-1])


def test_attracting_flag_conjugation_equivariance():
    rng = _rng()
    g = np.diag([4.0, 1.0, 0.25])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    h = q @ g @ q.T
    left = fd.attracting_flag(h)
    right = fd.flag_from_basis(q @ fd.attracting_flag(g).basis)
    assert fd.flag_distance(left, right) < 1e-9


def test_attract_repel_swap_under_inverse():
    rng = _rng()
    g = np.diag([9.0, 1.0, 1.0 / 9.0])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    g = q @ g @ q.T
    # arccos has a ~1e-8 noise floor at zero angle
    assert fd.flag_distance(fd.attracting_flag(np.linalg.inv(g)),
                            fd.repelling_flag(g)) < 1e-6
    assert fd.flag_distance(fd.repelling_flag(np.linalg.inv(g)),
                            fd.attracting_flag(g)) < 1e-6


def test_dynamical_convergence_to_attracting_flag():
    rng = _rng()
    g = np.diag([4.0, 1.0, 0.25])
    alpha = fd.attracting_flag(g)
    for _ in range(5):
        f = fd.random_flag(3, rng)
        d_prev = fd.flag_distance(f, alpha)
        moved = f
        for step in range(8):
            moved = fd.iterate_flag(g, moved, 2)
            d_now = fd.flag_distance(moved, alpha)
            assert d_now < d_prev or d_now < 1e-7
            d_prev = d_now
        assert d_now < 1e-6


def test_not_regular_inputs():
    with pytest.raises(NotRegular):
        fd.attracting_flag(np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1]]))
    with pytest.raises(NotRegular):
        fd.attracting_flag(np.diag([2.0, 2.0, 0.25]))


# --- reduced words ------------------------------------------------------------------------

def _three_generators():
    rng = np.random.default_rng(7)
    return [np.eye(3) + 0.3 * rng.standard_normal((3, 3)) for _ in range(3)]


def test_reduced_words_levels():
    gens = _three_generators()
    letters = fd.stack_letters(gens)
    k = len(gens)
    rank = {ch: i for i, ch in enumerate("aAbBcC")}
    levels = []
    for length, (parent, letter, mats) in enumerate(
            fd.reduced_words(letters, 4), start=1):
        levels.append((parent, letter))
        assert len(mats) == len(parent) == 2 * k * (2 * k - 1) ** (length - 1)
        labels = [fd._word_label(fd.word_of(levels, row))
                  for row in range(len(mats))]
        keys = [[rank[ch] for ch in label] for label in labels]
        assert keys == sorted(keys) and len(set(labels)) == len(labels)
        for label, mat in zip(labels, mats):
            replay = np.eye(3)
            for ch in label:
                base = gens["abc".index(ch.lower())]
                replay = replay @ (base if ch.islower() else np.linalg.inv(base))
            assert np.abs(replay - mat).max() < 1e-12
            assert all(a.lower() != b.lower() or a == b
                       for a, b in zip(label, label[1:]))
    assert len(levels) == 4


@pytest.mark.parametrize("max_words", [0, 5, 6, 35, 36, 185, 186, None])
def test_reduced_words_budget(max_words):
    # three generators: 6 * 5 ** (L - 1) words of length L, so 6, 36 and
    # 186 words up to lengths 1, 2 and 3
    letters = fd.stack_letters(_three_generators())
    fits = [c for c in (6, 36, 186) if max_words is None or c <= max_words]
    counts = []

    def enumerate_all():
        for _, _, mats in fd.reduced_words(letters, 3, max_words):
            counts.append(len(mats))

    if len(fits) == 3:
        enumerate_all()
    else:
        with pytest.raises(BudgetExceeded):
            enumerate_all()
    assert np.cumsum(counts).tolist() == fits


# --- limit set samples ----------------------------------------------------------------

def test_limit_set_sample_cyclic():
    g = np.diag([4.0, 1.0, 0.25])
    sample = fd.limit_set_sample([g], max_word_length=5, margin_threshold=1.0)
    assert len(sample) == 2
    assert all(m.min() >= 1.0 for m in sample.margins)
    dists = sorted([fd.flag_distance(sample.flags[0], fd.attracting_flag(g)),
                    fd.flag_distance(sample.flags[1], fd.attracting_flag(g))])
    assert dists[0] < 1e-9
    dists = sorted([fd.flag_distance(sample.flags[0], fd.repelling_flag(g)),
                    fd.flag_distance(sample.flags[1], fd.repelling_flag(g))])
    assert dists[0] < 1e-9


def test_limit_set_sample_empty_generators():
    assert len(fd.limit_set_sample([], 4, 1.0)) == 0


def test_limit_set_sample_budget():
    g = np.diag([4.0, 1.0, 0.25])
    with pytest.raises(BudgetExceeded):
        fd.limit_set_sample([g, g + 0.01 * np.eye(3)], 10, 0.5, max_words=50)


def _rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _schottky_pair():
    """Diagonal axial generator and a conjugate by a rotation generic
    enough that all four axis flags are pairwise antipodal."""
    g1 = np.diag([4.0, 1.0, 0.25])
    h = _rot_z(0.8) @ _rot_x(0.5) @ _rot_z(0.3)
    return g1, h @ g1 @ h.T


def test_limit_set_sample_schottky_antipodal():
    g1, g2 = _schottky_pair()
    # the four axis flags must be pairwise antipodal for this pair
    axis_flags = [fd.attracting_flag(g) for g in (g1, g2)] + \
                 [fd.repelling_flag(g) for g in (g1, g2)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert fd.is_antipodal(axis_flags[i], axis_flags[j])
    # first powers only: deep words of large powers collapse onto each
    # other within the rank threshold and antipodality gets undecidable
    short = fd.limit_set_sample([g1, g2], 2, margin_threshold=0.5)
    longer = fd.limit_set_sample([g1, g2], 3, margin_threshold=0.5)
    assert len(longer) > len(short) >= 4
    for i in range(len(longer)):
        for j in range(i + 1, len(longer)):
            assert fd.is_antipodal(longer.flags[i], longer.flags[j])


# --- thickened limit sets ----------------------------------------------------------------

def test_membership_of_sample_flag():
    g = np.diag([4.0, 1.0, 0.25])
    sample = fd.limit_set_sample([g], 3, 1.0)
    W = build_group("A2")
    balanced = th.enumerate_balanced(W)[0]
    member, witness = fd.thickening_membership(sample.flags[0], sample, balanced)
    assert member and witness is sample.flags[0]


def test_membership_antipodal_false():
    W = build_group("A2")
    balanced = th.enumerate_balanced(W)[0]
    sample = fd.FlagSample([fd.standard_flag(3)], ["e"], [np.zeros(2)])
    member, witness = fd.thickening_membership(fd.opposite_flag(3), sample,
                                               balanced)
    assert not member and witness is None


def test_membership_shared_subspace_true():
    W = build_group("A2")
    balanced = th.enumerate_balanced(W)[0]
    sample = fd.FlagSample([fd.standard_flag(3)], ["e"], [np.zeros(2)])
    shares_line = fd.flag_from_basis(
        np.array([[1.0, 0, 0], [0, 0, 1], [0, 1, 0]]).T)
    member, _ = fd.thickening_membership(shares_line, sample, balanced)
    assert member


def test_complementary_position():
    W = build_group("A2")
    assert fd.complementary_position(W.identity) == W.w0
    assert fd.complementary_position(W.w0) == W.identity
    s1 = W.element_from_label("213")
    assert fd.complementary_position(s1) == multiply(W.w0, s1)


# --- semicontinuity, disjointness, coverage -------------------------------------------

def test_position_semicontinuity_under_degeneration():
    # rotate a generic flag into a special position: the limit position
    # must be Bruhat-below the positions along the family
    ref = fd.standard_flag(3)
    limit_basis = np.array([[0.0, 1, 0], [1, 0, 0], [0, 0, 1]]).T  # shares V2
    w_limit = fd.relative_position(fd.flag_from_basis(limit_basis), ref).w
    for t in (0.3, 0.1, 0.01):
        c, s = np.cos(t), np.sin(t)
        rot = np.array([[c, 0, -s], [0, 1.0, 0], [s, 0, c]])
        ft = fd.flag_from_basis(rot @ limit_basis)
        wt = fd.relative_position(ft, ref).w
        assert bruhat_leq(w_limit, wt)


def test_slim_disjointness():
    W = build_group("A2")
    balanced = th.enumerate_balanced(W)[0]
    sigma = fd.standard_flag(3)
    sigma_hat = fd.opposite_flag(3)
    rng = _rng()
    for k in range(300):
        f = fd.random_flag(3, rng)
        in_a = fd.relative_position(f, sigma).w in balanced
        in_b = fd.relative_position(f, sigma_hat).w in balanced
        assert not (in_a and in_b)
    # constructed members of Th(sigma) stay out of Th(sigma_hat)
    for t in np.linspace(0.2, 1.4, 25):
        c, s = np.cos(t), np.sin(t)
        basis = np.array([[1.0, 0, 0], [0, c, s], [0, -s, c]]).T  # shares V1
        f = fd.flag_from_basis(basis)
        assert fd.relative_position(f, sigma).w in balanced
        assert fd.relative_position(f, sigma_hat).w not in balanced


def test_fat_coverage_of_apartment():
    # every coordinate flag of the shared eigenbasis lies in the union of
    # the thickenings of an antipodal pair, for every fat ideal
    import itertools
    W = build_group("A2")
    fats = [t for t in th.all_ideals(W) if th.is_fat(t)]
    assert fats
    sigma = fd.standard_flag(3)
    sigma_hat = fd.opposite_flag(3)
    for perm in itertools.permutations(range(3)):
        basis = np.eye(3)[:, list(perm)]
        f = fd.flag_from_basis(basis)
        wa = fd.relative_position(f, sigma).w
        wb = fd.relative_position(f, sigma_hat).w
        for fat in fats:
            assert (wa in fat) or (wb in fat)


def test_key_lemma_inequality_on_cyclic_example():
    # dynamically related points under powers of a regular diagonal
    # element: position to one limit flag bounds the complementary
    # position to the other
    g = np.diag([4.0, 1.0, 0.25])
    lam_plus = fd.attracting_flag(g)
    lam_minus = fd.repelling_flag(g)
    limits = [lam_plus, lam_minus]
    rng = _rng()
    for _ in range(20):
        xi = fd.random_flag(3, rng)
        moved = fd.iterate_flag(g, xi, 30)
        found = False
        for lam in limits:
            for lam_p in limits:
                lhs = fd.relative_position(moved, lam_p).w
                rhs = fd.complementary_position(
                    fd.relative_position(xi, lam).w)
                if bruhat_leq(lhs, rhs):
                    found = True
        assert found


# --- expansion --------------------------------------------------------------------------

def test_expansion_identity_and_orthogonal():
    f = fd.standard_flag(3)
    assert abs(fd.expansion_factor(np.eye(3), f) - 1.0) < 1e-6
    rng = _rng()
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    g = q * np.sign(np.linalg.det(q))
    fr = fd.random_flag(3, rng)
    assert abs(fd.expansion_factor(g, fr) - 1.0) < 1e-6


def test_expansion_divergence_along_powers():
    # inverse powers expand at the attracting flag; the log factor grows
    # affinely with slope log(mu1/mu2) = log 16 ... wait: see acceptance
    g = np.diag([4.0, 1.0, 0.25])
    flag = fd.attracting_flag(g)
    logs = []
    for k in range(1, 5):
        gk = np.linalg.matrix_power(np.linalg.inv(g), k)
        logs.append(np.log(fd.expansion_factor(gk, flag, step=1e-6)))
    diffs = np.diff(logs)
    assert np.all(np.array(logs[1:]) > np.array(logs[:-1]))
    assert np.allclose(diffs, np.log(4.0), rtol=0.05)


def test_expansion_step_too_large():
    g = np.diag([4.0 ** 6, 1.0, 4.0 ** -6])
    flag = fd.attracting_flag(np.diag([4.0, 1.0, 0.25]))
    with pytest.raises(StepTooLarge):
        fd.expansion_factor(np.linalg.inv(g), flag, step=0.2)


# --- nondiscreteness probe ----------------------------------------------------------------

def test_probe_identity_generators():
    res = fd.nondiscreteness_certificate([np.eye(3)], 0.1, 4)
    assert not res.found


def _rotation(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_probe_dense_rotations_certificate():
    g1 = _rotation([0, 0, 1], 2.4)
    g2 = _rotation([1, 0, 0], 1.7)
    res = fd.nondiscreteness_certificate([g1, g2], epsilon=0.1, max_len=12)
    assert res.found
    assert res.certificate.commutator_norm > 1e-6
    # replay the certificate words and re-verify the claim
    mats = {"a": g1, "b": g2}
    for word in res.certificate.words:
        m = np.eye(3)
        for ch in word:
            base = mats[ch.lower()]
            m = m @ (base if ch.islower() else np.linalg.inv(base))
        assert np.linalg.svd(m - np.eye(3), compute_uv=False).max() < 0.1


def test_probe_budget_exhausted():
    # levels of 4, 12, 36 words fit in 100; the fourth (108 more) does not
    res = fd.nondiscreteness_certificate([_rot_z(2.4), _rot_z(1.7).T],
                                         max_len=8, max_words=100)
    assert res.words_searched == 52
    assert res.budget_exhausted is True


def test_probe_integer_generators_find_nothing():
    e12 = np.eye(3)
    e12[0, 1] = 1.0
    e23 = np.eye(3)
    e23[1, 2] = 1.0
    res = fd.nondiscreteness_certificate([e12, e23], epsilon=0.1, max_len=8)
    assert not res.found
    assert not res.budget_exhausted


def test_key_lemma_sharp_instance():
    # a flag whose line sits on the repelling axis degenerates, under
    # powers, onto a limit in sharp position: the inequality against the
    # complementary position holds with equality (both sides 231)
    g = np.diag([4.0, 1.0, 0.25])
    lam_plus = fd.attracting_flag(g)
    lam_minus = fd.repelling_flag(g)
    basis = np.array([[0.0, 0.0, 1.0], [0.3, 1.0, 0.0], [1.0, 0.2, 0.1]]).T
    xi = fd.flag_from_basis(basis)
    moved = fd.iterate_flag(g, xi, 40)
    lhs = fd.relative_position(moved, lam_plus).w
    rhs = fd.complementary_position(fd.relative_position(xi, lam_minus).w)
    assert lhs.label() == "231"
    assert rhs.label() == "231"
    assert bruhat_leq(lhs, rhs)
