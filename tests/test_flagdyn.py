"""Flags, relative position, limit sets, expansion, discreteness probe.

Float rank decisions are validated against the exact fraction-arithmetic
oracle on random rational flags; the dynamics tests exercise the
semicontinuity, disjointness and coverage statements behind the
domain-of-discontinuity machinery.
"""

import re
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import mp_oracle
from helpers import (iterate_flag, probe_building_every_length, random_flag,
                     reduced_words)
from test_thickenings import all_ideals
from weylkit import flagdyn as fd
from weylkit import morse, symspace
from weylkit import thickenings as th
from weylkit.coxeter import build_group, bruhat_leq, multiply
from weylkit.errors import (AmbiguousRank, BudgetExceeded, NearSingular,
                            NotRegular, SingularInput)


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


# --- flag angles ----------------------------------------------------------------

def test_flag_distance_resolves_small_angles():
    # rotating columns k, k+1 of an exactly orthonormal basis by theta
    # moves only the subspace of dimension k+1, by theta
    rng = _rng()
    for n in (2, 3, 5):
        f = fd.Flag(np.eye(n)[:, rng.permutation(n)])
        assert fd.flag_distance(f, f) == 0.0
        g = random_flag(n, rng)
        assert fd.flag_distance(g, g) < 1e-15
        for k in range(n - 1):
            for theta in (1e-12, 1e-9, 1e-6, 1e-2, 1.5):
                rot = np.eye(n)
                rot[k:k + 2, k:k + 2] = [[np.cos(theta), -np.sin(theta)],
                                         [np.sin(theta), np.cos(theta)]]
                got = fd.flag_distance(f, fd.Flag(f.basis @ rot))
                assert abs(got / theta - 1.0) < 1e-6


def _arccos_distance(a, b):
    """The arccos reading flag_distance made before it took sines."""
    return max(float(np.arccos(min(1.0, np.linalg.svd(
        a.subspace(i).T @ b.subspace(i), compute_uv=False).min())))
        for i in range(1, a.n))


def test_flag_angles_stack_is_flag_distance():
    rng = _rng()
    for n in (2, 3, 4):
        f = random_flag(n, rng)
        flags = [random_flag(n, rng) for _ in range(50)]
        stacked = fd.flag_angles(f, np.array([g.basis for g in flags]))
        assert stacked.tolist() == [fd.flag_distance(f, g) for g in flags]
        assert np.allclose(stacked, [_arccos_distance(f, g) for g in flags],
                           rtol=0, atol=1e-12)


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
        a = random_flag(4, rng)
        b = random_flag(4, rng)
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
        a = random_flag(4, rng)
        b = random_flag(4, rng)
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


def _turned_flag(theta):
    """The standard flag of R^3 with its first line turned by theta
    inside the first plane."""
    c, s = np.cos(theta), np.sin(theta)
    return fd.Flag(np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]]).T)


def test_rank_band_edge():
    # the stacked-basis singular value of a first-line turn by theta is
    # sqrt(2) sin(theta / 2); the position refuses exactly when it lies in
    # the gray band [RANK_TOL, 2 RANK_TOL] and reads 123 below it, 213 above
    tol = fd.RANK_TOL
    for theta in np.geomspace(0.5 * tol, 6 * tol, 25):
        value = np.sqrt(2) * np.sin(theta / 2)
        f = _turned_flag(theta)
        if tol <= value <= 2 * tol:
            with pytest.raises(AmbiguousRank):
                fd.relative_position(f, fd.standard_flag(3))
        else:
            res = fd.relative_position(f, fd.standard_flag(3))
            assert res.w.label() == ("123" if value < tol else "213")


def test_rank_tolerance_is_a_parameter():
    f, g = _turned_flag(5e-7), fd.standard_flag(3)
    assert fd.relative_position(f, g).w.label() == "213"
    assert fd.relative_position(f, g, tol=1e-6).w.label() == "123"
    assert fd.RANK_TOL == 1e-8
    sample = fd.FlagSample([g], ["e"], [np.zeros(2)])
    identity = {fd.position_group(3).identity}
    assert fd.thickening_membership(f, sample, identity) == (False, None)
    assert fd.thickening_membership(f, sample, identity, tol=1e-6)[0]
    assert not fd.is_antipodal(f, g, tol=1e-6)


def test_exact_position_refuses_singular_basis():
    # V_1 of the first basis is the span of a zero column
    singular = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    antidiagonal = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    for a, b in ((singular, antidiagonal), (antidiagonal, singular)):
        with pytest.raises(NearSingular):
            fd.relative_position_exact(a, b)
    with pytest.raises(NearSingular):
        fd.relative_position_exact([[1, 0], [0, 1]], antidiagonal)


def test_exact_position_refuses_ragged_basis():
    ragged = [[1, 0], [0, 1, 2]]
    square = [[1, 0], [0, 1]]
    for a, b, name in ((ragged, square, "a"), (square, ragged, "b")):
        with pytest.raises(NearSingular, match=f"basis {name} "):
            fd.relative_position_exact(a, b)


# --- antipodality ----------------------------------------------------------------

def test_antipodal_examples():
    assert fd.is_antipodal(fd.standard_flag(3), fd.opposite_flag(3))
    assert not fd.is_antipodal(fd.standard_flag(3), fd.standard_flag(3))


def test_random_pairs_generically_antipodal():
    rng = _rng()
    for _ in range(1000):
        a = random_flag(3, rng)
        b = random_flag(3, rng)
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
    assert fd.flag_distance(left, right) < 1e-14


def test_attract_repel_swap_under_inverse():
    rng = _rng()
    g = np.diag([9.0, 1.0, 1.0 / 9.0])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    g = q @ g @ q.T
    assert fd.flag_distance(fd.attracting_flag(np.linalg.inv(g)),
                            fd.repelling_flag(g)) < 1e-14
    assert fd.flag_distance(fd.repelling_flag(np.linalg.inv(g)),
                            fd.attracting_flag(g)) < 1e-14


def test_dynamical_convergence_to_attracting_flag():
    rng = _rng()
    g = np.diag([4.0, 1.0, 0.25])
    alpha = fd.attracting_flag(g)
    for _ in range(5):
        f = random_flag(3, rng)
        d_prev = fd.flag_distance(f, alpha)
        moved = f
        for step in range(8):
            moved = iterate_flag(g, moved, 2)
            d_now = fd.flag_distance(moved, alpha)
            assert d_now < d_prev
            d_prev = d_now
        assert d_now < 1e-8


def test_not_regular_inputs():
    with pytest.raises(NotRegular):
        fd.attracting_flag(np.array([[0.0, -1, 0], [1, 0, 0], [0, 0, 1]]))
    with pytest.raises(NotRegular):
        fd.attracting_flag(np.diag([2.0, 2.0, 0.25]))


# --- reduced words ------------------------------------------------------------------------

def _three_generators():
    rng = np.random.default_rng(7)
    return [np.eye(3) + 0.3 * rng.standard_normal((3, 3)) for _ in range(3)]


def _walk_levels(letters, max_len):
    """The blocks of ``walk_words`` reassembled into whole lengths by
    (length, row), each length tiled by its blocks without gap or
    overlap: (last letters, products) per length."""
    levels = {}
    for length, first, last, mats in fd.walk_words(letters, max_len):
        levels.setdefault(length, []).append((first, last, mats))
    out = []
    for length in sorted(levels):
        blocks = sorted(levels[length], key=lambda b: b[0])
        assert [b[0] for b in blocks] == np.cumsum(
            [0] + [len(b[1]) for b in blocks[:-1]]).tolist()
        out.append((np.concatenate([b[1] for b in blocks]),
                    _concatenate([b[2] for b in blocks])))
    return out


def _concatenate(stacks):
    """One stack of matrices, or of graded products, from several."""
    if isinstance(stacks[0], np.ndarray):
        return np.concatenate(stacks)
    return type(stacks[0])(*(np.concatenate([getattr(p, a) for p in stacks])
                             for a in ("u", "logs", "t")))


def test_reduced_words_levels():
    gens = _three_generators()
    letters = fd.stack_letters(gens)
    k = len(gens)
    rank = {ch: i for i, ch in enumerate("aAbBcC")}
    levels = _walk_levels(letters, 4)
    for length, (last, mats) in enumerate(levels, start=1):
        assert len(mats) == len(last) == 2 * k * (2 * k - 1) ** (length - 1)
        labels = [fd._word_label(fd.word_of(2 * k, length, row))
                  for row in range(len(mats))]
        assert [rank[label[-1]] for label in labels] == last.tolist()
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


@pytest.mark.parametrize("count", [1, 2, 3])
def test_word_of_reads_the_parent_and_letter_arrays(count):
    # every row up to length 5, against the word read back through the
    # (parent, letter) arrays of the level-by-level reference
    letters = fd.stack_letters(_three_generators()[:count])
    levels = []
    for length, (parent, letter, _) in enumerate(
            reduced_words(letters, 5), start=1):
        levels.append((parent, letter))
        for row in range(len(parent)):
            word, r = [], row
            for p, a in reversed(levels):
                word.append(int(a[r]))
                r = int(p[r])
            assert fd.word_of(2 * count, length, row) == word[::-1]
    assert fd.word_of(2 * count, 0, 0) == []


@pytest.mark.parametrize("max_words", [0, 5, 6, 35, 36, 185, 186, None])
def test_reduced_words_budget(max_words):
    # three generators: 6 * 5 ** (L - 1) words of length L, so 6, 36 and
    # 186 words up to lengths 1, 2 and 3
    letters = fd.stack_letters(_three_generators())
    fits = [c for c in (6, 36, 186) if max_words is None or c <= max_words]
    depth, count = fd.word_depth(6, "max_len", 3, max_words)
    assert (depth, count) == (len(fits), ([0] + fits)[-1])
    counts = [len(last) for last, _ in _walk_levels(letters, depth)]
    assert np.cumsum(counts).tolist() == fits


@pytest.mark.parametrize("max_words", [0, 5, 6, 35, 36, 185, 186, None])
def test_limit_set_sample_budget_grid(max_words):
    # refused exactly when the words up to length 3 do not fit, as when
    # the sample walked one length at a time
    gens = _three_generators()
    if max_words is not None and max_words < 186:
        with pytest.raises(BudgetExceeded,
                           match=f"^word budget {max_words} exhausted$"):
            fd.limit_set_sample(gens, 3, 0.1, max_words)
    else:
        assert len(fd.limit_set_sample(gens, 3, 0.1, max_words)) > 0


def _reduced_words_per_letter(letters, max_len):
    """The oracle: each length from one product per letter, over all the
    parents whose words that letter extends."""
    inverse = np.arange(len(letters)) ^ 1
    mats, last = None, np.array([-1])
    for _ in range(max_len):
        parent, last = np.nonzero(last[:, None] != inverse)
        out = letters[last]
        if mats is not None:
            for a in range(len(letters)):
                sel = last == a
                out[sel] = mats[parent[sel]] @ letters[a]
        mats = out
        yield parent, last, mats


def _bits(stack):
    """The bytes of a matrix stack, or of each part of a graded one."""
    if isinstance(stack, np.ndarray):
        return stack.tobytes()
    return stack.u.tobytes(), stack.logs.tobytes(), stack.t.tobytes()


def _assert_levels_match_oracle(letters, max_len):
    levels = _walk_levels(letters, max_len)
    oracle = list(_reduced_words_per_letter(letters, max_len))
    assert len(levels) == len(oracle) == max_len
    k = len(letters)
    for length, ((last, mats), (o_parent, o_last, o_mats)) in enumerate(
            zip(levels, oracle), start=1):
        # row r of length >= 2 extends row r // (k - 1)
        if length >= 2:
            assert np.array_equal(o_parent, np.arange(len(last)) // (k - 1))
        assert np.array_equal(last, o_last)
        assert _bits(mats) == _bits(o_mats)


@pytest.mark.parametrize("block_entries", [None, 50],
                         ids=["default-blocks", "tiny-blocks"])
@pytest.mark.parametrize("count", [1, 2, 3])
@pytest.mark.parametrize("n", range(2, 7))
def test_reduced_words_match_per_letter_oracle(n, count, block_entries,
                                                monkeypatch):
    # tiny blocks hold 1 to 7 parents, so most blocks end inside a length
    if block_entries is not None:
        monkeypatch.setattr(fd, "BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(100 * n + count)
    gens = [np.eye(n) + 0.3 * rng.standard_normal((n, n))
            for _ in range(count)]
    _assert_levels_match_oracle(fd.stack_letters(gens), 5)


def test_reduced_words_level_spans_default_blocks():
    letters = fd.stack_letters(_three_generators())
    parents_per_block = fd.BLOCK_ENTRIES // (6 * 3 * 3) + 1
    # length 7 is built from the 6 * 5**5 words of length 6
    assert 6 * 5 ** 5 > 3 * parents_per_block
    _assert_levels_match_oracle(letters, 7)


def _children_by_mask(mats, letters, keep):
    # the masked gather of a swapaxes view that _children replaced: the
    # same GEMM, its children picked by ``keep`` (parents x letters)
    n = letters.shape[-1]
    right = letters.transpose(1, 0, 2).reshape(n, -1)
    return (mats.reshape(-1, n) @ right).reshape(
        -1, n, len(letters), n).swapaxes(1, 2)[keep]


@pytest.mark.parametrize("parents", [1, 2, 1821])
@pytest.mark.parametrize("k", [2, 4, 6])
@pytest.mark.parametrize("n", range(2, 7))
def test_children_match_the_masked_gather(n, k, parents):
    rng = np.random.default_rng(1000 * n + 10 * k + parents)
    letters = rng.standard_normal((k, n, n))
    mats = rng.standard_normal((parents, n, n))
    keep = rng.integers(0, k, parents)[:, None] != np.arange(k) ^ 1
    parent, last = np.nonzero(keep)
    got = fd._children(mats, letters, parent, last)
    want = _children_by_mask(mats, letters, keep)
    assert got.shape == want.shape == (parents * (k - 1), n, n)
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("block_entries", [None, 100],
                         ids=["default-blocks", "tiny-blocks"])
def test_reduced_words_on_graded_letters_match_oracle(block_entries,
                                                      monkeypatch):
    if block_entries is not None:
        monkeypatch.setattr(fd, "BLOCK_ENTRIES", block_entries)
    letters = morse._power_letters(_three_generators(), 3)
    _assert_levels_match_oracle(letters, 4)


def test_reduced_words_refuse_negative_length():
    letters = fd.stack_letters(_three_generators())
    assert list(fd.walk_words(letters, 0)) == []
    assert fd.word_depth(6, "max_len", 0, None) == (0, 0)
    with pytest.raises(ValueError,
                       match="^max_len must be an integer >= 0, got -1$"):
        fd.word_depth(6, "max_len", -1, None)


@pytest.mark.parametrize("call, name", [
    (lambda L: fd.nondiscreteness_certificate(_three_generators(), 0.1, L),
     "max_len"),
    (lambda L: fd.limit_set_sample(_three_generators(), L, 1.0),
     "max_word_length"),
    (lambda L: morse.orbit_growth(_three_generators(), 1, L),
     "max_word_length"),
], ids=["probe", "limit_set_sample", "orbit_growth"])
def test_word_length_must_be_an_integer(call, name):
    # 2.5 walked to length 3 in the probe and raised a bare TypeError from
    # range in the others; True walked length 1
    for bad in (2.5, True, -1, "2"):
        with pytest.raises(ValueError,
                           match=f"^{name} must be an integer >= 0, got "):
            call(bad)
    assert repr(call(np.int64(2))) == repr(call(2))


@pytest.mark.parametrize("gens,shapes", [
    ([np.eye(3), np.eye(2)], "(3, 3), (2, 2)"),
    ([np.ones((2, 3))], "(2, 3)"),
    ([np.eye(3), np.ones(3)], "(3, 3), (3,)"),
], ids=["two-sizes", "not-square", "not-a-matrix"])
@pytest.mark.parametrize("call", [
    fd.stack_letters,
    lambda gens: fd.limit_set_sample(gens, 3, 1.0),
    lambda gens: fd.nondiscreteness_certificate(gens, max_len=3),
], ids=["stack_letters", "limit_set_sample", "probe"])
def test_bad_generators_refused(gens, shapes, call):
    with pytest.raises(ValueError, match="generators must be square matrices "
                       rf"of one size, got shapes {re.escape(shapes)}$"):
        call(gens)


@pytest.mark.parametrize("call", [
    fd.stack_letters,
    lambda gens: fd.limit_set_sample(gens, 2, 1.0),
    lambda gens: fd.nondiscreteness_certificate(gens, max_len=2),
], ids=["stack_letters", "limit_set_sample", "probe"])
def test_ragged_generator_refused(call):
    with pytest.raises(ValueError,
                       match=r"^matrix rows differ in length: \[2, 3\]$"):
        call([[[1, 0], [0, 1, 2]]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    fd.stack_letters,
    lambda gens: fd.limit_set_sample(gens, 2, 1.0),
    lambda gens: fd.nondiscreteness_certificate(gens, max_len=2),
], ids=["stack_letters", "limit_set_sample", "probe"])
def test_generator_entries_that_are_not_finite_refused(call, value):
    # refused before numpy's SVD, which would warn and not converge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call([np.eye(2), [[value, 0.0], [0.0, 1.0]]])
    assert str(exc.value) == f"matrix entries must be finite, got {value}"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("call", [
    fd.flag_from_basis,
    fd.attracting_flag,
    fd.repelling_flag,
    lambda m: fd.expansion_factor(m, fd.standard_flag(2)),
    lambda m: fd.FlagSample.from_json_obj(
        {"flags": [m], "words": ["a"], "margins": [[1.0]]}),
], ids=["flag_from_basis", "attracting_flag", "repelling_flag",
        "expansion_factor", "from_json_obj"])
def test_single_matrix_entries_that_are_not_finite_refused(call, value):
    # numpy would not converge on them, or an unchecked Flag would keep them
    with pytest.raises(ValueError) as exc:
        call([[value, 0.0], [0.0, 1.0]])
    assert str(exc.value) == f"matrix entries must be finite, got {value}"


def test_flag_refuses_a_nan_basis():
    # every comparison with NaN is false, so a > test let this basis pass
    with pytest.raises(NearSingular, match="^flag basis is not orthonormal$"):
        fd.Flag([[np.nan, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_exact_position_refuses_float_entries_that_are_not_finite(value):
    with pytest.raises(ValueError) as exc:
        fd.relative_position_exact([[1, 0], [0, 1]], [[value, 0], [0, 1]])
    assert str(exc.value) == f"basis b entries must be finite, got {value}"


def test_exact_position_keeps_huge_integers_exact():
    # 10**400 has no float; the exact path must not convert it
    big = [[10 ** 400, 0], [1, 1]]
    assert fd.relative_position_exact(big, big).w.length == 0
    assert fd.relative_position_exact(big, [[0, 1], [1, 0]]).w.length == 1


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_limit_sample_refuses_a_threshold_that_cannot_be_compared(value):
    # a NaN threshold failed every margin < threshold test and kept every word
    with pytest.raises(ValueError, match=f"^margin_threshold must be a "
                                         f"finite number, got {value}$"):
        fd.limit_set_sample([np.diag([4.0, 1.0, 0.25])], 2, value)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-160, 1e160, 1e-300, 1e300])
def test_limit_set_sample_at_extreme_scales(scale):
    # the determinant of each generator under- or overflows at these scales
    gens = list(_schottky_pair())
    want = fd.limit_set_sample(gens, 3, 1.0)
    got = fd.limit_set_sample([scale * g for g in gens], 3, 1.0)
    assert got.words == want.words
    assert np.abs(np.array(got.margins) - np.array(want.margins)).max() < 1e-12
    for a, b in zip(got.flags, want.flags):
        assert np.abs(a.basis - b.basis).max() < 1e-13


def _label_letters(label):
    """Letter indices of a sample word: a is 0, A is 1, b is 2, ..."""
    return [2 * (ord(c.lower()) - ord("a")) + c.isupper() for c in label]


def _sample_errors(gens, sample, rows):
    """Largest angle between a flag of ``sample`` and the attracting flag
    of its word, and largest margin error relative to max(1, |log
    sigma_1|), over ``rows``: the words are formed and read in 80-digit
    mpmath from the float letters that the sample starts from."""
    angles, margins = [0.0], [0.0]
    with mp.workdps(80):
        letters = [mp.matrix(m.tolist()) for m in fd.stack_letters(
            [symspace.unimodular(g) for g in gens])]
        for row in rows:
            word = _label_letters(sample.words[row])
            frame = fd.Flag(mp_oracle.word_frame(letters, word))
            angles.append(fd.flag_distance(sample.flags[row], frame))
            logs = mp_oracle.word_logs(letters, word)
            margins.append(np.abs(sample.margins[row] - logs[:-1] + logs[1:])
                           .max() / max(1.0, abs(logs[0])))
    return max(angles), max(margins)


@pytest.mark.parametrize("N, L", [(1, 5), (2, 5), (3, 5), (4, 5), (6, 5),
                                  (1, 8)])
def test_limit_set_sample_matches_mpmath(N, L):
    # a float product of a long word loses its small singular value gaps
    # and with them its flag: up to 1.57 rad off at N = 6, L = 5
    gens = [np.linalg.matrix_power(g, N) for g in _schottky_pair()]
    sample = fd.limit_set_sample(gens, L, 1.0)
    rows = np.random.default_rng(10 * N + L).choice(
        len(sample), min(len(sample), 30), replace=False)
    angle, margin = _sample_errors(gens, sample, rows)
    assert angle < 1e-10 and margin < 1e-10


def _elementary(n, i, j):
    m = np.eye(n)
    m[i, j] = 1.0
    return m


@pytest.mark.parametrize("gens, L, words", [
    ([_elementary(2, 0, 1), _elementary(2, 1, 0)], 4,
     "a A b B aa AA bb BB aaa aab abb AAA AAB ABB baa bba bbb BAA BBA BBB "
     "aaaa aaab aaba abaa abba abbb AAAA AAAB AABA ABAA ABBA ABBB baaa baab "
     "babb bbab bbba bbbb BAAA BAAB BABB BBAB BBBA BBBB"),
    ([_elementary(3, 0, 1), _elementary(3, 1, 0), _elementary(3, 1, 2)], 3,
     "aa ab AA AB ba bb bc bC BA BB Bc BC cc CC aaa aab aac aaC abb abc abC "
     "aca acA acc aCa aCA aCC AAA AAB AAc AAC ABB ABc ABC Aca AcA Acc ACa "
     "ACA ACC baa bac baC bAc bAC bba bbb bbc bbC bca bcc bCa bCC Bac BaC "
     "BAA BAc BAC BBA BBB BBc BBC BcA Bcc BCA BCC caa cab cac cAA cAB cAc "
     "cca ccA ccc Caa Cab CaC CAA CAB CAC CCa CCA CCC"),
], ids=["SL2Z", "SL3Z"])
def test_limit_set_sample_of_unipotent_generators(gens, L, words):
    # graded.power refuses these defective letters; the sample takes its
    # graded letters from an SVD of each and keeps the words it had when
    # it read float products
    sample = fd.limit_set_sample(gens, L, 0.5)
    assert sample.words == words.split()
    angle, margin = _sample_errors(gens, sample, range(len(sample)))
    assert angle < 1e-10 and margin < 1e-10


# --- thickened limit sets ----------------------------------------------------------------

def test_limit_sample_reads_zero_singular_values_without_warning():
    # aa spans e^1381, and a float product read its singular values as
    # (1e300, 1, 0); graded products refuse it at length 2.  They refuse
    # aa of the 4 x 4 g too (e^767), before aaa, which a float product
    # read as (1e300, 1e100, 0, 0)
    g = np.diag([1e100, 10 ** (100 / 3), 10 ** (-200 / 3), 10 ** (-200 / 3)])
    for gens in (_PROBE_SETS["past-float-range"], [g]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInput, match="^product spans more "
                               "than the float range$"):
                fd.limit_set_sample(gens, 2, 1.0)


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


def _standard_pair_sample():
    g1, g2 = _schottky_pair()
    return fd.limit_set_sample([g1, g2], 5, 1.0)


def _memberships_in_sample_order(flags, sample, thickening):
    """The reading that the stacked membership replaces: each flag walks
    the sample in order up to its first witness or refused position, as
    relative_position reads it.  The flags still walking are read against
    one sample flag lambda at a time, as one stack C = f^T lambda, where
    thickening_membership stacks over the sample instead.  Returns the
    outcome of each flag in the form of ``_outcome``."""
    W = fd.position_group(3)
    transposed = np.array([f.basis.T for f in flags])
    outcomes = [(False, None)] * len(flags)
    walking = np.arange(len(flags))
    for lam in sample.flags:
        ranks, _, first = fd._corner_ranks(transposed[walking] @ lam.basis,
                                           fd.RANK_TOL)
        w, _, late = fd._read_positions(ranks)
        still = np.ones(len(walking), dtype=bool)
        for r, (k, p, corner, jump) in enumerate(
                zip(walking, w.tolist(), first, late)):
            refusal = corner if corner is not None else jump
            if refusal is not None:
                outcomes[k] = ("AmbiguousRank", refusal)
            elif W.element_from_one_line(p) in thickening:
                outcomes[k] = (True, id(lam))
            else:
                continue
            still[r] = False
        walking = walking[still]
        if not walking.size:
            break
    return outcomes


def _outcome(call):
    try:
        verdict, witness = call()
    except AmbiguousRank as exc:
        return "AmbiguousRank", str(exc)
    return verdict, None if witness is None else id(witness)


def test_membership_matches_pair_by_pair():
    sample = _standard_pair_sample()
    assert len(sample) == 448
    rng = np.random.default_rng(20)
    flags = sample.flags + [random_flag(3, rng) for _ in range(20)]
    outcomes = set()
    for thickening in th.enumerate_balanced(build_group("A2")):
        want = _memberships_in_sample_order(flags, sample, thickening)
        for f, expected in zip(flags, want):
            got = _outcome(lambda: fd.thickening_membership(f, sample,
                                                            thickening))
            assert got == expected
            outcomes.add(got[0])
        assert fd.thickening_membership(
            flags[0], fd.FlagSample([], [], []), thickening) == (False, None)
    assert outcomes == {True, False, "AmbiguousRank"}


def test_membership_refusal_is_not_dropped():
    # sample flags 87 and 291 lie about 2e-4 apart with corner values
    # below the rank threshold: the position of 291 against 87 is refused,
    # and 87 comes first in the sample
    sample = _standard_pair_sample()
    balanced = th.enumerate_balanced(build_group("A2"))[0]
    with pytest.raises(AmbiguousRank,
                       match="^rank matrix is not a consistent jump pattern$"):
        fd.thickening_membership(sample.flags[291], sample, balanced)


def test_near_identity_screen_keeps_every_small_word():
    # ||X||_F in [eps, eps sqrt(n)]: half random, half scaled orthogonal
    # matrices just inside the spectral ball, where the Frobenius bound is
    # tight; the screen must keep every X with ||X||_2 < eps
    rng = np.random.default_rng(1000)
    n = 3
    for eps in (1e-6, 0.1):
        xs = []
        for _ in range(500):
            x = rng.standard_normal((n, n))
            xs.append(x * eps * rng.uniform(1, np.sqrt(n)) / np.linalg.norm(x))
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            xs.append(q * eps * (1 - 10.0 ** -rng.uniform(3, 15)))
        mats = np.eye(n) + np.array(xs)
        norms = np.linalg.norm(mats - np.eye(n), axis=(1, 2))
        assert (norms >= eps * (1 - 1e-9)).all()
        assert (norms <= eps * np.sqrt(n) * (1 + 1e-9)).all()
        small = np.linalg.svd(mats - np.eye(n), compute_uv=False).max(axis=1)
        kept = fd._near_identity(mats, eps)
        assert set(np.nonzero(small < eps)[0]) <= set(kept)
        assert 400 < (small < eps).sum() < 1000
    # a stack of several blocks with small rows on both sides of each
    # block boundary; rows with entries >= 1e160 square to inf and go
    step = fd.BLOCK_ENTRIES // (n * n) + 1
    mats = np.tile(2 * np.eye(n), (3 * step + 2, 1, 1))
    small = [0, step - 1, step, 2 * step - 1, 2 * step, 3 * step + 1]
    huge = [1, step - 2, step + 1, 2 * step + 1, 3 * step]
    mats[small] = np.eye(n) + 0.01 * rng.standard_normal((len(small), n, n))
    mats[huge[:3]] = 1e160
    mats[huge[3]] = -1e300
    mats[huge[4]] = np.eye(n)
    mats[huge[4], 0, 1] = 1e160
    assert fd._near_identity(mats, 0.1).tolist() == small
    # where the trace screen is tight: scalar rows (1 +- delta) I, for
    # which (tr X)^2 = n ||X||_F^2, and rotations by angles just under eps
    for n in (2, 3, 6):
        for eps in (1e-6, 0.1):
            delta = eps * (1 - 10.0 ** -rng.uniform(3, 15, 200))
            scalar = (1 + np.concatenate([delta, -delta]))[:, None, None]
            q = np.linalg.qr(rng.standard_normal((200, n, n)))[0]
            turn = np.tile(np.eye(n), (200, 1, 1))
            turn[:, 0, 0] = turn[:, 1, 1] = np.cos(delta)
            turn[:, 1, 0] = np.sin(delta)
            turn[:, 0, 1] = -np.sin(delta)
            mats = np.concatenate([scalar * np.eye(n),
                                   q @ turn @ q.transpose(0, 2, 1)])
            small = np.linalg.svd(mats - np.eye(n),
                                  compute_uv=False).max(axis=1) < eps
            assert small.sum() > 300
            assert set(np.nonzero(small)[0]) <= set(fd._near_identity(mats,
                                                                      eps))
    # rows whose trace is +-inf or NaN go, with no warning
    n = 3
    mats = np.tile(np.eye(n), (8, 1, 1))
    mats[1, 0, 0] = np.inf
    mats[2, 1, 1] = -np.inf
    mats[3, 0, 0], mats[3, 1, 1] = np.inf, -np.inf
    mats[4, 2, 2] = np.nan
    mats[5] = np.diag([1e308, 1e308, 1e308])
    mats[6, 0, 1] = np.nan
    mats[7, 0, 1] = 0.01
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fd._near_identity(mats, 0.1).tolist() == [0, 7]


def test_probe_refuses_bad_configuration():
    gens = _three_generators()
    for eps in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError,
                           match="^epsilon must be positive and finite"):
            fd.nondiscreteness_certificate(gens, epsilon=eps, max_len=2)
    with pytest.raises(ValueError,
                       match="^max_len must be an integer >= 0, got -2$"):
        fd.nondiscreteness_certificate(gens, max_len=-2)


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
        f = random_flag(3, rng)
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
    fats = [t for t in all_ideals(W) if th.is_fat(t)]
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
        xi = random_flag(3, rng)
        moved = iterate_flag(g, xi, 30)
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
    fr = random_flag(3, rng)
    assert abs(fd.expansion_factor(g, fr) - 1.0) < 1e-6


def test_expansion_refuses_the_line():
    # the flag manifold of R^1 is a point
    with pytest.raises(ValueError, match=r"R\^1 is a point"):
        fd.expansion_factor(np.array([[2.0]]), fd.standard_flag(1))


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


def _fd_expansion(g, flag, h=1e-5):
    """Central-difference oracle for expansion_factor: turn the flag by
    +-h in each plane (i, j), i > j, and read the image flags in the skew
    chart at the image of the flag."""
    n = flag.n
    base = fd.flag_from_basis(g @ flag.basis).basis
    rows, cols = np.tril_indices(n, -1)

    def chart(t, i, j):
        rot = np.eye(n)
        rot[[i, j], [i, j]] = np.cos(t)
        rot[i, j], rot[j, i] = np.sin(t), -np.sin(t)
        m = base.T @ fd.flag_from_basis(g @ flag.basis @ rot).basis
        m = m * np.sign(np.diag(m))
        return (m - m.T)[rows, cols] / 2

    jac = np.array([chart(h, i, j) - chart(-h, i, j)
                    for i, j in zip(rows, cols)]).T / (2 * h)
    return np.linalg.svd(jac, compute_uv=False).min()


def test_expansion_matches_central_difference_oracle():
    rng = np.random.default_rng(1717)
    for t in range(200):
        n = 2 + t % 5
        g = rng.standard_normal((n, n))
        flag = random_flag(n, rng)
        want = _fd_expansion(g, flag)
        assert abs(fd.expansion_factor(g, flag) - want) <= 1e-6 * want


def test_expansion_of_diagonal_at_standard_flag():
    rng = np.random.default_rng(31)
    for n in range(2, 7):
        d = rng.uniform(0.2, 5.0, n) * rng.choice([-1.0, 1.0], n)
        want = min(abs(d[i] / d[j]) for i in range(n) for j in range(i))
        got = fd.expansion_factor(np.diag(d), fd.standard_flag(n))
        assert abs(got - want) <= 1e-15 * want


def test_expansion_on_conjugated_diagonal_family():
    # Q diag(4^-k, 1, 4^k) Q^T expands the flag Q by exactly 4^k.  Rounding
    # the matrix to floats moves that value by up to about eps cond(g) =
    # eps 16^k relative, which passes 1e-10 from k = 6 on; at k = 9 cond(g)
    # passes the 1e10 refusal threshold of flag_from_basis.
    rng = np.random.default_rng(4)
    for _ in range(10):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        flag = fd.Flag(q * np.sign(np.diag(r)))
        q = flag.basis
        for k in range(1, 9):
            gk = q @ np.diag([4.0 ** -k, 1.0, 4.0 ** k]) @ q.T
            got = fd.expansion_factor(gk, flag)
            bound = 1e-10 if k <= 5 else np.finfo(float).eps * 16.0 ** k
            assert abs(got / 4.0 ** k - 1.0) <= bound
            assert fd.expansion_factor(gk, flag, step=1e-6) == got
        g9 = q @ np.diag([4.0 ** -9, 1.0, 4.0 ** 9]) @ q.T
        with pytest.raises(NearSingular):
            fd.flag_from_basis(g9 @ q)
        with pytest.raises(NearSingular):
            fd.expansion_factor(g9, flag)


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


def test_probe_without_generators_searches_nothing():
    res = fd.nondiscreteness_certificate([])
    assert (res.found, res.words_searched, res.budget_exhausted) == \
        (False, 0, False)


def test_probe_stops_after_5000_commutator_tuples():
    # commuting generators: every commutator is the identity, so no tuple
    # certifies, and the 484 words of length <= 5 stay far below max_words
    res = fd.nondiscreteness_certificate([_rot_z(0.02), _rot_z(0.03)],
                                         epsilon=0.3, max_len=5)
    assert not res.found
    assert res.words_searched == 484
    assert res.budget_exhausted is True


def test_probe_integer_generators_find_nothing():
    e12 = np.eye(3)
    e12[0, 1] = 1.0
    e23 = np.eye(3)
    e23[1, 2] = 1.0
    res = fd.nondiscreteness_certificate([e12, e23], epsilon=0.1, max_len=8)
    assert not res.found
    assert not res.budget_exhausted


# generator sets for the reference: rotations dense in SO(3), integer
# unipotents, random near-identity sets for n = 2..4 with 1 to 3
# generators, tiny rotations, a pair whose products leave the float range,
# a generator whose inverse does, and the identity
_PROBE_SETS = {
    "dense": [_rotation([0, 0, 1], 2.4), _rotation([1, 0, 0], 1.7)],
    "unipotent": [np.eye(3) + np.eye(3, k=1) * [[0], [1], [0]],
                  np.eye(3) + np.eye(3, k=1) * [[1], [0], [0]]],
    **{f"random-n{n}-{count}": [
        np.eye(n) + 0.2 * np.random.default_rng(10 * n + count)
        .standard_normal((n, n)) for _ in range(count)]
       for n, count in ((2, 1), (2, 3), (3, 2), (4, 2))},
    "tiny-rotations": [_rot_z(0.02), _rotation([1, 1, 0], 0.03)],
    "past-float-range": [np.diag([1e150, 1e-150, 1.0]),
                         [[1, 0.001, 0], [-0.001, 1, 0], [0, 0, 1]]],
    "inverse-past-float-range": [np.diag([1e-310, 1.0]),
                                 [[0.6, -0.8], [0.8, 0.6]]],
    "identity": [np.eye(3)],
}


def _reference(gens, eps, max_len, max_words):
    with np.errstate(over="ignore", invalid="ignore"):
        return probe_building_every_length(gens, eps, max_len, max_words)


@pytest.mark.parametrize("name", list(_PROBE_SETS))
def test_probe_matches_the_probe_that_builds_every_length(name):
    gens = _PROBE_SETS[name]
    k = 2 * len(gens)
    # words up to lengths 1..10; the longest length whose words fit in
    # 50000, at most 9
    sizes = np.cumsum([k * (k - 1) ** i for i in range(10)])
    top = min(int(np.searchsorted(sizes, 50000, side="right")), 9)
    for eps in (1e-6, 0.1, 0.5):
        for max_len in range(top + 1):
            got = fd.nondiscreteness_certificate(gens, eps, max_len, 50000)
            assert repr(got) == repr(_reference(gens, eps, max_len, 50000))
        # budgets one below and at the count that the last length needs,
        # and one below the count that the length before it needs
        for max_words in (sizes[top - 1] - 1, sizes[top - 1],
                          sizes[top - 2] - 1):
            got = fd.nondiscreteness_certificate(gens, eps, top, max_words)
            want = _reference(gens, eps, top, max_words)
            assert repr(got) == repr(want)
            assert got.budget_exhausted or max_words == sizes[top - 1]


@pytest.mark.parametrize("name", ["dense", "random-n2-3", "past-float-range"])
def test_probe_matches_the_reference_with_blocks_inside_lengths(name,
                                                                monkeypatch):
    # 50 floats per block: 2 or 3 parents, so from length 2 on the walk's
    # blocks end inside every length; the longest length within 50000
    # words, and the budgets of the test above
    monkeypatch.setattr(fd, "BLOCK_ENTRIES", 50)
    gens = _PROBE_SETS[name]
    k = 2 * len(gens)
    sizes = np.cumsum([k * (k - 1) ** i for i in range(10)])
    top = min(int(np.searchsorted(sizes, 50000, side="right")), 9)
    for eps in (1e-6, 0.1, 0.5):
        for max_words in (50000, sizes[top - 1] - 1, sizes[top - 2] - 1):
            got = fd.nondiscreteness_certificate(gens, eps, top, max_words)
            assert repr(got) == repr(_reference(gens, eps, top, max_words))


@pytest.mark.parametrize("gen", [np.diag([2.0, 0.5, 1.0]), _rot_z(2.4)],
                         ids=["diagonal", "rotation"])
def test_probe_walks_3000_lengths_of_one_generator(gen):
    # two words per length: the walk goes 3000 lengths deep, past the
    # interpreter's recursion limit
    res = fd.nondiscreteness_certificate([gen], max_len=3000)
    assert res.words_searched == 6000
    assert repr(res) == repr(_reference([gen], 0.1, 3000, 3_000_000))


def test_probe_past_the_float_range_does_not_warn():
    gens = _PROBE_SETS["past-float-range"]
    for max_len, searched in ((3, 52), (6, 1456)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fd.nondiscreteness_certificate(gens, max_len=max_len)
        assert repr(res) == repr(_reference(gens, 0.1, max_len, 3_000_000))
        assert (res.found, res.words_searched, res.budget_exhausted) == \
            (False, searched, False)


def test_probe_never_holds_its_longest_words():
    # the walk holds the children of one block per length, about 3 MiB;
    # the 354294 words of length 11 alone take 17 MB
    gens = _PROBE_SETS["dense"]
    tracemalloc.start()
    try:
        res = fd.nondiscreteness_certificate(gens, epsilon=0.1, max_len=12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.words_searched == 1062880
    assert peak < 8 * 2 ** 20


def test_key_lemma_sharp_instance():
    # a flag whose line sits on the repelling axis degenerates, under
    # powers, onto a limit in sharp position: the inequality against the
    # complementary position holds with equality (both sides 231)
    g = np.diag([4.0, 1.0, 0.25])
    lam_plus = fd.attracting_flag(g)
    lam_minus = fd.repelling_flag(g)
    basis = np.array([[0.0, 0.0, 1.0], [0.3, 1.0, 0.0], [1.0, 0.2, 0.1]]).T
    xi = fd.flag_from_basis(basis)
    moved = iterate_flag(g, xi, 40)
    lhs = fd.relative_position(moved, lam_plus).w
    rhs = fd.complementary_position(fd.relative_position(xi, lam_minus).w)
    assert lhs.label() == "231"
    assert rhs.label() == "231"
    assert bruhat_leq(lhs, rhs)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: fd.flag_from_basis([[1, 0]]), NearSingular,
                 "basis must be square", id="basis-not-square"),
    pytest.param(lambda: fd.Flag([[1, 1], [0, 1]]), NearSingular,
                 "flag basis is not orthonormal", id="flag-not-orthonormal"),
    pytest.param(lambda: fd.attracting_flag([[2, 1e12], [0, 2.0000001]]),
                 NotRegular, "eigenbasis is degenerate",
                 id="degenerate-eigenbasis"),
    pytest.param(lambda: fd.limit_set_sample([[[1, 0], [0, 0]]], 2, 1.0),
                 NearSingular, "generator is singular",
                 id="singular-generator"),
    pytest.param(lambda: fd.limit_set_sample(
        _PROBE_SETS["past-float-range"], 3, 1.0), SingularInput,
        "product spans more than the float range",
        id="product-past-float-range"),
    # values 1e-7 and 1e-8 of one corner read about 7e-8 and 7e-9: apart
    # from the gray band, but only a factor 10 apart
    pytest.param(lambda: fd.relative_position(
        fd.standard_flag(4), fd.flag_from_basis(
            np.eye(4) + np.pad(np.diag([1e-7, 1e-8]), ((2, 0), (0, 2))))),
        AmbiguousRank, "singular value gap 1.00e+01 below safety factor",
        id="gap-below-safety"),
])
def test_refusals_name_their_condition(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
