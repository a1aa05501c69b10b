"""Complete flags, relative position, limit set samples and dynamics.

The relative position of two flags is the permutation read off the rank
matrix d[i][j] = dim(V_i intersect W_j): column j jumps at row w(j).
With this convention a flag against itself gives the identity and a
transversal pair gives the longest element.  Both the float path and the
exact fraction-arithmetic oracle read d[i][j] = j - rank(C[i:, :j]) from
C = A^-1 B, for bases A and B adapted to the flags, and differ only in
the rank.  The exact path refuses a singular basis.  The float path takes
C = A^T B and maps each singular value sin(theta) of a corner to
sqrt(1 - cos(theta)) before the threshold ``tol`` (RANK_TOL unless passed
in; WEYLKIT_TOLERANCE on the command line): a value in the gray band
[tol, 2 tol], or a gap below RANK_SAFETY, makes it refuse to guess.
The float reading works on a stack: C = f^T Lambda_k for k flags
Lambda_k, with one stacked SVD per corner, so ``thickening_membership``
reads one stack against the whole sample and ``relative_position`` is
the case k = 1.

Limit-set samples and the nondiscreteness probe (and the orbit growth
data in ``morse``, on graded products) walk reduced words through one
enumerator, ``reduced_words``.  Letter a is generator 0 and A its
inverse, b is generator 1, and so on; words come in shortlex order,
shorter first and then by letters ordered a < A < b < B < ...  Both
screen before the exact test: the sample takes one SVD per word length
and reads ``flag_angles`` only against stored flags whose first line
lies within 2 DEDUP_ANGLE of its own, in one call (none when there are
none), and the probe takes the spectral norm only of words whose
Frobenius distance to the identity allows it.  The probe never holds
its longest words: it forms them a block of parents at a time and keeps
only the few that pass the Frobenius screen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coxeter, symspace
from .coxeter import WeylElement
from .errors import (AmbiguousRank, BudgetExceeded, NearSingular, NotRegular,
                     SingularInput)

RANK_TOL = 1e-8
RANK_SAFETY = 100.0
DEDUP_ANGLE = 1e-6
BLOCK_ENTRIES = 1 << 16  # floats per block product (512 KB): small temporaries


def position_group(n):
    """The permutation group indexing relative positions in dimension n."""
    return coxeter.build_group(f"A{n - 1}")


class Flag:
    """Complete flag given by an orthonormal basis; the i-th subspace is
    the span of the first i columns."""

    __slots__ = ("basis", "n")

    def __init__(self, basis):
        basis = np.array(basis, dtype=float, order="C")
        n = basis.shape[0]
        if not np.abs(basis @ basis.T - np.eye(n)).max() <= 1e-10:
            raise NearSingular("flag basis is not orthonormal")
        basis *= symspace.column_signs(basis)
        self.basis = basis
        self.n = n

    def subspace(self, i):
        return self.basis[:, :i]

    def __repr__(self):
        return f"Flag({self.basis.tolist()})"


def flag_from_basis(columns):
    """Orthonormalize an invertible matrix preserving the nested spans
    of its leading columns (Gram-Schmidt order)."""
    m = symspace._float_matrix(columns)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NearSingular("basis must be square")
    if np.linalg.cond(m) >= 1e10:
        raise NearSingular("basis too close to singular")
    return Flag(np.linalg.qr(m)[0])


def standard_flag(n):
    return Flag(np.eye(n))


def opposite_flag(n):
    return Flag(np.eye(n)[:, ::-1])


def flag_angles(f, bases):
    """Largest principal angle between the subspaces of flag f and those
    of each of a stack of orthonormal ``bases``: for the i-dimensional
    ones, atan2(max sigma C[i:, :i], min sigma C[:i, :i]) with C = f^T B,
    which keeps the small angles that arccos loses below about 1e-8
    (Knyazev and Argentati, SISC 23, 2002)."""
    c = f.basis.T @ bases
    worst = np.zeros(len(c))
    for i in range(1, f.n):
        sin = np.linalg.svd(c[:, i:, :i], compute_uv=False).max(axis=-1)
        cos = np.linalg.svd(c[:, :i, :i], compute_uv=False).min(axis=-1)
        worst = np.maximum(worst, np.arctan2(sin, cos))
    return worst


def flag_distance(a, b):
    """Largest principal angle: ``flag_angles`` for one flag."""
    return float(flag_angles(a, b.basis[None])[0])


@dataclass
class PositionResult:
    w: WeylElement
    rank_matrix: np.ndarray
    confidence: float


def _corner_ranks(c, tol):
    """Ranks of the corners C[:, i:, :j], 1 <= i < n, 1 <= j <= n, of a
    stack of orthogonal C = A^T B (k x n x n): one stacked SVD per corner.
    Returns the ranks (k x (n-1) x n), the smallest gap between kept and
    dropped values and, per stack entry, the refusal of its first corner
    in the gray band or below RANK_SAFETY (None if there is none)."""
    k, n = len(c), c.shape[-1]
    corners = [(i, j) for i in range(1, n) for j in range(1, n + 1)]
    s = np.concatenate([np.linalg.svd(c[:, i:, :j], compute_uv=False)
                        for i, j in corners], axis=1)
    # s = sin(theta) -> sqrt(1 - cos(theta)), the value of a stacked basis
    s = s / np.sqrt(1.0 + np.sqrt(np.maximum(0.0, 1.0 - s * s)))
    starts = np.cumsum([0] + [min(n - i, j) for i, j in corners[:-1]])
    kept = s >= tol
    gray = np.logical_or.reduceat(kept & (s <= 2 * tol), starts, axis=1)
    # a corner of the orthogonal C has no singular value above 1
    lo = np.minimum.reduceat(np.where(kept, s, 1.0), starts, axis=1)
    hi = np.maximum.reduceat(np.where(kept, 0.0, s), starts, axis=1)
    # dropped values that are all exactly 0 leave the gap at inf
    gap = np.divide(lo, hi, out=np.full_like(lo, np.inf), where=hi > 0)
    bad = gray | (gap < RANK_SAFETY)
    refusals = np.full(k, None, dtype=object)
    for r in np.nonzero(bad.any(axis=1))[0]:
        first = bad[r].argmax()
        refusals[r] = (
            f"singular value inside the gray band [{tol:.0e}, {2 * tol:.0e}]"
            if gray[r, first] else
            f"singular value gap {gap[r, first]:.2e} below safety factor")
    ranks = np.add.reduceat(kept, starts, axis=1).reshape(k, n - 1, n)
    return ranks, gap.min(axis=1, initial=np.inf), refusals


def _gauss_jordan(rows):
    """Reduced row echelon form of exact ``rows`` and its pivot columns."""
    m = [list(r) for r in rows]
    pivots = []
    for col in range(len(m[0])):
        top = len(pivots)
        piv = next((r for r in range(top, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[top], m[piv] = m[piv], m[top]
        m[top] = [x / m[top][col] for x in m[top]]
        for r in range(len(m)):
            if r != top and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[top])]
        pivots.append(col)
    return m, pivots


def _read_positions(ranks):
    """One-line positions (1-based, k x n) and rank matrices read from the
    corner ranks of a stack, and the refusal of each rank matrix that is
    not monotone or not a permutation's (None for the others)."""
    k, n = ranks.shape[0], ranks.shape[2]
    d = np.zeros((k, n + 1, n + 1), dtype=int)
    d[:, n] = np.arange(n + 1)
    d[:, 1:n, 1:] = np.arange(1, n + 1) - ranks
    rows, cols = np.diff(d, axis=1), np.diff(d, axis=2)
    monotone = (((rows >= 0) & (rows <= 1)).all(axis=(1, 2))
                & ((cols >= 0) & (cols <= 1)).all(axis=(1, 2)))
    # row n is 0, 1, ..., n, so every column jumps at some row
    w = np.argmax(cols > 0, axis=1)
    jumps = (np.sort(w, axis=1) == np.arange(1, n + 1)).all(axis=1)
    return w, d, np.where(monotone, np.where(
        jumps, None, "rank matrix is not a consistent jump pattern"),
        "intersection dimensions violate monotonicity")


def _positions(f, bases, tol):
    """Positions of flag f relative to a stack of orthonormal ``bases``:
    the position group, one-line positions, rank matrices, confidences
    and refusals."""
    W = position_group(f.n)
    ranks, confidence, refusals = _corner_ranks(f.basis.T @ bases, tol)
    w, d, late = _read_positions(ranks)
    # a refused corner comes first, as it would stop a pair-by-pair reading
    return W, w, d, confidence, np.where(np.equal(refusals, None), late,
                                         refusals)


def _result(W, w, d, confidence, refusal):
    if refusal is not None:
        raise AmbiguousRank(refusal)
    return PositionResult(W.element_from_one_line(w), d, float(confidence))


def relative_position(f, g, *, tol=RANK_TOL):
    """Permutation-valued position of flag f relative to flag g; singular
    values below ``tol`` count as zero.  The k = 1 case of the stacked
    reading that ``thickening_membership`` uses."""
    W, w, d, confidence, refusals = _positions(f, g.basis[None], tol)
    return _result(W, w[0], d[0], confidence[0], refusals[0])


def relative_position_exact(basis_a, basis_b):
    """Exact oracle: same position from raw rational bases (the spans of
    the leading columns define the flags; no orthonormalization needed).
    C = A^-1 B comes from one Gauss-Jordan pass over [A | B]."""
    n = len(basis_a)
    for name, basis in (("a", basis_a), ("b", basis_b)):
        if len(basis) != n or any(np.ndim(row) != 1 or len(row) != n
                                  for row in basis):
            raise NearSingular(f"basis {name} is not a square {n} x {n} matrix")
        symspace.check_finite(**{f"basis {name}": [
            x for row in basis for x in row if isinstance(x, float)]})
    m, pivots = _gauss_jordan([[Fraction(x) for x in [*ra, *rb]]
                               for ra, rb in zip(basis_a, basis_b)])
    if pivots != list(range(n)):
        raise NearSingular("basis a is singular")
    c = [row[n:] for row in m]
    if len(_gauss_jordan(c)[1]) < n:
        raise NearSingular("basis b is singular")
    W = position_group(n)
    ranks = np.array([[[len(_gauss_jordan([row[:j] for row in c[i:]])[1])
                        for j in range(1, n + 1)] for i in range(1, n)]])
    w, d, refusals = _read_positions(ranks)
    return _result(W, w[0], d[0], np.inf, refusals[0])


def is_antipodal(f, g, *, tol=RANK_TOL):
    """True iff the flags are transversal: all complementary
    intersections vanish, i.e. the position is the longest element."""
    res = relative_position(f, g, tol=tol)
    return res.w == res.w.group.w0


def complementary_position(w):
    """w0 * w: the position relative to the opposite reference flag."""
    return coxeter.multiply(w.group.w0, w)


def _eigenflag(g, step):
    """Flag of g's real eigenbasis by descending modulus (step -1: up)."""
    evals, evecs = np.linalg.eig(symspace._float_matrix(g))
    if np.abs(evals.imag).max() > 1e-9 * np.abs(evals).max():
        raise NotRegular("complex eigenvalues: no attracting flag")
    moduli = np.abs(evals.real)
    order = np.argsort(-moduli)
    sorted_moduli = moduli[order]
    gaps = sorted_moduli[:-1] / sorted_moduli[1:]
    if np.min(gaps) < 1.0 + 1e-9:
        raise NotRegular("eigenvalue moduli are not strictly separated")
    try:
        return flag_from_basis(evecs.real[:, order[::step]])
    except NearSingular as exc:
        raise NotRegular("eigenbasis is degenerate") from exc


def attracting_flag(g):
    """Flag of the eigenbasis in descending modulus order."""
    return _eigenflag(g, 1)


def repelling_flag(g):
    """Flag of the eigenbasis in ascending modulus order."""
    return _eigenflag(g, -1)


# --- reduced words ------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def stack_letters(gens):
    """Letters g0, g0^-1, g1, g1^-1, ... as one array: letter a is
    generator a // 2 or its inverse, and its inverse is letter a ^ 1."""
    if len(gens) > len(_LETTERS):
        raise ValueError(f"at most {len(_LETTERS)} generators can be "
                         f"labelled, got {len(gens)}")
    return np.array([m for g in symspace._square_generators(gens)
                     for m in (g, np.linalg.inv(g))])


def reduced_words(letters, max_len, max_words=None):
    """Reduced words in stacked ``letters``, one length at a time in
    shortlex order.

    Yields ``(parent, letter, products)`` per length: word i is word
    ``parent[i]`` of the previous length followed by ``letter[i]``, and
    ``products[i]`` is its matrix.  Raises BudgetExceeded before building
    a length that would take the count of words past ``max_words``.
    ``letters`` come in inverse pairs a, a ^ 1: a stack of matrices, or
    one like ``graded.Graded``.  Words are parent-major and parents of
    length >= 1 have k - 1 children, so parents s..e make rows
    (k-1)s..(k-1)e in one block: a GEMM by all k letters, masked to the
    reduced words, or for a graded stack one batched ``@``.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be >= 0, got {max_len}")
    k, n = letters.shape[0], letters.shape[-1]
    step = BLOCK_ENTRIES // max(k * n * n, 1) + 1  # parents per block
    mats = None
    last = np.array([-1])
    total = 0
    for _ in range(max_len):
        keep = last[:, None] != np.arange(k) ^ 1
        total += int(keep.sum())
        if max_words is not None and total > max_words:
            raise BudgetExceeded(f"word budget {max_words} exhausted")
        parent, last = np.nonzero(keep)
        dense = mats is not None and isinstance(letters, np.ndarray)
        # the letters at length 1; from length 2 on, rows are overwritten
        out = np.empty((len(last), n, n)) if dense else letters[last]
        for s in range(0, 0 if mats is None else len(mats), step):
            rows = slice((k - 1) * s, (k - 1) * (s + step))
            if dense:
                right = letters.transpose(1, 0, 2).reshape(n, k * n)
                out[rows] = (mats[s:s + step].reshape(-1, n) @ right).reshape(
                    -1, n, k, n).swapaxes(1, 2)[keep[s:s + step]]
            else:
                out[rows] = mats[parent[rows]] @ letters[last[rows]]
        mats = out
        yield parent, last, mats


def word_of(levels, row):
    """Letter indices of word ``row`` of the last of ``levels``, a list
    of the ``(parent, letter)`` arrays of reduced_words."""
    word = []
    for parent, letter in reversed(levels):
        word.append(int(letter[row]))
        row = int(parent[row])
    return word[::-1]


def _word_label(word):
    """Letter a is generator 0 and A its inverse, b generator 1, ..."""
    if not word:
        return "e"
    return "".join(_LETTERS[a // 2].upper() if a % 2 else _LETTERS[a // 2]
                   for a in word)


# --- sampled limit sets -----------------------------------------------------


@dataclass
class FlagSample:
    """Sampled chamber limit set with provenance per stored flag."""

    flags: list
    words: list
    margins: list

    def __len__(self):
        return len(self.flags)

    def to_json_obj(self):
        return {
            "flags": [f.basis.tolist() for f in self.flags],
            "words": list(self.words),
            "margins": [list(map(float, m)) for m in self.margins],
        }

    @staticmethod
    def from_json_obj(obj):
        return FlagSample([Flag(symspace._float_matrix(b))
                           for b in obj["flags"]],
                          list(obj["words"]),
                          [np.array(m) for m in obj["margins"]])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def limit_set_sample(generators, max_word_length, margin_threshold,
                     max_words=200000):
    """Attracting flags of all short reduced words whose singular value
    margins clear the threshold, deduplicated by principal angle.

    The i = 1 angle of ``flag_angles`` is the angle between first lines,
    |a_1 . b_1| its cosine, so only stored flags whose line lies within
    twice DEDUP_ANGLE of the candidate's (one product of first columns)
    can be duplicates, all read in one call; the factor 2 keeps rounding
    from dropping a pair.

    A length with a product past the float range is refused with
    SingularInput before its SVD.  The sample runs under ``np.errstate``,
    so neither that overflow nor a singular value that reads 0 warns.
    One such value logs to -inf and its margin reads +inf, so the word's
    other margins decide; between two of them the margin reads NaN, an
    unknown gap, and the word is skipped."""
    symspace.check_finite(margin_threshold=margin_threshold)
    try:
        gens = [symspace.unimodular(g)
                for g in symspace._square_generators(generators)]
    except SingularInput as exc:
        raise NearSingular("generator is singular") from exc
    sample = FlagSample([], [], [])
    if not gens:
        return sample
    screen = np.cos(2 * DEDUP_ANGLE)
    lines = np.empty((0, len(gens[0])))  # first columns of the stored flags
    levels = []
    for parent, letter, mats in reduced_words(stack_letters(gens),
                                              max_word_length, max_words):
        if not np.isfinite(mats).all():
            raise SingularInput("product spans more than the float range")
        levels.append((parent, letter))
        u, mu, _ = np.linalg.svd(mats)
        lo = np.log(mu)
        margins = lo[:, :-1] - lo[:, 1:]
        for row in np.nonzero(margins.min(axis=1) >= margin_threshold)[0]:
            flag = Flag(u[row])
            near = np.nonzero(np.abs(lines @ flag.basis[:, 0]) >= screen)[0]
            stored = np.array([sample.flags[t].basis for t in near])
            if near.size and (flag_angles(flag, stored) < DEDUP_ANGLE).any():
                continue
            lines = np.vstack([lines, flag.basis[:, 0]])
            sample.flags.append(flag)
            sample.words.append(_word_label(word_of(levels, row)))
            sample.margins.append(margins[row])
    return sample


def thickening_membership(f, sample, th, *, tol=RANK_TOL):
    """Is the flag inside the thickened sampled limit set?  Returns the
    verdict together with the first witness limit flag.  The positions
    against all sample flags are read from one stack; the first sample
    flag that is a witness or whose position is refused decides."""
    if not sample.flags:
        return False, None
    W, w, _, _, refusals = _positions(
        f, np.array([lam.basis for lam in sample.flags]), tol)
    read = np.equal(refusals, None)
    inside = np.zeros(len(w), dtype=bool)
    perms, at = np.unique(w[read], axis=0, return_inverse=True)
    inside[read] = np.array(
        [W.element_from_one_line(p) in th for p in perms], dtype=bool)[at]
    decided = inside | ~read
    if not decided.any():
        return False, None
    first = int(decided.argmax())
    if not read[first]:
        raise AmbiguousRank(refusals[first])
    return True, sample.flags[first]


# --- expansion on the flag manifold -----------------------------------------

def expansion_factor(g, flag, step=None):
    """Infinitesimal expansion of the flag manifold action of g at
    ``flag``: the smallest singular value of the differential in the
    frame metric.  Closed form: g k = k' r for the flag's basis k, the
    basis k' of ``flag_from_basis(g @ k)`` (so NearSingular comes exactly
    when that refuses) and r = k'^T g k upper triangular.  In the skew
    charts at k and k' the differential maps a strictly lower triangular
    L to the strictly lower part of r L r^-1: the matrix of order
    n(n-1)/2 with entries r_ik (r^-1)_lj, i > j and k > l.  ``step``, the
    step of an earlier finite-difference version, is ignored; callers
    still pass it.  ``ValueError`` for n = 1, where there is nothing to
    expand."""
    if flag.n == 1:
        raise ValueError("the flag manifold of R^1 is a point: "
                         "it has no expansion factor")
    m = symspace._float_matrix(g) @ flag.basis
    r = np.triu(flag_from_basis(m).basis.T @ m)
    i, j = np.tril_indices(flag.n, -1)
    jac = r[np.ix_(i, i)] * np.linalg.inv(r)[np.ix_(j, j)].T
    return float(np.linalg.svd(jac, compute_uv=False).min())


# --- nondiscreteness --------------------------------------------------------

@dataclass
class NondiscretenessCertificate:
    words: list            # letter words of the small elements used
    commutator_norm: float


@dataclass
class NondiscretenessResult:
    certificate: NondiscretenessCertificate | None
    words_searched: int
    budget_exhausted: bool

    @property
    def found(self):
        return self.certificate is not None


def _near_identity(mats, epsilon):
    """Rows of a stack that may lie within ``epsilon`` of the identity in
    spectral norm.  ||X||_2 >= ||X||_F / sqrt(n), so a row with
    ||M - I||_F^2 >= n epsilon^2 cannot; the factor 1 + 1e-9 covers
    rounding.  One einsum over M - I per block of rows; a square past
    the float range is inf and drops its row."""
    n = mats.shape[-1]
    frob = np.empty(len(mats))
    step = BLOCK_ENTRIES // max(n * n, 1) + 1
    for s in range(0, len(mats), step):
        d = mats[s:s + step] - np.eye(n)
        frob[s:s + step] = np.einsum("kij,kij->k", d, d)
    return np.nonzero(frob < n * epsilon ** 2 * (1 + 1e-9))[0]


def _children_near_identity(mats, letters, last, epsilon):
    """Children P L_a of a stack of parents P, ``last`` their last
    letters, that may lie within ``epsilon`` of the identity: arrays of
    their parent and letter in shortlex order, and their matrices.  The
    children of a block of parents are formed by the masked GEMM of
    ``reduced_words``, so they have its bits, and only the rows that
    ``_near_identity`` keeps outlive the block."""
    k, n = letters.shape[0], letters.shape[-1]
    step = BLOCK_ENTRIES // max(k * n * n, 1) + 1
    right = letters.transpose(1, 0, 2).reshape(n, k * n)
    parents, kept_letters, children = [], [], []
    for s in range(0, len(mats), step):
        keep = last[s:s + step, None] != np.arange(k) ^ 1
        block = (mats[s:s + step].reshape(-1, n) @ right).reshape(
            -1, n, k, n).swapaxes(1, 2)[keep]
        rows = _near_identity(block, epsilon)
        p, a = np.nonzero(keep)
        parents.append(p[rows] + s)
        kept_letters.append(a[rows])
        children.append(block[rows])
    return (np.concatenate(parents), np.concatenate(kept_letters),
            np.concatenate(children))


@np.errstate(over="ignore", invalid="ignore")
def nondiscreteness_certificate(generators, epsilon=0.1, max_len=12,
                                max_words=3_000_000):
    """Search for a violation of the nilpotence dichotomy in a small
    identity neighborhood.

    Enumerates reduced words of length up to ``max_len``; if it finds
    elements within ``epsilon`` of the identity (spectral norm) whose
    n-fold iterated commutator is more than 1e-6 from the identity, those
    words certify that the generated subgroup is not discrete.  No
    certificate is inconclusive (budget: ``max_words``, 5000 tuples).

    ``reduced_words`` builds the lengths below ``max_len``.  The words of
    length ``max_len`` (two thirds of all words for two generators) are
    formed by ``_children_near_identity`` a block of parents at a time,
    and only those that pass the Frobenius screen are kept.  A word past
    the float range is dropped; the search runs under ``np.errstate``, so
    it does not warn.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    gens = symspace._square_generators(generators)
    if not gens:
        return NondiscretenessResult(None, 0, False)
    n = gens[0].shape[0]
    ident = np.eye(n)
    letters = stack_letters(gens)
    built = max_len - 1 if max_len > 1 else max_len

    def near(mats):
        """Rows of ``mats`` within epsilon of the identity, not on it."""
        rows = _near_identity(mats, epsilon)
        dist = np.linalg.svd(mats[rows] - ident, compute_uv=False).max(axis=1)
        return rows[(dist > 1e-12) & (dist < epsilon)]

    levels = []
    searched = 0
    exhausted = False
    small = []  # (levels up to the word, row, matrix) of elements near 1
    try:
        for parent, letter, mats in reduced_words(letters, built, max_words):
            levels.append((parent, letter))
            searched += len(mats)
            small += [(len(levels), r, mats[r].copy()) for r in near(mats)]
        if built < max_len:
            count = (len(letters) - 1) * len(mats)
            if max_words is not None and searched + count > max_words:
                raise BudgetExceeded(f"word budget {max_words} exhausted")
            pp, aa, children = _children_near_identity(mats, letters, letter,
                                                       epsilon)
            searched += count
            levels.append((pp, aa))  # its rows are the children kept
            small += [(len(levels), r, children[r]) for r in near(children)]
    except BudgetExceeded:
        exhausted = True

    tried = 0
    for i, (li, ri, mi) in enumerate(small):
        for j, (lj, rj, mj) in enumerate(small):
            if j == i:
                continue
            chain = [(li, ri), (lj, rj)]
            cm = mi @ mj @ np.linalg.inv(mi) @ np.linalg.inv(mj)
            for step in range(n - 2):
                lk, rk, mk = small[(i + j + step) % len(small)]
                cm = cm @ mk @ np.linalg.inv(cm) @ np.linalg.inv(mk)
                chain.append((lk, rk))
            tried += 1
            if tried > 5000:
                return NondiscretenessResult(None, searched, True)
            norm = float(np.linalg.svd(cm - ident, compute_uv=False).max())
            if norm > 1e-6:
                cert = NondiscretenessCertificate(
                    [_word_label(word_of(levels[:l], r)) for l, r in chain],
                    norm)
                return NondiscretenessResult(cert, searched, exhausted)
    return NondiscretenessResult(None, searched, exhausted)
