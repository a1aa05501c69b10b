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

One walker, ``walk_words``, forms the reduced words of the nondiscreteness
probe and the graded words of limit-set samples and of ``morse``'s orbit
growth data: depth first, never a whole length at a time.  Letter a is
generator 0 and A its inverse, b is generator 1, and so on; every output
is in shortlex order, shorter words first and then by letters ordered
a < A < b < B < ....  The sample reads ``flag_angles`` only against
stored flags whose first line lies within 2 DEDUP_ANGLE of its own, in
one call (none when there are none), and the probe takes the spectral
norm only of the few words that pass a trace screen, then a
Frobenius-norm screen, of their distance to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coxeter, graded, symspace
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


def _children(mats, letters, parent, last):
    """Products P_p L_a of parents ``mats[parent]`` by letters ``last``:
    one GEMM by all k letters, whose row (p n + i) k + a, in rows of n, is
    row i of P_p L_a; a child is n rows k apart, taken in one gather."""
    n, k = letters.shape[-1], len(letters)
    right = letters.transpose(1, 0, 2).reshape(n, -1)
    rows = (parent * (n * k) + last)[:, None] + np.arange(0, n * k, k)
    return np.take((mats.reshape(-1, n) @ right).reshape(-1, n), rows, axis=0)


def word_depth(k, name, max_len, max_words):
    """The deepest length up to ``max_len`` whose words over k letters,
    k (k-1)^(L-1) of each length L, fit in ``max_words`` together (None:
    no budget), and their count.  ValueError naming ``name`` unless
    ``max_len`` is an integer >= 0."""
    symspace.check_integer(name, max_len, 0)
    count, depth, size = 0, 0, k
    while depth < max_len and (max_words is None
                               or count + size <= max_words):
        count, depth, size = count + size, depth + 1, size * (k - 1)
    return depth, count


def walk_words(letters, depth):
    """Reduced words in stacked ``letters`` up to length ``depth``.

    Yields blocks ``(length, first, last, products)``: words first,
    first + 1, ... of one length in shortlex order, their last letters
    and products.  ``letters`` come in inverse pairs a, a ^ 1, as a stack
    of matrices or one like ``graded.Graded``.  Blocks of BLOCK_ENTRIES
    // (k n^2) + 1 parents wait on an explicit stack, and a popped one's
    children come from one product (``_children``, or ``@`` of graded
    stacks): the walk holds one block's children per length, a word has
    the same bits in any block, and blocks come out of shortlex order."""
    if not depth:
        return
    k, n = letters.shape[0], letters.shape[-1]
    step = BLOCK_ENTRIES // (k * n * n) + 1  # parents per block
    stack, block = [], (1, 0, np.arange(k), letters)
    while True:
        yield block
        length, first, last, mats = block
        if length < depth:
            stack.extend((length, first + s, last[s:s + step],
                          mats[s:s + step]) for s in range(0, len(mats), step))
        if not stack:
            return
        length, first, last, mats = stack.pop()
        keep = last[:, None] != np.arange(k) ^ 1
        parent, last = np.nonzero(keep)
        block = (length + 1, (k - 1) * first, last,
                 _children(mats, letters, parent, last)
                 if isinstance(letters, np.ndarray)
                 else mats[parent] @ letters[last])


def word_of(k, length, row):
    """Letter indices of word ``row`` of length ``length`` in the shortlex
    order of ``walk_words`` over k letters.  Row r of length >= 2 is
    child j = r mod (k-1) of row r // (k-1), and child j of a word ending
    in letter a takes the j-th letter other than a ^ 1."""
    prefixes = [int(row) // (k - 1) ** e for e in range(length - 1, -1, -1)]
    word = prefixes[:1] + [r % (k - 1) for r in prefixes[1:]]
    for i in range(1, length):
        word[i] += word[i] >= word[i - 1] ^ 1
    return word


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


def limit_set_sample(generators, max_word_length, margin_threshold,
                     max_words=200000):
    """Attracting flags of all short reduced words whose singular value
    margins clear the threshold, deduplicated by principal angle.

    The i = 1 angle of ``flag_angles`` is the angle between first lines,
    |a_1 . b_1| its cosine, so only stored flags whose line lies within
    twice DEDUP_ANGLE of the candidate's (one product of first columns)
    can be duplicates, all read in one call; the factor 2 keeps rounding
    from dropping a pair.

    The words come from ``walk_words`` over graded letters, one SVD of
    each, after a BudgetExceeded if ``word_depth`` falls short of
    ``max_word_length``; ``Graded.svd`` reads frames and margins, and
    ``graded`` refuses a product whose scales span more than e^700 with
    SingularInput.  Each block keeps flags (copies) and margins of its
    candidates, deduplicated in shortlex order after the walk."""
    symspace.check_finite(margin_threshold=margin_threshold)
    try:
        gens = [symspace.unimodular(g)
                for g in symspace._square_generators(generators)]
    except SingularInput as exc:
        raise NearSingular("generator is singular") from exc
    sample = FlagSample([], [], [])
    if not gens:
        return sample
    k, n = 2 * len(gens), len(gens[0])
    depth, _ = word_depth(k, "max_word_length", max_word_length, max_words)
    if depth < max_word_length:
        raise BudgetExceeded(f"word budget {max_words} exhausted")
    u, s, vt = np.linalg.svd(stack_letters(gens))
    found = []
    for length, first, _, words in walk_words(
            graded.Graded(u, np.log(s), vt), depth):
        u, lo, _ = words.svd()
        margins = lo[:, :-1] - lo[:, 1:]
        rows = np.nonzero(margins.min(axis=1) >= margin_threshold)[0]
        found.append((length, first, first + rows,
                      [Flag(u[row]) for row in rows], margins[rows]))
    screen = np.cos(2 * DEDUP_ANGLE)
    lines = np.empty((sum(len(b[2]) for b in found), n))  # first columns
    for length, _, rows, flags, margins in sorted(found, key=lambda b: b[:2]):
        for row, flag, margin in zip(rows, flags, margins):
            near = np.nonzero(np.abs(lines[:len(sample)] @ flag.basis[:, 0])
                              >= screen)[0]
            stored = np.array([sample.flags[t].basis for t in near])
            if near.size and (flag_angles(flag, stored) < DEDUP_ANGLE).any():
                continue
            lines[len(sample)] = flag.basis[:, 0]
            sample.flags.append(flag)
            sample.words.append(_word_label(word_of(k, length, row)))
            sample.margins.append(margin)
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
    spectral norm: ||X||_2 >= ||X||_F / sqrt(n) and (tr X)^2 <= n ||X||_F^2
    for X = M - I, so a trace screen |tr X| < sqrt(n b), then a Frobenius
    screen ||X||_F^2 < b, b = n epsilon^2 (1 + 1e-9), whose slack covers the
    few n ulps of each rounded sum.  Inf, NaN fail; ``einsum`` won't warn."""
    n = mats.shape[-1]
    bound = n * epsilon ** 2 * (1 + 1e-9)
    d = np.subtract(mats.diagonal(0, 1, 2).T, 1, order="C")  # M_ii - 1
    rows = np.nonzero(np.abs(np.einsum("ik->k", d)) < np.sqrt(n * bound))[0]
    d = mats[rows] - np.eye(n)
    return rows[np.einsum("kij,kij->k", d, d) < bound]


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

    ``_near_identity`` screens each block of ``walk_words``: only the
    rows it keeps outlive their block (about 3 MB at length 12 for two
    generators in SO(3)), take one exact SVD and are sorted by (length,
    row).  Each first element's commutator tuples are one stack.  A word
    past the float range is dropped, under ``np.errstate``: no warning.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    gens = symspace._square_generators(generators)
    if not gens:
        return NondiscretenessResult(None, 0, False)
    n = gens[0].shape[0]
    ident = np.eye(n)
    letters = stack_letters(gens)
    k = len(letters)
    depth, searched = word_depth(k, "max_len", max_len, max_words)
    exhausted = bool(depth < max_len)
    kept = [(np.empty(0, int), np.empty(0, int), np.empty((0, n, n)))]
    for length, first, _, mats in walk_words(letters, depth):
        rows = _near_identity(mats, epsilon)
        kept.append((np.full(len(rows), length), first + rows, mats[rows]))
    lengths, rows, small = map(np.concatenate, zip(*kept))
    dist = np.linalg.svd(small - ident, compute_uv=False).max(axis=1)
    near = np.nonzero((dist > 1e-12) & (dist < epsilon))[0]
    near = near[np.lexsort((rows[near], lengths[near]))]
    lengths, rows, small = lengths[near], rows[near], small[near]

    m = len(small)
    inverse = np.linalg.inv(small)
    tried = 0
    for i in range(m):
        j = np.delete(np.arange(m), i)
        over = tried + len(j) > 5000
        j = j[:5000 - tried]
        tried += len(j)
        cm = small[i] @ small[j] @ inverse[i] @ inverse[j]
        for s in range(n - 2):
            c = (i + j + s) % m
            cm = cm @ small[c] @ np.linalg.inv(cm) @ inverse[c]
        norm = np.linalg.svd(cm - ident, compute_uv=False).max(axis=1)
        hit = np.nonzero(norm > 1e-6)[0]
        if hit.size:
            t = hit[0]
            chain = [i, j[t], *((i + j[t] + s) % m for s in range(n - 2))]
            cert = NondiscretenessCertificate(
                [_word_label(word_of(k, lengths[c], rows[c])) for c in chain],
                float(norm[t]))
            return NondiscretenessResult(cert, searched, exhausted)
        if over:
            return NondiscretenessResult(None, searched, True)
    return NondiscretenessResult(None, searched, exhausted)
