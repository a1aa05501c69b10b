"""Complete flags, relative position, limit set samples and dynamics.

The relative position of two flags is the permutation read off the rank
matrix d[i][j] = dim(V_i intersect W_j): column j jumps at row w(j).
With this convention a flag against itself gives the identity and a
transversal pair gives the longest element.  Rank decisions use a hard
threshold with a mandatory safety factor: when a singular value falls in
the gray zone the computation refuses to guess and raises instead.  For
rational inputs an exact fraction-arithmetic oracle path is available.

Limit-set samples and the nondiscreteness probe (and the Schottky
certificate in ``morse``) walk reduced words through one enumerator,
``reduced_words``.  Letter a is generator 0 and A its inverse, b is
generator 1, and so on; words come in shortlex order, shorter first and
then by letters ordered a < A < b < B < ...
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coxeter
from .coxeter import WeylElement
from .errors import (AmbiguousRank, BudgetExceeded, NearSingular, NotRegular,
                     StepTooLarge)

RANK_TOL = 1e-8
RANK_SAFETY = 100.0
DEDUP_ANGLE = 1e-6


def position_group(n):
    """The permutation group indexing relative positions in dimension n."""
    return coxeter.build_group(f"A{n - 1}")


class Flag:
    """Complete flag given by an orthonormal basis; the i-th subspace is
    the span of the first i columns."""

    __slots__ = ("basis", "n")

    def __init__(self, basis):
        basis = np.asarray(basis, dtype=float)
        n = basis.shape[0]
        if np.abs(basis @ basis.T - np.eye(n)).max() > 1e-10:
            raise NearSingular("flag basis is not orthonormal")
        # canonical sign: first entry above 1e-12 of each column positive
        basis = basis.copy()
        for j in range(n):
            col = basis[:, j]
            lead = col[np.abs(col) > 1e-12]
            if lead.size and lead[0] < 0:
                basis[:, j] = -col
        self.basis = basis
        self.n = n

    def subspace(self, i):
        return self.basis[:, :i]

    def __repr__(self):
        return f"Flag({self.basis.tolist()})"


def flag_from_basis(columns):
    """Orthonormalize an invertible matrix preserving the nested spans
    of its leading columns (Gram-Schmidt order)."""
    m = np.asarray(columns, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NearSingular("basis must be square")
    if np.linalg.cond(m) >= 1e10:
        raise NearSingular("basis too close to singular")
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    q = q * signs
    return Flag(q)


def standard_flag(n):
    return Flag(np.eye(n))


def opposite_flag(n):
    return Flag(np.eye(n)[:, ::-1])


def random_flag(n, rng):
    m = rng.standard_normal((n, n))
    return flag_from_basis(m)


def flag_distance(a, b):
    """Largest principal angle between corresponding subspaces."""
    worst = 0.0
    for i in range(1, a.n):
        s = np.linalg.svd(a.subspace(i).T @ b.subspace(i), compute_uv=False)
        c = min(1.0, max(-1.0, float(s.min())))
        worst = max(worst, float(np.arccos(c)))
    return worst


@dataclass
class PositionResult:
    w: WeylElement
    rank_matrix: np.ndarray
    confidence: float


def _numeric_intersection_dims(a, b):
    """d[i][j] = dim(span of first i cols of a, meet, first j cols of b),
    via rank of the stacked basis; refuses ambiguous rank decisions."""
    n = a.shape[0]
    d = np.zeros((n + 1, n + 1), dtype=int)
    confidence = np.inf
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            stacked = np.hstack([a[:, :i], b[:, :j]])
            s = np.linalg.svd(stacked, compute_uv=False)
            if np.any((s >= RANK_TOL) & (s <= 2 * RANK_TOL)):
                raise AmbiguousRank(
                    f"singular value inside the gray band "
                    f"[{RANK_TOL:.0e}, {2 * RANK_TOL:.0e}]")
            rejected = s[s < RANK_TOL]
            accepted = s[s >= RANK_TOL]
            if rejected.size and accepted.size:
                ratio = float(accepted.min() / max(rejected.max(), 1e-300))
                if ratio < RANK_SAFETY:
                    raise AmbiguousRank(
                        f"singular value gap {ratio:.2e} below safety factor")
                confidence = min(confidence, ratio)
            d[i][j] = i + j - int(accepted.size)
    return d, confidence


def _exact_intersection_dims(a, b):
    n = len(a)
    d = np.zeros((n + 1, n + 1), dtype=int)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cols = [[row[k] for k in range(i)] + [brow[k] for k in range(j)]
                    for row, brow in zip(a, b)]
            d[i][j] = i + j - _exact_rank(cols)
    return d


def _exact_rank(rows):
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank, col = 0, 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank][col]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / lead
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == nrows:
            break
    return rank


def _dims_to_permutation(d):
    n = d.shape[0] - 1
    w = []
    for j in range(1, n + 1):
        i = next((i for i in range(1, n + 1) if d[i][j] > d[i][j - 1]), None)
        if i is None:
            raise AmbiguousRank("rank matrix has a jumpless column")
        w.append(i)
    if len(set(w)) != n:
        raise AmbiguousRank("rank matrix is not a consistent jump pattern")
    return tuple(w)


def _validate_rank_matrix(d):
    n = d.shape[0] - 1
    ok = (d[n][n] == n
          and np.all(np.diff(d, axis=0) >= 0)
          and np.all(np.diff(d, axis=1) >= 0)
          and np.all(np.diff(d, axis=1) <= 1)
          and np.all(np.diff(d, axis=0) <= 1))
    if not ok:
        raise AmbiguousRank("intersection dimensions violate monotonicity")


def relative_position(f, g):
    """Permutation-valued position of flag f relative to flag g."""
    d, confidence = _numeric_intersection_dims(f.basis, g.basis)
    _validate_rank_matrix(d)
    w = _dims_to_permutation(d)
    W = position_group(f.n)
    return PositionResult(W.element_from_one_line(w), d, confidence)


def relative_position_exact(basis_a, basis_b):
    """Exact oracle: same position from raw rational bases (the spans of
    the leading columns define the flags; no orthonormalization needed)."""
    a = [[Fraction(x) for x in row] for row in basis_a]
    b = [[Fraction(x) for x in row] for row in basis_b]
    d = _exact_intersection_dims(a, b)
    _validate_rank_matrix(d)
    w = _dims_to_permutation(d)
    W = position_group(len(a))
    return PositionResult(W.element_from_one_line(w), d, float("inf"))


def is_antipodal(f, g):
    """True iff the flags are transversal: all complementary
    intersections vanish, i.e. the position is the longest element."""
    res = relative_position(f, g)
    return res.w == res.w.group.w0


def complementary_position(w):
    """w0 * w: the position relative to the opposite reference flag."""
    return coxeter.multiply(w.group.w0, w)


def _real_eigenbasis(g):
    evals, evecs = np.linalg.eig(np.asarray(g, dtype=float))
    if np.abs(evals.imag).max() > 1e-9 * np.abs(evals).max():
        raise NotRegular("complex eigenvalues: no attracting flag")
    evals = evals.real
    evecs = evecs.real
    moduli = np.abs(evals)
    order = np.argsort(-moduli)
    sorted_moduli = moduli[order]
    gaps = sorted_moduli[:-1] / sorted_moduli[1:]
    if np.min(gaps) < 1.0 + 1e-9:
        raise NotRegular("eigenvalue moduli are not strictly separated")
    return evecs[:, order]


def attracting_flag(g):
    """Flag of the eigenbasis in descending modulus order."""
    basis = _real_eigenbasis(g)
    try:
        return flag_from_basis(basis)
    except NearSingular as exc:
        raise NotRegular("eigenbasis is degenerate") from exc


def repelling_flag(g):
    basis = _real_eigenbasis(g)[:, ::-1]
    try:
        return flag_from_basis(basis)
    except NearSingular as exc:
        raise NotRegular("eigenbasis is degenerate") from exc


# --- reduced words ------------------------------------------------------------

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def stack_letters(gens, pair=lambda g: (g, np.linalg.inv(g))):
    """Letters g0, g0^-1, g1, g1^-1, ... as one array: letter a is
    ``pair(g_{a // 2})[a % 2]`` and its inverse is letter a ^ 1."""
    if len(gens) > len(_LETTERS):
        raise ValueError(f"at most {len(_LETTERS)} generators can be "
                         f"labelled, got {len(gens)}")
    return np.array([m for g in gens for m in pair(g)])


def reduced_words(letters, max_len, max_words=None):
    """Reduced words in stacked ``letters``, one length at a time in
    shortlex order.

    Yields ``(parent, letter, products)`` per length: word i is word
    ``parent[i]`` of the previous length followed by ``letter[i]``, and
    ``products[i]`` is its matrix.  Raises BudgetExceeded before building
    a length that would take the count of words past ``max_words``.
    """
    inverse = np.arange(len(letters)) ^ 1
    mats = np.eye(letters.shape[1])[None]
    last = np.array([-1])
    total = 0
    for _ in range(max_len):
        keep = last[:, None] != inverse
        total += int(keep.sum())
        if max_words is not None and total > max_words:
            raise BudgetExceeded(f"word budget {max_words} exhausted")
        parent, last = np.nonzero(keep)
        mats = (mats[:, None] @ letters)[keep]
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
        return FlagSample([Flag(np.array(b)) for b in obj["flags"]],
                          list(obj["words"]),
                          [np.array(m) for m in obj["margins"]])


def limit_set_sample(generators, max_word_length, margin_threshold,
                     max_words=200000):
    """Attracting flags of all short reduced words whose singular value
    margins clear the threshold, deduplicated by principal angle."""
    gens = []
    for g in generators:
        g = np.asarray(g, dtype=float)
        d = abs(np.linalg.det(g))
        if d < 1e-300:
            raise NearSingular("generator is singular")
        gens.append(g / d ** (1.0 / g.shape[0]))
    sample = FlagSample([], [], [])
    if not gens:
        return sample
    levels = []
    for parent, letter, mats in reduced_words(stack_letters(gens),
                                              max_word_length, max_words):
        levels.append((parent, letter))
        for row, mat in enumerate(mats):
            u, mu, _ = np.linalg.svd(mat)
            lo = np.log(mu)
            margins = lo[:-1] - lo[1:]
            if margins.min() < margin_threshold:
                continue
            flag = Flag(u)
            if any(flag_distance(flag, f) < DEDUP_ANGLE for f in sample.flags):
                continue
            sample.flags.append(flag)
            sample.words.append(_word_label(word_of(levels, row)))
            sample.margins.append(margins)
    return sample


def iterate_flag(g, flag, steps):
    """Apply g to a flag ``steps`` times, reorthonormalizing at every
    step so large powers stay well conditioned."""
    g = np.asarray(g, dtype=float)
    for _ in range(steps):
        flag = flag_from_basis(g @ flag.basis)
    return flag


def thickening_membership(f, sample, th):
    """Is the flag inside the thickened sampled limit set?  Returns the
    verdict together with the first witness limit flag."""
    for lam in sample.flags:
        res = relative_position(f, lam)
        if res.w in th:
            return True, lam
    return False, None


# --- expansion on the flag manifold -----------------------------------------

def _skew_basis(n):
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            a = np.zeros((n, n))
            a[i, j] = -1.0
            a[j, i] = 1.0
            out.append(a)
    return out


def _chart_coords(base, other):
    """Coordinates of ``other`` in the skew chart at ``base`` (both
    orthonormal), for small separations."""
    m = base.T @ other
    # align column signs so m is near the identity
    m = m * np.sign(np.diag(m))
    s = 0.5 * (m - m.T)
    n = base.shape[0]
    return np.array([s[j, i] for i in range(n) for j in range(i + 1, n)])


def _act(g, flag):
    return flag_from_basis(np.asarray(g, dtype=float) @ flag.basis)


def _expansion_jacobian(g, flag, step):
    n = flag.n
    dirs = _skew_basis(n)
    image = _act(g, flag)
    cols = []
    for a in dirs:
        plus = _act(g, Flag(flag.basis @ _expm_skew(step * a)))
        minus = _act(g, Flag(flag.basis @ _expm_skew(-step * a)))
        cp = _chart_coords(image.basis, plus.basis)
        cm = _chart_coords(image.basis, minus.basis)
        cols.append((cp - cm) / (2.0 * step))
    return np.array(cols).T


def _expm_skew(a):
    w, v = np.linalg.eig(a)
    return ((v * np.exp(w)) @ np.conj(v.T)).real


def expansion_factor(g, flag, step=1e-5):
    """Finite-difference infinitesimal expansion of the flag manifold
    action at ``flag``: the smallest singular value of the differential
    in the frame metric.  Richardson check: estimates at step and
    step/2 must agree to 5 percent."""
    j1 = _expansion_jacobian(g, flag, step)
    j2 = _expansion_jacobian(g, flag, step / 2.0)
    e1 = float(np.linalg.svd(j1, compute_uv=False).min())
    e2 = float(np.linalg.svd(j2, compute_uv=False).min())
    if abs(e1 - e2) > 0.05 * max(e1, e2):
        raise StepTooLarge(
            f"estimates {e1:.4e} vs {e2:.4e} disagree; reduce step")
    return e2


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


def _spectral_norm(m):
    return float(np.linalg.svd(m, compute_uv=False).max())


def nondiscreteness_certificate(generators, epsilon=0.1, max_len=12,
                                comm_tol=1e-6, max_words=3_000_000,
                                max_tuples=5000):
    """Search for a violation of the nilpotence dichotomy in a small
    identity neighborhood.

    Enumerates reduced words of length up to ``max_len``; if it finds
    elements within ``epsilon`` of the identity (spectral norm) whose
    n-fold iterated commutator is not the identity, those words
    certify that the generated subgroup is not discrete.  Returning no
    certificate is inconclusive (semi-decision truncated by budget).
    """
    gens = [np.asarray(g, dtype=float) for g in generators]
    if not gens:
        return NondiscretenessResult(None, 0, False)
    n = gens[0].shape[0]
    ident = np.eye(n)
    levels = []
    searched = 0
    exhausted = False
    small = []  # (levels up to the word, row, matrix) of elements near 1
    try:
        for parent, letter, mats in reduced_words(stack_letters(gens),
                                                  max_len, max_words):
            levels.append((parent, letter))
            searched += len(mats)
            dist = np.linalg.svd(mats - ident, compute_uv=False).max(axis=1)
            for row in np.nonzero((dist > 1e-12) & (dist < epsilon))[0]:
                small.append((len(levels), int(row), mats[row].copy()))
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
            if tried > max_tuples:
                return NondiscretenessResult(None, searched, True)
            norm = _spectral_norm(cm - ident)
            if norm > comm_tol:
                cert = NondiscretenessCertificate(
                    [_word_label(word_of(levels[:l], r)) for l, r in chain],
                    norm)
                return NondiscretenessResult(cert, searched, exhausted)
    return NondiscretenessResult(None, searched, exhausted)
