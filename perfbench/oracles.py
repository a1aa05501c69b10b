"""Reference computations made apart from weylkit.

Nothing here imports weylkit.  Each function either recomputes a quantity
by a different method (root-system permutations, the tableau criterion,
fraction-free integer ranks, closed forms on the diagonal flat) or states
a formula from the literature.  The checks in ``checks.py`` compare the
program's answers against these.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

# --- closed formulas ---------------------------------------------------------

# Number of self-dual monotone Boolean functions of n variables (OEIS
# A001206); these are exactly the balanced thickenings of the sign group
# A1^n.
A1_POWER_BALANCED = {1: 1, 2: 2, 3: 4, 4: 12, 5: 81, 6: 2646}


def parse_type(text):
    """``"A2xG2"`` -> [("A", 2), ("G", 2)]; ``"A1^6"`` -> six ("A", 1)."""
    out = []
    for part in text.split("x"):
        m = re.fullmatch(r"([ABDGF])(\d+)(?:\^(\d+))?", part)
        if not m:
            raise ValueError(f"unsupported type {part!r}")
        out.extend([(m.group(1), int(m.group(2)))] * int(m.group(3) or 1))
    return out


def _factor_order(name, n):
    return {"A": math.factorial(n + 1), "B": 2 ** n * math.factorial(n),
            "D": 2 ** (n - 1) * math.factorial(n), "G": 12, "F": 1152}[name]


def _factor_positive_roots(name, n):
    return {"A": n * (n + 1) // 2, "B": n * n, "D": n * (n - 1),
            "G": 6, "F": 24}[name]


def group_order(text):
    return math.prod(_factor_order(*f) for f in parse_type(text))


def reflection_count(text):
    """Number of reflections = number of positive roots."""
    return sum(_factor_positive_roots(*f) for f in parse_type(text))


def reduced_word_count(generators, max_len):
    """Reduced words of length 1..max_len in the free group on
    ``generators`` letters: 2g (2g-1)^(L-1) of each length L."""
    k = 2 * generators
    return sum(k * (k - 1) ** (length - 1) for length in range(1, max_len + 1))


# --- Coxeter groups as permutations of a root system -------------------------

def _coxeter_bonds(name, n):
    """Edges (i, j, m) of the Coxeter graph, generators numbered as in the
    program's documented realisations (special node last for B and D)."""
    if name == "A":
        return [(i, i + 1, 3) for i in range(n - 1)]
    if name == "B":
        return [(i, i + 1, 3) for i in range(n - 2)] + [(n - 2, n - 1, 4)]
    if name == "D":
        edges = [(i, i + 1, 3) for i in range(n - 2)]
        return edges + [(n - 3, n - 1, 3)] if n >= 3 else []
    if name == "G":
        return [(0, 1, 6)]
    if name == "F":
        return [(0, 1, 3), (1, 2, 4), (2, 3, 3)]
    raise ValueError(name)


def _cartan(text):
    """A Cartan matrix for the type: a_ij a_ji = 4 cos^2(pi / m_ij)."""
    factors = parse_type(text)
    rank = sum(n for _, n in factors)
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    off = 0
    for name, n in factors:
        for i, j, m in _coxeter_bonds(name, n):
            a[off + i][off + j] = -1
            a[off + j][off + i] = {3: -1, 4: -2, 6: -3}[m]
        off += n
    return a


class RootModel:
    """Weyl group acting on its root system, elements as permutations of
    the root list.  Length is the number of positive roots sent negative;
    the Bruhat order is generated by covers v > v t with t a reflection."""

    def __init__(self, text):
        a = _cartan(text)
        rank = len(a)
        simple = [tuple(1 if k == i else 0 for k in range(rank))
                  for i in range(rank)]
        roots, index = list(simple), {r: k for k, r in enumerate(simple)}
        k = 0
        while k < len(roots):
            for i in range(rank):
                r = self._reflect(a, i, roots[k])
                if r not in index:
                    index[r] = len(roots)
                    roots.append(r)
            k += 1
        self.positive = [all(c >= 0 for c in r) for r in roots]
        self.simple = [tuple(index[self._reflect(a, i, r)] for r in roots)
                       for i in range(rank)]
        self.identity = tuple(range(len(roots)))

    @staticmethod
    def _reflect(a, i, root):
        pairing = sum(a[i][j] * root[j] for j in range(len(root)))
        return tuple(c - pairing if j == i else c for j, c in enumerate(root))

    @staticmethod
    def compose(u, v):
        """(u v)(root) = u(v(root))."""
        return tuple(u[k] for k in v)

    def from_word(self, word):
        w = self.identity
        for s in word:
            w = self.compose(w, self.simple[s])
        return w

    def length(self, w):
        return sum(1 for k, p in enumerate(w)
                   if self.positive[k] and not self.positive[p])

    @property
    def positive_roots(self):
        return sum(self.positive)

    def all_words(self):
        """A reduced word for every element, breadth first by length."""
        words, seen, frontier = [()], {self.identity}, [((), self.identity)]
        while frontier:
            nxt = []
            for word, w in frontier:
                for s, g in enumerate(self.simple):
                    u = self.compose(w, g)
                    if u not in seen:
                        seen.add(u)
                        words.append(word + (s,))
                        nxt.append((word + (s,), u))
            frontier = nxt
        return tuple(words)


class IndexedGroup:
    """The program's element indexing, recomputed in a :class:`RootModel`.

    ``words[i]`` is the program's reduced word for index i.  Building the
    model fails if two words give the same element or a word is not
    reduced, so the indexing itself is checked on the way.
    """

    def __init__(self, text, words):
        self.model = model = RootModel(text)
        perms = [model.from_word(w) for w in words]
        self.index = index = {p: i for i, p in enumerate(perms)}
        if len(index) != len(perms):
            raise ValueError("two program words give the same element")
        for w, p in zip(words, perms):
            if model.length(p) != len(w):
                raise ValueError(f"word {w} is not reduced")
        self.size = len(perms)
        self.lengths = [len(w) for w in words]
        w0 = max(range(self.size), key=lambda i: self.lengths[i])
        if self.lengths[w0] != model.positive_roots:
            raise ValueError("no element sends every positive root negative")
        self.w0_left = [index[model.compose(perms[w0], p)] for p in perms]
        reflections = {model.compose(model.compose(p, s), self._inverse(p))
                       for p in perms for s in model.simple}
        self.covers_down = []
        for v, p in enumerate(perms):
            mask = 0
            for t in reflections:
                u = index[model.compose(p, t)]
                if self.lengths[u] == self.lengths[v] - 1:
                    mask |= 1 << u
            self.covers_down.append(mask)
        self.full = (1 << self.size) - 1

    @staticmethod
    def _inverse(p):
        out = [0] * len(p)
        for k, q in enumerate(p):
            out[q] = k
        return tuple(out)

    def below_masks(self):
        """Bruhat principal ideals as bitmasks: transitive closure of the
        covers, built in order of length."""
        below = [0] * self.size
        for v in sorted(range(self.size), key=lambda i: self.lengths[i]):
            mask, m = 1 << v, self.covers_down[v]
            while m:
                low = m & -m
                mask |= below[low.bit_length() - 1]
                m ^= low
            below[v] = mask
        return below

    def is_down_closed(self, mask):
        m = mask
        while m:
            low = m & -m
            if self.covers_down[low.bit_length() - 1] & ~mask:
                return False
            m ^= low
        return True

    def w0_shift(self, mask):
        out, m = 0, mask
        while m:
            low = m & -m
            out |= 1 << self.w0_left[low.bit_length() - 1]
            m ^= low
        return out

    def count_balanced_brute_force(self):
        """Try one member of every pair {w, w0 w}: 2^(|W|/2) candidates."""
        pairs, seen = [], set()
        for i in range(self.size):
            if i not in seen:
                pairs.append((i, self.w0_left[i]))
                seen.update(pairs[-1])
        count = 0
        for choice in range(1 << len(pairs)):
            mask = 0
            for k, (a, b) in enumerate(pairs):
                mask |= 1 << (b if (choice >> k) & 1 else a)
            if self.is_down_closed(mask):
                count += 1
        return count


def tableau_leq(u, v):
    """Bruhat order of S_n on one-line permutations: every sorted prefix
    of u is entrywise at most that of v (Bjorner-Brenti, Thm 2.1.5)."""
    for i in range(1, len(u)):
        if any(a > b for a, b in zip(sorted(u[:i]), sorted(v[:i]))):
            return False
    return True


# --- exact flag positions ------------------------------------------------------

def _integer_columns(rows):
    """Integer matrix with the same column spans: each column scaled by the
    common denominator of its (exact) entries."""
    fr = [[Fraction(x) for x in row] for row in rows]
    cols = list(zip(*fr))
    out = []
    for col in cols:
        den = math.lcm(*(x.denominator for x in col))
        out.append([int(x * den) for x in col])
    return out  # list of columns


def integer_rank(columns):
    """Rank of an integer matrix given by columns (fraction-free
    Gaussian elimination, exact)."""
    rows = [list(r) for r in zip(*columns)] if columns else []
    rank, ncols = 0, len(columns)
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            if f:
                rows[r] = [p[c] * x - f * y for x, y in zip(rows[r], p)]
                g = math.gcd(*rows[r])
                if g > 1:
                    rows[r] = [x // g for x in rows[r]]
        rank += 1
    return rank


def exact_position(a, b):
    """One-line position of the flag of a relative to the flag of b.

    a, b are square matrices (exact rationals or floats, read exactly);
    the i-th subspace is the span of the first i columns.  With
    d[i][j] = dim(A_i meet B_j) = i + j - rank[A_i | B_j], the entry w(j)
    is the first i at which d[i][j] exceeds d[i][j-1].
    """
    ca, cb = _integer_columns(a), _integer_columns(b)
    n = len(ca)
    d = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            d[i][j] = i + j - integer_rank(ca[:i] + cb[:j])
    w = []
    for j in range(1, n + 1):
        w.append(next(i for i in range(1, n + 1) if d[i][j] > d[i][j - 1]))
    return tuple(w)


def one_line_label(w):
    return "".join(str(x) for x in w)


# --- words in generators -----------------------------------------------------------

def word_matrix(word, generators):
    """Product of letters: 'a' is generator 0, 'A' its inverse, and so on."""
    n = generators[0].shape[0]
    m = np.eye(n)
    for c in word:
        g = generators[ord(c.lower()) - ord("a")]
        m = m @ (g if c.islower() else np.linalg.inv(g))
    return m


def is_reduced(word):
    return not any(a != b and a.lower() == b.lower()
                   for a, b in zip(word, word[1:]))


def iterated_commutator(mats):
    """[[m1, m2], m3], ... as formed by the nilpotence test."""
    inv = np.linalg.inv
    cm = mats[0] @ mats[1] @ inv(mats[0]) @ inv(mats[1])
    for mk in mats[2:]:
        cm = cm @ mk @ inv(cm) @ inv(mk)
    return cm


def flag_angle_3(a, b):
    """Largest principal angle between corresponding subspaces of two
    orthonormal frames of R^3: the line is column 0 and the plane has
    normal column 2."""
    c_line = min(1.0, abs(float(a[:, 0] @ b[:, 0])))
    c_plane = min(1.0, abs(float(a[:, 2] @ b[:, 2])))
    return max(math.acos(c_line), math.acos(c_plane))


def pairwise_min_angle_3(frames):
    """Smallest flag_angle_3 over distinct pairs of a stack of frames."""
    f = np.asarray(frames)
    line = np.abs(f[:, :, 0] @ f[:, :, 0].T)
    plane = np.abs(f[:, :, 2] @ f[:, :, 2].T)
    worst = np.minimum(line, plane)
    np.fill_diagonal(worst, 0.0)
    return float(np.arccos(np.clip(worst.max(), -1.0, 1.0)))


# --- diagonal flat closed forms ----------------------------------------------------

def flat_delta(a, b):
    """Chamber-valued distance between exp(diag a) and exp(diag b):
    half the descending rearrangement of b - a, centred."""
    v = 0.5 * np.sort(np.asarray(b, float) - np.asarray(a, float))[::-1]
    return v - v.mean()


def default_functional(n):
    c = np.array([n + 1 - 2 * i for i in range(1, n + 1)], dtype=float)
    return c - c.mean()


def flat_finsler(a, b):
    return float(default_functional(len(a)) @ flat_delta(a, b))


def flat_riemannian(a, b):
    return 2.0 * float(np.linalg.norm(flat_delta(a, b)))


def sl3_chart_vector(x, y):
    ex = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    ey = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
    return x * ex + y * ey


def flat_path_report(vectors, window, L, A):
    """Quasi-isometry margins and window betweenness defects of a path in
    the diagonal flat, from the closed-form distances."""
    y = np.asarray(vectors, dtype=float)
    m = len(y)
    diff = y[None, :, :] - y[:, None, :]          # diff[s, t] = y_t - y_s
    half = 0.5 * np.sort(diff, axis=2)[:, :, ::-1]
    half -= half.mean(axis=2, keepdims=True)
    fins = half @ default_functional(y.shape[1])
    riem = 2.0 * np.linalg.norm(half, axis=2)
    s, t = np.triu_indices(m, 1)
    gap = t - s
    qi_lower = float((riem[s, t] - (gap / L - A)).min())
    qi_upper = float(((L * gap + A) - riem[s, t]).min())
    lengths, defects = [], []
    for g in range(2, m):
        if g <= window:
            continue
        worst = 0.0
        for s0 in range(m - g):
            t0 = s0 + g
            inner = fins[s0, s0 + 1:t0] + fins[s0 + 1:t0, t0] - fins[s0, t0]
            worst = max(worst, float(inner.max()))
        lengths.append(g)
        defects.append(worst)
    return qi_lower, qi_upper, lengths, defects


# --- configurations and weights -----------------------------------------------------

def heaviest_point_mass(angles, weights):
    """Largest total weight sitting at one point of the circle (exact)."""
    mass = {}
    for a, w in zip(angles, weights):
        mass[Fraction(a)] = mass.get(Fraction(a), 0) + Fraction(w)
    return max(mass.values()), sum(Fraction(w) for w in weights)


def in_diagonal_thickening(angles, weights, strict):
    """Strict: not semistable (a point carries more than half the mass).
    Nonstrict: not stable (a point carries at least half)."""
    top, total = heaviest_point_mass(angles, weights)
    return 2 * top > total if strict else 2 * top >= total


def subset_sum_walls(weights):
    """Index sets containing 0 whose weight is exactly half the total."""
    vals = [Fraction(w) for w in weights]
    total, n = sum(vals), len(vals)
    walls = []
    for mask in range(1 << (n - 1)):
        subset = [0] + [i + 1 for i in range(n - 1) if (mask >> i) & 1]
        if 2 * sum(vals[i] for i in subset) == total:
            walls.append(subset)
    return sorted(walls)


@lru_cache(maxsize=None)
def indexed_group(text, words=None):
    """IndexedGroup over the given words, or over the model's own words."""
    return IndexedGroup(text, words or RootModel(text).all_words())
