"""Finite Weyl groups of types A, B, D, G2, F4 and their direct products.

Elements are fully enumerated with canonical indices (sorted breadth-first
by word length), so word length, reduced words, inverses and the Bruhat
order are all table lookups after construction.

Every irreducible factor is a permutation group on one small finite set
S: the orbit of the standard basis vectors under the simple reflections
of the exact ambient realization (rationals, and Q(sqrt 3) for G2).  S
has n+1 vectors for A(n), 2n for B(n) and D(n), 12 for G2 and 24 for F4.
An element is the permutation it induces on S, so composition is a tuple
lookup, and its reflection matrix is read off from the images of the
basis vectors, which keeps orthogonality and the homomorphism property
exact.  A product group enumerates tuples of factor indices with the
same breadth-first enumerator.

For type A(n) the matrices are (n+1) x (n+1) permutation matrices; they
act on the trace-zero hyperplane, which is the rank-n model flat.  All
other families act directly on R^rank.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from .errors import GroupMismatch, GroupTooLarge, UnsupportedType

DEFAULT_MAX_ORDER = 10 ** 6
# full |W| x |W| Bruhat matrices are only memoized below this order
ORDER_MATRIX_CAP = 4 * 10 ** 4

_FAMILY_NAMES = ("A", "B", "D", "G", "F")


class QSqrt3:
    """Exact scalar a + b*sqrt(3) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = a if isinstance(a, Fraction) else Fraction(a)
        self.b = b if isinstance(b, Fraction) else Fraction(b)

    def __add__(self, other):
        return QSqrt3(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return QSqrt3(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        return QSqrt3(self.a * other.a + 3 * self.b * other.b,
                      self.a * other.b + self.b * other.a)

    def __truediv__(self, other):
        norm = other.a * other.a - 3 * other.b * other.b
        return self * QSqrt3(other.a / norm, -other.b / norm)

    def __bool__(self):
        return bool(self.a or self.b)

    def __neg__(self):
        return QSqrt3(-self.a, -self.b)

    def __eq__(self, other):
        return isinstance(other, QSqrt3) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __float__(self):
        return float(self.a) + float(self.b) * 3 ** 0.5

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"({self.a}+{self.b}r3)"

    def key(self):
        return (self.a.numerator, self.a.denominator,
                self.b.numerator, self.b.denominator)


_Q0 = QSqrt3(0)
_Q1 = QSqrt3(1)


def _mat_mul(x, y):
    n = len(x)
    return tuple(
        tuple(sum((x[i][k] * y[k][j] for k in range(n)), _Q0) for j in range(n))
        for i in range(n)
    )


def _mat_transpose(x):
    n = len(x)
    return tuple(tuple(x[j][i] for j in range(n)) for i in range(n))


def _dot(u, v):
    return reduce(operator.add, map(operator.mul, u, v))


def _as_q(x):
    return x if isinstance(x, QSqrt3) else QSqrt3(x)


def _compose(x, g):
    # group law "x then g" on permutations of S: (x*g)(k) = g(x(k)).  An
    # element moves row vectors, v -> v M, so the matrix of a product is
    # the product of the matrices.  This convention makes left
    # multiplication by the longest element of a type A group act on
    # one-line strings by reversal, matching the usual poset pictures.
    return tuple(map(g.__getitem__, x))


def _factor_step(x, g):
    fi, column = g
    return x[:fi] + (column[x[fi]],) + x[fi + 1:]


@dataclass(frozen=True)
class _Family:
    """One irreducible factor: its rank and exact ambient realization."""

    name: str
    rank: int

    @property
    def order(self):
        n = self.rank
        if self.name == "A":
            return math.factorial(n + 1)
        if self.name == "B":
            return 2 ** n * math.factorial(n)
        if self.name == "D":
            return 2 ** (n - 1) * math.factorial(n)
        if self.name == "G":
            return 12
        if self.name == "F":
            return 1152
        raise UnsupportedType(self.name)

    @property
    def ambient_dim(self):
        if self.name == "A":
            return self.rank + 1
        if self.name == "G":
            return 2
        if self.name == "F":
            return 4
        return self.rank

    def simple_roots(self):
        if self.name == "G":
            return [(_Q0, _Q1), (_Q1, QSqrt3(0, -1))]
        n, dim = self.rank, self.ambient_dim
        if self.name == "F":
            h = Fraction(1, 2)
            roots = [(0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h)]
        else:
            # e_i - e_{i+1}, then e_n for B and e_{n-1} + e_n for D
            roots = [tuple((k == i) - (k == i + 1) for k in range(dim))
                     for i in range(dim - 1)]
            if self.name == "B":
                roots.append(tuple(int(k == n - 1) for k in range(n)))
            if self.name == "D":
                roots.append(tuple(int(k >= n - 2) for k in range(n)))
        return [tuple(map(Fraction, r)) for r in roots]

    def vector_key(self, v):
        """Sort key of S.  It fixes the canonical element order: signed
        index order for A, B, D, entry-wise exact keys for G2 and F4."""
        if self.name in ("G", "F"):
            return tuple(_as_q(x).key() for x in v)
        return v[::-1]

    def permutation_model(self):
        """S sorted by :meth:`vector_key`, the simple reflections as
        permutations of S, and the positions of the basis vectors in S."""
        roots = self.simple_roots()
        # reflection in alpha: v -> v - (v . coroot) alpha, with the
        # coroot 2 alpha / (alpha . alpha)
        coroots = [tuple((a + a) / _dot(alpha, alpha) for a in alpha)
                   for alpha in roots]
        scalar = type(roots[0][0])
        dim = self.ambient_dim
        basis = [tuple(scalar(int(k == j)) for k in range(dim))
                 for j in range(dim)]
        orbit = list(basis)
        seen = set(orbit)
        image = {}
        for v in orbit:
            for s, (alpha, coroot) in enumerate(zip(roots, coroots)):
                c = _dot(v, coroot)
                w = tuple(x - c * a for x, a in zip(v, alpha)) if c else v
                if w not in seen:
                    seen.add(w)
                    orbit.append(w)
                image[v, s] = w
        orbit.sort(key=self.vector_key)
        pos = {v: k for k, v in enumerate(orbit)}
        gens = [tuple(pos[image[v, s]] for v in orbit)
                for s in range(len(roots))]
        return orbit, gens, tuple(pos[b] for b in basis)


def _enumerate(ident, gens, compose, key):
    """Breadth-first closure of ``ident`` under right multiplication by
    the generators.  Each length level is sorted by ``key``, which makes
    the indices canonical; an element's parent is its first predecessor
    in index order.  Returns the elements, the index of each key, the
    lengths, the parents and the generator multiplication table."""
    elements = [ident]
    index = {key(ident): 0}
    lengths = [0]
    parents = [(-1, -1)]
    neighbours = []  # per element, in index order: keys of x*g
    frontier = [0]
    while frontier:
        new = {}
        for ei in frontier:
            ks = []
            for s, g in enumerate(gens):
                y = compose(elements[ei], g)
                k = key(y)
                ks.append(k)
                if k not in index and k not in new:
                    new[k] = (y, ei, s)
            neighbours.append(ks)
        frontier = []
        for k in sorted(new):
            y, parent, s = new[k]
            index[k] = len(elements)
            frontier.append(len(elements))
            elements.append(y)
            lengths.append(lengths[parent] + 1)
            parents.append((parent, s))
    gen_mult = [[index[k] for k in ks] for ks in neighbours]
    return elements, index, lengths, parents, gen_mult


@dataclass(frozen=True)
class CoxeterType:
    """A finite crystallographic type: a product of supported factors."""

    factors: tuple

    @staticmethod
    def parse(text):
        """Parse descriptors like ``A2``, ``B(3)``, ``A1^4``, ``A2xG2``."""
        if isinstance(text, CoxeterType):
            return text
        text = text.strip().replace("*", "x").replace("product-of-A1", "A1^")
        text = text.replace("(", "").replace(")", "")
        factors = []
        for part in text.split("x"):
            part = part.strip()
            m = re.fullmatch(r"([A-Za-z])\s*(\d+)\s*(?:\^\s*(\d+))?", part)
            if not m:
                raise UnsupportedType(f"cannot parse Coxeter type {part!r}")
            name, rank, power = m.group(1).upper(), int(m.group(2)), m.group(3)
            power = int(power) if power else 1
            if name not in _FAMILY_NAMES:
                raise UnsupportedType(f"family {name!r} not supported")
            if name == "G" and rank != 2:
                raise UnsupportedType("only G2 is supported")
            if name == "F" and rank != 4:
                raise UnsupportedType("only F4 is supported")
            if name == "D" and rank < 2:
                raise UnsupportedType("D requires rank >= 2")
            if name == "B" and rank < 2:
                raise UnsupportedType("B requires rank >= 2 (B1 = A1)")
            if rank < 1:
                raise UnsupportedType("rank must be positive")
            for _ in range(power):
                factors.append(_Family(name, rank))
        if not factors:
            raise UnsupportedType("empty type")
        return CoxeterType(tuple(factors))

    @property
    def rank(self):
        return sum(f.rank for f in self.factors)

    @property
    def order(self):
        out = 1
        for f in self.factors:
            out *= f.order
        return out

    @property
    def descriptor(self):
        if len(self.factors) > 1 and all(f == _Family("A", 1) for f in self.factors):
            return f"A1^{len(self.factors)}"
        return "x".join(f"{f.name}{f.rank}" for f in self.factors)

    @property
    def is_a1_power(self):
        return all(f == _Family("A", 1) for f in self.factors)

    def __str__(self):
        return self.descriptor


class WeylElement:
    """Element of a :class:`WeylGroup`, identified by its canonical index."""

    __slots__ = ("group", "index")

    def __init__(self, group, index):
        self.group = group
        self.index = index

    @property
    def length(self):
        return self.group.lengths[self.index]

    @property
    def word(self):
        return self.group.words[self.index]

    def inverse(self):
        return WeylElement(self.group, self.group.inverse_table[self.index])

    def matrix(self):
        return self.group.matrix(self.index)

    def label(self):
        return self.group.label(self.index)

    def __mul__(self, other):
        return multiply(self, other)

    def __eq__(self, other):
        return (isinstance(other, WeylElement)
                and self.group is other.group and self.index == other.index)

    def __hash__(self):
        return hash((id(self.group), self.index))

    def __repr__(self):
        return f"<{self.group.ctype} {self.label()}>"


class WeylGroup:
    """Fully enumerated finite Weyl group with exact reflection matrices."""

    def __init__(self, ctype, max_order=DEFAULT_MAX_ORDER):
        ctype = CoxeterType.parse(ctype)
        if ctype.order > max_order:
            raise GroupTooLarge(
                f"type {ctype} has order {ctype.order} > cap {max_order}")
        self.ctype = ctype
        self._factor_groups = None
        if len(ctype.factors) > 1:
            fgs = [WeylGroup(CoxeterType((f,)), max_order)
                   for f in ctype.factors]
            self._factor_groups = fgs
            # elements are tuples of factor indices; a generator is a
            # factor position with that factor's column of gen_mult
            gens = [(fi, [row[s] for row in fg.gen_mult])
                    for fi, fg in enumerate(fgs)
                    for s in range(fg.num_generators)]
            built = _enumerate((0,) * len(fgs), gens, _factor_step,
                               lambda x: x)
        else:
            self._family = fam = ctype.factors[0]
            orbit, gens, self._basis = fam.permutation_model()
            self._rows = [tuple(map(_as_q, v)) for v in orbit]
            # the key of a permutation is where it sends the basis vectors
            # (every factor has ambient dimension >= 2, so this is a tuple)
            built = _enumerate(tuple(range(len(orbit))), gens, _compose,
                               operator.itemgetter(*self._basis))
        (self.elements, self._index, self.lengths, self._parents,
         self.gen_mult) = built
        assert len(self.elements) == ctype.order, (ctype, len(self.elements))
        self.num_generators = len(gens)
        self._finish()
        self._leq_masks = None
        self._reflections = None
        self._w0_left = None

    # --- construction -------------------------------------------------------

    def _finish(self):
        words = [()]
        for parent, s in self._parents[1:]:
            words.append(words[parent] + (s,))
        self.words = words
        top = self.lengths[-1]
        tops = [i for i, l in enumerate(self.lengths) if l == top]
        assert len(tops) == 1, "longest element must be unique"
        self.w0_index = tops[0]
        assert self.gen_fold(self.w0_index, self.words[self.w0_index]) == 0, \
            "w0 must be an involution"
        self.inverse_table = [self.gen_fold(0, reversed(w)) for w in self.words]

    # --- basic accessors ----------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return (WeylElement(self, i) for i in range(len(self.elements)))

    @property
    def identity(self):
        return WeylElement(self, 0)

    @property
    def simple_generators(self):
        return [WeylElement(self, self.gen_mult[0][s])
                for s in range(self.num_generators)]

    @property
    def w0(self):
        return WeylElement(self, self.w0_index)

    def element(self, index):
        return WeylElement(self, index)

    def gen_fold(self, start, word):
        i = start
        for s in word:
            i = self.gen_mult[i][s]
        return i

    def mult_indices(self, i, j):
        return self.gen_fold(i, self.words[j])

    def element_from_word(self, word):
        """Evaluate a generator-index word (not necessarily reduced)."""
        return WeylElement(self, self.gen_fold(0, tuple(word)))

    def matrix(self, index):
        if self._factor_groups is None:
            # row j is the image of the j-th basis vector under v -> v M
            x = self.elements[index]
            return tuple(self._rows[x[b]] for b in self._basis)
        blocks = [fg.matrix(c)
                  for fg, c in zip(self._factor_groups, self.elements[index])]
        dim = sum(len(b) for b in blocks)
        rows = [[_Q0] * dim for _ in range(dim)]
        off = 0
        for b in blocks:
            m = len(b)
            for i in range(m):
                for j in range(m):
                    rows[off + i][off + j] = b[i][j]
            off += m
        return tuple(tuple(r) for r in rows)

    @property
    def ambient_dim(self):
        return sum(f.ambient_dim for f in self.ctype.factors)

    # --- labels ---------------------------------------------------------------

    def label(self, index):
        """Human-readable label: sign pattern for A1 powers, one-line
        string for type A, letter word otherwise."""
        if self.ctype.is_a1_power:
            return "".join("+" if s > 0 else "-" for s in self.sign_vector(index))
        if self._factor_groups is None and self._family.name == "A":
            return "".join(map(str, self.one_line(index)))
        return self.word_label(index)

    def word_label(self, index):
        word = self.words[index]
        if not word:
            return "e"
        if self.num_generators <= 26:
            return "".join(chr(ord("a") + s) for s in word)
        return ".".join(f"s{s + 1}" for s in word)

    def element_from_label(self, text):
        """Inverse of :meth:`label` / :meth:`word_label` (also accepts
        letter words for any type)."""
        text = text.strip()
        if text in ("e", "", "1"):
            return self.identity
        if self.ctype.is_a1_power and set(text) <= {"+", "-"}:
            return self.element_from_signs(
                [1 if c == "+" else -1 for c in text])
        if self._factor_groups is None and self._family.name == "A" \
                and text.isdigit():
            key = tuple(int(c) - 1 for c in text)
            if key in self._index:
                return WeylElement(self, self._index[key])
        if re.fullmatch(r"[a-z]+", text) and self.num_generators <= 26:
            return self.element_from_word(ord(c) - ord("a") for c in text)
        word = [int(p[1:]) - 1 for p in text.split(".") if p]
        return self.element_from_word(word)

    def sign_vector(self, index):
        """Element of an A1 power as a +-1 vector."""
        if not self.ctype.is_a1_power:
            raise GroupMismatch("sign vectors only exist for A1 powers")
        if self._factor_groups is None:
            return (1,) if index == 0 else (-1,)
        return tuple(1 if c == 0 else -1 for c in self.elements[index])

    def element_from_signs(self, signs):
        if not self.ctype.is_a1_power:
            raise GroupMismatch("sign vectors only exist for A1 powers")
        if self._factor_groups is None:
            return WeylElement(self, 0 if signs[0] > 0 else 1)
        key = tuple(0 if s > 0 else 1 for s in signs)
        return WeylElement(self, self._index[key])

    def one_line(self, index):
        """Type A element as a one-line permutation tuple."""
        if self._factor_groups is not None or self._family.name != "A":
            raise GroupMismatch("one-line form only exists for type A")
        # S is the basis itself, so an element is its 0-based one-line form
        return tuple(v + 1 for v in self.elements[index])

    def element_from_one_line(self, perm):
        if self._factor_groups is not None or self._family.name != "A":
            raise GroupMismatch("one-line form only exists for type A")
        return WeylElement(self, self._index[tuple(v - 1 for v in perm)])

    # --- Bruhat order ---------------------------------------------------------

    def leq_masks(self):
        """Per element v, the bitmask of { u : u <= v } (Bruhat)."""
        if self._leq_masks is None:
            if len(self.elements) > ORDER_MATRIX_CAP:
                raise GroupTooLarge(
                    f"order matrix capped at {ORDER_MATRIX_CAP} elements")
            masks = [0] * len(self.elements)
            masks[0] = 1
            for v in range(1, len(self.elements)):
                s = next(s for s in range(self.num_generators)
                         if self.lengths[self.gen_mult[v][s]] < self.lengths[v])
                vs = self.gen_mult[v][s]
                base = masks[vs]
                shifted = 0
                m = base
                while m:
                    low = m & -m
                    shifted |= 1 << self.gen_mult[low.bit_length() - 1][s]
                    m ^= low
                masks[v] = base | shifted
            self._leq_masks = masks
        return self._leq_masks

    def leq_indices(self, u, v):
        if self._factor_groups is not None:
            return all(fg.leq_indices(cu, cv)
                       for fg, cu, cv in zip(self._factor_groups,
                                             self.elements[u],
                                             self.elements[v]))
        if len(self.elements) <= ORDER_MATRIX_CAP:
            return (self.leq_masks()[v] >> u) & 1 == 1
        return self._leq_recursive(u, v)

    def _leq_recursive(self, u, v):
        # standard descent recursion, memoized per pair; used only above
        # the order-matrix cap
        if not hasattr(self, "_leq_memo"):
            self._leq_memo = {}
        memo = self._leq_memo
        stack = [(u, v)]
        while stack:
            cu, cv = stack[-1]
            if (cu, cv) in memo:
                stack.pop()
                continue
            if cu == 0:
                memo[(cu, cv)] = True
                stack.pop()
                continue
            if self.lengths[cu] > self.lengths[cv] or cv == 0:
                memo[(cu, cv)] = False
                stack.pop()
                continue
            if cu == cv:
                memo[(cu, cv)] = True
                stack.pop()
                continue
            s = next(s for s in range(self.num_generators)
                     if self.lengths[self.gen_mult[cv][s]] < self.lengths[cv])
            vs = self.gen_mult[cv][s]
            us = self.gen_mult[cu][s]
            child = (us, vs) if self.lengths[us] < self.lengths[cu] else (cu, vs)
            if child in memo:
                memo[(cu, cv)] = memo[child]
                stack.pop()
            else:
                stack.append(child)
        return memo[(u, v)]

    def reflections(self):
        """All conjugates of the simple generators, as indices."""
        if self._reflections is None:
            out = set()
            for s in range(self.num_generators):
                gs = self.gen_mult[0][s]
                for g in range(len(self.elements)):
                    gsi = self.gen_fold(g, self.words[gs])
                    out.add(self.gen_fold(gsi, self.words[self.inverse_table[g]]))
            self._reflections = sorted(out)
            assert len(self._reflections) == self.lengths[self.w0_index], \
                "reflection count must equal the number of positive roots"
        return self._reflections

    def w0_left_table(self):
        """Index table of left multiplication by the longest element."""
        if self._w0_left is None:
            self._w0_left = [self.mult_indices(self.w0_index, i)
                             for i in range(len(self.elements))]
        return self._w0_left

    def order_matrix_json(self):
        """Bruhat order as JSON: labels plus 0/1 matrix leq[u][v]."""
        n = len(self.elements)
        labels = [self.label(i) for i in range(n)]
        leq = [[1 if self.leq_indices(u, v) else 0 for v in range(n)]
               for u in range(n)]
        return json.dumps({"type": self.ctype.descriptor,
                           "labels": labels, "leq": leq})


@lru_cache(maxsize=64)
def _cached_group(descriptor):
    return WeylGroup(descriptor)


def build_group(ctype, max_order=DEFAULT_MAX_ORDER):
    """Construct (and cache) the Weyl group of the given type."""
    ctype = CoxeterType.parse(ctype)
    if max_order != DEFAULT_MAX_ORDER:
        return WeylGroup(ctype, max_order)
    return _cached_group(ctype.descriptor)


def _same_group(u, v):
    if u.group is not v.group:
        raise GroupMismatch("elements belong to different groups")
    return u.group


def multiply(u, v):
    W = _same_group(u, v)
    return WeylElement(W, W.mult_indices(u.index, v.index))


def longest_element(W):
    return W.w0


def bruhat_leq(u, v):
    W = _same_group(u, v)
    return W.leq_indices(u.index, v.index)


def bruhat_covers(v):
    """All u covered by v: u = v r for a reflection r, length(v) - 1."""
    W = v.group
    out = []
    for r in W.reflections():
        u = W.gen_fold(v.index, W.words[r])
        if W.lengths[u] == W.lengths[v.index] - 1:
            out.append(WeylElement(W, u))
    out.sort(key=lambda e: e.index)
    return out


def opposition_involution(w):
    """The automorphism w -> w0 w w0 induced by the chamber duality.  On
    chamber vectors the duality is symspace.delta_iota."""
    W = w.group
    i = W.mult_indices(W.w0_index, w.index)
    return WeylElement(W, W.mult_indices(i, W.w0_index))


def subword_leq(u, v):
    """Brute-force Bruhat oracle: some subword of a reduced word of v is
    a reduced word for u.  Exponential in length(v); for tests."""
    W = _same_group(u, v)
    word = W.words[v.index]
    target_len = W.lengths[u.index]
    n = len(word)
    for mask in range(1 << n):
        if mask.bit_count() != target_len:
            continue
        i = 0
        for p in range(n):
            if (mask >> p) & 1:
                i = W.gen_mult[i][word[p]]
        if i == u.index and W.lengths[i] == target_len:
            return True
    return False


def poset_dot(W, highlight=None):
    """DOT digraph of the covering relations, ranked by length.

    ``highlight`` is an optional thickening (or set of element indices);
    its nodes are drawn with a double circle.
    """
    marked = set()
    if highlight is not None:
        members = getattr(highlight, "members", highlight)
        marked = {m.index if isinstance(m, WeylElement) else int(m)
                  for m in members}
    lines = ["digraph bruhat {", "  rankdir=BT;", '  node [shape=ellipse];']
    for i in range(len(W.elements)):
        attrs = [f'label="{W.label(i)}"']
        if i in marked:
            attrs.append("shape=doublecircle")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    by_len = {}
    for i, l in enumerate(W.lengths):
        by_len.setdefault(l, []).append(i)
    for l in sorted(by_len):
        row = " ".join(f"n{i};" for i in by_len[l])
        lines.append(f"  {{rank=same; {row}}}")
    for v in range(len(W.elements)):
        for u in bruhat_covers(WeylElement(W, v)):
            lines.append(f"  n{u.index} -> n{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
