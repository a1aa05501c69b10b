"""Finite Weyl groups of types A, B, D, G2, F4 and their direct products.

Elements are fully enumerated with canonical indices (sorted breadth-first
by word length), so word length, reduced words, inverses and the Bruhat
order are all table lookups after construction.

Every group is a permutation group on one small finite set S.  For an
irreducible factor, S is the orbit of the standard basis vectors under
the simple reflections of an ambient realization over the rationals:
n+1 vectors for A(n), 2n for B(n) and D(n), 6 for G2 and 24 for F4.
For a product, S is the disjoint union of the factors' sets, each
vector padded with zeros into its factor's block of coordinates.  An
element is the permutation it induces on S, so construction composes a
whole length level with the generators by one array indexing, and its
reflection matrix is read off from the images of the basis vectors,
which keeps orthogonality and the homomorphism property exact.

For type A(n) the matrices are (n+1) x (n+1) permutation matrices; they
act on the trace-zero hyperplane, which is the rank-n model flat.  G2
acts the same way on the sum-zero plane of R^3 (Bourbaki, plate IX), by
3 x 3 rational matrices.  All other families act directly on R^rank.
"""

from __future__ import annotations

import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain

import numpy as np

from .errors import GroupMismatch, GroupTooLarge, UnsupportedType

DEFAULT_MAX_ORDER = 10 ** 6
# full |W| x |W| Bruhat matrices are only memoized below this order
ORDER_MATRIX_CAP = 4 * 10 ** 4

_FAMILY_NAMES = ("A", "B", "D", "G", "F")


def _dot(u, v):
    return sum(map(operator.mul, u, v))


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
        if self.name in ("A", "G"):
            return self.rank + 1
        if self.name == "F":
            return 4
        return self.rank

    def simple_roots(self):
        n, dim = self.rank, self.ambient_dim
        if self.name == "G":
            # short, then long, in the sum-zero plane of R^3
            roots = [(0, 1, -1), (1, -2, 1)]
        elif self.name == "F":
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
            return tuple((x.numerator, x.denominator) for x in v)
        return v[::-1]

    def permutation_model(self):
        """S sorted by :meth:`vector_key`, the simple reflections as
        permutations of S, and the positions of the basis vectors in S."""
        roots = self.simple_roots()
        # reflection in alpha: v -> v - (v . coroot) alpha, with the
        # coroot 2 alpha / (alpha . alpha)
        coroots = [tuple((a + a) / _dot(alpha, alpha) for a in alpha)
                   for alpha in roots]
        dim = self.ambient_dim
        basis = [tuple(Fraction(int(k == j)) for k in range(dim))
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


def _enumerate(gens, bases):
    """Breadth-first closure of the identity under right multiplication
    by the generators, (factor, permutation) pairs, one length level per
    step.  The group law is "x then g", (x*g)(k) = g(x(k)): an element
    moves row vectors, v -> v M, so the matrix of a product is the
    product of the matrices, and left multiplication by the longest
    element of a type A group reverses one-line strings.

    An element is keyed by its images of the basis positions, ``bases``
    per factor, and a key is coded as one int64: a mixed-radix number
    whose columns are offset into their factor's block of S and take the
    block's size as radix.  ``GroupTooLarge`` is raised before any
    enumeration when the product of the radices passes 2**63.  A level
    composes its frontier with every generator at once, in (parent,
    generator) order, and a candidate is new when its code is not among
    all codes seen so far; its parent is its first predecessor in index
    order.  One lexsort orders a level by the factors' (length, key)
    pairs in turn (the last length follows from the level), so the
    indices are canonical and a product orders each level by its tuples
    of factor indices.  The frontier's gen_mult rows are then read from
    its sorted candidate codes.  Returns the elements, the index of each
    key, the lengths, the parents and the gen_mult table."""
    perms = np.array([g for _, g in gens])
    factor = np.array([f for f, _ in gens])
    moved = perms != np.arange(perms.shape[1])
    cols, low, radix, layout = [], [], [], []
    for f, basis in enumerate(bases):
        block = [*np.flatnonzero(moved[factor == f].any(0)).tolist(), *basis]
        # a level sorts on [heads | keys] by each factor's (length, key)
        # in turn; the last factor's length follows from the level
        if f < len(bases) - 1:
            layout.append(f)
        layout += range(len(bases) - 1 + len(cols),
                        len(bases) - 1 + len(cols) + len(basis))
        cols += basis
        low += [min(block)] * len(basis)
        radix += [max(block) - min(block) + 1] * len(basis)
    width = (math.prod(radix) - 1).bit_length()
    if width > 63:
        raise GroupTooLarge(
            f"element keys need a {width}-bit code; int64 holds 63 bits")
    cols, layout, low = np.array(cols), np.array(layout[::-1]), np.array(low)
    weight = np.cumprod([1, *radix[:0:-1]])[::-1]
    bump = np.eye(len(bases), dtype=np.int64)[factor, :-1]
    rows = np.arange(perms.shape[1])[None]
    heads = np.zeros((1, len(bases) - 1), np.int64)  # all factors but the last
    seen = np.stack([(rows[:, cols] - low) @ weight, [0]])  # codes, indices
    levels, parents, gen_mult, start = [rows], [(-1, -1)], [], 0
    while len(rows):
        keys = perms[:, rows[:, cols]].swapaxes(0, 1).reshape(-1, len(cols))
        codes, first, inverse = np.unique(
            (keys - low) @ weight, return_index=True, return_inverse=True)
        at = np.minimum(np.searchsorted(seen[0], codes), seen.shape[1] - 1)
        new = seen[0, at] != codes
        parent, s = np.divmod(first[new], len(gens))
        heads = heads[parent] + bump[s]
        table = np.concatenate([heads, keys[first[new]]], axis=1)
        order = np.lexsort(table[:, layout].T)
        heads, parent, s = heads[order], parent[order], s[order]
        parents += zip((parent + start).tolist(), s.tolist())
        start += len(rows)
        found = seen[1, at]
        found[np.flatnonzero(new)[order]] = np.arange(len(order)) + start
        gen_mult.append(found[inverse])
        seen = np.concatenate([seen, [codes[new], found[new]]], axis=1)
        seen = seen[:, seen[0].argsort(kind="stable")]  # merges two runs
        rows = perms[s[:, None], rows[parent]]
        levels.append(rows)
    elements = np.concatenate(levels)
    index = dict(zip(zip(*elements[:, cols].T.tolist()), range(start)))
    lengths = np.repeat(np.arange(len(levels)), list(map(len, levels)))
    return (list(zip(*elements.T.tolist())), index, lengths.tolist(), parents,
            np.concatenate(gen_mult).reshape(start, len(gens)).tolist())


@dataclass(frozen=True)
class CoxeterType:
    """A finite crystallographic type: a product of supported factors."""

    factors: tuple

    @staticmethod
    def parse(text):
        """Parse descriptors like ``A2``, ``B(3)``, ``A1^4``, ``A2xG2``."""
        if isinstance(text, CoxeterType):
            return text
        if not isinstance(text, str):
            raise UnsupportedType(f"a Coxeter type is a string, not {text!r}")
        return _parse_descriptor(text)

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

    @property
    def is_type_a(self):
        return len(self.factors) == 1 and self.factors[0].name == "A"

    def permutation_model(self):
        """S, the disjoint union of the factors' sets with each vector
        padded by zeros into its factor's block of coordinates; the simple
        reflections as (factor, permutation of S); per factor, the
        positions of its basis vectors in S."""
        models = [f.permutation_model() for f in self.factors]
        size = sum(len(part) for part, _, _ in models)
        dim = sum(len(basis) for _, _, basis in models)
        orbit, gens, bases = [], [], []
        for fi, (part, fgens, basis) in enumerate(models):
            off, lead = len(orbit), sum(map(len, bases))
            orbit += [(0,) * lead + v + (0,) * (dim - lead - len(v))
                      for v in part]
            gens += [(fi, (*range(off), *(off + k for k in g),
                           *range(off + len(part), size))) for g in fgens]
            bases.append(tuple(off + b for b in basis))
        return orbit, gens, bases

    def __str__(self):
        return self.descriptor


@lru_cache(maxsize=256)
def _parse_descriptor(text):
    """The CoxeterType of a descriptor string, parsed once per string."""
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

    def __index__(self):
        return self.index

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
        orbit, gens, self._bases = ctype.permutation_model()
        self._basis = [b for basis in self._bases for b in basis]
        self._rows = [tuple(map(Fraction, v)) for v in orbit]
        (self.elements, self._index, self.lengths, self._parents,
         self.gen_mult) = _enumerate(gens, self._bases)
        assert len(self.elements) == ctype.order, (ctype, len(self.elements))
        self.num_generators = len(gens)
        self._finish()
        self._leq_masks = None
        self._reflections = None
        self._w0_left = None
        self._signs = None

    # --- construction -------------------------------------------------------

    def _finish(self):
        words = [()]
        for parent, s in self._parents[1:]:
            words.append(words[parent] + (s,))
        self.words = words
        top = self.lengths[-1]
        assert self.lengths.count(top) == 1, "longest element must be unique"
        self.w0_index = self.lengths.index(top)
        assert self.gen_fold(self.w0_index, self.words[self.w0_index]) == 0, \
            "w0 must be an involution"
        # the inverse of an element is its inverse permutation of S
        rows = np.fromiter(chain.from_iterable(self.elements), np.int64)
        inverse = np.argsort(rows.reshape(len(self.elements), -1), axis=1)
        self.inverse_table = list(map(self._index.__getitem__,
                                      zip(*inverse[:, self._basis].T.tolist())))

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
        word = tuple(word)
        if not all(0 <= s < self.num_generators for s in word):
            raise ValueError(f"word {list(word)} names a generator outside "
                             f"0..{self.num_generators - 1} of {self.ctype}")
        return WeylElement(self, self.gen_fold(0, word))

    def matrix(self, index):
        # row j is the image of the j-th basis vector under v -> v M
        x = self.elements[index]
        return tuple(self._rows[x[b]] for b in self._basis)

    @property
    def ambient_dim(self):
        return len(self._basis)

    # --- labels ---------------------------------------------------------------

    def label(self, index):
        """Human-readable label: sign pattern for A1 powers, one-line
        string for type A, letter word otherwise."""
        if self.ctype.is_a1_power:
            return "".join("+" if s > 0 else "-" for s in self.sign_vector(index))
        if self.ctype.is_type_a:
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
        letter words for any type); ``ValueError`` if it names no element."""
        text = text.strip()
        if text in ("e", "", "1"):
            return self.identity
        if self.ctype.is_a1_power and set(text) <= {"+", "-"}:
            return self.element_from_signs(
                [1 if c == "+" else -1 for c in text])
        word = ()
        if self.ctype.is_type_a and text.isdigit():
            if (key := tuple(int(c) - 1 for c in text)) in self._index:
                return WeylElement(self, self._index[key])
        elif re.fullmatch(r"[a-z]+", text) and self.num_generators <= 26:
            word = [ord(c) - ord("a") for c in text]
        elif re.fullmatch(r"s\d+(\.s\d+)*", text):
            word = [int(p[1:]) - 1 for p in text.split(".")]
        if word and all(0 <= s < self.num_generators for s in word):
            return self.element_from_word(word)
        raise ValueError(f"label {text!r} names no element of {self.ctype}")

    def sign_matrix(self):
        """Elements of an A1 power as the rows of a read-only (order x
        rank) int8 array of +-1: entry k is -1 when the element swaps
        factor k.  Read from ``elements`` at the first basis vector of
        each factor in one step, and cached; `sign_vector` and `label`
        read its rows."""
        if not self.ctype.is_a1_power:
            raise GroupMismatch("sign vectors only exist for A1 powers")
        if self._signs is None:
            fixed = [b for b, _ in self._bases]
            self._signs = np.where(np.array(self.elements)[:, fixed] == fixed,
                                   1, -1).astype(np.int8)
            self._signs.flags.writeable = False
        return self._signs

    def sign_vector(self, index):
        """Element of an A1 power as a +-1 vector (-1: swaps a factor)."""
        return tuple(self.sign_matrix()[index].tolist())

    def element_from_signs(self, signs):
        if not self.ctype.is_a1_power:
            raise GroupMismatch("sign vectors only exist for A1 powers")
        if len(signs) != self.ctype.rank:
            raise ValueError(f"sign vector of length {len(signs)} for "
                             f"{self.ctype} of rank {self.ctype.rank}")
        key = tuple(k for s, (b, o) in zip(signs, self._bases)
                    for k in ((b, o) if s > 0 else (o, b)))
        return WeylElement(self, self._index[key])

    def one_line(self, index):
        """Type A element as a one-line permutation tuple."""
        if not self.ctype.is_type_a:
            raise GroupMismatch("one-line form only exists for type A")
        # S is the basis itself, so an element is its 0-based one-line form
        return tuple(v + 1 for v in self.elements[index])

    def element_from_one_line(self, perm):
        if not self.ctype.is_type_a:
            raise GroupMismatch("one-line form only exists for type A")
        return WeylElement(self, self._index[tuple(v - 1 for v in perm)])

    # --- Bruhat order ---------------------------------------------------------

    def leq_masks(self):
        """Per element v, the bitmask of { u : u <= v } (Bruhat).

        For a right descent s of v, the row of v is the row of vs
        together with its right translate by s.  So each length is built
        from the rows of the length before, in numpy chunks of rows that
        share their first descent, with only that length kept packed."""
        if self._leq_masks is None:
            n = len(self.elements)
            if n > ORDER_MATRIX_CAP:
                raise GroupTooLarge(
                    f"order matrix capped at {ORDER_MATRIX_CAP} elements")
            right = np.array(self.gen_mult)
            lengths = np.array(self.lengths)
            descent = np.argmax(lengths[right] < lengths[:, None], axis=1)
            below = right[np.arange(n), descent]
            starts = np.searchsorted(lengths, np.arange(lengths[-1] + 2))
            level = np.packbits(np.arange(n) == 0, bitorder="little")[None]
            masks = [1]
            for lo, hi, prev in zip(starts[1:], starts[2:], starts):
                rows = np.empty((hi - lo, level.shape[1]), np.uint8)
                for s in range(self.num_generators):
                    todo = np.flatnonzero(descent[lo:hi] == s)
                    for k in range(0, len(todo), 64):
                        chunk = todo[k:k + 64]
                        old = np.unpackbits(level[below[lo + chunk] - prev],
                                            axis=1, count=n, bitorder="little")
                        rows[chunk] = np.packbits(old | old[:, right[:, s]],
                                                  axis=1, bitorder="little")
                masks.extend(packed_masks(rows))
                level = rows
            self._leq_masks = masks
        return self._leq_masks

    def leq_indices(self, u, v):
        if len(self.elements) <= ORDER_MATRIX_CAP:
            return (self.leq_masks()[v] >> u) & 1 == 1
        # above the cap, the lifting property (Bjorner-Brenti, Prop. 2.2.7):
        # for a right descent s of v, u <= v iff min(u, us) <= vs; and at
        # equal lengths, u <= v iff u == v
        lengths, mult = self.lengths, self.gen_mult
        while lengths[u] < lengths[v]:
            for s, vs in enumerate(mult[v]):
                if lengths[vs] < lengths[v]:
                    break
            if lengths[mult[u][s]] < lengths[u]:
                u = mult[u][s]
            v = vs
        return u == v

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
        leq = mask_rows(self.leq_masks(), n).T.tolist()
        return json.dumps({"type": self.ctype.descriptor,
                           "labels": labels, "leq": leq})


def packed_masks(packed):
    """Rows of bits packed little-endian (``np.packbits(...,
    bitorder="little")``) as int bitmasks, bit i for column i."""
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[k:k + width], "little")
            for k in range(0, len(data), width)]


def mask_rows(masks, n):
    """Int bitmasks over n columns as the rows of a 0/1 uint8 array."""
    width = (n + 7) // 8
    data = b"".join(m.to_bytes(width, "little") for m in masks)
    packed = np.frombuffer(data, np.uint8).reshape(len(masks), width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


_cached_group = lru_cache(maxsize=64)(WeylGroup)


def build_group(ctype):
    """Construct (and cache) the Weyl group of the given type."""
    return _cached_group(CoxeterType.parse(ctype))


def _same_group(u, v):
    if u.group is not v.group:
        raise GroupMismatch("elements belong to different groups")
    return u.group


def multiply(u, v):
    W = _same_group(u, v)
    return WeylElement(W, W.mult_indices(u.index, v.index))


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


def poset_dot(W, highlight=None):
    """DOT digraph of the covering relations, ranked by length.

    ``highlight`` is an optional thickening (or set of element indices);
    its nodes are drawn with a double circle.
    """
    marked = set()
    if highlight is not None:
        members = getattr(highlight, "members", highlight)
        marked = {int(m) for m in members}
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
