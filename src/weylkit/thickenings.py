"""Lower ideals of the Bruhat order ("thickenings") and balance.

A thickening is a downward closed subset of a finite Weyl group.  It is
slim when disjoint from its w0-translate, fat when their union is the
whole group, balanced when both, that is when it holds exactly one
element of each pair {w, w0 w}.

Balanced thickenings are built pair by pair as unions of principal
ideals, so they stay downward closed.  Left multiplication by w0
reverses the Bruhat order, so the w0-shift of the ideal of c is the set
of elements above w0 c, and a side c of a pair may join exactly when
w0 c is not below c: one static bit per side (see `_search_tables`).
`enumerate_balanced` searches with forced choices: a pair with one
feasible side takes it without branching.  `count_balanced` sweeps
forward over the pairs and merges partial ideals that agree on the
elements of later pairs, so it counts D4 (114864) from 27910 states
without listing the thickenings."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coxeter
from .coxeter import WeylElement, WeylGroup
from .errors import GroupTooLarge, NotAnIdeal, WrongGroupType

DEFAULT_NODE_CAP = 10 ** 5


@dataclass(frozen=True)
class Thickening:
    """Membership set over a Weyl group, stored as an index bitmask."""

    group: WeylGroup
    mask: int

    @staticmethod
    def from_elements(group, elements):
        mask = 0
        for e in elements:
            mask |= 1 << int(e)
        return Thickening(group, mask)

    @property
    def members(self):
        return [WeylElement(self.group, i) for i in self.indices()]

    def indices(self):
        out, m = [], self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, w):
        return (self.mask >> int(w)) & 1 == 1

    def is_ideal(self):
        masks = self.group.leq_masks()
        return all(self.mask & masks[i] == masks[i] for i in self.indices())

    def labels(self):
        return sorted(self.group.label(i) for i in self.indices())

    def to_json(self):
        return json.dumps({"type": self.group.ctype.descriptor,
                           "members": self.labels()})

    @staticmethod
    def from_json(text):
        """Inverse of `to_json`; a ValueError names what is malformed."""
        data = json.loads(text) if isinstance(text, str) else text
        for key in ("type", "members"):
            if not isinstance(data, dict) or key not in data:
                raise ValueError(f'a thickening needs a "{key}" key')
        group, members = coxeter.build_group(data["type"]), data["members"]
        if not isinstance(members, list):
            raise ValueError(f"members must be a JSON list of labels, "
                             f"not {json.dumps(members)}")
        for m in members:
            if not isinstance(m, str):
                raise ValueError(f"member {json.dumps(m)} is not a label string")
        return Thickening.from_elements(
            group, [group.element_from_label(m) for m in members])

    def __repr__(self):
        return f"<Thickening {self.group.ctype} {{{', '.join(self.labels())}}}>"


def down_closure(W, R):
    """Smallest thickening containing R: the union of balls B(1, r)."""
    masks = W.leq_masks()
    mask = 0
    for r in R:
        mask |= masks[int(r)]
    return Thickening(W, mask)


def _require_ideal(th):
    if not th.is_ideal():
        raise NotAnIdeal("membership set is not downward closed")


def _rows(th):
    """Membership row of an ideal and of its w0-shift, after refusing a
    set that is not an ideal."""
    _require_ideal(th)
    row = coxeter.mask_rows([th.mask], len(th.group.elements))[0]
    return row, row[th.group.w0_left_table()]


def is_slim(th):
    row, shifted = _rows(th)
    return not (row & shifted).any()


def is_fat(th):
    row, shifted = _rows(th)
    return bool((row | shifted).all())


def is_balanced(th):
    row, shifted = _rows(th)
    return bool((row != shifted).all())


def _search_tables(W):
    """The w0-pairs {a, w0 a} (a first, in index order), the principal
    ideals, and per pair the sides c whose ideal is slim.

    Left multiplication by w0 reverses the Bruhat order, so the shift
    of the ideal of c is {x : x >= w0 c}, and the ideal of c is slim iff
    w0 c is not below c: one bit of its own mask.  Of two comparable
    sides only the lower one is slim, and of two incomparable ones both
    are, so every pair has a feasible side.  A slim lower ideal acc that
    holds neither side of the pair stays slim when a slim ideal of c
    joins it.  The two miss each other's shifts: an x in acc with
    w0 x <= c has w0 c <= x, and then w0 c, the other side, is in acc."""
    masks = W.leq_masks()
    w0l = W.w0_left_table()
    pairs = [(a, b) for a, b in enumerate(w0l) if a < b]
    assert 2 * len(pairs) == len(w0l), "w0 pairing must be free"
    sides = [[c for c in p if not (masks[c] >> w0l[c]) & 1] for p in pairs]
    return pairs, masks, sides


def _balanced_masks(W, node_cap):
    """Masks of all balanced thickenings, by a forced-choice search: a
    pair with one feasible side takes it without branching, so every
    branch that reaches the last pair is a balanced thickening.
    ``node_cap`` bounds the open pairs the search decides."""
    pairs, masks, sides = _search_tables(W)
    found, nodes = [], 0
    stack = [(0, 0)]
    while stack:
        k, acc = stack.pop()
        while k < len(pairs):
            (a, b), feasible = pairs[k], sides[k]
            k += 1
            if (acc >> a) & 1 or (acc >> b) & 1:
                continue
            nodes += 1
            if nodes > node_cap:
                raise GroupTooLarge(
                    f"balanced enumeration exceeded {node_cap} nodes")
            if len(feasible) == 2:
                stack.append((k, acc | masks[b]))
            acc |= masks[feasible[0]]
        found.append(acc)
    return found


def _all_balanced(W, found):
    """True when every mask in ``found`` is a lower ideal (its down
    closure adds nothing) that holds exactly one element of each pair
    {w, w0 w} (slim and fat), checked in one numpy pass per 2048 masks."""
    n = len(W.elements)
    below = coxeter.mask_rows(W.leq_masks(), n).astype(np.float32)
    w0l = W.w0_left_table()
    for k in range(0, len(found), 2048):
        rows = coxeter.mask_rows(found[k:k + 2048], n)
        closed = rows.astype(np.float32) @ below > 0
        if not (np.array_equal(closed, rows.astype(bool))
                and (rows != rows[:, w0l]).all()):
            return False
    return True


def enumerate_balanced(W, node_cap=DEFAULT_NODE_CAP):
    """All balanced thickenings, in lexicographic order of the
    membership bitstring (canonical element order)."""
    n = len(W.elements)
    found = _balanced_masks(W, node_cap)
    assert _all_balanced(W, found)
    # the bit-reversed mask orders like the bitstring (bit 0 first)
    found.sort(key=lambda m: int(f"{m:0{n}b}"[::-1], 2))
    return [Thickening(W, m) for m in found]


def count_balanced(W, node_cap=DEFAULT_NODE_CAP):
    """Number of balanced thickenings, by a forward sweep over the pairs.

    After each pair the sweep holds the number of ways to reach each
    partial ideal, keyed by its elements in later pairs: the feasible
    sides are fixed per pair, so that is all a later pair reads, and
    partial ideals that agree there have the same completions.  Only two
    pairs' states are alive at a time, and ``node_cap`` bounds the states
    the sweep holds over all pairs (D4 takes 27910)."""
    pairs, masks, sides = _search_tables(W)
    later = (1 << len(masks)) - 1
    states, held = {0: 1}, 1
    for (a, b), feasible in zip(pairs, sides):
        later &= ~(1 << a | 1 << b)
        grown = {}
        for acc, ways in states.items():
            if (acc >> a) & 1 or (acc >> b) & 1:
                nexts = (acc & later,)
            else:
                nexts = [(acc | masks[c]) & later for c in feasible]
            for nxt in nexts:
                grown[nxt] = grown.get(nxt, 0) + ways
        held += len(grown)
        if held > node_cap:
            raise GroupTooLarge(f"balanced count exceeded {node_cap} states")
        states = grown
    return sum(states.values())


def _ints(vals):
    """Rationals times the lcm of their denominators, as Python ints."""
    vals = [Fraction(v) for v in vals]
    denom = math.lcm(*(v.denominator for v in vals))
    return [v.numerator * (denom // v.denominator) for v in vals]


def _weight_ints(a):
    """Positive finite weights times the lcm of their denominators."""
    if bad := [w for w in a if not 0 < w < math.inf]:
        raise ValueError(f"weights must be positive and finite, got {bad[0]}")
    return _ints(a)


def weight_is_balanced(a):
    """True iff no subset I satisfies sum_I a = sum_{not I} a (exact)."""
    ints = _weight_ints(a)
    if len(ints) > 30:
        raise ValueError("weight vectors capped at length 30")
    target, odd = divmod(sum(ints), 2)
    if odd:
        return True
    sums = {0}
    for x in ints:
        sums |= {s + x for s in sums if s + x <= target}
    return target not in sums


def metric_thickening(a):
    """Half-space thickenings of a power of A1 cut out by a weight vector.

    Returns the (strict, nonstrict) pair Th_a = {w : a.w > 0} and
    Thbar_a = {w : a.w >= 0}; the strict one is slim, the nonstrict fat,
    and they coincide exactly when ``a`` is balanced.  All 2^n signs of
    a.w come from one product of the sign matrix with ``a`` times the lcm
    of its denominators (a positive scale) in Python ints: exact, no float.
    """
    ints = _weight_ints(a)
    if not ints:
        raise WrongGroupType("metric thickenings require W = A1^n, n >= 1")
    W = coxeter.build_group(f"A1^{len(ints)}")
    dots = W.sign_matrix() @ np.array(ints, dtype=object)
    strict, nonstrict = coxeter.packed_masks(
        np.packbits([dots > 0, dots >= 0], axis=1, bitorder="little"))
    ths = (Thickening(W, strict), Thickening(W, nonstrict))
    if not is_slim(ths[0]) or not is_fat(ths[1]):
        raise NotAnIdeal("metric thickening failed its slim/fat postcondition")
    return ths


def metric_thickening_general(W, a):
    """Experimental analogue {w : <a, w a> > 0} in the reflection
    representation of an arbitrary W: row j of the matrix of w is w(e_j)
    in the orbit S that W permutes, so for p = S a, with a and S scaled
    to Python ints, <a, w a> = sum_j a_j p[w(e_j)], exact.  G2 (entries
    in Q(sqrt 3)) is refused first.  Errors rather than silently
    returning a set that is not an ideal."""
    ints = np.array(_ints(a), dtype=object)
    if len(ints) != W.ambient_dim:
        raise WrongGroupType(
            f"weight vector must have length {W.ambient_dim} (ambient dim)")
    if any(x.b for v in W._rows for x in v):
        raise WrongGroupType("general metric thickenings need rational matrices")
    p = np.array(_ints(x.a for v in W._rows for x in v),
                 dtype=object).reshape(len(W._rows), -1) @ ints
    dots = p[np.array(W.elements)[:, W._basis]] @ ints
    (mask,) = coxeter.packed_masks(
        np.packbits([dots > 0], axis=1, bitorder="little"))
    th = Thickening(W, mask)
    _require_ideal(th)
    return th
