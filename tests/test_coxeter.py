"""Group construction, word combinatorics, Bruhat order.

The Bruhat order is validated against an independent brute-force
subword oracle, element multiplication against plain permutation
composition via itertools, and the level-at-a-time construction against
the element-at-a-time closure kept here as its reference.
"""

import itertools
import json
import operator
import random
import tracemalloc

import pytest

from helpers import subword_leq
from test_canonical_order import GROUP_DIGESTS
from weylkit import coxeter
from weylkit.coxeter import (CoxeterType, build_group, bruhat_covers,
                             bruhat_leq, multiply, opposition_involution,
                             poset_dot)
from weylkit.errors import GroupMismatch, GroupTooLarge, UnsupportedType

ORDERS = {
    "A2": 6, "A3": 24, "B2": 8, "B3": 48, "D4": 192,
    "G2": 12, "F4": 1152, "A1^2": 4, "A1^3": 8, "A1^4": 16,
    "A2xA1": 12, "B2xA1^2": 32,
}


@pytest.mark.parametrize("descriptor,order", sorted(ORDERS.items()))
def test_group_orders(descriptor, order):
    W = build_group(descriptor)
    assert len(W) == order
    assert W.ctype.order == order


def test_type_parsing_aliases():
    assert CoxeterType.parse("A(2)").descriptor == "A2"
    assert CoxeterType.parse("product-of-A1(3)").descriptor == "A1^3"
    assert CoxeterType.parse("A2 x G2").descriptor == "A2xG2"
    with pytest.raises(UnsupportedType):
        CoxeterType.parse("E8")
    with pytest.raises(UnsupportedType):
        CoxeterType.parse("H3")
    with pytest.raises(UnsupportedType):
        CoxeterType.parse("A0")


def test_build_group_parses_each_descriptor_once():
    assert build_group(" a2 ") is build_group("A2")
    assert build_group("A1xA1") is build_group("A1^2")
    for bad in ([2], {"A": 2}, 3, None):
        with pytest.raises(UnsupportedType):
            build_group(bad)


def test_group_too_large():
    with pytest.raises(GroupTooLarge):
        coxeter.WeylGroup("A3", max_order=10)


def test_keys_wider_than_int64_are_refused():
    # order 2**32 passes the cap, but the key code needs radix 4 per factor
    tracemalloc.start()
    try:
        with pytest.raises(GroupTooLarge, match="64-bit code"):
            coxeter.WeylGroup("A1^32", max_order=2 ** 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# --- construction against the element-at-a-time closure ----------------------

def _closure_oracle(gens, bases):
    """The breadth-first closure one element and one generator at a
    time, on tuples: the reference for ``coxeter._enumerate``."""
    key = operator.itemgetter(*(b for basis in bases for b in basis))
    starts = [0, *itertools.accumulate(map(len, bases))][:-1]
    blocks, tail = list(zip(starts, starts[1:])), starts[-1]
    elements = [tuple(range(len(gens[0][1])))]
    index = {key(elements[0]): 0}
    lengths = [0]
    heads = [(0,) * len(blocks)]
    parents = [(-1, -1)]
    neighbours = []
    frontier = [0]
    while frontier:
        new = {}
        for ei in frontier:
            ks = []
            for s, (f, g) in enumerate(gens):
                y = tuple(map(g.__getitem__, elements[ei]))
                k = key(y)
                ks.append(k)
                if k not in index and k not in new:
                    h = heads[ei]
                    if f < len(h):
                        h = h[:f] + (h[f] + 1,) + h[f + 1:]
                    order = sum(((l,) + k[a:b] for l, (a, b)
                                 in zip(h, blocks)), ()) + k[tail:]
                    new[k] = (order, k, y, ei, s, h)
            neighbours.append(ks)
        frontier = []
        for _, k, y, parent, s, h in sorted(new.values(),
                                            key=operator.itemgetter(0)):
            index[k] = len(elements)
            frontier.append(len(elements))
            elements.append(y)
            lengths.append(lengths[parent] + 1)
            heads.append(h)
            parents.append((parent, s))
    gen_mult = [[index[k] for k in ks] for ks in neighbours]
    return elements, index, lengths, parents, gen_mult


@pytest.mark.parametrize("descriptor", [
    *GROUP_DIGESTS, "A7", "B5", "D5", "A1^12", "G2xG2", "F4xA1", "A3xB2"])
def test_construction_matches_closure_oracle(descriptor):
    W = coxeter.WeylGroup(descriptor)
    _, gens, bases = W.ctype.permutation_model()
    elements, index, lengths, parents, gen_mult = _closure_oracle(gens, bases)
    assert W.elements == elements
    assert W.lengths == lengths
    assert W._parents == parents
    assert W.gen_mult == gen_mult
    assert W._index == index
    words = [()]
    for parent, s in parents[1:]:
        words.append(words[parent] + (s,))
    assert W.words == words
    assert W.inverse_table == [W.gen_fold(0, reversed(w)) for w in words]
    assert W.w0_index == lengths.index(lengths[-1]) == len(W) - 1


# --- multiplication against a permutation-composition oracle ---------------

def _perm_table(n):
    """Composition table of S_n on one-line tuples, built independently:
    (p * q)(i) = q(p(i)), i.e. p first, then q."""
    perms = list(itertools.permutations(range(1, n + 1)))
    table = {}
    for p in perms:
        for q in perms:
            table[(p, q)] = tuple(q[p[i] - 1] for i in range(n))
    return table


def test_multiply_matches_permutation_composition():
    W = build_group("A2")
    table = _perm_table(3)
    for u in W:
        for v in W:
            got = multiply(u, v)
            want = table[(W.one_line(u.index), W.one_line(v.index))]
            assert W.one_line(got.index) == want


def test_multiply_identities():
    W = build_group("B2")
    e = W.identity
    for w in W:
        assert multiply(e, w) == w
        assert multiply(w, e) == w
    for s in W.simple_generators:
        assert multiply(s, s) == e


def test_multiply_a2_longest():
    W = build_group("A2")
    s1 = W.element_from_label("213")
    s2 = W.element_from_label("132")
    assert multiply(multiply(s1, s2), s1) == W.w0


def test_group_mismatch():
    with pytest.raises(GroupMismatch):
        multiply(build_group("A2").identity, build_group("B2").identity)


# --- longest element --------------------------------------------------------

def test_longest_element():
    assert build_group("A2").w0.length == 3
    B2 = build_group("B2")
    w0 = B2.w0
    assert w0.length == 4
    assert w0 == B2.element_from_word([0, 1, 0, 1])  # (ab)^2
    A13 = build_group("A1^3")
    assert A13.w0.length == 3
    assert A13.sign_vector(A13.w0.index) == (-1, -1, -1)
    for t in ORDERS:
        W = build_group(t)
        w0 = W.w0
        assert multiply(w0, w0) == W.identity
        assert len(W.reflections()) == w0.length


# --- reflection representation ----------------------------------------------

def _mat_is_identity(m):
    from weylkit.coxeter import _Q0, _Q1
    return all(m[i][j] == (_Q1 if i == j else _Q0)
               for i in range(len(m)) for j in range(len(m)))


def _mat_mul(x, y):
    from weylkit.coxeter import _Q0
    n = len(x)
    return tuple(
        tuple(sum((x[i][k] * y[k][j] for k in range(n)), _Q0) for j in range(n))
        for i in range(n)
    )


def _mat_transpose(x):
    n = len(x)
    return tuple(tuple(x[j][i] for j in range(n)) for i in range(n))


@pytest.mark.parametrize("descriptor", ["A2", "B2", "G2", "A1^2", "A2xA1",
                                        "B3", "D4", "F4", "A2xG2"])
def test_reflection_rep_exactly_orthogonal(descriptor):
    W = build_group(descriptor)
    for w in W:
        m = w.matrix()
        assert _mat_is_identity(_mat_mul(m, _mat_transpose(m)))


@pytest.mark.parametrize("descriptor", ["A2", "B2", "G2"])
def test_reflection_rep_is_homomorphism(descriptor):
    W = build_group(descriptor)
    for u in W:
        for v in W:
            assert _mat_mul(u.matrix(), v.matrix()) == multiply(u, v).matrix()


# --- Bruhat order ------------------------------------------------------------

@pytest.mark.parametrize("descriptor", ["A2", "B2", "G2", "A1^2", "A3", "A2xA1"])
def test_bruhat_agrees_with_subword_oracle(descriptor):
    W = build_group(descriptor)
    assert len(W) <= 48
    for u in W:
        for v in W:
            assert bruhat_leq(u, v) == subword_leq(u, v), (u, v)


@pytest.mark.parametrize("descriptor", ["A2", "B2", "G2", "A3", "B3"])
def test_w0_reverses_order(descriptor):
    W = build_group(descriptor)
    w0 = W.w0
    for u in W:
        for v in W:
            assert bruhat_leq(u, v) == bruhat_leq(multiply(w0, v),
                                                  multiply(w0, u))


def test_bruhat_extremes():
    W = build_group("B2")
    for w in W:
        assert bruhat_leq(W.identity, w)
        assert bruhat_leq(w, W.w0)


def test_length_subadditive_with_parity():
    W = build_group("A3")
    for u in W:
        for v in W:
            p = multiply(u, v)
            assert p.length <= u.length + v.length
            assert (p.length - u.length - v.length) % 2 == 0


def _components(W, index, factors):
    """Factor indices of an element of a product, read from its word: the
    generators of each factor follow those of the factors before it."""
    out, lo = [], 0
    for F in factors:
        hi = lo + F.num_generators
        out.append(F.gen_fold(0, [s - lo for s in W.words[index]
                                  if lo <= s < hi]))
        lo = hi
    return tuple(out)


def test_product_order_is_componentwise():
    W = build_group("A2xA1")
    A2 = build_group("A2")
    A1 = build_group("A1")
    for u in W:
        for v in W:
            cu = _components(W, u.index, (A2, A1))
            cv = _components(W, v.index, (A2, A1))
            want = (A2.leq_indices(cu[0], cv[0])
                    and A1.leq_indices(cu[1], cv[1]))
            assert bruhat_leq(u, v) == want


def _block_diagonal(blocks):
    from weylkit.coxeter import _Q0
    dim = sum(map(len, blocks))
    rows, off = [], 0
    for b in blocks:
        rows += [(_Q0,) * off + tuple(r) + (_Q0,) * (dim - off - len(b))
                 for r in b]
        off += len(b)
    return tuple(rows)


@pytest.mark.parametrize("descriptor", ["A2xA2xA1", "A1xB2xG2"])
def test_product_levels_ordered_by_factor_indices(descriptor):
    # the canonical order of a product: within a length level, elements
    # ascend lexicographically in their tuples of factor indices.  With
    # three factors this differs from comparing all factor lengths first
    W = coxeter.WeylGroup(descriptor)
    factors = [build_group(f"{f.name}{f.rank}") for f in W.ctype.factors]
    comps = [_components(W, i, factors) for i in range(len(W))]
    assert len(set(comps)) == len(W)
    for i in range(1, len(W)):
        if W.lengths[i] == W.lengths[i - 1]:
            assert comps[i - 1] < comps[i]
    for i, c in enumerate(comps):
        assert W.matrix(i) == _block_diagonal(
            [F.matrix(k) for F, k in zip(factors, c)])


# --- covers -------------------------------------------------------------------

def test_covers_a2_below_w0():
    W = build_group("A2")
    got = {c.label() for c in bruhat_covers(W.w0)}
    assert got == {"231", "312"}


def test_covers_b2_below_ab():
    W = build_group("B2")
    ab = W.element_from_word([0, 1])
    got = {c.label() for c in bruhat_covers(ab)}
    assert got == {W.element_from_word([0]).label(),
                   W.element_from_word([1]).label()}


def test_covers_below_identity_empty():
    assert bruhat_covers(build_group("A3").identity) == []


def test_cover_lengths():
    W = build_group("G2")
    for v in W:
        for u in bruhat_covers(v):
            assert u.length == v.length - 1
            assert bruhat_leq(u, v)


# --- opposition involution on elements ---------------------------------------

def test_element_involution():
    for t in ("A3", "B2", "G2"):
        W = build_group(t)
        for w in W:
            ww = opposition_involution(w)
            assert opposition_involution(ww) == w
            assert ww.length == w.length


# --- poset rendering ----------------------------------------------------------

def test_poset_dot_counts():
    W = build_group("A2")
    dot = poset_dot(W)
    assert dot.count("[label=") == 6
    assert dot.count("->") == 8  # covers of S3, counted exhaustively


def test_poset_dot_highlight():
    from weylkit import thickenings
    W = build_group("A2")
    th = thickenings.enumerate_balanced(W)[0]
    dot = poset_dot(W, th)
    assert dot.count("doublecircle") == 3


def test_poset_dot_a1a1_diamond():
    W = build_group("A1^2")
    dot = poset_dot(W)
    assert dot.count("[label=") == 4
    assert dot.count("->") == 4


# --- misc ---------------------------------------------------------------------

def test_inverse_table():
    for t in ("A3", "B2", "G2", "A1^3"):
        W = build_group(t)
        for w in W:
            assert multiply(w, w.inverse()) == W.identity
            assert w.inverse().length == w.length


def test_deterministic_construction():
    a = coxeter.WeylGroup("B3")
    b = coxeter.WeylGroup("B3")
    assert [a.label(i) for i in range(len(a))] == \
           [b.label(i) for i in range(len(b))]
    assert a.gen_mult == b.gen_mult


def test_order_matrix_json():
    W = build_group("A2")
    data = json.loads(W.order_matrix_json())
    assert data["type"] == "A2"
    assert len(data["leq"]) == 6
    assert data["leq"][0] == [1] * 6  # identity below everything


@pytest.mark.parametrize("descriptor", ["B3", "A2xG2"])
def test_order_matrix_json_matches_leq_indices(descriptor):
    W = coxeter.WeylGroup(descriptor)
    data = json.loads(W.order_matrix_json())
    n = len(W)
    assert data["leq"] == [[int(W.leq_indices(u, v)) for v in range(n)]
                           for u in range(n)]


def _bit_loop_leq_masks(W):
    # the descent recursion one bit at a time: row v is row(vs) together
    # with its right translate by the first descent s of v
    masks = [1]
    for v in range(1, len(W)):
        s = next(s for s in range(W.num_generators)
                 if W.lengths[W.gen_mult[v][s]] < W.lengths[v])
        base = masks[W.gen_mult[v][s]]
        shifted, m = 0, base
        while m:
            low = m & -m
            shifted |= 1 << W.gen_mult[low.bit_length() - 1][s]
            m ^= low
        masks.append(base | shifted)
    return masks


@pytest.mark.parametrize("descriptor", ["A5", "A6", "B4", "D4", "F4", "A1^6",
                                        "A2xG2", "B3xA1"])
def test_leq_masks_match_bit_loop(descriptor):
    W = coxeter.WeylGroup(descriptor)
    assert W.leq_masks() == _bit_loop_leq_masks(W)


def test_opposition_involution_both_kinds():
    # elements: conjugation by w0 here; chamber vectors: symspace.delta_iota
    from weylkit.symspace import delta_iota
    W = build_group("A2")
    s1 = W.element_from_label("213")
    assert opposition_involution(opposition_involution(s1)) == s1
    assert tuple(delta_iota([0.0, 0.0, 0.0])) == (0.0, 0.0, 0.0)
    assert tuple(delta_iota([1.0, 0.0, -1.0])) == (1.0, 0.0, -1.0)
    assert tuple(delta_iota([2.0, 1.0, -3.0])) == (3.0, -1.0, -2.0)


def test_recursive_leq_fallback_matches_masks(monkeypatch):
    # force the above-cap code path on small groups and compare with the
    # masks, and on the smallest ones with the subword oracle too
    for desc in ("A2", "B2", "G2", "A2xA1", "B3xA1"):
        fresh = coxeter.WeylGroup(desc)
        monkeypatch.setattr(coxeter, "ORDER_MATRIX_CAP", 2)
        try:
            got = [[fresh.leq_indices(u.index, v.index) for v in fresh]
                   for u in fresh]
        finally:
            monkeypatch.setattr(coxeter, "ORDER_MATRIX_CAP", 4 * 10 ** 4)
        masks = fresh.leq_masks()
        assert got == [[(m >> u) & 1 == 1 for m in masks]
                       for u in range(len(fresh))]
        if len(fresh) <= 12:
            assert got == [[subword_leq(u, v) for v in fresh] for u in fresh]


def _tableau_leq(u, v):
    # Bruhat order of S_n on one-line forms (Bjorner-Brenti, Thm 2.1.5):
    # every sorted prefix of u is entrywise at most that of v
    return all(a <= b for k in range(1, len(u))
               for a, b in zip(sorted(u[:k]), sorted(v[:k])))


def test_above_cap_walk_matches_tableau_criterion_a7():
    W = build_group("A7")
    assert len(W) > coxeter.ORDER_MATRIX_CAP
    rng = random.Random(13)
    for _ in range(1500):
        u, v = rng.randrange(len(W)), rng.randrange(len(W))
        assert W.leq_indices(u, v) == _tableau_leq(W.one_line(u),
                                                   W.one_line(v))
    for _ in range(1500):
        # the product of any subword of a reduced word of v lies below v
        v = rng.randrange(len(W))
        u = W.gen_fold(0, [s for s in W.words[v] if rng.random() < 0.5])
        assert _tableau_leq(W.one_line(u), W.one_line(v))
        assert W.leq_indices(u, v)


def test_a2_s1_not_below_s2():
    W = build_group("A2")
    s1 = W.element_from_label("213")
    s2 = W.element_from_label("132")
    assert not bruhat_leq(s1, s2)
    assert not bruhat_leq(s2, s1)


def test_w0_reverses_order_f4_exhaustive():
    W = build_group("F4")
    w0 = W.w0
    masks = W.leq_masks()
    w0l = W.w0_left_table()
    for u in range(len(W)):
        for_mask = masks[u]
        # u <= v  iff  w0 v <= w0 u, read off through the left-mult table
        m = for_mask
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            assert (masks[w0l[x]] >> w0l[u]) & 1


def test_length_complement_identity():
    for t in ("A3", "B2", "G2", "A1^3"):
        W = build_group(t)
        for w in W:
            assert multiply(W.w0, w).length == W.w0.length - w.length


# --- labels and sign vectors --------------------------------------------------

@pytest.mark.parametrize("descriptor", ["A3", "B2", "G2", "A1^3", "A2xA1"])
def test_labels_round_trip(descriptor):
    W = build_group(descriptor)
    for i in range(len(W)):
        assert W.element_from_label(W.label(i)).index == i
        assert W.element_from_label(W.word_label(i)).index == i


def test_label_forms():
    W = build_group("A2")
    ab = W.element_from_word([0, 1])
    assert W.element_from_label("e") == W.identity
    assert W.element_from_label(" 213 ") == W.element_from_word([0])
    assert W.element_from_label("ab") == ab
    assert W.element_from_label("s1.s2") == ab
    assert build_group("A1^2").element_from_label("-+").label() == "-+"


@pytest.mark.parametrize("text", ["x1", "s0", "z", "s9", "4123", "21",
                                  "s1..s2", "a b"])
def test_labels_naming_no_element_are_refused(text):
    W = build_group("A2")
    with pytest.raises(ValueError) as exc:
        W.element_from_label(text)
    assert str(exc.value) == f"label {text!r} names no element of A2"


def test_words_outside_the_generators_are_refused():
    W = build_group("A2")
    for word in ([2], [-1], [0, 1, 3]):
        with pytest.raises(ValueError, match="outside 0..1 of A2"):
            W.element_from_word(word)


@pytest.mark.parametrize("signs", ["+++", "+"])
def test_sign_vectors_of_the_wrong_length_are_refused(signs):
    W = build_group("A1^2")
    vector = [1 if c == "+" else -1 for c in signs]
    message = f"sign vector of length {len(signs)} for A1^2 of rank 2"
    with pytest.raises(ValueError) as exc:
        W.element_from_signs(vector)
    assert str(exc.value) == message
    with pytest.raises(ValueError):
        W.element_from_label(signs)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: build_group("A2^0"), UnsupportedType, "empty type",
                 id="A2^0"),
    pytest.param(lambda: build_group("G3"), UnsupportedType,
                 "only G2 is supported", id="G3"),
    pytest.param(lambda: build_group("F2"), UnsupportedType,
                 "only F4 is supported", id="F2"),
    pytest.param(lambda: build_group("D1"), UnsupportedType,
                 "D requires rank >= 2", id="D1"),
    pytest.param(lambda: build_group("B1"), UnsupportedType,
                 "B requires rank >= 2 (B1 = A1)", id="B1"),
    pytest.param(lambda: build_group("A2").element_from_signs((1, -1)),
                 GroupMismatch, "sign vectors only exist for A1 powers",
                 id="signs-of-A2"),
    pytest.param(lambda: build_group("B2").one_line(0), GroupMismatch,
                 "one-line form only exists for type A", id="one-line-of-B2"),
    pytest.param(lambda: build_group("A7").leq_masks(), GroupTooLarge,
                 f"order matrix capped at {coxeter.ORDER_MATRIX_CAP} elements",
                 id="leq-masks-of-A7"),
])
def test_refusals_name_their_condition(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
