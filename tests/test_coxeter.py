"""Group construction, word combinatorics, Bruhat order.

The Bruhat order is validated against an independent brute-force
subword oracle, and element multiplication against plain permutation
composition via itertools.
"""

import itertools

import pytest

from weylkit import coxeter
from weylkit.coxeter import (CoxeterType, build_group, bruhat_covers,
                             bruhat_leq, longest_element, multiply,
                             opposition_involution, poset_dot,
                             subword_leq)
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


def test_group_too_large():
    with pytest.raises(GroupTooLarge):
        coxeter.WeylGroup("A3", max_order=10)


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
    assert longest_element(build_group("A2")).length == 3
    B2 = build_group("B2")
    w0 = longest_element(B2)
    assert w0.length == 4
    assert w0 == B2.element_from_word([0, 1, 0, 1])  # (ab)^2
    A13 = build_group("A1^3")
    assert longest_element(A13).length == 3
    assert A13.sign_vector(longest_element(A13).index) == (-1, -1, -1)
    for t in ORDERS:
        W = build_group(t)
        w0 = longest_element(W)
        assert multiply(w0, w0) == W.identity
        assert len(W.reflections()) == w0.length


# --- reflection representation ----------------------------------------------

def _mat_is_identity(m):
    from weylkit.coxeter import _Q0, _Q1
    return all(m[i][j] == (_Q1 if i == j else _Q0)
               for i in range(len(m)) for j in range(len(m)))


@pytest.mark.parametrize("descriptor", ["A2", "B2", "G2", "A1^2", "A2xA1",
                                        "B3", "D4", "F4", "A2xG2"])
def test_reflection_rep_exactly_orthogonal(descriptor):
    from weylkit.coxeter import _mat_mul, _mat_transpose
    W = build_group(descriptor)
    for w in W:
        m = w.matrix()
        assert _mat_is_identity(_mat_mul(m, _mat_transpose(m)))


@pytest.mark.parametrize("descriptor", ["A2", "B2", "G2"])
def test_reflection_rep_is_homomorphism(descriptor):
    from weylkit.coxeter import _mat_mul
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


def test_product_order_is_componentwise():
    W = build_group("A2xA1")
    A2 = build_group("A2")
    A1 = build_group("A1")
    for u in W:
        for v in W:
            cu, cv = W.elements[u.index], W.elements[v.index]
            want = (A2.leq_indices(cu[0], cv[0])
                    and A1.leq_indices(cu[1], cv[1]))
            assert bruhat_leq(u, v) == want


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
    import json
    W = build_group("A2")
    data = json.loads(W.order_matrix_json())
    assert data["type"] == "A2"
    assert len(data["leq"]) == 6
    assert data["leq"][0] == [1] * 6  # identity below everything


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
    # memoized matrix and the subword oracle
    for desc in ("A2", "B2", "G2"):
        fresh = coxeter.WeylGroup(desc)
        monkeypatch.setattr(coxeter, "ORDER_MATRIX_CAP", 2)
        try:
            got = [[fresh.leq_indices(u.index, v.index) for v in fresh]
                   for u in fresh]
        finally:
            monkeypatch.setattr(coxeter, "ORDER_MATRIX_CAP", 4 * 10 ** 4)
        want = [[subword_leq(u, v) for v in fresh] for u in fresh]
        assert got == want


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
