"""Thickenings: ideals, slim/fat/balanced, enumeration, weights.

Balanced enumeration is validated against an independent brute-force
filter of ALL subsets for every group small enough to allow it.
"""

import itertools
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import thickenings as th
from weylkit.coxeter import build_group
from weylkit.errors import (GroupMismatch, GroupTooLarge, NotAnIdeal,
                            UnsupportedType, WrongGroupType)
from weylkit.thickenings import (Thickening, count_balanced, down_closure,
                                 enumerate_balanced, is_balanced, is_fat,
                                 is_slim, metric_thickening,
                                 weight_is_balanced)


def _by_labels(W, labels):
    return Thickening.from_elements(
        W, [W.element_from_label(x) for x in labels])


def all_ideals(W):
    """Brute-force enumeration of ALL lower ideals.

    Independent of the balanced search: walks elements in a linear
    extension (indices are sorted by length) and branches on membership,
    including an element only when everything below it is already in.
    """
    masks = W.leq_masks()
    n = len(W.elements)
    out = []

    def rec(i, mask):
        if i == n:
            out.append(Thickening(W, mask))
            return
        rec(i + 1, mask)
        below = masks[i] & ~(1 << i)
        if below & ~mask == 0:
            rec(i + 1, mask | (1 << i))

    rec(0, 0)
    return out


# --- down closures ------------------------------------------------------------

def test_down_closure_empty():
    W = build_group("B2")
    assert len(down_closure(W, [])) == 0


def test_down_closure_b2_example():
    W = build_group("B2")
    ab = W.element_from_word([0, 1])
    ba = W.element_from_word([1, 0])
    got = down_closure(W, [ab, ba])
    assert set(got.labels()) == {"e", "a", "b", "ab", "ba"}
    assert is_fat(got) and not is_slim(got)


def test_down_closure_of_w0_is_everything():
    W = build_group("A2")
    assert len(down_closure(W, [W.w0])) == len(W)


# --- slim / fat / balanced -----------------------------------------------------

def test_a2_identity_slim_not_fat():
    W = build_group("A2")
    t = _by_labels(W, ["123"])
    assert is_slim(t) and not is_fat(t)


def test_a2_all_but_w0_fat_not_slim():
    W = build_group("A2")
    t = Thickening.from_elements(W, [w for w in W if w != W.w0])
    assert is_fat(t) and not is_slim(t)


def test_a2_unique_balanced_members():
    W = build_group("A2")
    t = _by_labels(W, ["123", "213", "132"])
    assert is_balanced(t)


def test_not_an_ideal_raises():
    W = build_group("A2")
    bad = _by_labels(W, ["123", "231"])  # missing 132 below 231
    with pytest.raises(NotAnIdeal):
        is_slim(bad)


# --- balanced enumeration -------------------------------------------------------

PAPER_COUNTS = {"A2": 1, "B2": 2, "G2": 2, "A1^2": 2, "A3": 10}


@pytest.mark.parametrize("descriptor,count", sorted(PAPER_COUNTS.items()))
def test_balanced_counts(descriptor, count):
    W = build_group(descriptor)
    ths = enumerate_balanced(W)
    assert len(ths) == count
    assert count_balanced(W) == count


def test_balanced_count_a1_4_regression():
    # frozen from this implementation's own exhaustive run (and equal to
    # the independent all-subsets filter below)
    assert count_balanced(build_group("A1^4")) == 12


@pytest.mark.parametrize("descriptor", ["A2", "B2", "A1^2", "A1^3", "A1^4",
                                        "G2", "A3", "B3", "A2xA1"])
def test_balanced_equals_bruteforce_ideal_filter(descriptor):
    # groups of order up to 48: enumerate every lower ideal independently
    # and filter by the balance predicate
    W = build_group(descriptor)
    assert len(W) <= 48
    brute = {t.mask for t in all_ideals(W) if is_balanced(t)}
    fast = [t.mask for t in enumerate_balanced(W)]
    assert len(fast) == len(brute)
    assert set(fast) == brute


def test_b2_balanced_are_the_two_principal_ideals():
    W = build_group("B2")
    ab = down_closure(W, [W.element_from_word([0, 1])])
    ba = down_closure(W, [W.element_from_word([1, 0])])
    assert {t.mask for t in enumerate_balanced(W)} == {ab.mask, ba.mask}


def test_g2_balanced_are_aba_and_bab():
    W = build_group("G2")
    aba = down_closure(W, [W.element_from_word([0, 1, 0])])
    bab = down_closure(W, [W.element_from_word([1, 0, 1])])
    assert {t.mask for t in enumerate_balanced(W)} == {aba.mask, bab.mask}


def test_balanced_instance_invariants():
    W = build_group("A3")
    for t in enumerate_balanced(W):
        assert len(t) == len(W) // 2
        assert t.is_ideal()
        assert is_slim(t) and is_fat(t)


def test_a3_common_core():
    # every balanced thickening contains the same seven short elements
    W = build_group("A3")
    ths = enumerate_balanced(W)
    common = ths[0].mask
    for t in ths[1:]:
        common &= t.mask
    labels = {W.label(i) for i in Thickening(W, common).indices()}
    assert labels == {"1234", "1243", "1324", "2134", "1342", "2143", "3124"}


def test_enumeration_cap():
    with pytest.raises(GroupTooLarge):
        count_balanced(build_group("A3"), node_cap=3)


def test_enumeration_deterministic_order():
    for descriptor in ("A3", "A4"):
        W = build_group(descriptor)
        n = len(W)
        bitstrings = [tuple((t.mask >> i) & 1 for i in range(n))
                      for t in enumerate_balanced(W)]
        assert len(set(bitstrings)) == len(bitstrings)
        assert bitstrings == sorted(bitstrings)


@pytest.mark.parametrize("descriptor,count", [("A4", 4608), ("A1^6", 2646),
                                              ("A2xG2", 342), ("B3xA1", 1042)])
def test_counter_agrees_with_enumeration(descriptor, count):
    # A1^6: OEIS A001206
    W = build_group(descriptor)
    assert count_balanced(W) == count
    assert len(enumerate_balanced(W)) == count


def test_count_balanced_d4_under_default_cap():
    assert count_balanced(build_group("D4")) == 114864


def test_count_cap_bounds_sweep_states():
    # the D4 sweep holds 27910 states over all pairs
    W = build_group("D4")
    assert count_balanced(W, node_cap=27910) == 114864
    with pytest.raises(GroupTooLarge, match="exceeded 27909 states"):
        count_balanced(W, node_cap=27909)


def test_count_balanced_b4():
    # the sweep holds 1409184 states over all pairs
    assert count_balanced(build_group("B4"), node_cap=2 * 10 ** 6) == 49404510


@pytest.mark.parametrize("descriptor", ["A3", "B3", "G2", "A2xG2", "D4"])
def test_principal_ideal_slim_iff_w0c_not_below_c(descriptor):
    # the one bit the search and the sweep read per side
    W = build_group(descriptor)
    masks, w0l = W.leq_masks(), W.w0_left_table()
    for c in range(len(W)):
        bit = not (masks[c] >> w0l[c]) & 1
        assert bit == is_slim(down_closure(W, [c]))


def test_enumerate_balanced_d4():
    W = build_group("D4")
    with pytest.raises(GroupTooLarge):
        enumerate_balanced(W)
    # the search decides 114892 open pairs
    with pytest.raises(GroupTooLarge, match="exceeded 114891 nodes"):
        enumerate_balanced(W, node_cap=114891)
    ths = enumerate_balanced(W, node_cap=114892)
    assert len(ths) == 114864
    assert len({t.mask for t in ths}) == len(ths)
    assert all(len(t) == len(W) // 2 for t in ths)
    # is_balanced checks one ideal at a time: check every 97th with it
    assert all(is_balanced(t) for t in ths[::97])


# --- metric thickenings -----------------------------------------------------------

def test_metric_thickening_balanced_111():
    strict, nonstrict = metric_thickening([1, 1, 1])
    assert strict.mask == nonstrict.mask
    assert is_balanced(strict)


def test_metric_thickening_wall_112():
    strict, nonstrict = metric_thickening([1, 1, 2])
    assert strict.mask != nonstrict.mask
    assert is_slim(strict) and not is_fat(strict)
    assert is_fat(nonstrict) and not is_slim(nonstrict)


def test_metric_thickening_31_members():
    strict, _ = metric_thickening([3, 1])
    assert set(strict.labels()) == {"++", "+-"}
    assert is_balanced(strict)


def test_metric_thickening_matches_balance_predicate():
    for a in [(1, 1, 1), (1, 1, 2), (3, 1), (2, 1, 1, 1), (1, 1, 1, 1),
              (5, 4, 3, 1), (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))]:
        strict, nonstrict = metric_thickening(list(a))
        assert (strict.mask == nonstrict.mask) == weight_is_balanced(list(a))


def _metric_oracle(a):
    """The Fraction loop that metric_thickening ran before it took one
    integer product: one exact dot product per element of A1^n."""
    vals = [Fraction(x) for x in a]
    W = build_group(f"A1^{len(vals)}")
    strict = nonstrict = 0
    for i in range(len(W.elements)):
        dot = sum(v * s for v, s in zip(vals, W.sign_vector(i)))
        if dot > 0:
            strict |= 1 << i
        if dot >= 0:
            nonstrict |= 1 << i
    return strict, nonstrict


def _assert_matches_oracle(a):
    strict, nonstrict = metric_thickening(a)
    assert (strict.mask, nonstrict.mask) == _metric_oracle(a)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.fractions(min_value=Fraction(1, 10 ** 4),
                                       max_value=10 ** 4,
                                       max_denominator=10 ** 4),
                          st.integers(min_value=1, max_value=4)),
                min_size=1, max_size=8))
def test_metric_thickening_matches_oracle_on_fractions(a):
    # the small integers put many draws on a wall, where the masks differ
    _assert_matches_oracle(a)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1e300, exclude_min=True),
                min_size=1, max_size=8))
def test_metric_thickening_matches_oracle_on_floats(a):
    _assert_matches_oracle(a)


@pytest.mark.parametrize("a", [
    (1,), (1, 1), (3, 1), (1, 1, 1), (1, 1, 2), (2, 1, 1, 1), (1, 1, 1, 1),
    (5, 4, 3, 1), (1, 2, 3, 4, 5, 5), (0.5, 0.25, 0.25), (1.5, 1, 0.5, 3),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7)),
    (1, 1, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1, 1, 7)])
def test_metric_thickening_matches_oracle_on_balanced_and_wall_weights(a):
    _assert_matches_oracle(a)


@pytest.mark.parametrize("a", [
    (10 ** 30 + 1, 10 ** 30, 1),
    (10 ** 31, 10 ** 30, 3),
    (2 ** 64, 2 ** 64 - 1, 1, 2 ** 63),
    (Fraction(1, 2 ** 70), Fraction(1, 3 ** 50), 1, Fraction(5, 7)),
    (Fraction(1, 3 ** 50), Fraction(1, 2 ** 70),
     Fraction(1, 3 ** 50) + Fraction(1, 2 ** 70)),
    (5e-324, 1e300, 1e300)])
def test_metric_thickening_matches_oracle_beyond_int64(a):
    assert max(th._weight_ints(a)) > 2 ** 63
    _assert_matches_oracle(a)


@pytest.mark.parametrize("weights", [
    [1, math.inf], [math.nan], [1, -math.inf], [0, 1], [-1], [Fraction(-1, 2)]])
def test_weights_that_are_not_positive_and_finite_are_refused(weights):
    for fn in (metric_thickening, weight_is_balanced):
        with pytest.raises(ValueError, match="positive and finite"):
            fn(weights)


@pytest.mark.parametrize("descriptor", ["A1", "A1^2", "A1^3", "A1^4", "A1^5",
                                        "A1^6"])
def test_sign_matrix_rows_are_the_sign_vectors(descriptor):
    # generator k swaps factor k, so entry k is -1 exactly when the word
    # of the element uses generator k an odd number of times
    W = build_group(descriptor)
    signs = W.sign_matrix()
    assert signs.shape == (len(W), W.ctype.rank)
    assert signs is W.sign_matrix() and not signs.flags.writeable
    for i, word in enumerate(W.words):
        assert tuple(signs[i].tolist()) == W.sign_vector(i)
        assert W.sign_vector(i) == tuple(
            (-1) ** word.count(k) for k in range(W.ctype.rank))
        assert W.label(i) == "".join("+" if s > 0 else "-"
                                     for s in W.sign_vector(i))


@pytest.mark.parametrize("descriptor", ["B2", "A2", "A1xA2"])
def test_sign_matrix_refuses_other_groups(descriptor):
    with pytest.raises(GroupMismatch):
        build_group(descriptor).sign_matrix()


# --- weight balance ----------------------------------------------------------------

def test_weight_balance_examples():
    assert not weight_is_balanced([1, 1, 1, 1])
    assert weight_is_balanced([2, 1, 1, 1])
    assert weight_is_balanced([5, 4, 3, 1])
    assert weight_is_balanced([1, 1, 1])
    assert not weight_is_balanced([1, 1, 2])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=9))
def test_weight_balance_against_subset_enumeration(ints):
    want = True
    total = sum(ints)
    for r in range(len(ints) + 1):
        for picked in itertools.combinations(ints, r):
            if 2 * sum(picked) == total:
                want = False
    assert weight_is_balanced(ints) == want


def test_general_metric_thickening_a1_powers():
    # each A1 factor acts on a 2-dim block by swapping coordinates, so
    # the antidiagonal vector (w, -w) sees the factor as a sign flip and
    # <a, g a> reduces to the sign form with squared weights
    W = build_group("A1^3")
    weights = [1, 2, 4]
    ambient = []
    for w in weights:
        ambient.extend([w, -w])
    t = th.metric_thickening_general(W, ambient)
    strict, _ = metric_thickening([w * w for w in weights])
    assert t.mask == strict.mask


def _general_metric_oracle(W, a):
    """The Fraction loop that metric_thickening_general ran before it took
    one integer product: one matrix-vector product per element."""
    vals = [Fraction(x) for x in a]
    if len(vals) != W.ambient_dim:
        raise WrongGroupType("weight vector has the wrong length")
    mask = 0
    for i in range(len(W.elements)):
        m = W.matrix(i)
        if any(x.b != 0 for row in m for x in row):
            raise WrongGroupType("general metric thickenings need rational matrices")
        wa = [sum(row[c].a * vals[c] for c in range(len(vals))) for row in m]
        if sum(x * y for x, y in zip(vals, wa)) > 0:
            mask |= 1 << i
    th._require_ideal(Thickening(W, mask))
    return mask


def _dominant(W, a):
    """The point of the orbit of ``a`` in the closed dominant chamber:
    reflect in a simple root a has a negative product with until none is
    left (one factor)."""
    a = [Fraction(x) for x in a]
    roots = W.ctype.factors[0].simple_roots()
    while alpha := next((r for r in roots
                         if sum(map(operator.mul, a, r)) < 0), None):
        c = 2 * sum(map(operator.mul, a, alpha)) / sum(x * x for x in alpha)
        a = [x - c * y for x, y in zip(a, alpha)]
    return a


def _outcome(fn, W, a):
    try:
        return fn(W, a)
    except (NotAnIdeal, WrongGroupType) as exc:
        return type(exc)


@pytest.mark.parametrize("descriptor", ["A2", "A3", "A4", "B2", "B3", "D4",
                                        "F4"])
def test_general_metric_thickening_matches_oracle(descriptor):
    # dominant weights from small integers, so many lie on walls, and in
    # type A their iota-invariant parts (a - reversed a) / 2; weights
    # outside the chamber mostly cut out sets that are not ideals
    W = build_group(descriptor)
    rng = np.random.default_rng(len(W))
    raw = [rng.integers(-3, 4, W.ambient_dim) for _ in range(4)]
    weights = [_dominant(W, a) for a in raw]
    if W.ctype.is_type_a:
        weights += [[(x - y) / 2 for x, y in zip(a, a[::-1])] for a in weights]
    weights += [*raw, [1] * (W.ambient_dim + 1)]
    for a in weights:
        got = _outcome(lambda W, a: th.metric_thickening_general(W, a).mask,
                       W, a)
        assert got == _outcome(_general_metric_oracle, W, a)


def test_general_metric_thickening_refuses_g2():
    W = build_group("G2")
    for a in ([1, 0], [2, 1]):
        with pytest.raises(WrongGroupType, match="rational matrices"):
            th.metric_thickening_general(W, a)
        with pytest.raises(WrongGroupType):
            _general_metric_oracle(W, a)


# --- serialization -------------------------------------------------------------------

def test_thickening_json_roundtrip():
    W = build_group("B2")
    t = enumerate_balanced(W)[0]
    data = json.loads(t.to_json())
    assert data["type"] == "B2"
    back = Thickening.from_json(json.dumps(data))
    assert back.mask == t.mask


@pytest.mark.parametrize("data,message", [
    ({"type": "A2", "members": [213]}, "member 213 is not a label string"),
    ({"type": "A2", "members": ["123", None]},
     "member null is not a label string"),
    ({"type": "A2", "members": "213"},
     'members must be a JSON list of labels, not "213"'),
    ({"type": "A2"}, 'a thickening needs a "members" key'),
    ({"members": ["123"]}, 'a thickening needs a "type" key'),
    (["123"], 'a thickening needs a "type" key'),
    ({"type": "A2", "members": ["x1"]}, "label 'x1' names no element of A2"),
], ids=["number", "null", "bare-string", "no-members", "no-type", "list",
        "unknown-label"])
def test_from_json_refuses_malformed_thickenings(data, message):
    for given_as in (data, json.dumps(data)):
        with pytest.raises(ValueError) as err:
            Thickening.from_json(given_as)
        assert str(err.value) == message


def test_from_json_refuses_a_type_that_is_not_a_string():
    with pytest.raises(UnsupportedType, match="not 5"):
        Thickening.from_json({"type": 5, "members": []})


def test_g2_fat_core():
    # the five short elements lie in every fat thickening
    W = build_group("G2")
    e = W.identity
    a = W.element_from_word([0])
    b = W.element_from_word([1])
    ab = W.element_from_word([0, 1])
    ba = W.element_from_word([1, 0])
    core = {x.index for x in (e, a, b, ab, ba)}
    fats = [t for t in all_ideals(W) if is_fat(t)]
    assert fats
    for t in fats:
        assert core <= set(t.indices())


def test_a2_slim_and_fat_classification():
    # two-element slim thickenings are exactly the principal ideals of
    # the simple reflections; four-element fat ones those of the two
    # length-two elements
    W = build_group("A2")
    ideals = all_ideals(W)
    slim2 = {t.mask for t in ideals if len(t) == 2 and is_slim(t)}
    fat4 = {t.mask for t in ideals if len(t) == 4 and is_fat(t)}
    s1 = W.element_from_label("213")
    s2 = W.element_from_label("132")
    assert slim2 == {down_closure(W, [s1]).mask, down_closure(W, [s2]).mask}
    r1 = W.element_from_label("231")
    r2 = W.element_from_label("312")
    assert fat4 == {down_closure(W, [r1]).mask, down_closure(W, [r2]).mask}


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: th.weight_is_balanced([1] * 31), ValueError,
                 "weight vectors capped at length 30", id="31-weights"),
    pytest.param(lambda: th.metric_thickening([]), WrongGroupType,
                 "metric thickenings require W = A1^n, n >= 1",
                 id="no-weights"),
])
def test_refusals_name_their_condition(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message
