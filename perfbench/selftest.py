"""Self-test of the benchmark's checks: every check accepts a right
answer and rejects a deliberately wrong one.

    python3 perfbench/selftest.py

The right answers are made here from ``oracles`` (and, for the probe,
from words whose commutator is recomputed); weylkit is not imported.
Exits 1 if any check lets a wrong answer through or rejects a right one.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

import checks as chk
import oracles as o
from workloads import dense_rotations, rational_pair, standard_pair

CASES = []


def case(name):
    def register(fn):
        CASES.append((name, fn))
        return fn
    return register


def swap_two(label):
    return label[1] + label[0] + label[2:]


@case("position with two letters swapped")
def _position():
    a, b = rational_pair(np.random.default_rng(3), 4)
    right = o.one_line_label(o.exact_position(a.tolist(), b.tolist()))
    wrong = swap_two(right) if right[0] != right[1] else right[::-1]
    return (lambda: chk.position(right, a.tolist(), b.tolist()),
            lambda: chk.position(wrong, a.tolist(), b.tolist()))


@case("balanced count off by one")
def _count():
    want = o.indexed_group("A3").count_balanced_brute_force()
    return (lambda: chk.balanced_count(10, want, "A3"),
            lambda: chk.balanced_count(11, want, "A3"))


@case("A1^5 count off by one against A001206")
def _oeis():
    return (lambda: chk.balanced_count(81, o.A1_POWER_BALANCED[5], "A1^5"),
            lambda: chk.balanced_count(80, o.A1_POWER_BALANCED[5], "A1^5"))


@case("group order off by one")
def _order():
    return (lambda: chk.group_shape("F4", 1152, 24, 24),
            lambda: chk.group_shape("F4", 1151, 24, 24))


@case("reflection count off by one")
def _reflections():
    return (lambda: chk.group_shape("B3xA1", 96, 10, 10),
            lambda: chk.group_shape("B3xA1", 96, 11, 10))


@case("leq masks with one relation dropped")
def _masks():
    model = o.indexed_group("B3")
    right = model.below_masks()
    wrong = list(right)
    wrong[-1] ^= 1  # the identity no longer below the longest element
    return (lambda: chk.leq_masks(right, 48, model),
            lambda: chk.leq_masks(wrong, 48, model))


@case("bruhat answer flipped")
def _bruhat():
    u, v = (1, 3, 2, 4), (3, 1, 4, 2)
    want = o.tableau_leq(u, v)
    return (lambda: chk.bruhat_answer(want, o.tableau_leq(u, v)),
            lambda: chk.bruhat_answer(not want, o.tableau_leq(u, v)))


def _a2_balanced():
    model = o.indexed_group("A2")
    mask = sum(1 << i for i in range(model.size) if model.lengths[i] <= 1)
    return model, mask


@case("thickening missing an element (not fat)")
def _not_fat():
    model, mask = _a2_balanced()
    s1 = model.lengths.index(1)
    return (lambda: chk.balanced_family([mask], model),
            lambda: chk.balanced_family([mask & ~(1 << s1)], model))


@case("thickening with w0 added (not slim)")
def _not_slim():
    model, mask = _a2_balanced()
    w0 = max(range(model.size), key=lambda i: model.lengths[i])
    return (lambda: chk.balanced_family([mask], model),
            lambda: chk.balanced_family([mask | 1 << w0], model))


@case("thickening without the identity (not downward closed)")
def _not_closed():
    model, mask = _a2_balanced()
    w0 = max(range(model.size), key=lambda i: model.lengths[i])
    return (lambda: chk.balanced_family([mask], model),
            lambda: chk.balanced_family([(mask & ~1) | 1 << w0], model))


@case("diagonal membership flipped")
def _diagonal():
    angles, weights = [0, 0, 1], [1, 1, 1]
    right = o.in_diagonal_thickening(angles, weights, True)
    return (lambda: chk.diagonal_verdict(right, angles, weights, True),
            lambda: chk.diagonal_verdict(not right, angles, weights, True))


@case("flat distance perturbed by 1e-3")
def _flat():
    a, b = np.array([0.3, -0.1, 0.5]), np.array([-0.7, 0.2, 0.1])
    d = o.flat_finsler(a, b)
    return (lambda: chk.flat_distance(d, a, b, "finsler"),
            lambda: chk.flat_distance(d + 1e-3, a, b, "finsler"))


def _sample(max_len=2, threshold=1.0):
    """A right limit sample built from the definition."""
    gens = list(standard_pair())
    frames, words, margins = [], [], []
    for word in chk._reduced_words(2, max_len):
        u, s, _ = np.linalg.svd(o.word_matrix(word, gens))
        logs = np.log(s)
        mg = logs[:-1] - logs[1:]
        if mg.min() < threshold:
            continue
        if any(o.flag_angle_3(u, f) < 1e-6 for f in frames):
            continue
        frames.append(u)
        words.append(word)
        margins.append(mg)
    return gens, frames, words, margins


@case("limit sample with a flag listed twice")
def _sample_dup():
    gens, frames, words, margins = _sample()
    return (lambda: chk.limit_sample(frames, words, margins, gens, 2, 1.0),
            lambda: chk.limit_sample(frames + frames[:1], words + ["ab"],
                                     margins + margins[:1], gens, 2, 1.0))


@case("limit sample with a margin off by 1e-3")
def _sample_margin():
    gens, frames, words, margins = _sample()
    bad = [m.copy() for m in margins]
    bad[0][0] += 1e-3
    return (lambda: chk.limit_sample(frames, words, margins, gens, 2, 1.0),
            lambda: chk.limit_sample(frames, words, bad, gens, 2, 1.0))


@case("limit sample with two flags exchanged")
def _sample_swap():
    gens, frames, words, margins = _sample()
    bad = [frames[1], frames[0]] + frames[2:]
    return (lambda: chk.limit_sample(frames, words, margins, gens, 2, 1.0),
            lambda: chk.limit_sample(bad, words, margins, gens, 2, 1.0))


@case("limit sample missing a word")
def _sample_missing():
    gens, frames, words, margins = _sample()
    return (lambda: chk.limit_sample(frames, words, margins, gens, 2, 1.0),
            lambda: chk.limit_sample(frames[1:], words[1:], margins[1:],
                                     gens, 2, 1.0))


@case("membership verdict flipped")
def _membership():
    _, frames, _, _ = _sample()
    members = ["123", "132", "213"]
    lam = frames[3]
    return (lambda: chk.membership(True, lam, lam, frames, members),
            lambda: chk.membership(False, None, lam, frames, members))


@case("membership with a transversal witness")
def _membership_witness():
    _, frames, _, _ = _sample()
    members = ["123", "132", "213"]
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
    return (lambda: chk.membership(False, None, q, frames, members),
            lambda: chk.membership(True, frames[0], q, frames, members))


def _certificate():
    words = ["BAbaBAba", "bABabABa", "bABabABa"]
    gens = dense_rotations()
    mats = [o.word_matrix(w, gens) for w in words]
    norm = float(np.linalg.norm(o.iterated_commutator(mats) - np.eye(3), 2))
    return gens, words, norm, o.reduced_word_count(2, 12)


@case("probe commutator norm off by 1 percent")
def _probe_norm():
    gens, words, norm, searched = _certificate()
    return (lambda: chk.probe(True, words, norm, searched, gens, 12, 0.1),
            lambda: chk.probe(True, words, 1.01 * norm, searched, gens, 12, 0.1))


@case("probe word far from the identity")
def _probe_word():
    gens, words, norm, searched = _certificate()
    return (lambda: chk.probe(True, words, norm, searched, gens, 12, 0.1),
            lambda: chk.probe(True, ["ab"] + words[1:], norm, searched,
                              gens, 12, 0.1))


@case("probe word count off by one")
def _probe_count():
    gens, words, norm, searched = _certificate()
    return (lambda: chk.probe(True, words, norm, searched, gens, 12, 0.1),
            lambda: chk.probe(True, words, norm, searched - 1, gens, 12, 0.1))


@case("expansion factor off by 1e-3")
def _expansion():
    return (lambda: chk.expansion(64.0, 3),
            lambda: chk.expansion(64.0 * (1 + 1e-3), 3))


@case("Schottky spacing falling with N")
def _schottky():
    names = chk.schottky_triples()
    return (lambda: chk.schottky(True, 29.0, names, 28.4),
            lambda: chk.schottky(True, 27.5, names, 29.0))


@case("Schottky report missing a triple")
def _schottky_triples():
    names = chk.schottky_triples()
    return (lambda: chk.schottky(True, 29.0, names, None),
            lambda: chk.schottky(True, 29.0, names[1:], None))


@case("orbit distance perturbed by 1e-3")
def _orbit():
    import json
    from pathlib import Path
    ref = json.loads((Path(__file__).resolve().parent / "data" /
                      "orbit_growth_ref.json").read_text())
    right = [(e["length"], e["distance"]) for e in ref["entries"]]
    wrong = list(right)
    wrong[7] = (wrong[7][0], wrong[7][1] + 1e-3)
    return (lambda: chk.orbit_growth(right, right),
            lambda: chk.orbit_growth(wrong, right))


@case("threshold above a passing N")
def _threshold():
    scan = {6: True, 7: True, 8: True}
    return (lambda: chk.threshold(6, scan), lambda: chk.threshold(7, scan))


@case("horofunction disagreeing under an offset")
def _horofunction():
    est = [1.0, 1.2, 1.2500001, 1.2500002]
    return (lambda: chk.horofunction(est, True, est[-1], est[-1] + 1e-8),
            lambda: chk.horofunction(est, True, est[-1], est[-1] + 1e-3))


@case("defect report with one window defect off by 1e-3")
def _defect():
    vectors = [o.sl3_chart_vector(x, abs(x)) for x in np.arange(-20, 21.0)]
    lower, upper, lengths, defects = o.flat_path_report(vectors, 10.0, 2.0, 1.0)

    def report(ds):
        return SimpleNamespace(window_lengths=np.array(lengths),
                               window_defects=np.array(ds),
                               qi_lower_margin=lower, qi_upper_margin=upper)
    bad = list(defects)
    bad[3] += 1e-3
    return (lambda: chk.defect_report(report(defects), vectors, 10.0, 2.0,
                                      1.0, True),
            lambda: chk.defect_report(report(bad), vectors, 10.0, 2.0, 1.0,
                                      True))


@case("triangle inequality broken")
def _triangle():
    return (lambda: chk.metric_triple(1.0, 1.0, 1.0, 1.9),
            lambda: chk.metric_triple(1.0, 1.0, 1.0, 2.001))


@case("distance not symmetric by 1e-3")
def _symmetry():
    return (lambda: chk.metric_triple(1.0, 1.0, 1.0, 1.5),
            lambda: chk.metric_triple(1.0, 1.001, 1.0, 1.5))


@case("isometry moving a distance by 1e-3")
def _invariance():
    return (lambda: chk.invariance(2.5, 2.5), lambda: chk.invariance(2.501, 2.5))


@case("subset-sum walls missing one")
def _walls():
    weights = [1, 1, 2, 2]
    right = o.subset_sum_walls(weights)
    return (lambda: chk.walls(right, not right, weights),
            lambda: chk.walls(right[1:], False, weights))


@case("order matrix with one entry flipped")
def _order_matrix():
    model = o.indexed_group("B2")
    words = model.model.all_words()
    labels = ["".join("ab"[s] for s in w) or "e" for w in words]
    below = model.below_masks()
    leq = [[(below[v] >> u) & 1 for v in range(model.size)]
           for u in range(model.size)]
    bad = [row[:] for row in leq]
    bad[1][2] ^= 1

    def element(label):
        word = () if label == "e" else tuple("ab".index(c) for c in label)
        return model.index[model.model.from_word(word)]
    return (lambda: chk.order_matrix(labels, leq, model, element),
            lambda: chk.order_matrix(labels, bad, model, element))


def main():
    bad = 0
    for name, make in CASES:
        right, wrong = make()
        try:
            right()
            accepted = True
        except chk.CheckFailed as exc:
            accepted = False
            print(f"FAIL {name}: right answer rejected ({exc})")
        try:
            wrong()
            rejected = False
            print(f"FAIL {name}: wrong answer accepted")
        except chk.CheckFailed:
            rejected = True
        bad += not (accepted and rejected)
        if accepted and rejected:
            print(f"ok   {name}")
    print(f"{len(CASES) - bad}/{len(CASES)} checks reject their wrong answer")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
