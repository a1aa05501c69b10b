"""Checks of the program's answers against ``oracles``.

Each check raises :class:`CheckFailed` when an answer is wrong and
returns nothing when it is right.  The checks take plain values, so ``selftest.py`` can feed them deliberately
wrong answers.
"""

from __future__ import annotations

import math

import numpy as np

import oracles as o


class CheckFailed(Exception):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def equal(got, want, what):
    require(got == want, f"{what}: got {got!r}, want {want!r}")


def close(got, want, tol, what):
    got, want = np.asarray(got, float), np.asarray(want, float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    require(err <= tol, f"{what}: off by {err:.3g} (tolerance {tol:g})")


# --- exact layer ---------------------------------------------------------------

def group_shape(text, order, reflections, top_length):
    equal(order, o.group_order(text), f"|W({text})|")
    equal(reflections, o.reflection_count(text), f"reflections of {text}")
    equal(top_length, o.reflection_count(text), f"length of w0 in {text}")


def leq_masks(masks, order, model=None):
    equal(len(masks), order, "number of masks")
    require(masks[0] == 1, "the identity is below only itself")
    require(max(masks, key=int.bit_count).bit_count() == order,
            "the longest element is above everything")
    if model is not None:
        require(list(masks) == model.below_masks(),
                "masks differ from the order generated by reflection covers")


def bruhat_answer(got, want):
    equal(bool(got), want, "bruhat_leq")


def balanced_family(masks, model):
    require(len(set(masks)) == len(masks), "a thickening is listed twice")
    for m in masks:
        require(model.is_down_closed(m), "thickening is not downward closed")
        shifted = model.w0_shift(m)
        require(m & shifted == 0, "thickening is not slim")
        require(m | shifted == model.full, "thickening is not fat")


def balanced_count(got, want, what):
    equal(got, want, f"balanced count of {what}")


def diagonal_verdict(got, angles, weights, strict):
    equal(bool(got), o.in_diagonal_thickening(angles, weights, strict),
          "diagonal thickening membership")


# --- flags ---------------------------------------------------------------------

def position(got_label, a, b):
    equal(got_label, o.one_line_label(o.exact_position(a, b)), "position")


def limit_sample(frames, words, margins, generators, max_len, threshold,
                 dedup_angle=1e-6):
    """Flags orthonormal, words reduced and distinct, margins and flags
    those of the word products, margins above the threshold, flags
    pairwise apart, and every qualifying word represented."""
    equal(len(words), len(frames), "words per flag")
    require(len(set(words)) == len(words), "a word is listed twice")
    gens = [g / abs(np.linalg.det(g)) ** (1.0 / g.shape[0]) for g in generators]
    for f, word, mg in zip(frames, words, margins):
        f = np.asarray(f, float)
        require(np.abs(f.T @ f - np.eye(3)).max() < 1e-10,
                f"flag of {word} is not orthonormal")
        require(o.is_reduced(word) and 1 <= len(word) <= max_len,
                f"word {word!r} is not a reduced word of length <= {max_len}")
        u, s, _ = np.linalg.svd(o.word_matrix(word, gens))
        logs = np.log(s)
        close(mg, logs[:-1] - logs[1:], 1e-8 * max(1.0, logs[0]),
              f"margins of {word}")
        require(min(mg) >= threshold, f"margin of {word} below threshold")
        require(o.flag_angle_3(f, u) < 1e-6,
                f"flag of {word} is not its attracting flag")
    if len(frames) > 1:
        require(o.pairwise_min_angle_3(frames) >= dedup_angle,
                "two stored flags are not apart")
    # every reduced word clearing the threshold has a stored flag nearby
    stack = np.asarray(frames, float)
    for word in _reduced_words(len(generators), max_len):
        u, s, _ = np.linalg.svd(o.word_matrix(word, gens))
        logs = np.log(s)
        if (logs[:-1] - logs[1:]).min() < threshold + 1e-9:
            continue
        line = np.abs(stack[:, :, 0] @ u[:, 0])
        plane = np.abs(stack[:, :, 2] @ u[:, 2])
        near = np.arccos(np.clip(np.minimum(line, plane).max(), -1, 1))
        require(near < 10 * dedup_angle, f"word {word} has no stored flag")


def _reduced_words(generators, max_len):
    letters = [chr(ord("a") + i) for i in range(generators)]
    letters += [c.upper() for c in letters]
    level = [""]
    for _ in range(max_len):
        level = [w + c for w in level for c in letters
                 if not (w and w[-1] != c and w[-1].lower() == c.lower())]
        yield from level


def membership(verdict, witness, flag_basis, sample_frames, members):
    """A True verdict needs a witness in a member position; a False one
    needs every sample flag outside the thickening."""
    members = set(members)
    if verdict:
        require(witness is not None, "membership without a witness")
        pos = o.one_line_label(o.exact_position(flag_basis, witness))
        require(pos in members, f"witness position {pos} not in thickening")
        return
    for lam in sample_frames:
        if _transversal_3(flag_basis, lam):
            require("321" not in members, "w0 is in a balanced thickening")
            continue
        pos = o.one_line_label(o.exact_position(flag_basis, lam))
        require(pos not in members, f"flag in position {pos} was missed")


def _transversal_3(a, b, floor=1e-10):
    a, b = np.asarray(a, float), np.asarray(b, float)
    d1 = np.linalg.det(np.column_stack([a[:, 0], b[:, 0], b[:, 1]]))
    d2 = np.linalg.det(np.column_stack([a[:, 0], a[:, 1], b[:, 0]]))
    return min(abs(d1), abs(d2)) > floor


def probe(found, words, norm, words_searched, generators, max_len, epsilon,
          comm_tol=1e-6):
    """Certificate words recomputed from the generators: each element is
    within epsilon of the identity and the iterated commutator has the
    reported norm, above the tolerance."""
    equal(words_searched, o.reduced_word_count(len(generators), max_len),
          "words searched")
    if not found:
        return
    n = generators[0].shape[0]
    mats = [o.word_matrix(w, generators) for w in words]
    for w, m in zip(words, mats):
        require(o.is_reduced(w), f"certificate word {w} is not reduced")
        require(np.linalg.norm(m - np.eye(n), 2) < epsilon,
                f"certificate word {w} is not near the identity")
    cm = o.iterated_commutator(mats)
    got = float(np.linalg.norm(cm - np.eye(n), 2))
    require(abs(got - norm) <= 1e-6 * max(norm, 1e-12),
            f"commutator norm {norm} recomputes to {got}")
    require(got > comm_tol, "commutator is the identity")


def expansion(got, k):
    """The attracting flag of Q diag(4, 1, 1/4) Q^T is expanded by g^-k
    exactly by 4^k (smallest ratio of the eigenvalue moduli)."""
    require(abs(got / 4.0 ** k - 1.0) < 1e-4,
            f"expansion {got} != 4^{k} = {4.0 ** k}")


# --- certificates --------------------------------------------------------------

def schottky(passed, min_spacing, triple_names, previous_spacing):
    """The certificate must pass, and min spacing cannot fall as N grows."""
    equal(sorted(triple_names), sorted(schottky_triples()), "triples")
    require(passed, "certificate fails")
    if previous_spacing is not None:
        require(min_spacing >= previous_spacing,
                f"min spacing fell from {previous_spacing:.4f} to "
                f"{min_spacing:.4f}")


def schottky_triples():
    """(alpha, beta, gamma) over a, A, b, B with alpha != beta and
    beta gamma != 1."""
    letters = "aAbB"
    return ["".join(t) for t in
            ((x, y, z) for x in letters for y in letters for z in letters)
            if t[0] != t[1] and t[2] != t[1].swapcase()]


def orbit_growth(data, reference, tol=1e-6):
    """Orbit distances per word length, against mpmath products; compared
    as sorted lists per length so word order does not matter."""
    got, want = {}, {}
    for length, d in data:
        got.setdefault(length, []).append(d)
    for length, d in reference:
        want.setdefault(length, []).append(d)
    equal(sorted(got), sorted(want), "word lengths")
    for length in want:
        equal(len(got[length]), len(want[length]), f"words of length {length}")
        g, w = np.sort(got[length]), np.sort(want[length])
        err = float(np.max(np.abs(g - w) / np.maximum(1.0, w)))
        require(err <= tol, f"length {length}: relative error {err:.3g}")


def threshold(n0, scan_passed):
    """The threshold is a passing N no larger than any passing N scanned."""
    require(n0 is not None, "no threshold found")
    passing = [n for n, ok in scan_passed.items() if ok]
    if passing:
        require(n0 <= min(passing), f"threshold {n0} above a passing N")
    if n0 in scan_passed:
        require(scan_passed[n0], f"threshold {n0} does not pass")


def horofunction(estimates, converged, value, value_offset):
    require(abs(estimates[-1] - estimates[-2]) < 1e-6, "estimates not settled")
    require(converged, "estimate reports no convergence")
    require(abs(value - value_offset) < 1e-6, "offset changes the limit")


def defect_report(report, vectors, window, L, A, kink):
    lower, upper, lengths, defects = o.flat_path_report(vectors, window, L, A)
    equal(list(report.window_lengths), lengths, "window lengths")
    close(report.window_defects, defects, 1e-7, "window defects")
    close([report.qi_lower_margin, report.qi_upper_margin], [lower, upper],
          1e-7, "quasi-isometry margins")
    if kink:
        full = defects[-1]
        half = defects[lengths.index(lengths[-1] // 2)]
        require(full >= 1.5 * half > 0.0, "kink defect does not grow")
    else:
        require(max(defects) <= 1e-8, "straight graph has a defect")


def symmetric(dxy, dyx):
    require(abs(dxy - dyx) <= 1e-9 * max(1.0, dxy), "distance not symmetric")


def metric_triple(dxy, dyx, dyz, dxz):
    require(all(math.isfinite(d) for d in (dxy, dyx, dyz, dxz)),
            "distance is not finite")
    symmetric(dxy, dyx)
    require(dxy + dyz - dxz >= -1e-9 * max(1.0, dxz), "triangle inequality")


def invariance(d_moved, d):
    require(abs(d_moved - d) <= 1e-8 * max(1.0, d), "isometry moves distance")


def flat_distance(got, a, b, metric):
    want = {"delta": o.flat_delta, "finsler": o.flat_finsler,
            "riemannian": o.flat_riemannian}[metric](a, b)
    close(got, want, 1e-9 * max(1.0, float(np.max(np.abs(want)))),
          f"{metric} distance on the diagonal flat")


def walls(got_walls, in_open_chamber, weights):
    want = o.subset_sum_walls(weights)
    equal([list(w) for w in got_walls], want, "subset-sum walls")
    equal(in_open_chamber, not want, "open chamber")


def order_matrix(labels, leq, model, element_of_label):
    """The exported order equals the order generated by reflection covers."""
    equal(len(labels), model.size, "labels")
    below = model.below_masks()
    idx = [element_of_label(lab) for lab in labels]
    require(len(set(idx)) == len(idx), "two labels name one element")
    for v, row_v in enumerate(idx):
        mask = below[row_v]
        for u, row_u in enumerate(idx):
            if leq[u][v] != (mask >> row_u) & 1:
                raise CheckFailed(f"order differs at ({labels[u]}, {labels[v]})")
