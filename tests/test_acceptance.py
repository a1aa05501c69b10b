"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Every tolerance and budget is pinned here; run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import time
from fractions import Fraction

import numpy as np

from helpers import random_flag, sl3_flat_chart, subword_leq
from weylkit import configurations as cf
from weylkit import flagdyn as fd
from weylkit import morse
from weylkit import symspace as ss
from weylkit import thickenings as th
from weylkit.coxeter import build_group, bruhat_leq

SCHOTTKY_N0 = 6  # frozen regression value for the standard pair


def _criterion(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def _rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _standard_pair():
    g1 = np.diag([4.0, 1.0, 0.25])
    h = _rot_z(0.8) @ _rot_x(0.5) @ _rot_z(0.3)
    return g1, h @ g1 @ h.T


def test_criterion_1_balanced_counts():
    t0 = time.perf_counter()
    counts = {t: th.count_balanced(build_group(t))
              for t in ("A2", "A3", "B2", "G2", "A1^2")}
    elapsed = time.perf_counter() - t0
    assert counts == {"A2": 1, "A3": 10, "B2": 2, "G2": 2, "A1^2": 2}
    assert elapsed < 5.0
    _criterion(1, f"balanced counts {counts} in {elapsed:.2f}s")


def test_criterion_2_bruhat_oracle_equivalence():
    t0 = time.perf_counter()
    pairs = 0
    for desc in ("A3", "B2"):
        W = build_group(desc)
        for u in W:
            for v in W:
                assert bruhat_leq(u, v) == subword_leq(u, v)
                pairs += 1
    elapsed = time.perf_counter() - t0
    assert pairs == 24 * 24 + 8 * 8
    assert elapsed < 10.0
    _criterion(2, f"order matches subword oracle on {pairs} pairs "
                  f"in {elapsed:.2f}s")


def test_criterion_3_position_oracle_and_genericity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31173)
    checked = 0
    for n in (3, 4, 5):
        for _ in range(67):
            mats = []
            for _side in range(2):
                while True:
                    m = [[Fraction(int(rng.integers(-8, 9)), 16)
                          for _ in range(n)] for _ in range(n)]
                    num = np.array([[float(x) for x in row] for row in m])
                    if abs(np.linalg.det(num)) > 1e-3:
                        mats.append((m, num))
                        break
            (ma, fa), (mb, fb) = mats
            exact = fd.relative_position_exact(ma, mb)
            numeric = fd.relative_position(fd.flag_from_basis(fa),
                                           fd.flag_from_basis(fb))
            assert numeric.w == exact.w
            checked += 1
    assert checked >= 200
    generic = 0
    for n in (3, 4, 5):
        for _ in range(67):
            a = random_flag(n, rng)
            b = random_flag(n, rng)
            res = fd.relative_position(a, b)
            assert res.w == res.w.group.w0
            generic += 1
    assert generic >= 200
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _criterion(3, f"{checked} rational pairs match the exact oracle, "
                  f"{generic} generic pairs are transversal, {elapsed:.2f}s")


def test_criterion_4_finsler_metric_laws():
    rng = np.random.default_rng(8371)

    def rand_point():
        g = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        while abs(np.linalg.det(g)) < 0.1:
            g = np.eye(3) + 0.5 * rng.standard_normal((3, 3))
        return ss.point_from_group(g)

    for _ in range(1000):
        x, y, z = rand_point(), rand_point(), rand_point()
        assert abs(ss.finsler_distance(x, y) - ss.finsler_distance(y, x)) <= 1e-9
        tri = (ss.finsler_distance(x, y) + ss.finsler_distance(y, z)
               - ss.finsler_distance(x, z))
        assert tri >= -1e-9

    inside = 0
    for _ in range(100):
        x, y = rand_point(), rand_point()
        m = ss.midpoint(x, y)
        defect = morse.finsler_betweenness_defect(x, y, m)
        assert defect <= 1e-8
        assert morse.diamond_membership(x, y, m)
        inside += 1

    outside = 0
    for k in range(100):
        scale = 1.0 + 0.01 * k
        x = ss.origin(3)
        y = ss.flat_point(scale * np.array([2.0, 0.0, -2.0]))
        q = _rot_x(0.7 + 0.002 * k)
        z = ss.apply_isometry(q, ss.flat_point(scale * np.array([0.0, 2.0, -2.0])))
        defect = morse.finsler_betweenness_defect(x, y, z)
        assert defect >= 1e-3
        assert not morse.diamond_membership(x, y, z)
        outside += 1
    _criterion(4, f"metric laws on 1000 triples, {inside} midpoints inside "
                  f"diamonds, {outside} constructed points outside")


def test_criterion_5_regularity_diagnostics():
    gs = [np.diag([2.0 ** k, 1.0, 2.0 ** -k]) for k in range(1, 9)]
    rep = ss.sequence_regularity(gs)
    for k, row in zip(range(1, 9), rep.margins):
        assert np.abs(row - k * np.log(2.0)).max() <= 1e-10
    assert rep.regular_trend

    m = 100  # window length up to 200 in integer parameters
    xs = np.arange(-m, m + 1.0)
    kink = [sl3_flat_chart(x, abs(x)) for x in xs]
    kink_rep = morse.morse_defect_report(kink, window=10.0, L=2.0, A=1.0)
    lengths = kink_rep.window_lengths
    defects = kink_rep.window_defects
    full = defects[-1]
    half = defects[np.searchsorted(lengths, lengths[-1] // 2)]
    assert lengths[-1] == 2 * m
    assert full >= 1.5 * half > 0.0  # at least linear growth

    rng = np.random.default_rng(555)
    slopes = rng.uniform(0.3, np.sqrt(3.0) - 0.3, size=2 * m)
    ys = np.concatenate([[0.0], np.cumsum(slopes)])
    graph = [sl3_flat_chart(x, y) for x, y in zip(np.arange(2 * m + 1.0), ys)]
    graph_rep = morse.morse_defect_report(graph, window=10.0, L=2.5, A=0.5)
    assert graph_rep.window_defects.max() <= 1e-8
    assert graph_rep.qi_lower_margin > -1e-8
    assert graph_rep.qi_upper_margin > -1e-8
    ratio = full / max(graph_rep.window_defects.max(), 1e-12)
    assert ratio > 1e6
    _criterion(5, f"margins exact, kink defect grows {half:.1f} -> {full:.1f} "
                  f"over windows up to {lengths[-1]}, graph stays <= 1e-8")


def test_criterion_6_schottky_certificate():
    t0 = time.perf_counter()
    g1, g2 = _standard_pair()
    n0 = morse.find_schottky_threshold([g1, g2], max_power=40,
                                       epsilon=0.2, spacing=10.0)
    assert n0 == SCHOTTKY_N0  # frozen regression value
    for N in range(n0, n0 + 4):
        rep = morse.schottky_certificate([g1, g2], N, epsilon=0.2, spacing=10.0)
        assert rep.passed
    data = morse.orbit_growth([g1, g2], n0, 8)
    ratios = [d / l for l, d in data]
    assert max(ratios) <= 3.0 * min(ratios)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _criterion(6, f"threshold N0={n0}, passes N0..N0+3, orbit ratio band "
                  f"[{min(ratios):.2f}, {max(ratios):.2f}], {elapsed:.1f}s")


def test_criterion_7_expansion_divergence():
    g = np.diag([4.0, 1.0, 0.25])  # singular value gaps lambda^2 = 4
    lam = 2.0
    flag = fd.attracting_flag(g)
    logs = []
    for k in range(1, 6):
        gk = np.linalg.matrix_power(np.linalg.inv(g), k)
        logs.append(np.log(fd.expansion_factor(gk, flag, step=1e-6)))
    logs = np.array(logs)
    assert np.all(np.diff(logs) > 0)  # diverging expansion
    slope = np.polyfit(np.arange(1, 6), logs, 1)[0]
    assert abs(slope - 2.0 * np.log(lam)) <= 0.25 * 2.0 * np.log(lam)
    _criterion(7, f"log expansion grows affinely, slope {slope:.4f} vs "
                  f"2 log 2 = {2 * np.log(2):.4f}")


def test_criterion_8_git_cross_validation():
    rng = np.random.default_rng(2718)
    checked = 0
    for _ in range(10000):
        n = int(rng.integers(1, 7))
        support = [Fraction(int(k), 9) for k in rng.integers(0, 10, size=n)]
        weights = [Fraction(int(p), int(q)) for p, q in
                   zip(rng.integers(1, 9, size=n), rng.integers(1, 6, size=n))]
        z = cf.WeightedConfig.circle(support, weights)
        strict = bool(rng.integers(0, 2))
        cf.diagonal_thickening_check(z, strict=strict)  # raises on mismatch
        checked += 1
    assert checked == 10000

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part

    exhaustive = 0
    for n in range(1, 5):
        for weights in ([Fraction(1)] * n,
                        [Fraction(k + 1) for k in range(n)],
                        [Fraction(1, k + 2) for k in range(n)]):
            for part in partitions(list(range(n))):
                angles = [Fraction(0)] * n
                for ci, cluster in enumerate(part):
                    for i in cluster:
                        angles[i] = Fraction(ci)
                z = cf.WeightedConfig.circle(angles, weights)
                for strict in (True, False):
                    cf.diagonal_thickening_check(z, strict=strict)
                    exhaustive += 1
    _criterion(8, f"backends agree on {checked} random configurations and "
                  f"{exhaustive} exhaustive coincidence patterns")


def test_criterion_9_nondiscreteness_probe():
    t0 = time.perf_counter()

    def rotation(axis, angle):
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        k = np.array([[0, -axis[2], axis[1]],
                      [axis[2], 0, -axis[0]],
                      [-axis[1], axis[0], 0]])
        return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)

    dense = fd.nondiscreteness_certificate(
        [rotation([0, 0, 1], 2.4), rotation([1, 0, 0], 1.7)],
        epsilon=0.1, max_len=12)
    assert dense.found
    assert dense.certificate.commutator_norm > 1e-6

    e12 = np.eye(3)
    e12[0, 1] = 1.0
    e23 = np.eye(3)
    e23[1, 2] = 1.0
    arithmetic = fd.nondiscreteness_certificate([e12, e23],
                                                epsilon=0.1, max_len=8)
    assert not arithmetic.found
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0

    rerun = fd.nondiscreteness_certificate(
        [rotation([0, 0, 1], 2.4), rotation([1, 0, 0], 1.7)],
        epsilon=0.1, max_len=12)
    assert rerun.certificate.words == dense.certificate.words  # deterministic
    _criterion(9, f"dense rotations certified by {dense.certificate.words}, "
                  f"integer generators give none, {elapsed:.1f}s")


def test_criterion_10_horofunction_convergence():
    rng = np.random.default_rng(606)
    for _ in range(20):
        g = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        while abs(np.linalg.det(g)) < 0.1:
            g = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        p = ss.point_from_group(g)
        g2 = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        while abs(np.linalg.det(g2)) < 0.1:
            g2 = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        x = ss.point_from_group(g2)
        gaps = 1.0 + rng.random(2)
        direction = np.array([gaps[0] + gaps[1], gaps[1], 0.0])
        direction = direction - direction.mean()
        est = ss.horofunction_estimate(p, direction, x, [5, 10, 20, 40])
        assert abs(est.estimates[-1] - est.estimates[-2]) < 1e-6
        assert est.converged
        offset = rng.standard_normal(3)
        est2 = ss.horofunction_estimate(p, direction, x, [5, 10, 20, 40],
                                        offset=offset)
        assert abs(est.value - est2.value) < 1e-6
    _criterion(10, "20 random rays converge (|est(40)-est(20)| < 1e-6) and "
                   "two sampling schemes agree in the limit")
