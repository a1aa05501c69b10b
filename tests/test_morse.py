"""Straightness, diamonds, free-group certificates, defect reports.

Angles computed through the eigenframe machinery are checked against a
closed-form oracle for configurations inside the diagonal flat, and the
|x|-graph vs bounded-slope-graph dichotomy is measured directly.
"""

import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import mp_oracle
import helpers
from helpers import reduced_words, sl3_flat_chart
from weylkit import flagdyn, morse
from weylkit import symspace as ss
from weylkit.errors import (DegenerateSegment, NotAntipodalGenerators,
                            TieError)
from weylkit.morse import (ZetaType, diamond_membership,
                           finsler_betweenness_defect, morse_defect_report,
                           schottky_certificate, straightness_check,
                           zeta_angle, zeta_direction)


def _rng():
    return np.random.default_rng(7041)


def _rot_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _schottky_pair():
    g1 = np.diag([4.0, 1.0, 0.25])
    h = _rot_z(0.8) @ _rot_x(0.5) @ _rot_z(0.3)
    return g1, h @ g1 @ h.T


# --- zeta machinery -----------------------------------------------------------

def test_default_zeta():
    z = ZetaType.default(3)
    v = np.array(z.vector)
    assert np.allclose(v, [1 / np.sqrt(2), 0.0, -1 / np.sqrt(2)])


def test_zeta_validation():
    with pytest.raises(ValueError):
        ZetaType((1.0, 0.0, 0.0))  # not traceless
    with pytest.raises(ValueError):
        ZetaType((0.5, 0.5, -1.0))  # on a wall
    with pytest.raises(ValueError):
        ZetaType((0.9, 0.1, -1.0))  # not duality-symmetric
    with pytest.raises(ValueError):
        ZetaType((2.0, 0.0, -2.0))  # not unit norm
    # every check compares with NaN, so (nan, 0, nan) would pass them all
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"^type vector entries must be "
                                             f"finite, got {bad}$"):
            ZetaType((bad, 0.0, -bad))


def test_zeta_direction_model_case():
    o = ss.origin(3)
    y = ss.SymPoint(np.diag([np.e ** 2, 1.0, np.e ** -2]))
    v = zeta_direction(o, y)
    assert np.allclose(v, np.diag([1, 0, -1]) / np.sqrt(2), atol=1e-12)


def test_zeta_direction_equivariance():
    rng = _rng()
    o = ss.origin(3)
    y = ss.point_from_group(np.eye(3) + 0.4 * rng.standard_normal((3, 3)))
    g = rng.standard_normal((3, 3))
    g /= abs(np.linalg.det(g)) ** (1 / 3)
    v = zeta_direction(o, y)
    vg = zeta_direction(ss.apply_isometry(g, o), ss.apply_isometry(g, y))
    assert np.abs(vg - g @ v @ g.T).max() < 1e-8


def test_zeta_direction_wall_raises():
    o = ss.origin(3)
    wall = ss.SymPoint(np.diag([np.e, np.e, np.e ** -2]))
    with pytest.raises(TieError):
        zeta_direction(o, wall)


def test_zeta_angle_same_and_opposite():
    o = ss.origin(3)
    y = ss.flat_point([2.0, 0.4, -2.4])
    assert zeta_angle(o, y, y) == 0.0
    opposite = ss.geodesic(o, y, -1.0)
    assert abs(zeta_angle(o, y, opposite) - np.pi) < 1e-12


def test_zeta_angle_matches_flat_oracle():
    # both segments inside the diagonal flat: the angle is the euclidean
    # angle between permuted copies of the type vector
    z = ZetaType.default(3)
    o = ss.origin(3)
    rng = _rng()
    for _ in range(20):
        u = rng.standard_normal(3)
        v = rng.standard_normal(3)
        u -= u.mean()
        v -= v.mean()
        if min(np.diff(np.sort(u))) < 0.2 or min(np.diff(np.sort(v))) < 0.2:
            continue
        y1 = ss.flat_point(u)
        y2 = ss.flat_point(v)
        zu = morse.flat_zeta_vector(u, z)
        zv = morse.flat_zeta_vector(v, z)
        with mp.workdps(40):  # a float arccos cannot resolve 0 or pi
            a, b = mp.matrix(zu.tolist()), mp.matrix(zv.tolist())
            cos = mp.fdot(a, b) / (mp.norm(a) * mp.norm(b))
            want = float(mp.acos(max(-1, min(1, cos))))
        got = zeta_angle(o, y1, y2, z)
        assert abs(got - want) < 1e-12


# --- diamonds -----------------------------------------------------------------

def test_midpoint_inside_diamond():
    rng = _rng()
    for _ in range(50):
        x = ss.point_from_group(np.eye(3) + 0.5 * rng.standard_normal((3, 3)))
        y = ss.point_from_group(np.eye(3) + 0.5 * rng.standard_normal((3, 3)))
        m = ss.midpoint(x, y)
        assert diamond_membership(x, y, m)
        assert finsler_betweenness_defect(x, y, m) < 1e-10


def test_endpoint_inside_diamond():
    o = ss.origin(3)
    y = ss.flat_point([1.0, 0.0, -1.0])
    assert diamond_membership(o, y, o)


def test_far_point_outside_diamond():
    o = ss.origin(3)
    y = ss.flat_point([2.0, 0.0, -2.0])
    q = _rot_x(0.9)
    z = ss.apply_isometry(q, ss.flat_point([0.0, 2.0, -2.0]))
    assert not diamond_membership(o, y, z)
    assert finsler_betweenness_defect(o, y, z) > 1e-3


# --- straightness certificates ---------------------------------------------------

def test_two_point_path_passes():
    cone = ss.RegularityCone(0.3)
    o = ss.origin(3)
    y = ss.flat_point([4.0, 0.0, -4.0])
    cert = straightness_check([o, y], cone, epsilon=0.2, spacing=5.0)
    assert cert.verdict
    assert cert.spacing_margin > 0
    assert cert.first_violation is None


def test_collinear_path_angle_pi():
    cone = ss.RegularityCone(0.3)
    pts = [ss.flat_point(t * np.array([4.0, 0.0, -4.0])) for t in (0, 1, 2)]
    cert = straightness_check(pts, cone, epsilon=0.2, spacing=5.0)
    assert cert.verdict
    assert cert.straightness_margin > 0.19  # angle is exactly pi


def test_zigzag_fails_straightness():
    # alternate between directions in two DIFFERENT chambers (type
    # vectors agree within one chamber, so a one-chamber zigzag is
    # straight); here the second direction has its middle coordinate
    # largest
    cone = ss.RegularityCone(0.02)
    u = np.array([3.0, 0.3, -3.3])
    v = np.array([0.3, 3.0, -3.3])
    pts = [ss.flat_point([0.0, 0.0, 0.0])]
    acc = np.zeros(3)
    for k in range(4):
        acc = acc + (u if k % 2 == 0 else v)
        pts.append(ss.flat_point(acc))
    cert = straightness_check(pts, cone, epsilon=0.1, spacing=1.0)
    assert not cert.verdict
    assert cert.straightness_margin < 0
    assert cert.first_violation[0] == "straightness"


def test_spacing_violation_reported():
    cone = ss.RegularityCone(0.3)
    o = ss.origin(3)
    y = ss.flat_point([0.5, 0.0, -0.5])
    cert = straightness_check([o, y], cone, epsilon=0.2, spacing=5.0)
    assert not cert.verdict
    assert cert.first_violation == ("spacing", 0)


def _straightness_pair_by_pair(path, cone, spacing):
    """The segment reading that the stacked one replaces: two distance
    calls per segment."""
    margin, flags, first = np.inf, [], None
    for i in range(len(path) - 1):
        seg = ss.riemannian_distance(path[i], path[i + 1])
        margin = min(margin, seg - spacing)
        if seg - spacing < 0 and first is None:
            first = ("spacing", i)
        ok = ss.theta_regular_segment(path[i], path[i + 1], cone)
        flags.append(ok)
        if not ok and first is None:
            first = ("regularity", i)
    return margin, flags, first


def test_straightness_segments_match_pair_by_pair():
    rng = _rng()
    cone = ss.RegularityCone(0.3)
    pts = [ss.point_from_group(np.eye(3) + 0.6 * rng.standard_normal((3, 3)))
           for _ in range(20)]
    cert = straightness_check(pts, cone, epsilon=3.0, spacing=1.0)
    margin, flags, first = _straightness_pair_by_pair(pts, cone, 1.0)
    assert cert.spacing_margin == margin and cert.regularity_flags == flags
    assert 0 < flags.count(False) < len(flags)
    assert cert.first_violation == first


def test_straightness_repeated_point_raises():
    cone = ss.RegularityCone(0.05)
    pts = [ss.flat_point([0.0, 0.0, 0.0]), ss.flat_point([4.0, 1.0, -5.0])]
    with pytest.raises(DegenerateSegment):
        straightness_check(pts + pts[1:], cone)


# --- free group certificates -------------------------------------------------------

def test_schottky_cyclic_generator_passes():
    g = np.diag([4.0, 1.0, 0.25])
    for N in (4, 6):
        rep = schottky_certificate([g], N, epsilon=0.2, spacing=4.0)
        assert rep.passed
    # spacing grows linearly in N
    spacings = [schottky_certificate([g], N, epsilon=0.2, spacing=1.0
                                     ).min_spacing for N in (2, 4, 8)]
    assert abs(spacings[2] / spacings[1] - 2.0) < 0.2
    assert abs(spacings[1] / spacings[0] - 2.0) < 0.2


def test_schottky_pair_certificate_found():
    g1, g2 = _schottky_pair()
    N0 = morse.find_schottky_threshold([g1, g2], max_power=40,
                                       epsilon=0.2, spacing=10.0)
    assert N0 is not None
    rep = schottky_certificate([g1, g2], N0, epsilon=0.2, spacing=10.0)
    assert rep.passed
    assert not schottky_certificate([g1, g2], max(1, N0 - 1),
                                    epsilon=0.2, spacing=10.0).passed


def test_schottky_spacing_monotone_in_N():
    g1, g2 = _schottky_pair()
    N0 = morse.find_schottky_threshold([g1, g2], max_power=40,
                                       epsilon=0.2, spacing=10.0)
    reps = [schottky_certificate([g1, g2], N, epsilon=0.2, spacing=10.0)
            for N in range(N0, 41)]
    assert all(rep.passed for rep in reps)
    vals = [rep.min_spacing for rep in reps]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_schottky_max_angle_decreases_in_N():
    # the bend at the middle midpoint halves with each N, below the 2e-8
    # that an arccos of the trace can resolve from N = 28 on
    gens = list(_schottky_pair())
    angles = [schottky_certificate(gens, N).max_angle for N in range(24, 41)]
    assert all(b < a for a, b in zip(angles, angles[1:]))


def _relative_error(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


def test_graded_logs_match_mpmath_on_criterion_6_words():
    # the words of orbit_growth(pair, 6, 8): all of length <= 3 and every
    # 101st longer one, against products formed in mpmath
    gens = list(_schottky_pair())
    levels = []
    worst = 0.0
    with mp.workdps(100):  # the longest words span about e^133
        letters = mp_oracle.power_letters(gens, 6)
        for parent, letter, words in reduced_words(
                morse._power_letters(gens, 6), 8):
            levels.append((parent, letter))
            _, logs, _ = words.svd()
            rows = range(len(parent)) if len(levels) <= 3 else \
                range(0, len(parent), 101)
            for row in rows:
                want = mp_oracle.word_logs(
                    letters, flagdyn.word_of(4, len(levels), row))
                worst = max(worst, _relative_error(logs[row], want))
    assert worst < 1e-9


@pytest.mark.parametrize("N", [10, 20, 30, 40])
def test_graded_logs_match_mpmath_on_long_powers(N):
    # g1^N g2^N g1^N spans about e^(8.3 N): float64 products lose every
    # small singular value from N = 10 on
    gens = list(_schottky_pair())
    letters = morse._power_letters(gens, N)
    _, logs, _ = (letters[0] @ letters[2] @ letters[0]).svd()
    with mp.workdps(40 + 4 * N):
        want = mp_oracle.word_logs(mp_oracle.power_letters(gens, N),
                                   [0, 2, 0])
    assert _relative_error(logs, want) < 1e-9


def test_schottky_shared_eigenvector_rejected():
    g1 = np.diag([4.0, 1.0, 0.25])
    g2 = _rot_z(0.7) @ g1 @ _rot_z(-0.7)  # shares the e3 eigenvector
    with pytest.raises(NotAntipodalGenerators):
        schottky_certificate([g1, g2], 4)


def test_orbit_growth_ratio_band():
    g1, g2 = _schottky_pair()
    data = morse.orbit_growth([g1, g2], 6, 6)
    ratios = [d / l for l, d in data]
    assert max(ratios) <= 3.0 * min(ratios)


def test_orbit_growth_needs_a_generator():
    with pytest.raises(ValueError, match="at least one generator"):
        morse.orbit_growth([], 6, 2)


def test_orbit_growth_is_the_orbit_distance():
    # a distance is 2 |delta(o, w.o)|, read from the centred chamber
    # vector, so a scalar factor of a generator changes nothing
    g = np.array([[2.0, 1.0], [1.0, 3.0]])
    h = np.array([[3.0, 0.5], [1.0, 1.0]])
    data = morse.orbit_growth([g, h], 1, 2)
    words = [g, np.linalg.inv(g), h, np.linalg.inv(h)]
    words += [a @ b for i, a in enumerate(words) for j, b in enumerate(words)
              if j != i ^ 1]
    want = [2.0 * np.linalg.norm(ss.delta_distance(
        ss.origin(2), ss.point_from_group(w))) for w in words]
    assert np.allclose([d for _, d in data], want, rtol=1e-12, atol=0)
    for scale in (2.0, 0.1, 1e3):
        scaled = morse.orbit_growth([scale * g, h / scale], 1, 2)
        assert np.allclose([d for _, d in scaled], [d for _, d in data],
                           rtol=1e-12, atol=0)


@pytest.mark.parametrize("gens,message", [
    ([np.eye(3), np.eye(2)], "got shapes (3, 3), (2, 2)"),
    ([[[1.0, 0.0], [0.0, 1.0, 2.0]]], "matrix rows differ in length: [2, 3]"),
    ([np.eye(3), np.diag([1.0, np.nan, 1.0])],
     "matrix entries must be finite, got nan"),
    ([np.eye(3), np.diag([1.0, -np.inf, 1.0])],
     "matrix entries must be finite, got -inf"),
], ids=["two-sizes", "ragged", "nan", "-inf"])
def test_certificates_refuse_bad_generators(gens, message):
    for call in (lambda: schottky_certificate(gens, 4),
                 lambda: morse.orbit_growth(gens, 1, 2)):
        with pytest.raises(ValueError) as exc:
            call()
        assert message in str(exc.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name,call", [
    ("epsilon", lambda path, gens, v: straightness_check(
        path, ss.RegularityCone(0.01), epsilon=v, spacing=0.1)),
    ("spacing", lambda path, gens, v: straightness_check(
        path, ss.RegularityCone(0.01), epsilon=0.2, spacing=v)),
    ("epsilon", lambda path, gens, v: schottky_certificate(gens, 2, epsilon=v)),
    ("spacing", lambda path, gens, v: schottky_certificate(gens, 2, spacing=v)),
    ("window", lambda path, gens, v: morse_defect_report(path, window=v)),
    ("L", lambda path, gens, v: morse_defect_report(path, L=v)),
    ("A", lambda path, gens, v: morse_defect_report(path, A=v)),
], ids=["straightness-epsilon", "straightness-spacing", "schottky-epsilon",
        "schottky-spacing", "defect-window", "defect-L", "defect-A"])
def test_parameters_that_cannot_be_compared_are_refused(name, call, value):
    # every comparison with NaN is false: a NaN epsilon passed every vertex
    # and a NaN L read both qi margins as inf
    path = [ss.flat_point([2.0 * t, 0.0, -2.0 * t]) for t in range(3)]
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, "
                                         f"got {value}$"):
        call(path, list(_schottky_pair()), value)


# --- defect reports ------------------------------------------------------------------

def test_defect_report_geodesic_samples():
    direction = np.array([1.2, 0.1, -1.3])
    speed = 2.0 * np.linalg.norm(direction)  # riemannian speed
    pts = [ss.flat_point(t * direction) for t in range(12)]
    rep = morse_defect_report(pts, window=3.0, L=1.0, A=1e-9)
    # exact quasi-isometry with L = speed would need rescaling; check
    # straight-line additivity instead: defects vanish
    assert rep.window_defects.max() < 1e-9
    pts_unit = [ss.flat_point(t * direction / np.linalg.norm(direction))
                for t in range(12)]
    rep = morse_defect_report(pts_unit, window=3.0, L=1.0, A=1e-6)
    assert rep.qi_lower_margin > -1e-6
    assert rep.qi_upper_margin > -1e-6


def _graph_path(f, xs):
    return [sl3_flat_chart(x, f(x)) for x in xs]


def test_bounded_slope_graph_is_uniform_quasigeodesic():
    # slopes inside [0.3, sqrt(3) - 0.3]: all displacement vectors stay
    # in the chamber, so betweenness defects vanish identically
    rng = _rng()
    slopes = rng.uniform(0.3, np.sqrt(3.0) - 0.3, size=40)
    xs = np.arange(41.0)
    ys = np.concatenate([[0.0], np.cumsum(slopes)])
    pts = [sl3_flat_chart(x, y) for x, y in zip(xs, ys)]
    rep = morse_defect_report(pts, window=5.0, L=2.5, A=0.5)
    assert rep.window_defects.max() < 1e-9
    assert rep.qi_lower_margin > -1e-9
    assert rep.qi_upper_margin > -1e-9


def test_absolute_value_graph_defect_grows():
    m = 40
    pts = _graph_path(abs, np.arange(-m, m + 1.0))
    rep = morse_defect_report(pts, window=5.0, L=2.5, A=0.5)
    lengths = rep.window_lengths
    defects = rep.window_defects
    full = defects[-1]
    half = defects[np.searchsorted(lengths, lengths[-1] // 2)]
    assert full > 1.5 * half > 0  # at least linear growth in window size
    assert full > 10.0


def test_defect_report_segment_regular_flags():
    cone = ss.RegularityCone(0.1)
    pts = _graph_path(abs, np.arange(-3, 4.0))
    rep = morse_defect_report(pts, cone=cone, window=2.0)
    assert rep.segment_regular is not None
    assert all(rep.segment_regular)  # each unit segment has slope 1: interior
    wall_pts = [sl3_flat_chart(x, 0.0) for x in range(4)]
    rep2 = morse_defect_report(wall_pts, cone=cone, window=2.0)
    assert not any(rep2.segment_regular)


def _defect_report_pair_by_pair(path, cone=None, window=10.0, L=2.0, A=1.0):
    """The reading that the row-batched report replaces: one
    delta_distance call per pair and Python loops over pairs and
    windows."""
    m = len(path)
    phi = ss.FinslerFunctional.default(path[0].n)
    segment_regular = None
    if cone is not None:
        segment_regular = []
        for s in range(m - 1):
            try:
                segment_regular.append(
                    ss.theta_regular_segment(path[s], path[s + 1], cone))
            except DegenerateSegment:
                segment_regular.append(False)
    riem = np.zeros((m, m))
    fins = np.zeros((m, m))
    for s in range(m):
        for t in range(s + 1, m):
            v = ss.delta_distance(path[s], path[t])
            riem[s, t] = riem[t, s] = 2.0 * float(np.linalg.norm(v))
            fins[s, t] = fins[t, s] = phi(v)
    qi_lower = qi_upper = np.inf
    for s in range(m):
        for t in range(s + 1, m):
            qi_lower = min(qi_lower, riem[s, t] - ((t - s) / L - A))
            qi_upper = min(qi_upper, (L * (t - s) + A) - riem[s, t])
    lengths, defects = [], []
    for gap in range(2, m):
        if gap <= window:
            continue
        worst = 0.0
        for s in range(m - gap):
            t = s + gap
            inner = fins[s, s + 1:t] + fins[s + 1:t, t] - fins[s, t]
            worst = max(worst, float(inner.max()))
        lengths.append(gap)
        defects.append(worst)
    return (float(qi_lower), float(qi_upper), np.array(lengths, dtype=int),
            np.array(defects), segment_regular)


def _criterion_5_paths():
    m = 100
    kink = _graph_path(abs, np.arange(-m, m + 1.0))
    rng = np.random.default_rng(555)
    slopes = rng.uniform(0.3, np.sqrt(3.0) - 0.3, size=2 * m)
    ys = np.concatenate([[0.0], np.cumsum(slopes)])
    graph = [sl3_flat_chart(x, y) for x, y in zip(np.arange(2 * m + 1.0), ys)]
    return {"kink": (kink, 2.0, 1.0), "graph": (graph, 2.5, 0.5)}


def _assert_report_is(rep, want):
    qi_lower, qi_upper, lengths, defects, regular = want
    assert rep.qi_lower_margin == qi_lower
    assert rep.qi_upper_margin == qi_upper
    assert rep.window_lengths.dtype == lengths.dtype
    assert np.array_equal(rep.window_lengths, lengths)
    assert rep.window_defects.dtype == defects.dtype
    # bitwise: the same floats, not only equal ones
    assert rep.window_defects.tobytes() == defects.tobytes()
    assert rep.segment_regular == regular


@pytest.mark.parametrize("name", ["kink", "graph"])
def test_defect_report_matches_pair_by_pair_on_criterion_5(name):
    path, L, A = _criterion_5_paths()[name]
    cone = ss.RegularityCone(0.05)
    rep = morse_defect_report(path, cone=cone, window=10.0, L=L, A=A)
    _assert_report_is(rep, _defect_report_pair_by_pair(path, cone, 10.0, L, A))


def test_defect_report_matches_pair_by_pair_off_the_flat():
    rng = np.random.default_rng(60)
    path = [ss.point_from_group(np.eye(3) + 0.6 * rng.standard_normal((3, 3)))
            for _ in range(60)]
    cone = ss.RegularityCone(0.3)
    for window, L, A in ((10.0, 2.0, 1.0), (3.0, 0.5, 0.1), (100.0, 2.0, 1.0)):
        rep = morse_defect_report(path, cone=cone, window=window, L=L, A=A)
        want = _defect_report_pair_by_pair(path, cone, window, L, A)
        _assert_report_is(rep, want)
    assert len(rep.window_lengths) == 0  # no window is longer than 100
    assert 0 < rep.segment_regular.count(False) < len(path) - 1


def test_defect_report_short_paths_match_pair_by_pair():
    # with L = A = 1 the lower margin of a short path is one of its
    # distances, and the one window of a three-point path is one sum of
    # Finsler distances, so single values show and not only minima
    rng = np.random.default_rng(62)
    for _ in range(100):
        path = [ss.point_from_group(np.eye(3) + rng.standard_normal((3, 3)))
                for _ in range(3)]
        rep = morse_defect_report(path, window=1.0, L=1.0, A=1.0)
        _assert_report_is(rep, _defect_report_pair_by_pair(path, None, 1.0,
                                                           1.0, 1.0))


def test_defect_report_repeated_point_matches_pair_by_pair():
    rng = np.random.default_rng(61)
    path = [ss.point_from_group(np.eye(3) + 0.4 * rng.standard_normal((3, 3)))
            for _ in range(15)]
    path.insert(6, path[5])
    cone = ss.RegularityCone(0.01)
    rep = morse_defect_report(path, cone=cone, window=4.0)
    _assert_report_is(rep, _defect_report_pair_by_pair(path, cone, 4.0))
    assert rep.segment_regular[5] is False
    assert rep.segment_regular.count(False) == 1
    assert morse_defect_report(path, window=4.0).segment_regular is None


@pytest.mark.parametrize("window", [-3.0, 0.0, 1.9, 2.0, 2.5, 3.0, 13.0, 14.0],
                         ids=lambda w: f"window={w}")
def test_defect_report_window_edges_match_pair_by_pair(window):
    # below 2 every length from 2 is read; 2.5 reads from 3 on; from 14
    # on no window of the 15-point path is longer, and the lengths stay
    # integers, as the reference's are
    rng = np.random.default_rng(63)
    path = [ss.point_from_group(np.eye(3) + 0.5 * rng.standard_normal((3, 3)))
            for _ in range(15)]
    rep = morse_defect_report(path, window=window, L=1.5, A=0.5)
    _assert_report_is(rep, _defect_report_pair_by_pair(path, None, window,
                                                       1.5, 0.5))


def test_defect_report_of_two_points_has_no_windows():
    rng = np.random.default_rng(64)
    for window in (-1.0, 10.0):
        path = [ss.point_from_group(np.eye(3) + rng.standard_normal((3, 3)))
                for _ in range(2)]
        rep = morse_defect_report(path, cone=ss.RegularityCone(0.1),
                                  window=window, L=1.0, A=1.0)
        _assert_report_is(rep, _defect_report_pair_by_pair(
            path, ss.RegularityCone(0.1), window, 1.0, 1.0))
        assert len(rep.window_defects) == 0


@pytest.mark.parametrize("n", [2, 4])
def test_defect_report_matches_pair_by_pair_in_other_dimensions(n):
    rng = np.random.default_rng(65 + n)
    path = [ss.point_from_group(np.eye(n) + 0.5 * rng.standard_normal((n, n)))
            for _ in range(30)]
    path.insert(11, path[10])
    cone = ss.RegularityCone(0.2)
    for window, L, A in ((1.0, 2.0, 1.0), (4.5, 0.5, 0.0), (30.0, 2.0, 1.0)):
        rep = morse_defect_report(path, cone=cone, window=window, L=L, A=A)
        _assert_report_is(rep, _defect_report_pair_by_pair(path, cone, window,
                                                           L, A))
    assert rep.segment_regular[10] is False


@pytest.mark.parametrize("name,value,message", [
    ("L", 0.0, "L must be positive, got 0.0"),
    ("L", -0.0, "L must be positive, got -0.0"),
    ("L", -1.0, "L must be positive, got -1.0"),
    ("A", -1e-12, "A must be non-negative, got -1e-12"),
    ("A", -1.0, "A must be non-negative, got -1.0"),
])
def test_defect_report_refuses_l_and_a_outside_their_range(name, value,
                                                           message):
    # L = 0 divided by zero into a -inf margin, and a negative L or A
    # printed margins of a bound that holds for no path
    path = [ss.flat_point([2.0 * t, 0.0, -2.0 * t]) for t in range(3)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        morse_defect_report(path, **{name: value})


def test_defect_report_names_a_point_of_another_dimension():
    path = [ss.flat_point([t, 0.0, -t]) for t in range(5)]
    path.insert(3, ss.flat_point([1.0, -1.0]))
    with pytest.raises(ValueError, match=r"^path points must share one "
                       r"dimension: point 0 has n = 3, point 3 has n = 2$"):
        morse_defect_report(path)


def test_zeta_angle_symmetric_and_invariant():
    rng = _rng()
    for _ in range(10):
        x = ss.point_from_group(np.eye(3) + 0.3 * rng.standard_normal((3, 3)))
        y1 = ss.point_from_group(np.eye(3) + 0.5 * rng.standard_normal((3, 3)))
        y2 = ss.point_from_group(np.eye(3) + 0.5 * rng.standard_normal((3, 3)))
        a12 = zeta_angle(x, y1, y2)
        a21 = zeta_angle(x, y2, y1)
        assert abs(a12 - a21) < 1e-10
        g = rng.standard_normal((3, 3))
        while abs(np.linalg.det(g)) < 0.2:
            g = rng.standard_normal((3, 3))
        g /= abs(np.linalg.det(g)) ** (1 / 3)
        moved = zeta_angle(ss.apply_isometry(g, x), ss.apply_isometry(g, y1),
                           ss.apply_isometry(g, y2))
        assert abs(moved - a12) < 1e-8


def test_orbit_internals_match_point_computations():
    # at moderate powers, the graded midpoint path (used because large
    # powers cannot be materialized as points) must agree with the direct
    # point-based computation
    g1, g2 = _schottky_pair()
    for N in (1, 2):  # the points of higher powers are too ill-conditioned
        letters = morse._power_letters([g1, g2], N)
        (back, back_v), (to_o, _), (to_b, _), (ahead, ahead_v) = \
            morse._midpoint_segments(letters)
        a, b, c = 0, 2, 1  # alpha = g1^N, beta = g2^N, gamma = g1^-N
        A = np.linalg.matrix_power(g1, N)
        B = np.linalg.matrix_power(g2, N)
        u, logs, w = letters.svd()
        assert np.abs((u[a] * np.exp(logs[a])) @ w[a].T - A).max() < 1e-12
        o = ss.origin(3)
        ma_pt = ss.midpoint(ss.point_from_group(A), o)
        mb_pt = ss.midpoint(o, ss.point_from_group(B))
        mc_pt = ss.midpoint(ss.point_from_group(B),
                            ss.point_from_group(B @ np.linalg.inv(A)))
        mb = u[b] * np.exp(logs[b] / 2)
        assert np.abs(ss.point_from_group(mb).mat - mb_pt.mat).max() < 1e-10
        d1 = 2 * np.linalg.norm(back_v[a, b])
        assert abs(d1 - ss.riemannian_distance(ma_pt, mb_pt)) < 1e-9
        d2 = 2 * np.linalg.norm(ahead_v[b, c])
        assert abs(d2 - ss.riemannian_distance(mb_pt, mc_pt)) < 1e-9
        zeta = ZetaType.default(3)
        ang1 = morse._frame_angle(back[b, a], to_o[b], zeta)
        assert abs(ang1 - zeta_angle(mb_pt, ma_pt, o, zeta)) < 1e-9
        ang2 = morse._frame_angle(ahead[b, c], to_b[b], zeta)
        b_pt = ss.point_from_group(B)
        assert abs(ang2 - zeta_angle(mb_pt, mc_pt, b_pt, zeta)) < 1e-9


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: straightness_check([ss.origin(3)],
                                            ss.RegularityCone(0.05)),
                 ValueError, "need at least two points",
                 id="straightness-one-point"),
    pytest.param(lambda: morse_defect_report([ss.origin(3)]), ValueError,
                 "need at least two points", id="defect-one-point"),
    pytest.param(lambda: schottky_certificate([], 6), ValueError,
                 "need at least one generator", id="schottky-no-generators"),
    pytest.param(lambda: schottky_certificate([np.diag([4.0, 1.0, 0.25])] * 2,
                                              6),
                 NotAntipodalGenerators,
                 "axis flags 0 and 2 are not antipodal",
                 id="axes-not-antipodal"),
    # axes turned by 2e-8: the corner value of the two attracting flags
    # reads about 1.4e-8, inside the gray band
    pytest.param(lambda: schottky_certificate(
        [np.diag([4.0, 1.0, 0.25]),
         _rot_z(2e-8) @ np.diag([4.0, 1.0, 0.25]) @ _rot_z(2e-8).T], 6),
        NotAntipodalGenerators, "flag pair (0,2) too degenerate to decide",
        id="axes-too-degenerate"),
    # a power that is not an integer >= 1 is refused by name: N = 0 was
    # refused as a segment on a wall, N = 2.5 and N = True were certified
    *[pytest.param(lambda N=N: schottky_certificate(list(_schottky_pair()), N),
                   ValueError, f"N must be an integer >= 1, got {N}",
                   id=f"schottky-N-{N}") for N in (0, -1, 2.5, True)],
    pytest.param(lambda: morse.orbit_growth(list(_schottky_pair()), 0, 2),
                 ValueError, "N must be an integer >= 1, got 0",
                 id="orbit-growth-N-0"),
    pytest.param(lambda: morse.orbit_growth(list(_schottky_pair()), 1.5, 2),
                 ValueError, "N must be an integer >= 1, got 1.5",
                 id="orbit-growth-N-1.5"),
    *[pytest.param(lambda m=m: morse.find_schottky_threshold(
        list(_schottky_pair()), max_power=m), ValueError,
        f"max_power must be an integer >= 1, got {m}", id=f"threshold-{m}")
      for m in (0, 6.0, False)],
    # a flat path along (1, 1, -2): both segments at vertex 1 on a wall
    pytest.param(lambda: straightness_check(
        [ss.flat_point(k * np.array([5.0, 5.0, -10.0])) for k in range(3)],
        ss.RegularityCone(0.05)), TieError,
        "vertex 1: adjacent segment on a wall", id="vertex-on-a-wall"),
])
def test_refusals_name_their_condition(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


def test_numpy_integer_powers_are_accepted():
    gens = list(_schottky_pair())
    want = schottky_certificate(gens, 6)
    assert schottky_certificate(gens, np.int64(6)).triples == want.triples
    assert morse.orbit_growth(gens, np.int32(2), 2) == \
        morse.orbit_growth(gens, 2, 2)
    assert morse.find_schottky_threshold(gens, max_power=np.uint8(6)) == 6


@pytest.mark.parametrize("gens, kwargs", [
    ([], {}),
    ([], {"epsilon": np.nan}),
    ([np.eye(3), np.eye(2)], {"spacing": np.inf}),
    ([np.eye(3), np.eye(2)], {}),
    ([np.diag([4.0, 1.0, 0.25])] * 2, {"spacing": 1.0}),
    ([np.diag([4.0, 1.0, 0.25]),
      _rot_z(2e-8) @ np.diag([4.0, 1.0, 0.25]) @ _rot_z(2e-8).T], {}),
    ([np.diag([4.0, 1.0, 0.25]), _rot_z(0.7)], {}),
], ids=["no-generators", "epsilon-nan", "spacing-inf", "two-sizes",
        "not-antipodal", "too-degenerate", "not-regular"])
def test_threshold_refuses_as_the_certificate_at_N_1(gens, kwargs):
    # the search checks its generators once, with the certificate's
    # errors in the certificate's order
    with pytest.raises(Exception) as want:
        schottky_certificate(gens, 1, **kwargs)
    with pytest.raises(want.type) as got:
        morse.find_schottky_threshold(gens, max_power=5, **kwargs)
    assert str(got.value) == str(want.value)
    assert repr(got.value.__cause__) == repr(want.value.__cause__)


def test_threshold_reads_the_axis_flags_once(monkeypatch):
    calls = []
    attracting = flagdyn.attracting_flag

    def counted(g):
        calls.append(1)
        return attracting(g)
    monkeypatch.setattr(flagdyn, "attracting_flag", counted)
    gens = list(_schottky_pair())
    assert morse.find_schottky_threshold(gens, max_power=8) == 6
    assert len(calls) == 2
    with pytest.raises(TypeError, match="unexpected keyword argument 'eps'"):
        morse.find_schottky_threshold(gens, eps=0.1)


def test_orbit_growth_never_holds_a_whole_length():
    # the walk holds one block's children per length; forming each length
    # whole, as one graded product, took a traced peak of about 53 MiB
    gens = list(_schottky_pair())
    tracemalloc.start()
    try:
        data = morse.orbit_growth(gens, 2, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(data) == 4 * (3 ** 10 - 1) // 2
    assert peak < 32 * 2 ** 20


def _seeded_pair(n, seed):
    """Two axial generators q diag(e^l) q^-1 with random q and spectra."""
    rng = np.random.default_rng(seed)

    def axial():
        q = np.eye(n) + 0.5 * rng.standard_normal((n, n))
        logs = np.sort(rng.uniform(-1.5, 1.5, n))[::-1]
        return q @ np.diag(np.exp(logs)) @ np.linalg.inv(q)
    return [axial(), axial()]


def _outcome(certificate, gens, N):
    try:
        rep = certificate(gens, N)
    except Exception as exc:  # the refusal is compared, type and message
        return type(exc), str(exc)
    return repr([(t.triple, t.spacing, t.regular, t.angles, t.passed)
                 for t in rep.triples])


@pytest.mark.parametrize("gens", [
    list(_schottky_pair()), _seeded_pair(3, 1), _seeded_pair(3, 2),
    _seeded_pair(4, 3), _seeded_pair(4, 4),
    [np.diag([4.0, 1.0, 0.25])] * 2,
    [np.diag([4.0, 1.0, 0.25]),
     _rot_z(2e-8) @ np.diag([4.0, 1.0, 0.25]) @ _rot_z(2e-8).T],
    [np.diag([4.0, 1.0, 0.25]), _rot_z(0.7)],
], ids=["standard", "3x3-1", "3x3-2", "4x4-3", "4x4-4", "not-antipodal",
        "too-degenerate", "not-regular"])
def test_stacked_certificate_matches_the_triple_by_triple_reference(gens):
    # the stacked norms, cone tests, frames and angles over all triples,
    # and the axis flags read against all later flags at once, give the
    # rows and refusals of one triple and one flag pair at a time
    for N in range(1, 41):
        assert _outcome(schottky_certificate, gens, N) == \
            _outcome(helpers.schottky_triple_by_triple, gens, N)


def test_stacked_frames_refuse_a_segment_on_a_wall():
    frames = np.broadcast_to(np.eye(3), (4, 3, 3))
    vectors = np.array([[2.0, 0.0, -2.0]] * 4)
    assert morse._frame(frames, vectors) is frames
    vectors[2] = [1.0, 1.0, -2.0]
    with pytest.raises(TieError, match="^segment is degenerate or lies on "
                                       "a wall$"):
        morse._frame(frames, vectors)


def test_midpoint_segments_in_one_stack_match_four_reads():
    # the fused read gives the bits of reading each segment stack alone
    for gens, N in ((list(_schottky_pair()), 6), (_seeded_pair(3, 1), 17),
                    (_seeded_pair(4, 3), 2), (_seeded_pair(4, 4), 40)):
        letters = morse._power_letters(gens, N)
        u, logs, w = letters.svd()
        h = logs / 2.0
        ut, wt = np.swapaxes(u, -1, -2), np.swapaxes(w, -1, -2)
        zero = np.zeros_like(h)
        want = (morse._segments(-h[:, None], ut[:, None] @ u[None], h[None]),
                morse._segments(-h, ut, zero),
                morse._segments(h, wt, zero),
                morse._segments(h[:, None], wt[:, None] @ u[None], h[None]))
        got = morse._midpoint_segments(letters)
        for (f1, v1), (f2, v2) in zip(got, want, strict=True):
            assert np.array_equal(f1, f2) and np.array_equal(v1, v2)


def test_threshold_search_without_a_passing_power_returns_none():
    gens = [np.diag([1.2, 1.0, 1 / 1.2])]
    assert not schottky_certificate(gens, 2).passed
    assert morse.find_schottky_threshold(gens, max_power=2) is None
