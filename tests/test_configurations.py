"""Weighted configurations on the circle: stability and thickenings.

The central theorem-as-test lives in diagonal_thickening_check, which
recomputes every membership through the sign-group thickening and
raises if the two backends ever disagree.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import rotate
from weylkit import configurations as cf
from weylkit.configurations import (WeightedConfig, aggregate_masses,
                                    diagonal_thickening_check, is_semistable,
                                    is_stable, relpos_config,
                                    wall_chamber_report)

TAU = 2.0 * np.pi


def _circle(angles, weights):
    return WeightedConfig.circle(angles, weights)


# --- clustering -----------------------------------------------------------------

def test_aggregate_distinct_points():
    z = _circle([Fraction(0), Fraction(1), Fraction(2)], [1, 1, 1])
    masses = aggregate_masses(z)
    assert sorted(m for _, m, _ in masses) == [1, 1, 1]


def test_aggregate_coincident_points():
    z = _circle([Fraction(1), Fraction(1)], [1, 2])
    [(point, mass, members)] = aggregate_masses(z)
    assert mass == 3 and members == (0, 1)


def test_aggregate_with_float_tolerance():
    # 1e-9 apart sits exactly on the FLOAT_TOL boundary, which coincides
    z = _circle([0.0, 1e-9, np.pi], [1.0, 1.0, 2.0])
    masses = aggregate_masses(z)
    got = sorted(m for _, m, _ in masses)
    assert got == [2.0, 2.0]
    assert abs(sum(m for _, m, _ in masses) - 4.0) < 1e-12
    # 2e-9 apart is past FLOAT_TOL: the points stay separate
    z = _circle([1.0, 1.0 + 2e-9], [1.0, 1.0])
    assert [members for _, _, members in aggregate_masses(z)] == [(0,), (1,)]


def test_aggregate_wraparound():
    z = _circle([0.0, TAU - 1e-10], [1.0, 1.0])
    assert len(aggregate_masses(z)) == 1


# --- stability ---------------------------------------------------------------------

def test_distinct_points_stable():
    z = _circle([Fraction(0), Fraction(2), Fraction(4)], [1, 1, 1])
    assert is_stable(z) and is_semistable(z)


def test_heavy_point_kills_semistability():
    z = _circle([Fraction(0), Fraction(2), Fraction(4)], [5, 1, 1])
    assert not is_semistable(z) and not is_stable(z)


def test_two_coincident_pairs_semistable_not_stable():
    z = _circle([Fraction(0), Fraction(0), Fraction(3), Fraction(3)],
                [1, 1, 1, 1])
    assert is_semistable(z) and not is_stable(z)


def test_stable_implies_semistable_random():
    rng = np.random.default_rng(5150)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        z = _circle(rng.uniform(0, 6.28, size=n).tolist(),
                    rng.uniform(0.1, 3.0, size=n).tolist())
        if is_stable(z):
            assert is_semistable(z)


def test_rotation_invariance():
    rng = np.random.default_rng(77)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        angles = rng.uniform(0, 6.28, size=n)
        # force some coincidences
        if n >= 2 and rng.random() < 0.5:
            angles[1] = angles[0]
        z = _circle(angles.tolist(), rng.uniform(0.1, 3.0, size=n).tolist())
        rotated = rotate(z, float(rng.uniform(0, 6.28)))
        assert is_stable(z) == is_stable(rotated)
        assert is_semistable(z) == is_semistable(rotated)


def test_weight_scaling_invariance():
    z0 = [Fraction(0), Fraction(0), Fraction(3), Fraction(1)]
    w0 = [Fraction(2), Fraction(1), Fraction(1), Fraction(1)]
    for scale in (Fraction(1, 3), Fraction(7, 2), 5):
        z = _circle(z0, w0)
        zs = _circle(z0, [scale * w for w in w0])
        assert is_stable(z) == is_stable(zs)
        assert is_semistable(z) == is_semistable(zs)


def test_balanced_weights_stable_iff_semistable_exhaustive():
    # over all coincidence patterns (set partitions) for n <= 5
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part
    for n in range(1, 6):
        weights = [Fraction(2 ** i) for i in range(n)]  # balanced: sums differ
        from weylkit.thickenings import weight_is_balanced
        assert weight_is_balanced(weights)
        for part in partitions(list(range(n))):
            angles = [Fraction(0)] * n
            for ci, cluster in enumerate(part):
                for i in cluster:
                    angles[i] = Fraction(ci)
            z = _circle(angles, weights)
            assert is_stable(z) == is_semistable(z)


# --- relative position -----------------------------------------------------------------

def test_relpos_identity():
    z = _circle([Fraction(0), Fraction(1), Fraction(2)], [1, 1, 1])
    assert relpos_config(z, z) == (1, 1, 1)


def test_relpos_all_distinct():
    a = _circle([Fraction(0), Fraction(1), Fraction(2)], [1, 1, 1])
    b = _circle([Fraction(3), Fraction(4), Fraction(5)], [1, 1, 1])
    assert relpos_config(a, b) == (-1, -1, -1)


def test_relpos_single_agreement():
    a = _circle([Fraction(0), Fraction(1), Fraction(2)], [1, 1, 1])
    b = _circle([Fraction(3), Fraction(1), Fraction(5)], [1, 1, 1])
    assert relpos_config(a, b) == (-1, 1, -1)


def test_relpos_tolerance_follows_the_configurations():
    # 1e-9 as soon as one side is float, exact equality when both are exact
    exact = _circle([Fraction(0), Fraction(1), Fraction(2)], [1, 1, 1])
    near = _circle([5e-10, 1.0 + 2e-9, 2.0], [1, 1, 1])
    assert relpos_config(exact, near) == (1, -1, 1)
    assert relpos_config(near, exact) == (1, -1, 1)
    tiny = _circle([Fraction(1, 10 ** 12), Fraction(1), Fraction(2)], [1, 1, 1])
    assert relpos_config(exact, tiny) == (-1, 1, 1)


# --- diagonal thickening cross-check ------------------------------------------------------

def test_diagonal_check_distinct_points():
    z = _circle([Fraction(0), Fraction(2), Fraction(4)], [1, 1, 1])
    assert diagonal_thickening_check(z, strict=True) is False
    assert diagonal_thickening_check(z, strict=False) is False


def test_diagonal_check_all_coincident():
    z = _circle([Fraction(1)] * 3, [1, 1, 1])
    assert diagonal_thickening_check(z, strict=True) is True
    assert diagonal_thickening_check(z, strict=False) is True


def test_diagonal_check_heavy_cluster():
    z = _circle([Fraction(0), Fraction(0), Fraction(2), Fraction(4)],
                [2, 1, 1, 1])
    assert diagonal_thickening_check(z, strict=True)  # mass 3 > 5/2


def test_diagonal_check_wall_case():
    # coincident pair of total mass exactly half: not-stable but
    # semistable, so only the nonstrict membership holds
    z = _circle([Fraction(0), Fraction(0), Fraction(2), Fraction(4)],
                [1, 1, 1, 1])
    assert not diagonal_thickening_check(z, strict=True)
    assert diagonal_thickening_check(z, strict=False)


def test_diagonal_check_refuses_angle_outside_circle():
    # a representative angle outside [0, 2 pi) has no diagonal circle
    # configuration
    for angle in (7.0, -1.0, Fraction(7)):
        z = WeightedConfig((angle, 1.0, 2.0), (1, 1, 1))
        with pytest.raises(ValueError, match=r"angles must lie in \[0, 2 pi\)"):
            diagonal_thickening_check(z)


def test_diagonal_check_exhaustive_patterns():
    # all coincidence patterns for n <= 4 with a few weight vectors
    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [[first] + part[i]] + part[i + 1:]
            yield [[first]] + part
    weight_choices = [
        [Fraction(1)] * 4,
        [Fraction(2), Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(5), Fraction(4), Fraction(3), Fraction(1)],
        [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)],
    ]
    for n in range(1, 5):
        for weights in weight_choices:
            for part in partitions(list(range(n))):
                angles = [Fraction(0)] * n
                for ci, cluster in enumerate(part):
                    for i in cluster:
                        angles[i] = Fraction(ci)
                z = _circle(angles, weights[:n])
                for strict in (True, False):
                    # raises InconsistentBackends on any disagreement
                    diagonal_thickening_check(z, strict=strict)


def test_diagonal_check_random_configs():
    rng = np.random.default_rng(991)
    for _ in range(1500):
        n = int(rng.integers(1, 6))
        support = [Fraction(int(k), 7) for k in rng.integers(0, 8, size=n)]
        weights = [Fraction(int(p), int(q)) for p, q in
                   zip(rng.integers(1, 9, size=n), rng.integers(1, 5, size=n))]
        z = _circle(support, weights)
        for strict in (True, False):
            diagonal_thickening_check(z, strict=strict)


# --- walls and chambers ----------------------------------------------------------------------

def test_walls_symmetric_weights():
    rep = wall_chamber_report([1, 1, 1, 1])
    assert not rep.in_open_chamber
    assert all(len(w) == 2 for w in rep.walls)  # all |I| = 2 splits through 0


def test_walls_2111_open():
    rep = wall_chamber_report([2, 1, 1, 1])
    assert rep.in_open_chamber
    assert rep.walls == []


def test_chambers_distinguish_5431_from_2111():
    a = wall_chamber_report([5, 4, 3, 1])
    b = wall_chamber_report([2, 1, 1, 1])
    assert a.in_open_chamber and b.in_open_chamber
    assert a.chamber_signs != b.chamber_signs


def test_sphere_stability():
    pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, 0, 0]])
    z = WeightedConfig.on_sphere(pts, [1.0, 1.0, 1.0, 1.0])
    assert is_stable(z)
    z2 = WeightedConfig.on_sphere(pts, [5.0, 1.0, 1.0, 1.0])
    assert not is_semistable(z2)


def test_walls_symmetric_weights_count():
    rep = wall_chamber_report([1, 1, 1, 1])
    # every 2-2 split through index 0 balances: exactly three walls
    assert rep.walls == [(0, 1), (0, 2), (0, 3)]


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, 0, -1.5,
                                    Fraction(-1, 2)])
def test_weights_that_are_not_positive_and_finite_are_refused(weight):
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        WeightedConfig.circle([0.5, 1.0], [1, weight])
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        WeightedConfig.on_sphere([[1.0, 0, 0], [0, 1.0, 0]], [1.0, weight])
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        wall_chamber_report([1, weight])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: WeightedConfig((0.5,), (1, 2)),
                 "need matching nonempty points and weights", id="unmatched"),
    pytest.param(lambda: _circle([7.0], [1]), "angles must lie in [0, 2 pi)",
                 id="angle-past-2pi"),
    pytest.param(lambda: WeightedConfig.on_sphere([[2.0, 0.0, 0.0]], [1.0]),
                 "sphere points must be unit vectors", id="not-unit"),
    pytest.param(lambda: relpos_config(_circle([0.5], [1]),
                                       _circle([0.5, 1.0], [1, 1])),
                 "configurations must have the same shape", id="relpos-shape"),
    pytest.param(lambda: cf.diagonal_thickening_check(
        WeightedConfig.on_sphere([[1.0, 0.0, 0.0]], [1.0])),
        "the cross-check is defined for circle configurations",
        id="cross-check-on-sphere"),
    pytest.param(lambda: wall_chamber_report([1] * 23),
                 "wall scan capped at 22 weights", id="23-walls"),
])
def test_refusals_name_their_condition(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
