"""Geometry primitives: projections, distances, volumes, and the BM check.

Frozen numbers were computed from independent closed forms (KKT conditions,
the circular-segment area formula, Gamma-function volume identities) before
being compared with the library output.
"""

import math

import numpy as np
import pytest

from risklab import geometry
from risklab.preferences import cap_prior_polytope

SEED = 20260816


def _cap(d, idx, level, side):
    verts, hs = cap_prior_polytope(d, idx, level, side)
    return geometry.Polytope(vertices=verts, halfspaces=(hs,))


# ---------------------------------------------------------------------------
# projections and distances
# ---------------------------------------------------------------------------


def test_distance_to_cap_polytope_kkt_oracle():
    # Projecting (0.4, 0.4, 0.4) onto {mu in simplex : mu_0 >= 0.6}: the KKT
    # system pins the minimizer at (0.6, 0.2, 0.2), distance sqrt(0.12).
    cap = _cap(3, 0, 0.6, "ge")
    x = np.array([0.4, 0.4, 0.4])
    assert geometry.distance_point_to_convex(x, cap) == pytest.approx(math.sqrt(0.12), abs=1e-9)
    p = geometry.project_point(x, cap)
    assert np.allclose(p, [0.6, 0.2, 0.2], atol=1e-7)


def test_polytope_distance_between_caps_oracle():
    # dist({mu_0 >= 0.6}, {mu_0 <= 0.2}) = sqrt(0.24), realized by
    # (0.6, 0.2, 0.2) and (0.2, 0.4, 0.4).
    cert = geometry.polytope_distance(_cap(3, 0, 0.6, "ge"), _cap(3, 0, 0.2, "le"))
    assert cert.value == pytest.approx(math.sqrt(0.24), abs=1e-9)
    assert np.allclose(cert.point_a, [0.6, 0.2, 0.2], atol=1e-6)
    assert np.allclose(cert.point_b, [0.2, 0.4, 0.4], atol=1e-6)


def test_polytope_distance_overlapping_sets_is_zero():
    cert = geometry.polytope_distance(_cap(3, 0, 0.3, "ge"), _cap(3, 0, 0.7, "le"))
    assert cert.value < 1e-8


def test_singleton_to_face_distance():
    # {e_0} versus conv{e_1, e_2}: nearest point is the midpoint, sqrt(3/2).
    P = geometry.Polytope(vertices=np.eye(3)[:1])
    Q = geometry.Polytope(vertices=np.eye(3)[1:])
    cert = geometry.polytope_distance(P, Q)
    assert cert.value == pytest.approx(math.sqrt(1.5), abs=1e-9)


def test_halfspace_gap_oracle():
    u = np.ones(4)
    upper = geometry.HalfSpace(u, 4.0 / 0.9, "upper")
    lower = geometry.HalfSpace(u, 4.0, "lower")
    assert geometry.halfspace_gap(upper, lower) == pytest.approx(
        (4.0 / 0.9 - 4.0) / 2.0, rel=1e-12
    )


def test_halfspace_gap_rejects_non_parallel():
    upper = geometry.HalfSpace(np.array([1.0, 0.0]), 1.0, "upper")
    lower = geometry.HalfSpace(np.array([0.0, 1.0]), 0.0, "lower")
    with pytest.raises(ValueError, match="not parallel"):
        geometry.halfspace_gap(upper, lower)


def test_halfspace_gap_rejects_overlap():
    u = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="overlapping"):
        geometry.halfspace_gap(
            geometry.HalfSpace(u, 0.0, "upper"), geometry.HalfSpace(u, 1.0, "lower")
        )


def test_projection_random_points_land_inside():
    rng = np.random.default_rng(SEED)
    cap = _cap(4, 1, 0.5, "ge")
    for _ in range(50):
        x = rng.normal(size=4)
        p = geometry.project_point(x, cap)
        assert abs(p.sum() - 1.0) < 1e-9
        assert p[1] >= 0.5 - 1e-9
        assert np.all(p >= -1e-9)
        # projecting the projection moves nothing beyond solver tolerance
        assert np.linalg.norm(geometry.project_point(p, cap) - p) < 1e-6


def test_contains_batch_halfspace_and_polytope():
    hs = geometry.HalfSpace(np.array([1.0, 0.0]), 0.5, "upper")
    pts = np.array([[0.6, 0.4], [0.4, 0.6]])
    assert geometry.contains(hs, pts).tolist() == [True, False]
    cap = _cap(2, 0, 0.6, "ge")
    pts = np.array([[0.7, 0.3], [0.5, 0.5], [0.6, 0.4]])
    assert geometry.contains(cap, pts).tolist() == [True, False, True]


def test_contains_vertex_polytope_on_simplex_is_its_hull():
    point = geometry.Polytope(vertices=[[0.2, 0.3, 0.5]])
    assert not geometry.contains(point, [1.0, 0.0, 0.0])
    assert geometry.contains(point, [0.2, 0.3, 0.5])


def test_polytope_refuses_an_empty_vertex_list():
    for vertices in ([], np.empty((0, 3))):
        with pytest.raises(ValueError, match="at least one vertex"):
            geometry.Polytope(vertices=vertices)


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


def test_ball_volume_low_dims():
    assert geometry.volume(geometry.Ball(np.zeros(2), 1.0)) == pytest.approx(math.pi)
    assert geometry.volume(geometry.Ball(np.zeros(3), 2.0)) == pytest.approx(
        4.0 / 3.0 * math.pi * 8.0
    )


def test_box_volume_exact():
    box = geometry.Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    assert geometry.volume(box) == 4.0


def test_volume_refuses_bodies_without_closed_form():
    with pytest.raises(ValueError, match="no exact volume"):
        geometry.volume(_cap(2, 0, 0.6, "ge"))


# ---------------------------------------------------------------------------
# Brunn-Minkowski checks
# ---------------------------------------------------------------------------


def test_bm_homothetic_boxes_root_equality():
    A = geometry.Box(np.zeros(3), np.array([1.0, 2.0, 0.5]))
    B = geometry.Box(np.full(3, 0.25), np.full(3, 0.25) + 2.0 * A.sides)
    res = geometry.bm_check(A, B, 0.3)
    assert res.holds
    assert res.root_equality


def test_bm_translates_multiplicative_equality():
    # equal volumes: the multiplicative form binds for translates
    A = geometry.Box(np.zeros(2), np.array([1.5, 0.8]))
    B = geometry.Box(np.array([2.0, -1.0]), np.array([3.5, -0.2]))
    res = geometry.bm_check(A, B, 0.4)
    assert res.lhs == pytest.approx(res.rhs, rel=1e-12)
    assert res.root_equality


def test_bm_balls_always_tight():
    res = geometry.bm_check(geometry.Ball(np.zeros(4), 0.7), geometry.Ball(np.ones(4), 1.9), 0.45)
    assert res.holds and res.root_equality


def test_bm_random_boxes_never_violate():
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        d = int(rng.integers(1, 6))
        lo_a, lo_b = rng.random(d), rng.random(d)
        A = geometry.Box(lo_a, lo_a + 0.1 + rng.random(d))
        B = geometry.Box(lo_b, lo_b + 0.1 + rng.random(d))
        res = geometry.bm_check(A, B, float(0.05 + 0.9 * rng.random()))
        assert res.holds
        assert res.lhs_root >= res.rhs_root - 1e-9 * max(1.0, res.lhs_root)


def test_bm_non_homothetic_boxes_strict():
    A = geometry.Box(np.zeros(2), np.array([4.0, 0.25]))
    B = geometry.Box(np.zeros(2), np.array([0.25, 4.0]))
    res = geometry.bm_check(A, B, 0.5)
    assert res.holds and not res.root_equality
    assert res.lhs > res.rhs * 1.5  # wildly non-homothetic, big slack


# ---------------------------------------------------------------------------
# cap fractions and the separation bound
# ---------------------------------------------------------------------------


def test_cap_fraction_matches_circular_segment():
    t = 0.2
    segment = (math.acos(t) - t * math.sqrt(1.0 - t * t)) / math.pi
    val = geometry.cap_fraction(2, 1.0, t)
    assert val == pytest.approx(segment, rel=1e-12)
    assert val == pytest.approx(0.3735300390523313, rel=1e-12)


def test_cap_fraction_mc_confirmation():
    from risklab import sampling

    Z = sampling.sample_uniform_ball(3, 1.0, 200_000, SEED)
    frac = float(np.mean(Z[:, 0] >= 0.3))
    assert geometry.cap_fraction(3, 1.0, 0.3) == pytest.approx(frac, abs=0.004)


def test_cap_fraction_half_at_zero_and_zero_beyond_radius():
    assert geometry.cap_fraction(5, 2.0, 0.0) == pytest.approx(0.5, rel=1e-12)
    with pytest.warns(RuntimeWarning):
        assert geometry.cap_fraction(5, 1.0, 1.5) == 0.0


@pytest.mark.parametrize("t", [0.1, 0.35, 0.8])
def test_signed_cap_fraction_symmetry(t):
    total = geometry.signed_cap_fraction(4, 1.0, t) + geometry.signed_cap_fraction(4, 1.0, -t)
    assert total == pytest.approx(1.0, rel=1e-12)


def test_cap_fraction_monotone_decreasing_in_height():
    vals = [geometry.cap_fraction(6, 1.0, t) for t in np.linspace(0.0, 0.99, 25)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cap_fraction_input_errors():
    with pytest.raises(ValueError):
        geometry.cap_fraction(0, 1.0, 0.1)
    with pytest.raises(ValueError):
        geometry.cap_fraction(2, -1.0, 0.1)
    with pytest.raises(ValueError):
        geometry.cap_fraction(2, 1.0, -0.1)


def test_separation_bound_check_halfspace_pair():
    d, delta = 8, 0.3
    u = np.zeros(d)
    u[0] = 1.0
    chk = geometry.separation_bound_check(
        geometry.HalfSpace(u, delta / 2, "upper"),
        geometry.HalfSpace(u, -delta / 2, "lower"),
        delta,
        geometry.Ball(np.zeros(d), 1.0),
    )
    assert chk.distance == pytest.approx(delta, rel=1e-12)
    assert chk.min_fraction == pytest.approx(geometry.cap_fraction(d, 1.0, delta / 2), rel=1e-12)
    assert chk.bound == pytest.approx(math.exp(-delta * delta * d / 8.0), rel=1e-12)
    assert chk.holds


def test_separation_bound_check_refuses_polytopes():
    ball = geometry.Ball(np.full(3, 1.0 / 3.0), 1.0)
    with pytest.raises(ValueError, match="two half-spaces"):
        geometry.separation_bound_check(_cap(3, 0, 0.6, "ge"), _cap(3, 0, 0.2, "le"), 0.1, ball)


def test_separation_bound_check_rejects_violated_hypothesis():
    u = np.array([1.0, 0.0])
    with pytest.raises(ValueError, match="hypothesis violated"):
        geometry.separation_bound_check(
            geometry.HalfSpace(u, 0.05, "upper"),
            geometry.HalfSpace(u, -0.05, "lower"),
            0.5,
            geometry.Ball(np.zeros(2), 1.0),
        )


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_convergence_error_carries_diagnostics():
    err = geometry.ConvergenceError("no luck", value=0.5, gap=1e-3)
    assert err.value == 0.5 and err.gap == 1e-3
    assert "no luck" in str(err)


def test_minkowski_combine_balls():
    combo = geometry.minkowski_combine(
        geometry.Ball(np.zeros(2), 1.0), geometry.Ball(np.array([2.0, 0.0]), 3.0), 0.25
    )
    assert isinstance(combo, geometry.Ball)
    assert np.allclose(combo.center, [1.5, 0.0])
    assert combo.radius == pytest.approx(0.25 * 1.0 + 0.75 * 3.0)
