"""Geometry primitives: distances and their nearest points, volumes, and the BM check.

Frozen numbers were computed from independent closed forms (KKT conditions,
the circular-segment area formula, Gamma-function volume identities) before
being compared with the library output.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risklab import experiments, geometry, special
from risklab.preferences import CRRASEU, belief_set, cap_prior_polytope

SEED = 20260816


def _cap(d, idx, level, side):
    verts, hs = cap_prior_polytope(d, idx, level, side)
    return geometry.Polytope(vertices=verts, halfspaces=(hs,))


def _project(x, P):
    """Nearest points of P to x (a point or an (n, d) batch), from the weights
    that :func:`geometry.distance_point_to_convex` solves for."""
    X = np.atleast_2d(np.asarray(x, dtype=float))
    Y = geometry._min_norm_weights(P.vertices[None, :, :] - X[:, None, :]) @ P.vertices
    return Y[0] if np.ndim(x) == 1 else Y


# ---------------------------------------------------------------------------
# projections and distances
# ---------------------------------------------------------------------------


def test_distance_to_cap_polytope_kkt_oracle():
    # Projecting (0.4, 0.4, 0.4) onto {mu in simplex : mu_0 >= 0.6}: the KKT
    # system pins the minimizer at (0.6, 0.2, 0.2), distance sqrt(0.12).
    cap = _cap(3, 0, 0.6, "ge")
    x = np.array([0.4, 0.4, 0.4])
    assert geometry.distance_point_to_convex(x, cap) == pytest.approx(math.sqrt(0.12), abs=1e-9)
    p = _project(x, cap)
    assert np.allclose(p, [0.6, 0.2, 0.2], atol=1e-7)


def test_polytope_distance_between_caps_oracle():
    # dist({mu_0 >= 0.6}, {mu_0 <= 0.2}) = sqrt(0.24), realized by
    # (0.6, 0.2, 0.2) and (0.2, 0.4, 0.4) among others: every pair a, b on the
    # two level facets with a - b = (0.4, -0.2, -0.2) is a nearest pair.
    P, Q = _cap(3, 0, 0.6, "ge"), _cap(3, 0, 0.2, "le")
    (cert,) = geometry.polytope_distance([(P, Q)])
    assert cert.value == pytest.approx(math.sqrt(0.24), abs=1e-9)
    assert geometry.contains(P, cert.point_a, tol=1e-12)
    assert geometry.contains(Q, cert.point_b, tol=1e-12)
    assert np.allclose(cert.point_a - cert.point_b, [0.4, -0.2, -0.2], atol=1e-12)
    assert np.linalg.norm(cert.point_a - cert.point_b) == cert.value


def test_polytope_distance_overlapping_sets_is_zero():
    (cert,) = geometry.polytope_distance([(_cap(3, 0, 0.3, "ge"), _cap(3, 0, 0.7, "le"))])
    assert cert.value < 1e-8


def test_singleton_to_face_distance():
    # {e_0} versus conv{e_1, e_2}: nearest point is the midpoint, sqrt(3/2).
    P = geometry.Polytope(vertices=np.eye(3)[:1])
    Q = geometry.Polytope(vertices=np.eye(3)[1:])
    (cert,) = geometry.polytope_distance([(P, Q)])
    assert cert.value == pytest.approx(math.sqrt(1.5), abs=1e-9)


def test_projection_random_points_land_inside():
    rng = np.random.default_rng(SEED)
    cap = _cap(4, 1, 0.5, "ge")
    for _ in range(50):
        x = rng.normal(size=4)
        p = _project(x, cap)
        assert abs(p.sum() - 1.0) < 1e-9
        assert p[1] >= 0.5 - 1e-9
        assert np.all(p >= -1e-9)
        # projecting the projection moves nothing beyond solver tolerance
        assert np.linalg.norm(_project(p, cap) - p) < 1e-6


def test_contains_batch_halfspace_and_polytope():
    hs = geometry.HalfSpace(np.array([1.0, 0.0]), 0.5)
    pts = np.array([[0.6, 0.4], [0.4, 0.6]])
    assert geometry.contains(hs, pts).tolist() == [True, False]
    cap = _cap(2, 0, 0.6, "ge")
    pts = np.array([[0.7, 0.3], [0.5, 0.5], [0.6, 0.4]])
    assert geometry.contains(cap, pts).tolist() == [True, False, True]


def test_contains_vertex_polytope_on_simplex_is_its_hull():
    point = geometry.Polytope(vertices=[[0.2, 0.3, 0.5]])
    assert not geometry.contains(point, [1.0, 0.0, 0.0])
    assert geometry.contains(point, [0.2, 0.3, 0.5])


def test_distance_to_cap_polytope_kkt_oracle_batched():
    # the KKT oracle above, batched with an interior point of the same cap
    cap = _cap(3, 0, 0.6, "ge")
    X = np.array([[0.4, 0.4, 0.4], [0.7, 0.2, 0.1]])
    dist = geometry.distance_point_to_convex(X, cap)
    assert dist.shape == (2,)
    assert dist[0] == pytest.approx(math.sqrt(0.12), abs=1e-9)
    assert dist[1] <= 1e-9
    Y = _project(X, cap)
    assert Y.shape == X.shape
    assert np.allclose(Y[0], [0.6, 0.2, 0.2], atol=1e-7)


def _fw_certificate(X, Y, vertices):
    """max over the vertices v of (x - y).(v - y), for each row; <= 0 at the projection."""
    R = X - Y
    return (R @ vertices.T - np.sum(R * Y, axis=1)[:, None]).max(axis=1)


@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("level", [0.05, 0.95])
def test_projection_certifies_every_point_near_thin_caps(d, level):
    # the short edges and thin slabs of these caps stalled capped Frank-Wolfe
    verts = _cap(d, 0, level, "le").vertices
    rng = np.random.default_rng(SEED + d)
    X = np.vstack([rng.dirichlet(np.ones(d), 500), rng.uniform(-1.0, 2.0, (500, d))])
    Y = _project(X, geometry.Polytope(verts))
    assert np.all(_fw_certificate(X, Y, verts) <= 1e-12)
    assert np.allclose(Y.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(Y[:, 0] <= level + 1e-12) and np.all(Y >= -1e-12)


def _brute_force_distance(x, vertices):
    """Distance from x to the hull: the best feasible affine projection over vertex subsets."""
    best = np.inf
    for size in range(1, len(vertices) + 1):
        for subset in itertools.combinations(range(len(vertices)), size):
            V = vertices[list(subset)]
            # least-norm affine combination of the rows of V - x: KKT by lstsq
            K = np.block([[2.0 * (V - x) @ (V - x).T, np.ones((size, 1))],
                          [np.ones((1, size)), np.zeros((1, 1))]])
            w = np.linalg.lstsq(K, np.r_[np.zeros(size), 1.0], rcond=None)[0][:size]
            if np.all(w >= -1e-12) and abs(w.sum() - 1.0) < 1e-9:
                best = min(best, np.linalg.norm(w @ V - x))
    return best


def test_projection_matches_brute_force_on_small_hulls():
    rng = np.random.default_rng(SEED)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        verts = rng.dirichlet(np.ones(d), m)
        x = rng.dirichlet(np.ones(d)) if rng.random() < 0.5 else rng.uniform(-1.0, 2.0, d)
        best = _brute_force_distance(x, verts)
        dist = geometry.distance_point_to_convex(x, geometry.Polytope(verts))
        assert dist == pytest.approx(best, abs=1e-9)


def test_polytope_distance_matches_brute_force_on_small_hulls():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        A = rng.dirichlet(np.ones(d), int(rng.integers(1, 4)))
        B = rng.dirichlet(np.ones(d), int(rng.integers(1, 3)))
        diffs = (A[:, None, :] - B[None, :, :]).reshape(-1, d)
        best = _brute_force_distance(np.zeros(d), diffs)
        (cert,) = geometry.polytope_distance([(geometry.Polytope(A), geometry.Polytope(B))])
        assert cert.value == pytest.approx(best, abs=1e-9)
        assert np.linalg.norm(cert.point_a - cert.point_b) == pytest.approx(best, abs=1e-12)


def _cap_or_face(draw, d, shape):
    """A random cap of side shape ('ge' or 'le'), or a random face of ``shape`` vertices."""
    if shape in ("ge", "le"):
        level = draw(st.floats(0.05, 0.95))
        return geometry.Polytope(cap_prior_polytope(d, draw(st.integers(0, d - 1)), level, shape)[0])
    return geometry.Polytope(np.eye(d)[sorted(draw(st.permutations(range(d)))[:shape])])


@st.composite
def _polytope_pairs(draw):
    """1 to 20 pairs of cap or face polytopes, in one to three shapes at d in [2, 12]."""
    shapes = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(2, 12))
        side = st.sampled_from(["ge", "le"]) | st.integers(1, d)
        shapes.append((d, draw(side), draw(side)))
    pairs = []
    for _ in range(draw(st.integers(1, 20))):
        d, s, t = draw(st.sampled_from(shapes))
        pairs.append((_cap_or_face(draw, d, s), _cap_or_face(draw, d, t)))
    return pairs


@settings(max_examples=60, deadline=None)
@given(_polytope_pairs())
@example([(_cap(3, 0, 0.3, "ge"), _cap(3, 0, 0.7, "le")),  # overlapping: distance 0
          (_cap(3, 0, 0.6, "ge"), _cap(3, 0, 0.2, "le")),
          (_cap(3, 1, 0.5, "ge"), _cap(3, 2, 0.1, "le"))])
def test_batched_polytope_distances_have_each_pairs_own_bits(pairs):
    # pairs of one shape are solved in lock-step, and each keeps the bits of its lone call
    certs = geometry.polytope_distance(pairs)
    assert len(certs) == len(pairs)
    for cert, pair in zip(certs, pairs):
        (alone,) = geometry.polytope_distance([pair])
        assert cert.value == alone.value
        assert cert.point_a.tobytes() == alone.point_a.tobytes()
        assert cert.point_b.tobytes() == alone.point_b.tobytes()


@pytest.mark.parametrize("d", [3, 8])
@pytest.mark.parametrize("side", ["ge", "le"])
def test_contains_vertex_only_cap_matches_its_halfspace_form(d, side):
    level = 0.4
    verts, hs = cap_prior_polytope(d, 0, level, side)
    pts = np.random.default_rng(SEED + d).dirichlet(np.ones(d), 10_000)
    pts = pts[np.abs(pts[:, 0] - level) > 1e-6]
    by_hull = geometry.contains(geometry.Polytope(verts), pts)
    by_halfspace = geometry.contains(geometry.Polytope(verts, (hs,)), pts)
    assert 0 < by_halfspace.sum() < len(pts)
    assert np.array_equal(by_hull, by_halfspace)


def test_contains_one_vertex_polytope_batch():
    vertex = np.array([0.2, 0.3, 0.5])
    pts = np.array([vertex, [1.0, 0.0, 0.0], [0.2, 0.3 + 1e-6, 0.5 - 1e-6], vertex])
    point = geometry.Polytope(vertices=vertex)
    assert geometry.contains(point, pts).tolist() == [True, False, False, True]
    assert geometry.contains(point, np.empty((0, 3))).shape == (0,)


@st.composite
def _hull_and_batch(draw):
    """A cap or face polytope at d in [2, 12], a batch of 1 to 40 points, one row index."""
    d = draw(st.integers(2, 12))
    if draw(st.booleans()):
        side = draw(st.sampled_from(["ge", "le"]))
        level = draw(st.floats(0.05, 0.95))
        verts = cap_prior_polytope(d, draw(st.integers(0, d - 1)), level, side)[0]
    else:
        face = draw(st.sets(st.integers(0, d - 1), min_size=1))
        verts = np.eye(d)[sorted(face)]
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    on_simplex = rng.dirichlet(np.ones(d), n)
    off_simplex = rng.uniform(-1.0, 2.0, (n, d))
    X = np.where(rng.random((n, 1)) < 0.5, on_simplex, off_simplex)
    return geometry.Polytope(verts), X, draw(st.integers(0, n - 1))


@settings(max_examples=40, deadline=None)
@given(_hull_and_batch())
def test_batched_projection_matches_each_row_and_is_certified(case):
    P, X, k = case
    Y = _project(X, P)
    assert Y.shape == X.shape
    assert np.max(np.abs(Y[k] - _project(X[k], P))) <= 1e-12
    assert np.all(_fw_certificate(X, Y, P.vertices) <= 1e-12)
    dist = geometry.distance_point_to_convex(X, P)
    assert dist.shape == (len(X),)
    assert dist[k] == pytest.approx(geometry.distance_point_to_convex(X[k], P), abs=1e-12)


@pytest.mark.parametrize("normal,offset", [
    ([1.0, 0.0, 0.0, 0.0], math.nan),
    ([1.0, 0.0, 0.0, 0.0], math.inf),
    ([-1.0, 0.0, 0.0, 0.0], -math.inf),
    ([math.inf, 0.0, 0.0, 0.0], 0.3),
    ([1.0, -math.inf, 0.0, 0.0], 0.3),
])
def test_halfspace_refuses_non_finite_values(normal, offset):
    # a nan offset made relative_volume read the cap {mu_0 >= 0.3} at d = 4 as 1.0
    with pytest.raises(ValueError, match="must be finite"):
        geometry.HalfSpace(np.array(normal), offset)
    cap = geometry.Polytope(cap_prior_polytope(4, 0, 0.3, "ge")[0],
                            (geometry.HalfSpace(np.eye(4)[0], 0.3),))
    assert geometry.relative_volume([cap]) == pytest.approx(0.7**3, rel=1e-15)


def test_polytope_refuses_an_empty_vertex_list():
    for vertices in ([], np.empty((0, 3))):
        with pytest.raises(ValueError, match="at least one vertex"):
            geometry.Polytope(vertices=vertices)


# ---------------------------------------------------------------------------
# volumes
# ---------------------------------------------------------------------------


# at lam = 1 the check's rhs Vol(A)^lam Vol(B)^(1-lam) is Vol(A), and its lhs
# the volume of the combination lam*A + (1-lam)*B


def test_ball_volume_low_dims():
    small, large = geometry.Ball(np.zeros(2), 1.0), geometry.Ball(np.zeros(3), 2.0)
    assert geometry.bm_check(small, small, 1.0).rhs == pytest.approx(math.pi)
    assert geometry.bm_check(large, large, 1.0).rhs == pytest.approx(4.0 / 3.0 * math.pi * 8.0)


def test_box_volume_exact():
    box = geometry.Box(np.array([0.0, -1.0]), np.array([2.0, 1.0]))
    res = geometry.bm_check(box, box, 1.0)
    assert res.lhs == res.rhs == 4.0


def test_volume_refuses_bodies_without_closed_form():
    cap, ball = _cap(2, 0, 0.6, "ge"), geometry.Ball(np.zeros(2), 1.0)
    box = geometry.Box(np.zeros(2), np.ones(2))
    for A, B in ((cap, cap), (ball, box), (ball, geometry.Ball(np.zeros(3), 1.0))):
        with pytest.raises(ValueError, match="no exact Brunn-Minkowski check"):
            geometry.bm_check(A, B, 0.5)


@pytest.mark.parametrize("d", [2, 3, 12, 512])
def test_relative_volume_of_caps_is_the_beta_tail(d):
    # under the uniform law on the simplex mu_k is Beta(1, d-1)
    assert geometry.relative_volume([_cap(d, 1, 0.6, "ge")]) == (1 - 0.6) ** (d - 1)
    assert geometry.relative_volume([_cap(d, 1, 0.2, "le")]) == 1 - (1 - 0.2) ** (d - 1)


@pytest.mark.parametrize("d", [3, 7])
def test_relative_volume_of_a_one_coordinate_slab(d):
    eye = np.eye(d)
    facets = [level * eye[0] + (1 - level) * eye[1:] for level in (0.2, 0.7)]
    slab = geometry.Polytope(np.vstack(facets), (geometry.HalfSpace(eye[0], 0.2),
                                                 geometry.HalfSpace(-eye[0], -0.7)))
    exact = (1 - 0.2) ** (d - 1) - (1 - 0.7) ** (d - 1)
    assert geometry.relative_volume([slab]) == exact
    # the same slab as the intersection of two caps, and disjoint caps meet in nothing
    assert geometry.relative_volume([_cap(d, 0, 0.2, "ge"), _cap(d, 0, 0.7, "le")]) == exact
    assert geometry.relative_volume([_cap(d, 0, 0.6, "ge"), _cap(d, 0, 0.2, "le")]) == 0.0


def test_relative_volume_of_lower_dimensional_sets_is_zero():
    d = 4
    verts, hs = cap_prior_polytope(d, 0, 0.6, "ge")
    facet = geometry.Polytope(verts[1:], (hs,))  # the cap's level facet, d - 1 vertices
    assert geometry.relative_volume([facet]) == 0.0
    # d vertices spanning only a line
    line = geometry.Polytope([[1, 0, 0, 0], [0.5, 0.5, 0, 0], [0.25, 0.75, 0, 0], [0, 1, 0, 0]])
    assert geometry.relative_volume([line]) == 0.0
    # a lower-dimensional member zeroes the group, whatever the others are
    assert geometry.relative_volume([_cap(d, 0, 0.2, "ge"), facet]) == 0.0
    prior = belief_set(CRRASEU(np.full(d, 1.0 / d)), np.ones(d))
    assert len(prior.vertices) == 1
    assert geometry.relative_volume([prior]) == 0.0
    assert geometry.relative_volume([_cap(d, 0, 0.2, "ge"), prior]) == 0.0


def test_relative_volume_refuses_other_polytopes():
    verts, _ = cap_prior_polytope(4, 0, 0.6, "ge")
    with pytest.raises(ValueError, match="only by vertices"):
        geometry.relative_volume([geometry.Polytope(verts)])
    with pytest.raises(ValueError, match="same coordinate"):
        geometry.relative_volume([_cap(4, 0, 0.2, "ge"), _cap(4, 1, 0.2, "ge")])
    whole = geometry.Polytope(np.eye(3), (geometry.HalfSpace(np.ones(3), 1.0),))
    with pytest.raises(ValueError, match="same coordinate"):
        geometry.relative_volume([whole])


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


_BM_FLAGS = ("holds", "root_equality")
_BM_FIELDS = ("lhs", "rhs", "lhs_root", "rhs_root", *_BM_FLAGS)


def test_bm_check_on_a_stack_gives_each_pair_its_own_bits():
    # the checks run's 1,000 random pairs, decided in one call per dimension
    stacks = experiments._bm_pairs(experiments.default_config("checks").seed_spec)
    assert sum(len(lam) for _, _, lam in stacks.values()) == 1000
    for d, (A, B, lam) in stacks.items():
        res = geometry.bm_check(A, B, lam)
        assert A.dim == d and all(getattr(res, f).shape == lam.shape for f in _BM_FIELDS)
        for k in range(len(lam)):
            alone = geometry.bm_check(geometry.Box(A.lower[k], A.upper[k]),
                                      geometry.Box(B.lower[k], B.upper[k]), float(lam[k]))
            for f in _BM_FIELDS:
                assert type(getattr(alone, f)) is (bool if f in _BM_FLAGS else float)
                assert getattr(res, f)[k] == getattr(alone, f), (d, k, f)


def test_box_stacks_combine_and_measure_row_by_row():
    lower = np.array([[0.0, 0.0], [1.0, -1.0]])
    A = geometry.Box(lower, lower + np.array([[1.0, 2.0], [0.5, 4.0]]))
    B = geometry.Box(lower, lower + 1.0)
    assert A.dim == 2 and np.array_equal(geometry.bm_check(A, B, 1.0).rhs, [2.0, 2.0])
    # the combinations' sides are [[1, 1.5], [0.875, 1.75]]
    res = geometry.bm_check(A, B, np.array([0.5, 0.25]))
    assert np.array_equal(res.lhs, [1.5, 0.875 * 1.75])
    assert np.array_equal(geometry.bm_check(A, B, 1.0).lhs, [2.0, 2.0])
    with pytest.raises(ValueError, match="lambda"):
        geometry.bm_check(A, B, np.array([0.5, 1.5]))
    with pytest.raises(ValueError, match="matching"):
        geometry.Box(np.zeros((2, 2, 2)), np.ones((2, 2, 2)))


# ---------------------------------------------------------------------------
# cap fractions and the separation bound
# ---------------------------------------------------------------------------

# special.cap_fraction(d, x) is the share of the unit d-ball above the height sqrt(1 - x)


def test_cap_fraction_matches_circular_segment():
    t = 0.2
    segment = (math.acos(t) - t * math.sqrt(1.0 - t * t)) / math.pi
    val = special.cap_fraction(2, 1.0 - t * t)
    assert val == pytest.approx(segment, rel=1e-12)
    assert val == pytest.approx(0.3735300390523313, rel=1e-12)


def test_cap_fraction_mc_confirmation():
    from risklab import sampling

    Z = sampling.PerturbationLaw("uniform-ball", 3, 1.0).sample(200_000, SEED)
    frac = float(np.mean(Z[:, 0] >= 0.3))
    assert special.cap_fraction(3, 1.0 - 0.3**2) == pytest.approx(frac, abs=0.004)


def test_cap_fraction_half_at_zero_and_zero_beyond_radius():
    # caps at height delta/2 of Ball_5(r): delta = 0 halves the ball, delta/2 > r is empty
    assert geometry.separation_bound_check(0.0, 5, 2.0)[0] == pytest.approx(0.5, rel=1e-12)
    assert geometry.separation_bound_check(3.0, 5, 1.0)[0] == 0.0


def test_cap_fraction_monotone_decreasing_in_height():
    vals = [special.cap_fraction(6, 1.0 - t * t) for t in np.linspace(0.0, 0.99, 25)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cap_fraction_input_errors():
    # the separation check computes the cap fraction of Ball_d(r) at delta/2
    with pytest.raises(ValueError, match="d must be"):
        geometry.separation_bound_check(0.2, 0)
    with pytest.raises(ValueError, match="r must be"):
        geometry.separation_bound_check(0.2, 2, -1.0)
    with pytest.raises(ValueError, match="delta must be"):
        geometry.separation_bound_check(-0.2, 2)


@settings(max_examples=300, deadline=None)
@given(d=st.integers(1, 4000),
       delta=st.floats(0.0, 2.0, exclude_min=True, allow_nan=False, allow_infinity=False))
@example(d=8, delta=0.3)
@example(d=4000, delta=0.1)  # the paper's anchor dimension
@example(d=4000, delta=2.0)
@example(d=1, delta=5e-324)
def test_separation_bound_check_halfspace_pair(d, delta):
    # Lemma 1 on the caps {z_1 >= delta/2} and {z_1 <= -delta/2} of the unit ball
    exact, bound = geometry.separation_bound_check(delta, d)
    assert exact == special.cap_fraction(d, 1.0 - (delta / 2.0) ** 2)
    assert bound == pytest.approx(math.exp(-delta * delta * d / 8.0), rel=1e-12)
    assert exact <= bound


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def test_convergence_error_carries_diagnostics():
    err = geometry.ConvergenceError("no luck", value=0.5, gap=1e-3)
    assert err.value == 0.5 and err.gap == 1e-3
    assert "no luck" in str(err)


def test_minkowski_combine_balls():
    # 0.25 B(0, 1) + 0.75 B((2, 0), 3) is the disc of radius 2.5
    res = geometry.bm_check(geometry.Ball(np.zeros(2), 1.0),
                            geometry.Ball(np.array([2.0, 0.0]), 3.0), 0.25)
    assert res.lhs == pytest.approx(math.pi * 2.5**2, rel=1e-12)
    assert res.root_equality
