"""Preference families, belief sets, and joint extension emptiness."""

import itertools
import math

import numpy as np
import pytest

from risklab import geometry, preferences
from risklab.preferences import (
    CRRASEU,
    MaxMinEU,
    belief_set,
    belief_set_extension_empty,
    cap_prior_polytope,
    supergradient,
    utility_extended,
)

SEED = 99


def _meu_cap(d, idx, level, side, bernoulli="linear"):
    verts, hs = cap_prior_polytope(d, idx, level, side)
    return MaxMinEU(verts, bernoulli, (hs,))


# ---------------------------------------------------------------------------
# utility values
# ---------------------------------------------------------------------------


def test_cobb_douglas_log_utility_oracle():
    pref = CRRASEU(np.array([0.6, 0.4]))
    assert pref.utility(np.array([math.e, 1.0])) == pytest.approx(0.6, rel=1e-12)
    uniform = CRRASEU(np.array([0.5, 0.5]))
    assert uniform.utility(np.array([0.4, 0.4])) == pytest.approx(math.log(0.4), rel=1e-12)


def test_crra_gamma_limits():
    mu = np.array([0.25, 0.75])
    f = np.array([1.4, 0.6])
    linear = CRRASEU(mu, 0.0)
    assert linear.utility(f) == pytest.approx(float(mu @ f), rel=1e-12)
    log_like = CRRASEU(mu, 1.0)
    assert log_like.utility(f) == pytest.approx(float(mu @ np.log(f)), rel=1e-12)
    crra2 = CRRASEU(mu, 2.0)
    assert crra2.utility(f) == pytest.approx(-float(mu @ (1.0 / f)), rel=1e-12)


def test_crra_batch_evaluation():
    pref = CRRASEU(np.array([0.5, 0.5]), 0.5)
    F = np.array([[1.0, 1.0], [4.0, 4.0]])
    u = pref.utility(F)
    assert u.shape == (2,)
    assert u[0] == pytest.approx(2.0)  # (1^{0.5})/0.5
    assert u[1] == pytest.approx(4.0)


def test_maxmin_linear_worst_vertex_oracle():
    pref = MaxMinEU(np.array([[0.5, 0.5], [0.9, 0.1]]))
    # values 0.9 and 0.98: the pessimistic vertex (0.5, 0.5) decides
    assert pref.utility(np.array([1.0, 0.8])) == pytest.approx(0.9, rel=1e-12)
    face = pref.worst_case_face(np.array([1.0, 0.8]))
    assert np.allclose(face, [[0.5, 0.5]])


def test_maxmin_constant_act_keeps_whole_prior_set():
    pref = _meu_cap(3, 0, 0.6, "ge")
    face = pref.worst_case_face(np.full(3, 0.7))
    assert len(face) == len(pref.prior_vertices)


def test_maxmin_log_bernoulli_domain():
    pref = MaxMinEU(np.array([[0.5, 0.5]]), "log")
    with pytest.raises(ValueError, match="positive"):
        pref.utility(np.array([1.0, 0.0]))


def test_domain_validation():
    with pytest.raises(ValueError):
        CRRASEU(np.array([0.5, 0.6]))  # not a probability vector
    with pytest.raises(ValueError):
        CRRASEU(np.array([1.0, 0.0]))  # needs full support
    with pytest.raises(ValueError):
        CRRASEU(np.array([0.5, 0.5]), -0.5)
    with pytest.raises(ValueError):
        MaxMinEU(np.array([[0.5, 0.5]]), "cubic")


@pytest.mark.parametrize("bad,message", [
    ([0.5, 0.6, 0.0], "sum to 1"),
    ([1.2, -0.2, 0.0], "nonnegative"),
    ([np.nan, 0.5, 0.5], "finite"),
])
def test_maxmin_vertices_are_checked_at_once_with_each_rows_error(bad, message):
    # one bad vertex among good ones raises the error it raises alone, in any row
    for k in range(4):
        with pytest.raises(ValueError, match=message):
            MaxMinEU(np.insert(np.eye(3), k, bad, axis=0))
    for shape in ((2, 1), (2, 2, 2)):
        with pytest.raises(ValueError, match="at least 2 states"):
            MaxMinEU(np.full(shape, 0.5))
    assert not MaxMinEU(np.eye(3)).prior_vertices.flags.writeable


def test_utility_extended_never_raises():
    pref = CRRASEU(np.array([0.5, 0.5]))
    assert utility_extended(pref, np.array([1.0, -1.0])) == -math.inf
    F = np.array([[1.0, 1.0], [0.0, 2.0]])
    out = utility_extended(pref, F)
    assert out[0] == pytest.approx(0.0)
    assert out[1] == -math.inf


# ---------------------------------------------------------------------------
# quasi-concavity and monotonicity (seeded property sweeps)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "pref",
    [
        CRRASEU(np.array([0.4, 0.3, 0.3])),
        CRRASEU(np.array([0.2, 0.5, 0.3]), 0.5),
        CRRASEU(np.array([1 / 3, 1 / 3, 1 / 3]), 2.0),
        MaxMinEU(cap_prior_polytope(3, 0, 0.5, "ge")[0]),
    ],
)
def test_quasi_concavity_on_random_triples(pref):
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        x = rng.random(3) + 0.05
        y = rng.random(3) + 0.05
        t = float(rng.random())
        mid = pref.utility(t * x + (1 - t) * y)
        assert mid >= min(pref.utility(x), pref.utility(y)) - 1e-10


@pytest.mark.parametrize(
    "pref",
    [
        CRRASEU(np.array([0.4, 0.6])),
        CRRASEU(np.array([0.7, 0.3]), 1.5),
        MaxMinEU(cap_prior_polytope(2, 0, 0.4, "ge")[0]),
    ],
)
def test_strict_monotonicity(pref):
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        f = rng.random(2) + 0.1
        assert pref.utility(f + 0.01) > pref.utility(f)


@pytest.mark.parametrize(
    "pref",
    [
        CRRASEU(np.array([0.4, 0.3, 0.3])),
        CRRASEU(np.array([0.2, 0.5, 0.3]), 0.5),
        CRRASEU(np.array([0.2, 0.5, 0.3]), 16.0),
        CRRASEU(np.array([0.0, 0.5, 0.5]), 0.0),
        MaxMinEU(cap_prior_polytope(3, 0, 0.5, "ge")[0]),
        MaxMinEU(cap_prior_polytope(3, 1, 0.4, "le")[0], "log"),
    ],
)
def test_supergradient_bounds_utility_from_above(pref):
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        f = rng.random(3) + 0.05
        s = supergradient(pref, f)
        assert np.all(np.isfinite(s)) and np.all(s >= 0)
        g = rng.random((50, 3)) * 3.0 + 1e-3
        bound = pref.utility(f) + (g - f) @ s
        assert np.all(pref.utility(g) <= bound + 1e-9 * (1.0 + np.abs(bound)))


def test_supergradient_values_and_refusals():
    mu = np.array([0.25, 0.75])
    f = np.array([2.0, 0.5])
    assert np.allclose(supergradient(CRRASEU(mu), f), mu / f)
    assert np.allclose(supergradient(CRRASEU(mu, 0.0), f), mu)
    meu = _meu_cap(2, 0, 0.4, "ge")  # vertices (1, 0) and (0.4, 0.6)
    assert np.array_equal(supergradient(meu, f), [0.4, 0.6])
    assert np.allclose(supergradient(_meu_cap(2, 0, 0.4, "ge", "log"), f), [0.4 / 2.0, 0.6 / 0.5])
    # a zero payoff under 0 < gamma < 1 is in the domain but has no finite supergradient
    assert supergradient(CRRASEU(mu, 0.5), np.array([0.0, 1.0])) is None
    # a power of a payoff below the normal range has lost its precision
    assert supergradient(CRRASEU(mu, 16.0), np.array([1e-20, 1.0])) is None
    assert supergradient(CRRASEU(mu, 16.0), np.array([1e20, 1.0]))[0] == 0.0
    for pref, act in [(CRRASEU(mu), np.array([0.0, 1.0])),
                      (CRRASEU(mu, 0.5), np.array([-0.1, 1.0])),
                      (_meu_cap(2, 0, 0.4, "ge", "log"), np.array([1.0, 0.0]))]:
        with pytest.raises(ValueError, match="domain violation"):
            supergradient(pref, act)
    with pytest.raises(ValueError, match="single act"):
        supergradient(CRRASEU(mu), np.ones((2, 2)))


# ---------------------------------------------------------------------------
# belief sets
# ---------------------------------------------------------------------------


def test_belief_set_cobb_douglas_normalized_gradient():
    pref = CRRASEU(np.array([0.5, 0.5]))
    B = belief_set(pref, np.array([2.0, 1.0]))
    # gradient (0.25, 0.5) normalizes to (1/3, 2/3)
    assert np.allclose(B.vertices, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)


def test_belief_set_constant_act_is_the_prior():
    mu = np.array([0.3, 0.2, 0.5])
    for pref in (CRRASEU(mu), CRRASEU(mu, 2.0), CRRASEU(mu, 0.0)):
        B = belief_set(pref, np.full(3, 0.8))
        assert np.allclose(B.vertices, mu[None, :], atol=1e-12)


def test_belief_set_supporting_property():
    # every prior in B(f) prices the upper contour set: u(g) >= u(f) implies
    # E_nu[g] >= E_nu[f]
    rng = np.random.default_rng(SEED + 2)
    pref = CRRASEU(np.array([0.45, 0.55]), 1.3)
    f = np.array([0.9, 1.2])
    nu = belief_set(pref, f).vertices[0]
    count = 0
    for _ in range(2000):
        g = f + rng.normal(scale=0.2, size=2)
        if np.any(g <= 0):
            continue
        if pref.utility(g) >= pref.utility(f):
            count += 1
            assert float(nu @ g) >= float(nu @ f) - 1e-9
    assert count > 100  # the sweep actually exercised the contour


def test_belief_set_meu_face_and_halfspaces():
    pref = _meu_cap(3, 0, 0.6, "ge")
    f = np.array([0.4, 0.6, 0.6])
    B = belief_set(pref, f)
    assert np.allclose(B.vertices, [[1.0, 0.0, 0.0]])
    assert len(B.halfspaces) == 2  # cap + face cut
    assert geometry.contains(B, np.array([1.0, 0.0, 0.0]))
    assert not geometry.contains(B, np.array([0.6, 0.2, 0.2]))


def test_belief_set_meu_constant_act_no_face_cut():
    pref = _meu_cap(3, 0, 0.6, "ge")
    B = belief_set(pref, np.full(3, 0.5))
    assert len(B.halfspaces) == 1
    assert len(B.vertices) == len(pref.prior_vertices)


def test_belief_set_meu_log_kink_unsupported():
    verts, _ = cap_prior_polytope(2, 0, 0.5, "ge")
    pref = MaxMinEU(verts, "log")
    with pytest.raises(ValueError, match="unsupported variant"):
        belief_set(pref, np.array([1.0, 1.0]))


def test_cap_polytope_vertices_satisfy_halfspace():
    for side in ("ge", "le"):
        verts, hs = cap_prior_polytope(4, 1, 0.35, side)
        assert np.allclose(verts.sum(axis=1), 1.0)
        assert np.all(hs.signed_slack(verts) >= -1e-12)


def _cap_by_eye(d, idx, level, side):
    # the construction by np.eye, np.delete and np.vstack that the cached patterns replace
    eye = np.eye(d)
    facet = level * eye[idx][None, :] + (1.0 - level) * np.delete(eye, idx, axis=0)
    normal = eye[idx]
    if side == "ge":
        return np.vstack([eye[idx][None, :], facet]), normal, level
    return np.vstack([np.delete(eye, idx, axis=0), facet]), -normal, -level


@pytest.mark.parametrize("d", [2, 3, 8, 64])
def test_cap_polytope_has_the_bits_of_its_eye_construction(d):
    levels = [0.3, 0.6, 1 / 3, *np.random.default_rng(d).random(3)]
    for idx, side, level in itertools.product(range(d), ("ge", "le"), levels):
        verts, hs = cap_prior_polytope(d, idx, level, side)
        want, normal, offset = _cap_by_eye(d, idx, level, side)
        assert verts.shape == want.shape and verts.tobytes() == want.tobytes()
        assert hs.normal.tobytes() == normal.tobytes() and hs.offset == offset
        verts[:] = hs.normal[:] = 7.0  # a caller's writes reach no later cap
    again, want = cap_prior_polytope(d, 0, 0.3, "le")[0], _cap_by_eye(d, 0, 0.3, "le")[0]
    assert again.tobytes() == want.tobytes()
    assert not any(a.flags.writeable for a in preferences._cap_pattern(d, 0, "ge"))


def test_cap_polytope_validation():
    with pytest.raises(ValueError):
        cap_prior_polytope(1, 0, 0.5, "ge")
    with pytest.raises(ValueError):
        cap_prior_polytope(3, 0, 1.0, "ge")
    with pytest.raises(ValueError):
        cap_prior_polytope(3, 0, 0.5, "between")


# ---------------------------------------------------------------------------
# joint extension emptiness
# ---------------------------------------------------------------------------


def _face_sets_distance_sqrt024():
    A = belief_set(_meu_cap(3, 0, 0.6, "ge"), np.full(3, 0.4))
    B = belief_set(_meu_cap(3, 0, 0.2, "le"), np.full(3, 0.4))
    (cert,) = geometry.polytope_distance([(A, B)])
    return cert.value


def test_two_set_emptiness_exact_threshold():
    dist = _face_sets_distance_sqrt024()
    half = math.sqrt(0.24) / 2.0
    assert belief_set_extension_empty(dist, half - 1e-4)
    assert not belief_set_extension_empty(dist, half + 1e-4)


def test_two_set_boundary_raises():
    dist = _face_sets_distance_sqrt024()
    with pytest.raises(geometry.ConvergenceError, match="boundary-indeterminate"):
        belief_set_extension_empty(dist, math.sqrt(0.24) / 2.0)


def test_emptiness_needs_positive_delta():
    with pytest.raises(ValueError):
        belief_set_extension_empty(_face_sets_distance_sqrt024(), 0.0)
