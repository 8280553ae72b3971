"""Samplers, the seeding contract, and Monte Carlo estimates.

Distributional tests compare empirical statistics against closed forms
(radial moments, cap probabilities, the restricted-Gaussian radial CDF);
determinism tests require byte-identical arrays, not approximate ones.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc, gammainc

from risklab import sampling

SEED = 4242


# ---------------------------------------------------------------------------
# seeding and determinism
# ---------------------------------------------------------------------------


def test_seed_required():
    with pytest.raises(ValueError, match="no wall-clock default"):
        sampling.as_seed(None)


def test_seed_spec_streams_are_distinct():
    base = sampling.SeedSpec(7)
    s1, s2 = base.stream(1), base.stream(2)
    a = sampling.sample_uniform_ball(3, 1.0, 100, s1)
    b = sampling.sample_uniform_ball(3, 1.0, 100, s2)
    assert not np.array_equal(a, b)


def test_same_seed_bitwise_identical():
    a = sampling.sample_uniform_ball(5, 2.0, 1000, SEED)
    b = sampling.sample_uniform_ball(5, 2.0, 1000, SEED)
    assert np.array_equal(a, b)


def test_block_generator_reproducible():
    g1 = sampling.generator_for_block(sampling.SeedSpec(3), 17)
    g2 = sampling.generator_for_block(sampling.SeedSpec(3), 17)
    assert np.array_equal(g1.random(64), g2.random(64))


def test_prefix_stability_across_sizes():
    # growing n must not disturb the draws of earlier blocks
    small = sampling.sample_uniform_ball(4, 1.0, 1 << 14, SEED)
    large = sampling.sample_uniform_ball(4, 1.0, (1 << 14) + 500, SEED)
    assert np.array_equal(small, large[: 1 << 14])


def test_restricted_gaussian_deterministic_both_methods():
    for method in ("rejection", "radial"):
        a = sampling.sample_restricted_gaussian(3, 1.0, 500, SEED, method=method)
        b = sampling.sample_restricted_gaussian(3, 1.0, 500, SEED, method=method)
        assert np.array_equal(a, b)


# SHA-256 of the little-endian float64 bytes of each sampler's output at
# SEED with BLOCK_DRAWS + 17 draws (two blocks, the second partial).  They
# were computed while rejection still drew each chunk in one call, so they
# also pin the slab drawing to that stream.  A change that moves any draw
# must update them on purpose.
_GOLDEN = {
    ("rg", 2): "2f0f586e70a5015359c34ce1aa2ddca0825a4904e47d9fe47909d0d9649a02a3",
    ("rg", 8): "e57c7bbafaffb4efa1b23b88621963335b7fe7322e6b99810ffafd2adb8302ce",
    ("rg", 32): "8ba2a8bd9fdc59b3cba8050980274b28303fc187f5feaf7507debd1b0cd44736",
    ("ball", 2): "7a0b5b1dae56ad7cea99c399075220dff51d210631630e9d367a65fc2919f1b1",
    ("ball", 8): "c4b99ae797a4d87ad6ff252c656249128c044bbf79da7a27ae7654932a43b7d8",
    ("ball", 32): "9ce5cdc54c698262e1e64491905614194d4f453db9a69793e0aae48324a9843e",
    ("simplex", 2): "43780529e04efb442e0ebd07fe83af3a2b425e0f92b78e6929eb53718b5f7537",
    ("simplex", 8): "9b2a91f0d08e0c930674d4bb9e4bee72864a297fa47c7ef53572638dd1935026",
    ("simplex", 32): "e65a94c482586ed98a78b23f6808160eba91df1c3e762ebba58d33c47c2a2e14",
}


@pytest.mark.parametrize("law,d", sorted(_GOLDEN))
def test_sample_streams_match_golden_hashes(law, d):
    # r = 1: rejection at d = 2 and 8 (acceptance 0.39 and 0.0018), radial at d = 32
    n = sampling.BLOCK_DRAWS + 17
    if law == "rg":
        Z = sampling.sample_restricted_gaussian(d, 1.0, n, SEED)
    elif law == "ball":
        Z = sampling.sample_uniform_ball(d, 1.0, n, SEED)
    else:
        Z = sampling.sample_uniform_simplex(d, n, SEED)
    digest = hashlib.sha256(np.ascontiguousarray(Z, dtype="<f8").tobytes()).hexdigest()
    assert digest == _GOLDEN[law, d]


def test_rejection_sampler_memory_ceiling():
    # acceptance 0.0018 needs ~9.4e6 x 8 normals for one block: drawn as one
    # chunk they peak at 1.4 GB, in BLOCK_DRAWS-row slabs at a few MB
    tracemalloc.start()
    try:
        Z = sampling.sample_restricted_gaussian(
            8, 1.0, sampling.BLOCK_DRAWS, SEED, method="rejection"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Z.shape == (sampling.BLOCK_DRAWS, 8)
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# uniform ball
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,r", [(2, 1.0), (5, 0.5), (16, 3.0)])
def test_ball_support_and_radial_moment(d, r):
    Z = sampling.sample_uniform_ball(d, r, 40_000, SEED)
    assert Z.shape == (40_000, d)
    norms = np.linalg.norm(Z, axis=1)
    assert norms.max() <= r + 1e-12
    # E||z||^2 = r^2 d/(d+2)
    expected = r * r * d / (d + 2.0)
    assert np.mean(norms**2) == pytest.approx(expected, rel=0.02)


def test_ball_cap_probability_matches_beta_formula():
    d, r, t = 6, 1.0, 0.4
    Z = sampling.sample_uniform_ball(d, r, 100_000, SEED)
    emp = float(np.mean(Z[:, 2] >= t))
    exact = 0.5 * betainc(0.5 * (d + 1), 0.5, 1.0 - (t / r) ** 2)
    assert emp == pytest.approx(exact, abs=0.005)


def test_ball_is_centrally_symmetric_in_mean():
    Z = sampling.sample_uniform_ball(3, 1.0, 100_000, SEED)
    assert np.abs(Z.mean(axis=0)).max() < 0.006


# ---------------------------------------------------------------------------
# restricted gaussian
# ---------------------------------------------------------------------------


def _radial_cdf(rho, d, r):
    return gammainc(0.5 * d, 0.5 * rho**2) / gammainc(0.5 * d, 0.5 * r**2)


@pytest.mark.parametrize("method", ["rejection", "radial"])
def test_restricted_gaussian_radial_ks(method):
    d, r, n = 4, 1.5, 100_000
    Z = sampling.sample_restricted_gaussian(d, r, n, SEED, method=method)
    norms = np.sort(np.linalg.norm(Z, axis=1))
    assert norms[-1] <= r + 1e-12
    grid = np.arange(1, n + 1) / n
    ks = np.max(np.abs(_radial_cdf(norms, d, r) - grid))
    assert ks <= 0.002 + math.sqrt(math.log(2.0 / 1e-6) / (2 * n))


def test_restricted_gaussian_methods_agree_in_distribution():
    d, r, n = 3, 1.0, 50_000
    a = sampling.sample_restricted_gaussian(d, r, n, SEED, method="rejection")
    b = sampling.sample_restricted_gaussian(d, r, n, sampling.SeedSpec(SEED, 1), method="radial")
    qa = np.quantile(np.linalg.norm(a, axis=1), [0.1, 0.25, 0.5, 0.75, 0.9])
    qb = np.quantile(np.linalg.norm(b, axis=1), [0.1, 0.25, 0.5, 0.75, 0.9])
    assert np.allclose(qa, qb, atol=0.01)


def test_acceptance_probability_formula():
    assert sampling.restricted_gaussian_acceptance(2, 10.0) == pytest.approx(1.0, abs=1e-12)
    assert sampling.restricted_gaussian_acceptance(4, 0.1) == pytest.approx(
        gammainc(2.0, 0.005), rel=1e-12
    )


def test_auto_switches_to_radial_at_tiny_acceptance():
    # acceptance ~ 1e-5: rejection would churn; auto must still return n draws
    d, r = 4, 0.1
    assert sampling.restricted_gaussian_acceptance(d, r) < 1e-3
    Z = sampling.sample_restricted_gaussian(d, r, 2000, SEED, method="auto")
    assert Z.shape == (2000, d)
    assert np.linalg.norm(Z, axis=1).max() <= r


def test_rejection_refuses_hopeless_acceptance():
    d, r = 12, 0.05
    assert sampling.restricted_gaussian_acceptance(d, r) < 1e-6
    with pytest.raises(ValueError):
        sampling.sample_restricted_gaussian(d, r, 100, SEED, method="rejection")


# ---------------------------------------------------------------------------
# uniform simplex
# ---------------------------------------------------------------------------


def test_simplex_samples_live_on_simplex():
    X = sampling.sample_uniform_simplex(6, 20_000, SEED)
    assert np.all(X >= 0)
    assert np.allclose(X.sum(axis=1), 1.0, atol=1e-12)


@pytest.mark.parametrize("d,t", [(3, 0.4), (5, 0.25)])
def test_simplex_coordinate_tail(d, t):
    # P(x_0 >= t) = (1 - t)^(d-1) for the flat Dirichlet
    X = sampling.sample_uniform_simplex(d, 100_000, SEED)
    emp = float(np.mean(X[:, 0] >= t))
    assert emp == pytest.approx((1.0 - t) ** (d - 1), abs=0.005)


# ---------------------------------------------------------------------------
# density-ratio ceiling
# ---------------------------------------------------------------------------


def test_kappa_close_to_one_for_tiny_radius():
    assert sampling.gaussian_kappa_ratio(5, 0.01) == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("d,r", [(1, 1.0), (3, 1.0), (10, 2.0), (50, 0.5)])
def test_kappa_strictly_below_gaussian_cap(d, r):
    assert 1.0 <= sampling.gaussian_kappa_ratio(d, r) < math.exp(r * r / 2.0)


def test_kappa_cache_stable():
    assert sampling.gaussian_kappa_ratio(7, 1.3) == sampling.gaussian_kappa_ratio(7, 1.3)


# ---------------------------------------------------------------------------
# PerturbationLaw
# ---------------------------------------------------------------------------


def test_law_kappa_values():
    ball = sampling.PerturbationLaw("uniform-ball", 4, 1.0)
    assert ball.kappa == 1.0
    gauss = sampling.PerturbationLaw("restricted-gaussian", 4, 1.0)
    assert gauss.kappa == pytest.approx(sampling.gaussian_kappa_ratio(4, 1.0))


def test_law_with_dim_and_block_consistency():
    law = sampling.PerturbationLaw("uniform-ball", 2, 1.0).with_dim(6)
    assert law.dim == 6
    full = law.sample(300, SEED)
    blk = law.sample_block(0, 300, sampling.as_seed(SEED))
    assert np.array_equal(full, blk)


def test_law_rejects_unknown_kind():
    with pytest.raises(ValueError):
        sampling.PerturbationLaw("levy-flight", 3, 1.0)


# ---------------------------------------------------------------------------
# MCEstimate
# ---------------------------------------------------------------------------


def test_wilson_interval_frozen_midpoint_case():
    # 50 successes out of 100: Wilson 95% = (0.4038, 0.5962)
    est = sampling.MCEstimate(hits=50, trials=100)
    assert est.p_hat == 0.5
    assert est.ci_low == pytest.approx(0.4038, abs=2e-4)
    assert est.ci_high == pytest.approx(0.5962, abs=2e-4)


def test_zero_hits_uses_exact_upper_limit():
    n = 1000
    est = sampling.MCEstimate(hits=0, trials=n)
    assert est.ci_low == 0.0
    assert est.ci_high == pytest.approx(1.0 - 0.025 ** (1.0 / n), rel=1e-12)
    assert est.ci_high < 3.7 / n


def test_all_hits_mirror_of_zero():
    n = 500
    est = sampling.MCEstimate(hits=n, trials=n)
    assert est.ci_high == 1.0
    assert est.ci_low == pytest.approx(0.025 ** (1.0 / n), rel=1e-12)


def test_merge_is_exact_count_addition_and_associative():
    a = sampling.MCEstimate(3, 100)
    b = sampling.MCEstimate(7, 200)
    c = sampling.MCEstimate(0, 50)
    ab_c = a.merge(b).merge(c)
    a_bc = a.merge(b.merge(c))
    assert ab_c == a_bc
    assert ab_c.hits == 10 and ab_c.trials == 350


def test_estimate_validation():
    with pytest.raises(ValueError):
        sampling.MCEstimate(hits=5, trials=4)
    with pytest.raises(ValueError):
        sampling.MCEstimate(hits=-1, trials=10)


# ---------------------------------------------------------------------------
# mc_probability
# ---------------------------------------------------------------------------


def test_mc_probability_halfspace_event():
    law = sampling.PerturbationLaw("uniform-ball", 3, 1.0)
    est = sampling.mc_probability(lambda Z: Z[:, 0] > 0.0, law, 50_000, SEED)
    assert est.trials == 50_000
    assert est.ci_low <= 0.5 <= est.ci_high


def test_mc_probability_thread_invariance():
    law = sampling.PerturbationLaw("uniform-ball", 4, 1.0)
    event = lambda Z: np.linalg.norm(Z, axis=1) > 0.8
    e1 = sampling.mc_probability(event, law, 40_000, SEED, threads=1)
    e4 = sampling.mc_probability(event, law, 40_000, SEED, threads=4)
    assert e1 == e4


def test_mc_probability_minimum_trials():
    law = sampling.PerturbationLaw("uniform-ball", 2, 1.0)
    with pytest.raises(ValueError):
        sampling.mc_probability(lambda Z: Z[:, 0] > 0, law, 50, SEED)


def test_mc_probability_rejects_misshapen_event():
    law = sampling.PerturbationLaw("uniform-ball", 2, 1.0)
    with pytest.raises(RuntimeError, match="shape"):
        sampling.mc_probability(lambda Z: Z > 0, law, 200, SEED)  # (m, d), not (m,)


def test_mc_probability_echoes_predicate_failure():
    law = sampling.PerturbationLaw("uniform-ball", 2, 1.0)

    def bad(Z):
        raise KeyError("missing column")

    with pytest.raises(RuntimeError, match="block"):
        sampling.mc_probability(bad, law, 200, SEED)


# ---------------------------------------------------------------------------
# the block map
# ---------------------------------------------------------------------------


def _block_specs(n):
    """(block, draws) pairs covering n draws, written out independently of the package."""
    B = sampling.BLOCK_DRAWS
    return [(b, min(B, n - b * B)) for b in range(-(-n // B))]


def test_map_blocks_returns_block_order():
    n = 2 * sampling.BLOCK_DRAWS + 5
    for threads in (1, 3):
        assert sampling.map_blocks(lambda b, m: (b, m), n, threads) == _block_specs(n)


def _simplex_block(d, seed, b, m):
    e = sampling.generator_for_block(seed, b).standard_exponential((m, d))
    return e / e.sum(axis=1, keepdims=True)


_BLOCK_N = st.integers(100, 3 * sampling.BLOCK_DRAWS + 17)
_THREADS = st.sampled_from([1, 2, 3])


@settings(max_examples=20, deadline=None)
@given(n=_BLOCK_N, threads=_THREADS)
def test_samplers_are_their_blocks_stacked_under_any_thread_count(n, threads):
    seed = sampling.SeedSpec(SEED, 5)
    # (sampler output, its per-block draws); d = 2 and 8 reject, d = 32 is radial
    laws = [sampling.PerturbationLaw("uniform-ball", 6, 1.5),
            sampling.PerturbationLaw("restricted-gaussian", 2, 1.0),
            sampling.PerturbationLaw("restricted-gaussian", 8, 2.0),
            sampling.PerturbationLaw("restricted-gaussian", 32, 1.0)]
    cases = [(sampling.sample_uniform_ball(6, 1.5, n, seed), laws[0].sample_block)]
    cases += [(sampling.sample_restricted_gaussian(law.dim, law.radius, n, seed),
               law.sample_block) for law in laws[1:]]
    cases += [(law.sample(n, seed), law.sample_block) for law in laws]
    cases.append((sampling.sample_uniform_simplex(5, n, seed),
                  lambda b, m, s: _simplex_block(5, s, b, m)))
    for out, block in cases:
        expected = np.vstack([block(b, m, seed) for b, m in _block_specs(n)])
        mapped = np.vstack(sampling.map_blocks(lambda b, m: block(b, m, seed), n, threads))
        assert out.tobytes() == expected.tobytes() == mapped.tobytes()


@settings(max_examples=20, deadline=None)
@given(n=_BLOCK_N, threads=_THREADS)
def test_mc_probability_counts_its_blocks_under_any_thread_count(n, threads):
    seed = sampling.SeedSpec(SEED, 6)
    law = sampling.PerturbationLaw("uniform-ball", 3, 1.0)

    def event(Z):
        return Z[:, 0] > 0.3

    hits = sum(int(event(law.sample_block(b, m, seed)).sum()) for b, m in _block_specs(n))
    assert sampling.mc_probability(event, law, n, seed, threads) == sampling.MCEstimate(hits, n)
    assert sampling.mc_probability(event, law, n, seed, 1) == sampling.MCEstimate(hits, n)
