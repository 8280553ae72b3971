"""Exchange-economy solvers: equilibrium, improvement deciders, CRU, volumes.

The tatonnement and CRU oracles were worked out by hand (market-clearing
algebra, certainty-equivalent matching) before the implementations existed.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

from risklab import economy, geometry, preferences, sampling
from risklab.preferences import CRRASEU, CobbDouglasEU, MaxMinEU, cap_prior_polytope

SEED = 314159


def _cd_economy():
    # mu1 = (0.6, 0.4), w1 = (2, 0); mu2 = (0.3, 0.7), w2 = (0, 1)
    return economy.EconomySpec(
        (
            economy.Agent(CobbDouglasEU(np.array([0.6, 0.4])), np.array([2.0, 0.0])),
            economy.Agent(CobbDouglasEU(np.array([0.3, 0.7])), np.array([0.0, 1.0])),
        )
    )


def _uniform_pair(d=2, gamma=1.0):
    mu = np.full(d, 1.0 / d)
    pref = CobbDouglasEU(mu) if gamma == 1.0 else CRRASEU(mu, gamma)
    w = np.full(d, 0.5)
    return economy.EconomySpec(
        (economy.Agent(pref, w), economy.Agent(pref, w)), no_aggregate_uncertainty=True
    )


# ---------------------------------------------------------------------------
# economy plumbing
# ---------------------------------------------------------------------------


def test_economy_spec_validation():
    a = economy.Agent(CobbDouglasEU(np.array([0.5, 0.5])), np.ones(2))
    with pytest.raises(ValueError):
        economy.EconomySpec((a,))  # one agent is not an exchange economy
    b = economy.Agent(CobbDouglasEU(np.array([1 / 3] * 3)), np.ones(3))
    with pytest.raises(ValueError):
        economy.EconomySpec((a, b))  # mismatched state spaces
    with pytest.raises(ValueError):
        economy.EconomySpec(
            (a, economy.Agent(CobbDouglasEU(np.array([0.5, 0.5])), np.array([1.0, 2.0]))),
            no_aggregate_uncertainty=True,
        )


def test_allocation_feasibility():
    econ = _uniform_pair()
    good = economy.Allocation(np.array([[0.6, 0.4], [0.4, 0.6]]))
    assert good.check_feasible(econ) is good
    with pytest.raises(ValueError, match="aggregate"):
        economy.Allocation(np.array([[0.6, 0.4], [0.6, 0.6]])).check_feasible(econ)
    with pytest.raises(ValueError, match="nonnegativity"):
        economy.Allocation(np.array([[1.2, 0.4], [-0.2, 0.6]])).check_feasible(
            econ, nonneg=True
        )


def test_equal_split_feasible_and_symmetric():
    econ = _uniform_pair(3)
    f = economy.equal_split(econ)
    assert np.allclose(f.acts, np.full((2, 3), 0.5))


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------


def test_tatonnement_hand_solved_economy():
    eq = economy.tatonnement_equilibrium(_cd_economy())
    # market clearing gives p proportional to (1, 8/3)
    assert np.allclose(eq.price, np.array([3.0, 8.0]) / 11.0, atol=1e-10)
    assert np.allclose(eq.allocation.acts[0], [1.2, 0.3], atol=1e-9)
    assert np.allclose(eq.allocation.acts[1], [0.8, 0.7], atol=1e-9)
    assert eq.residual < 1e-10


def test_equilibrium_budgets_balance():
    econ = _cd_economy()
    eq = economy.tatonnement_equilibrium(econ)
    assert eq.budget_gaps(econ).max() < 1e-9


def test_equilibrium_no_trade_when_priors_agree():
    mu = np.array([0.55, 0.45])
    econ = economy.EconomySpec(
        (
            economy.Agent(CobbDouglasEU(mu), np.array([1.0, 1.0])),
            economy.Agent(CobbDouglasEU(mu), np.array([1.0, 1.0])),
        )
    )
    eq = economy.tatonnement_equilibrium(econ)
    assert np.allclose(eq.allocation.acts, np.ones((2, 2)), atol=1e-9)
    assert np.allclose(eq.price, mu, atol=1e-9)  # log utility prices the prior


def test_tatonnement_rejects_non_cobb_douglas():
    econ = _uniform_pair(gamma=2.0)
    with pytest.raises(ValueError):
        economy.tatonnement_equilibrium(econ)


def test_equilibrium_result_validation():
    f = economy.Allocation(np.ones((2, 2)))
    with pytest.raises(ValueError):
        economy.EquilibriumResult(np.array([0.5, 0.6]), f, 0.0)  # price not normalized
    with pytest.raises(ValueError):
        economy.EquilibriumResult(np.array([0.5, 0.5]), f, 1e-3)  # residual too large


def test_planner_allocation_foc():
    econ = economy.EconomySpec(
        (
            economy.Agent(CobbDouglasEU(np.array([0.7, 0.3])), np.full(2, 0.5)),
            economy.Agent(CobbDouglasEU(np.array([0.5, 0.5])), np.full(2, 0.5)),
        ),
        no_aggregate_uncertainty=True,
    )
    f, price = economy.planner_allocation(econ)
    f.check_feasible(econ, nonneg=True)
    # equal weights: marginal utilities align with the price in every state
    for i, agent in enumerate(econ.agents):
        grad = agent.preference.gradient(f.acts[i])
        ratio = grad / price
        assert np.allclose(ratio, ratio[0], rtol=1e-8)


def test_planner_equal_priors_gives_equal_split():
    econ = _uniform_pair(3)
    f, _ = economy.planner_allocation(econ)
    assert np.allclose(f.acts, economy.equal_split(econ).acts, atol=1e-10)


# ---------------------------------------------------------------------------
# improvement events
# ---------------------------------------------------------------------------


def test_individual_improvement_event_shapes_and_logic():
    econ = _cd_economy()
    eq = economy.tatonnement_equilibrium(econ)
    Z = np.array([[0.5, 0.5], [-0.5, -0.5], [0.0, 0.0]])
    flags = economy.individual_improvement_event(econ, eq.allocation, Z, eps=0.05)
    assert flags.shape == (3,)
    assert flags[0]  # more of everything improves someone
    assert not flags[1]  # taking resources away cannot eps-improve anyone
    assert not flags[2]  # the equilibrium itself is not an improvement


def test_scitovsky_exact_matches_grid_on_random_draws():
    econ = economy.EconomySpec(
        (
            economy.Agent(CobbDouglasEU(np.array([0.7, 0.3])), np.full(2, 0.5)),
            economy.Agent(CobbDouglasEU(np.array([0.5, 0.5])), np.full(2, 0.5)),
        ),
        no_aggregate_uncertainty=True,
    )
    f, _ = economy.planner_allocation(econ)
    Z = sampling.sample_uniform_ball(2, 1.0, 60, SEED)
    eps = 0.1
    for z in Z:
        w = econ.aggregate + z
        assert economy.scitovsky_member(econ, f, w, eps) == economy.scitovsky_member_grid(
            econ, f, w, eps
        )


def test_scitovsky_batch_matches_scalar_path():
    econ = _uniform_pair()
    f = economy.equal_split(econ)
    W = np.array([[1.3, 1.3], [1.0, 1.0], [0.7, 0.7], [1.4, 0.2]])
    margins = economy.scitovsky_margins_batch(econ, f, W, eps=0.05)
    for w, m in zip(W, margins):
        scalar = economy.scitovsky_margin(econ, f, w, eps=0.05)
        assert m == pytest.approx(scalar, abs=1e-9)


def test_scitovsky_negative_aggregate_is_never_member():
    econ = _uniform_pair()
    f = economy.equal_split(econ)
    W = np.array([[1.0, -0.2], [-1.0, -1.0]])
    margins = economy.scitovsky_margins_batch(econ, f, W, eps=0.05)
    assert np.all(margins == -np.inf)
    assert economy.scitovsky_margin(econ, f, np.array([1.0, -0.2]), 0.05) == -np.inf


def test_scitovsky_more_of_everything_is_member():
    econ = _uniform_pair()
    f = economy.equal_split(econ)
    assert economy.scitovsky_member(econ, f, np.array([1.5, 1.5]), eps=0.1)
    assert not economy.scitovsky_member(econ, f, np.array([0.9, 0.9]), eps=0.1)


def _bisection_frontier(M, logM, F_w, base, lam, q, eps):
    # reference copy of the frontier margins the bisection solver evaluated
    llam = np.log(lam) - np.log1p(-lam)
    t = q * (llam[:, None] + logM[0][None, :] - logM[1][None, :])
    share = expit(t)
    g1 = F_w * share
    g2 = F_w - g1
    gamma = 1.0 / q
    scale = 1.0 - eps
    if abs(gamma - 1.0) < 1e-14:
        u1 = np.where(np.all(g1 > 0, axis=1), np.log(np.maximum(g1, 1e-300)) @ M[0], -np.inf)
        u2 = np.where(np.all(g2 > 0, axis=1), np.log(np.maximum(g2, 1e-300)) @ M[1], -np.inf)
        u1 = u1 + math.log(scale)
        u2 = u2 + math.log(scale)
    else:
        p_ = 1.0 - gamma
        with np.errstate(divide="ignore"):
            u1 = (np.maximum(scale * g1, 0.0) ** p_ @ M[0]) / p_
            u2 = (np.maximum(scale * g2, 0.0) ** p_ @ M[1]) / p_
        if gamma > 1:
            u1 = np.where(np.all(g1 > 0, axis=1), u1, -np.inf)
            u2 = np.where(np.all(g2 > 0, axis=1), u2, -np.inf)
    return u1 - base[0], u2 - base[1]


def _bisection_margins(econ, f, W, eps):
    """Reference: the 70-step frontier bisection the Newton solver replaced.

    Returns the margins and the rows the low and high edge rules settled.
    """
    q = economy._common_crra_exponent(econ.preferences)
    W = np.atleast_2d(np.asarray(W, dtype=float))
    bad = np.any(W < 0, axis=1)
    W = np.where(bad[:, None], 1.0, W)
    M = np.array([a.preference.prior for a in econ.agents])
    logM = np.log(M)
    base = np.array(
        [preferences.utility_extended(a.preference, f.acts[i]) for i, a in enumerate(econ.agents)]
    )
    n = len(W)
    lo = np.full(n, 1e-12)
    hi = np.full(n, 1.0 - 1e-12)
    with np.errstate(invalid="ignore"):
        m1_lo, m2_lo = _bisection_frontier(M, logM, W, base, lo, q, eps)
        m1_hi, m2_hi = _bisection_frontier(M, logM, W, base, hi, q, eps)
        all_low = (m1_lo - m2_lo) >= 0
        all_high = (m1_hi - m2_hi) <= 0
        for _ in range(70):
            mid = 0.5 * (lo + hi)
            m1, m2 = _bisection_frontier(M, logM, W, base, mid, q, eps)
            go_up = (m1 - m2) < 0
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
        mid = 0.5 * (lo + hi)
        m1, m2 = _bisection_frontier(M, logM, W, base, mid, q, eps)
    margins = np.minimum(m1, m2)
    margins = np.where(all_low, np.minimum(m1_lo, m2_lo), margins)
    margins = np.where(all_high, np.minimum(m1_hi, m2_hi), margins)
    return np.where(bad, -np.inf, margins), all_low & ~bad, all_high & ~bad


@pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5])
@pytest.mark.parametrize("d", [2, 8, 32])
def test_scitovsky_newton_matches_reference_bisection(gamma, d):
    gen = np.random.default_rng(d)
    mu1, mu2 = gen.dirichlet(np.full(d, 0.5)), gen.dirichlet(np.full(d, 0.5))
    pref = (lambda mu: CobbDouglasEU(mu)) if gamma == 1.0 else (lambda mu: CRRASEU(mu, gamma))
    econ = economy.EconomySpec(
        (economy.Agent(pref(mu1), np.full(d, 0.5)), economy.Agent(pref(mu2), np.full(d, 0.5))),
        no_aggregate_uncertainty=True,
    )
    ones = np.ones(d)
    # log margins reach an edge only along the prior tilt; CRRA ones where
    # utilities vanish (tiny aggregates for gamma < 1, huge for gamma > 1)
    tilt = (mu1 - mu2) / np.abs(mu1 - mu2).max()
    extremes = [np.exp(k * tilt) for k in (-600, -300, -100, 100, 300, 600)]
    extremes += [1e-30 * ones, 1e30 * ones, np.zeros(d), np.where(np.arange(d) == 0, 0.0, 1.0)]
    extremes += [np.where(np.arange(d) == d - 1, -0.1, 1.0), -ones]
    W = np.vstack([ones + sampling.sample_uniform_ball(d, 0.8, 400, SEED), *extremes])
    edges = []
    for weights in ((0.8, 0.2), (0.2, 0.8)):
        f, _ = economy.planner_allocation(econ, np.array(weights))
        for eps in (0.0, 0.05, 0.2):
            ref, low, high = _bisection_margins(econ, f, W, eps)
            new = economy.scitovsky_margins_batch(econ, f, W, eps)
            edges.append((low.any(), high.any()))
            finite = np.isfinite(ref)
            assert np.array_equal(finite, np.isfinite(new))
            assert np.array_equal(ref[~finite], new[~finite])
            # 1e-12 absolute; relative where the utility level exceeds 1
            tol = 1e-12 * np.maximum(1.0, np.abs(ref[finite]))
            assert np.all(np.abs(new[finite] - ref[finite]) <= tol)
            assert np.array_equal(new > economy.MEMBER_TOL, ref > economy.MEMBER_TOL)
    low_seen, high_seen = np.any(edges, axis=0)
    assert low_seen and high_seen

def test_pareto_dominated_eps_on_wasteful_allocation():
    # each agent holds the act the *other* one values: undoing the swap helps both
    econ = economy.EconomySpec(
        (
            economy.Agent(CobbDouglasEU(np.array([0.9, 0.1])), np.full(2, 0.5)),
            economy.Agent(CobbDouglasEU(np.array([0.1, 0.9])), np.full(2, 0.5)),
        ),
        no_aggregate_uncertainty=True,
    )
    wasteful = economy.Allocation(np.array([[0.1, 0.9], [0.9, 0.1]]))
    assert economy.pareto_dominated_eps(econ, wasteful, eps=0.05)
    optimal = economy.Allocation(np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert not economy.pareto_dominated_eps(econ, optimal, eps=0.0)


def test_pareto_decider_requires_constant_aggregate():
    econ = _cd_economy()
    with pytest.raises(ValueError):
        economy.pareto_dominated_eps(econ, economy.equal_split(econ), 0.1)


# ---------------------------------------------------------------------------
# CRU
# ---------------------------------------------------------------------------


def test_cru_certainty_equivalent_oracle():
    # log agents at (0.8, 0.2)/(0.2, 0.8): CE = 0.4 each, so beta*1 split
    # in half first matches at beta/2 = 0.4
    econ = _uniform_pair()
    f = economy.Allocation(np.array([[0.8, 0.2], [0.2, 0.8]]))
    beta = economy.cru(econ, f)
    assert beta == pytest.approx(0.8, abs=1e-4)


def test_cru_pareto_optimal_returns_one():
    econ = _uniform_pair()
    assert economy.cru(econ, economy.equal_split(econ)) == 1.0


def test_cru_degenerate_allocation_raises():
    econ = _uniform_pair()
    worthless = economy.Allocation(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="degenerate"):
        economy.cru(econ, worthless)


def test_cru_needs_unit_aggregate():
    econ = economy.EconomySpec(
        (
            economy.Agent(CobbDouglasEU(np.array([0.5, 0.5])), np.ones(2)),
            economy.Agent(CobbDouglasEU(np.array([0.5, 0.5])), np.ones(2)),
        ),
        no_aggregate_uncertainty=True,
    )
    with pytest.raises(ValueError, match="aggregate endowment"):
        economy.cru(econ, economy.equal_split(econ))


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n_agents,d,expected",
    [
        (2, 2, 4.0),  # partition [1, 1]
        (2, 4, 2.0 * 2.0 * math.sqrt(2.0)),  # partition [2, 2]
        (3, 3, 6.0),  # partition [1, 1, 1]
        (4, 2, 4.0),  # only two states to assign
    ],
)
def test_rho_definitional_exact_partitions(n_agents, d, expected):
    agents = tuple(
        economy.Agent(CobbDouglasEU(np.full(d, 1.0 / d)), np.full(d, 1.0 / n_agents))
        for _ in range(n_agents)
    )
    econ = economy.EconomySpec(agents, no_aggregate_uncertainty=True)
    assert economy.rho(econ) == pytest.approx(expected, rel=1e-12)
    assert economy.rho(econ, mode="paper") == pytest.approx(2.0 * math.sqrt(d), rel=1e-12)


def test_rho_enumeration_guard():
    d = 16
    agents = tuple(
        economy.Agent(CobbDouglasEU(np.full(d, 1.0 / d)), np.full(d, 0.5)) for _ in range(2)
    )
    econ = economy.EconomySpec(agents, no_aggregate_uncertainty=True)
    with pytest.raises(ValueError, match="mode='paper'"):
        economy.rho(econ)
    assert economy.rho(econ, mode="paper") == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# belief volumes and width
# ---------------------------------------------------------------------------


def _meu_economy(d, hi=0.6, lo=0.2):
    v1, h1 = cap_prior_polytope(d, 0, hi, "ge")
    v2, h2 = cap_prior_polytope(d, 0, lo, "le")
    t = np.full(d, 0.5)
    return economy.EconomySpec(
        (
            economy.Agent(MaxMinEU(v1, "linear", (h1,)), t),
            economy.Agent(MaxMinEU(v2, "linear", (h2,)), t),
        ),
        no_aggregate_uncertainty=True,
    )


@pytest.mark.parametrize("d", [3, 5])
def test_belief_volume_split_disjoint_caps(d):
    econ = _meu_economy(d)
    split = economy.belief_volume_split(econ, economy.equal_split(econ), [0], n=60_000, seed=SEED)
    # vol({mu_0 >= 0.6}) = 0.4^(d-1), vol({mu_0 <= 0.2}) = 1 - 0.2 * ... exact for J
    assert split.vol_J.p_hat == pytest.approx(0.4 ** (d - 1), abs=0.01)
    assert not split.empty_J and not split.empty_Jc
    assert split.min_rel_vol <= 0.5  # structural for disjoint sets on a shared sample


def test_belief_volume_split_validates_coalition():
    econ = _meu_economy(3)
    f = economy.equal_split(econ)
    for bad in ([], [0, 1], [5]):
        with pytest.raises(ValueError):
            economy.belief_volume_split(econ, f, bad, n=1000, seed=1)


def test_width_report_singleton_and_segment():
    single = geometry.Polytope(vertices=np.array([[0.2, 0.8]]), on_simplex=True)
    rep = economy.width_report(single)
    assert rep.constant_width and rep.theta_max == 0.0
    segment = geometry.Polytope(vertices=np.eye(2), on_simplex=True)
    rep = economy.width_report(segment, n_directions=64, seed=SEED)
    # the only sum-zero directions in the plane are +/- (1,-1)/sqrt(2)
    assert rep.constant_width
    assert rep.theta_max == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_width_report_non_constant_polytope():
    # a cap is wider along the facet than across it
    verts, _ = cap_prior_polytope(3, 0, 0.3, "ge")
    rep = economy.width_report(
        geometry.Polytope(vertices=verts, on_simplex=True), n_directions=256, seed=SEED
    )
    assert not rep.constant_width
    assert rep.theta_min < rep.theta_max
