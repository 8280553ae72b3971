"""Exchange-economy solvers: equilibrium, improvement deciders, CRU, volumes.

The tatonnement and CRU oracles were worked out by hand (market-clearing
algebra, certainty-equivalent matching) before the implementations existed.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from risklab import economy, experiments, preferences, sampling
from risklab.preferences import CRRASEU, MaxMinEU, cap_prior_polytope

SEED = 314159


def _cd_economy():
    # mu1 = (0.6, 0.4), w1 = (2, 0); mu2 = (0.3, 0.7), w2 = (0, 1)
    return economy.EconomySpec(
        (
            economy.Agent(CRRASEU(np.array([0.6, 0.4])), np.array([2.0, 0.0])),
            economy.Agent(CRRASEU(np.array([0.3, 0.7])), np.array([0.0, 1.0])),
        )
    )


def _uniform_pair(d=2, gamma=1.0):
    mu = np.full(d, 1.0 / d)
    pref = CRRASEU(mu, gamma)
    w = np.full(d, 0.5)
    return economy.EconomySpec(
        (economy.Agent(pref, w), economy.Agent(pref, w)), no_aggregate_uncertainty=True
    )


# ---------------------------------------------------------------------------
# economy plumbing
# ---------------------------------------------------------------------------


def test_economy_spec_validation():
    a = economy.Agent(CRRASEU(np.array([0.5, 0.5])), np.ones(2))
    with pytest.raises(ValueError):
        economy.EconomySpec((a,))  # one agent is not an exchange economy
    b = economy.Agent(CRRASEU(np.array([1 / 3] * 3)), np.ones(3))
    with pytest.raises(ValueError):
        economy.EconomySpec((a, b))  # mismatched state spaces
    with pytest.raises(ValueError):
        economy.EconomySpec(
            (a, economy.Agent(CRRASEU(np.array([0.5, 0.5])), np.array([1.0, 2.0]))),
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
    gaps = [abs(eq.price @ eq.allocation.acts[i] - eq.price @ a.endowment)
            for i, a in enumerate(econ.agents)]
    assert max(gaps) < 1e-9


def test_equilibrium_no_trade_when_priors_agree():
    mu = np.array([0.55, 0.45])
    econ = economy.EconomySpec(
        (
            economy.Agent(CRRASEU(mu), np.array([1.0, 1.0])),
            economy.Agent(CRRASEU(mu), np.array([1.0, 1.0])),
        )
    )
    eq = economy.tatonnement_equilibrium(econ)
    assert np.allclose(eq.allocation.acts, np.ones((2, 2)), atol=1e-9)
    assert np.allclose(eq.price, mu, atol=1e-9)  # log utility prices the prior


def test_tatonnement_rejects_non_cobb_douglas():
    econ = _uniform_pair(gamma=2.0)
    with pytest.raises(ValueError, match="gamma = 1"):
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
            economy.Agent(CRRASEU(np.array([0.7, 0.3])), np.full(2, 0.5)),
            economy.Agent(CRRASEU(np.array([0.5, 0.5])), np.full(2, 0.5)),
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


def _oracle_improvement_event(econ, f, Z, eps):
    """The decider without its half-space screen: every agent's utility on every row."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    out = np.zeros(len(Z), dtype=bool)
    for i, agent in enumerate(econ.agents):
        fi = f.acts[i]
        base = agent.preference.utility(fi)
        cand = preferences.utility_extended(agent.preference, (1.0 - eps) * (fi + Z))
        out |= cand > base + preferences.TOL_STRICT
    return out


@st.composite
def _improvement_cases(draw):
    """An economy of CRRA and max-min agents, an allocation, eps, and perturbations.

    The perturbations are uniform-ball draws plus, for every agent with a
    supergradient, draws on its half-space boundary (1-eps) s.z = eps s.f_i
    and 1e-12 to either side of it.
    """
    d = draw(st.integers(2, 64))
    eps = draw(st.floats(1e-6, 0.5, exclude_max=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents, acts = [], []
    for _ in range(draw(st.integers(2, 3))):
        kind = draw(st.sampled_from(["crra", "maxmin-linear", "maxmin-log"]))
        act = rng.uniform(0.05, 3.0, d)
        if kind == "crra":
            gamma = draw(st.floats(0.0, 16.0))
            mu = rng.uniform(0.01, 1.0, d)
            pref = CRRASEU(mu / mu.sum(), gamma)
            if gamma < 1 and draw(st.booleans()):
                act[0] = 0.0  # in the domain, without a finite supergradient for gamma > 0
        else:
            v = rng.uniform(0.0, 1.0, (draw(st.integers(1, 4)), d))
            pref = MaxMinEU(v / v.sum(axis=1, keepdims=True), kind.split("-")[1])
        agents.append(economy.Agent(pref, np.ones(d)))
        acts.append(act)
    econ = economy.EconomySpec(tuple(agents))
    radius = draw(st.floats(0.1, 4.0))
    Z = [sampling.sample_uniform_ball(d, radius, 200, rng.integers(2**32))]
    for agent, act in zip(econ.agents, acts):
        s = preferences.supergradient(agent.preference, act)
        if s is None:
            continue
        z = sampling.sample_uniform_ball(d, radius, 30, rng.integers(2**32))
        # move each draw along s onto the half-space boundary
        z += ((eps * (s @ act) - (1.0 - eps) * (z @ s)) / ((1.0 - eps) * (s @ s)))[:, None] * s
        unit = s / np.linalg.norm(s)
        Z += [z, z + 1e-12 * unit, z - 1e-12 * unit]
    return econ, economy.Allocation(np.array(acts)), eps, np.vstack(Z)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_improvement_cases())
def test_screened_improvement_event_matches_the_oracle(case):
    econ, f, eps, Z = case
    flags = economy.individual_improvement_event(econ, f, Z, eps)
    assert np.array_equal(flags, _oracle_improvement_event(econ, f, Z, eps))


@pytest.mark.parametrize("d", [4, 32])
def test_oracle_hits_lie_in_the_agents_supporting_half_space(d):
    cfg = experiments.default_config("thm1")
    econ = experiments.build_economy(cfg, d)
    f, _ = experiments.resolve_allocation(cfg, econ)
    eps = cfg.eps_list[0]
    Z = sampling.sample_uniform_ball(d, cfg.radius, 20_000, SEED)
    hits = 0
    for i, agent in enumerate(econ.agents):
        fi = f.acts[i]
        base = agent.preference.utility(fi)
        cand = preferences.utility_extended(agent.preference, (1.0 - eps) * (fi + Z))
        hit = cand > base + preferences.TOL_STRICT
        s = preferences.supergradient(agent.preference, fi)
        assert np.all((1.0 - eps) * (Z[hit] @ s) > eps * (s @ fi))
        hits += int(hit.sum())
    assert hits > 0


def test_scitovsky_exact_matches_grid_on_random_draws():
    econ = economy.EconomySpec(
        (
            economy.Agent(CRRASEU(np.array([0.7, 0.3])), np.full(2, 0.5)),
            economy.Agent(CRRASEU(np.array([0.5, 0.5])), np.full(2, 0.5)),
        ),
        no_aggregate_uncertainty=True,
    )
    f, _ = economy.planner_allocation(econ)
    Z = sampling.sample_uniform_ball(2, 1.0, 60, SEED)
    eps = 0.1
    W = econ.aggregate + Z
    members = economy.scitovsky_margins_batch(econ, f, W, eps) > economy.MEMBER_TOL
    for w, member in zip(W, members):
        assert member == economy.scitovsky_member_grid(econ, f, w, eps)


def test_scitovsky_batch_matches_scalar_path():
    econ = _uniform_pair()
    f = economy.equal_split(econ)
    W = np.array([[1.3, 1.3], [1.0, 1.0], [0.7, 0.7], [1.4, 0.2]])
    margins = economy.scitovsky_margins_batch(econ, f, W, eps=0.05)
    for w, m in zip(W, margins):
        # one row at a time: rows of a batch do not interact
        scalar = economy.scitovsky_margins_batch(econ, f, w, eps=0.05)[0]
        assert m == pytest.approx(scalar, abs=1e-9)


def test_scitovsky_negative_aggregate_is_never_member():
    econ = _uniform_pair()
    f = economy.equal_split(econ)
    W = np.array([[1.0, -0.2], [-1.0, -1.0]])
    margins = economy.scitovsky_margins_batch(econ, f, W, eps=0.05)
    assert np.all(margins == -np.inf)
    assert economy.scitovsky_margins_batch(econ, f, np.array([1.0, -0.2]), 0.05)[0] == -np.inf


def test_scitovsky_more_of_everything_is_member():
    econ = _uniform_pair()
    f = economy.equal_split(econ)
    margins = economy.scitovsky_margins_batch(econ, f, np.array([[1.5, 1.5], [0.9, 0.9]]), 0.1)
    assert margins[0] > economy.MEMBER_TOL
    assert not margins[1] > economy.MEMBER_TOL


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
    econ = economy.EconomySpec(
        (economy.Agent(CRRASEU(mu1, gamma), np.full(d, 0.5)),
         economy.Agent(CRRASEU(mu2, gamma), np.full(d, 0.5))),
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


def test_scitovsky_wasteful_allocation_is_dominated():
    # each agent holds the act the *other* one values: undoing the swap helps both
    econ = economy.EconomySpec(
        (
            economy.Agent(CRRASEU(np.array([0.9, 0.1])), np.full(2, 0.5)),
            economy.Agent(CRRASEU(np.array([0.1, 0.9])), np.full(2, 0.5)),
        ),
        no_aggregate_uncertainty=True,
    )
    W = econ.aggregate[None, :]
    wasteful = economy.Allocation(np.array([[0.1, 0.9], [0.9, 0.1]]))
    assert economy.scitovsky_margins_batch(econ, wasteful, W, 0.05)[0] > economy.MEMBER_TOL
    optimal = economy.Allocation(np.array([[0.9, 0.1], [0.1, 0.9]]))
    assert not economy.scitovsky_margins_batch(econ, optimal, W, 0.0)[0] > economy.MEMBER_TOL


# ---------------------------------------------------------------------------
# CRU
# ---------------------------------------------------------------------------


def test_cru_hand_solved_oracle():
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
            economy.Agent(CRRASEU(np.array([0.5, 0.5])), np.ones(2)),
            economy.Agent(CRRASEU(np.array([0.5, 0.5])), np.ones(2)),
        ),
        no_aggregate_uncertainty=True,
    )
    with pytest.raises(ValueError, match="aggregate endowment"):
        economy.cru(econ, economy.equal_split(econ))


@pytest.mark.parametrize("economy_kind", ["maxmin-agent", "three-agents"])
def test_cru_refuses_economies_without_the_frontier_closed_form(economy_kind):
    cd = CRRASEU(np.array([0.5, 0.5]))
    if economy_kind == "maxmin-agent":
        meu = MaxMinEU(cap_prior_polytope(2, 0, 0.6, "ge")[0])
        agents = (economy.Agent(cd, np.full(2, 0.5)), economy.Agent(meu, np.full(2, 0.5)))
        acts = [[0.8, 0.2], [0.2, 0.8]]
    else:
        agents = tuple(economy.Agent(cd, np.full(2, 1.0 / 3.0)) for _ in range(3))
        acts = [[0.6, 0.1], [0.2, 0.45], [0.2, 0.45]]
    econ = economy.EconomySpec(agents, no_aggregate_uncertainty=True)
    f = economy.Allocation(np.array(acts)).check_feasible(econ)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2-agent common-curvature"):
        economy.cru(econ, f)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# rho
# ---------------------------------------------------------------------------


def _split_economy(n_agents, d):
    agents = tuple(
        economy.Agent(CRRASEU(np.full(d, 1.0 / d)), np.full(d, 1.0 / n_agents))
        for _ in range(n_agents)
    )
    return economy.EconomySpec(agents, no_aggregate_uncertainty=True)


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
    econ = _split_economy(n_agents, d)
    assert economy.rho(econ) == pytest.approx(expected, rel=1e-12)
    assert economy.rho(econ, mode="paper") == pytest.approx(2.0 * math.sqrt(d), rel=1e-12)


def _rho_by_enumeration(d, n_agents):
    """2 max sum_i sqrt(k_i) over the partitions of d into at most n_agents parts."""
    best = 0.0

    def partitions(remaining, parts, prev, acc):
        nonlocal best
        if parts == 1:
            if remaining <= prev:
                best = max(best, acc + math.sqrt(remaining))
            return
        for k in range(min(remaining, prev), -1, -1):
            partitions(remaining - k, parts - 1, k, acc + math.sqrt(k))

    partitions(d, n_agents, d, 0.0)
    return 2.0 * best


def test_rho_closed_form_matches_partition_enumeration():
    for n_agents in (2, 3, 4):
        for d in range(2, 13):
            expected = _rho_by_enumeration(d, n_agents)
            assert economy.rho(_split_economy(n_agents, d)) == pytest.approx(expected, rel=1e-15)


def test_rho_beyond_the_enumeration_range():
    # d = 16 over two agents: the balanced split 8 + 8 gives 2 (2 sqrt 8) = 8 sqrt 2
    econ = _split_economy(2, 16)
    assert economy.rho(econ) == pytest.approx(8.0 * math.sqrt(2.0), rel=1e-15)
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
    (split,) = economy.belief_volume_split(econ, [economy.equal_split(econ)], [0])
    # the caps {mu_0 >= 0.6} and {mu_0 <= 0.2}: mu_0 is Beta(1, d-1) on the simplex
    assert split.vol_J == (1 - 0.6) ** (d - 1)
    assert split.vol_Jc == 1 - (1 - 0.2) ** (d - 1)
    assert split.min_rel_vol == min(split.vol_J, split.vol_Jc) <= 0.5


def test_belief_volume_split_validates_coalition():
    econ = _meu_economy(3)
    f = economy.equal_split(econ)
    for bad in ([], [0, 1], [5]):
        with pytest.raises(ValueError):
            economy.belief_volume_split(econ, [f], bad)


def test_belief_volume_split_singleton_belief_sets_have_no_volume():
    # log-utility belief sets are single priors, of measure zero on the simplex
    econ = experiments.build_economy(experiments.default_config("thm2"), 3)
    f, _ = economy.planner_allocation(econ)
    (split,) = economy.belief_volume_split(econ, [f], [0])
    assert (split.vol_J, split.vol_Jc, split.min_rel_vol) == (0.0, 0.0, 0.0)


def test_belief_volume_split_faces_at_a_trade_have_no_volume():
    # away from the constant act each worst-case face is the cap's level facet
    econ = _meu_economy(4)
    h = np.array([0.1, -0.1 / 3, -0.1 / 3, -0.1 / 3])
    f = economy.Allocation(np.vstack([0.5 - h, 0.5 + h])).check_feasible(econ)
    const = economy.equal_split(econ)
    traded, constant = economy.belief_volume_split(econ, [f, const], [1])
    assert (traded.vol_J, traded.vol_Jc) == (0.0, 0.0)
    assert (constant.vol_J, constant.vol_Jc) == (1 - (1 - 0.2) ** 3, (1 - 0.6) ** 3)
