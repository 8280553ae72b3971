"""Exchange-economy solvers: equilibrium, improvement deciders, CRU, volumes.

The equilibrium and CRU oracles were worked out by hand (market-clearing
algebra, certainty-equivalent matching) before the implementations existed.
"""

import itertools
import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from risklab import economy, experiments, geometry, preferences, sampling
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


def _uniform_pair(d=2):
    mu = np.full(d, 1.0 / d)
    pref = CRRASEU(mu)
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


def _random_crra_economy(rng, d, gamma):
    """Three CRRA agents of curvature gamma with random priors and unequal endowments."""
    return economy.EconomySpec(tuple(
        economy.Agent(CRRASEU(rng.dirichlet(np.ones(d)), gamma), rng.uniform(0.1, 2.0, d))
        for _ in range(3)))


def _power_map_equilibrium(econ):
    """The log-utility price iteration the Negishi solver replaced, run to its fixed point.

    Log demand is x_is = mu_is (p . w_i) / p_s, so clearing prices are the
    positive fixed point of p <- normalized sum_i mu_i (p . w_i) / supply, a
    power iteration on a positive matrix.  It runs a fixed 1000 steps, past
    the 1e-10 excess-demand stop it had, so the comparison measures the
    solutions and not the two stopping rules.
    """
    M = np.array([a.preference.prior for a in econ.agents])
    W = np.array([a.endowment for a in econ.agents])
    supply = econ.aggregate
    p = np.full(econ.dim, 1.0 / econ.dim)
    for _ in range(1000):
        p_next = M.T @ (W @ p) / supply
        p = p_next / p_next.sum()
    return M * (W @ p)[:, None] / p[None, :], p


@pytest.mark.parametrize("d", [2, 8, 64])
def test_negishi_equilibrium_is_the_log_power_map_fixed_point(d):
    rng = np.random.default_rng(d)
    for _ in range(5):
        econ = _random_crra_economy(rng, d, 1.0)
        acts, price = _power_map_equilibrium(econ)
        eq = economy.tatonnement_equilibrium(econ)
        assert np.abs(eq.allocation.acts - acts).max() <= 1e-13
        assert np.abs(eq.price - price).max() <= 1e-13


@pytest.mark.parametrize("gamma", [0.25, 0.5, 2.0, 4.0, 16.0])
def test_negishi_equilibrium_clears_markets_at_any_common_curvature(gamma):
    rng = np.random.default_rng(int(4 * gamma))
    for d in (4, 64, 512):
        econ = _random_crra_economy(rng, d, gamma)
        eq = economy.tatonnement_equilibrium(econ)
        acts, p = eq.allocation.acts, eq.price
        assert np.abs(acts.sum(axis=0) - econ.aggregate).max() <= 1e-10
        budgets = [p @ (fi - a.endowment) for a, fi in zip(econ.agents, acts)]
        assert np.abs(budgets).max() <= 1e-10
        # each agent's act is its demand at p: marginal utilities proportional to p
        for a, fi in zip(econ.agents, acts):
            ratio = a.preference.gradient(fi) / p
            assert np.allclose(ratio, ratio[0], rtol=1e-8)


def _budget_bound(econ, eq):
    """The Negishi stop's bound on the budget gaps: 64 (d + 4) u max_i (|w_i|.p + |g_i|.p)."""
    W = np.array([a.endowment for a in econ.agents])
    scale = (np.abs(W) + np.abs(eq.allocation.acts)) @ eq.price
    return 64 * (econ.dim + 4) * 2.0**-53 * scale.max()


def _budget_gaps(econ, eq):
    p = eq.price
    return np.array([abs(p @ a.endowment - p @ fi)
                     for a, fi in zip(econ.agents, eq.allocation.acts)])


@pytest.mark.parametrize("d", [1000, 1500, 2500, 3000, 4000, 8000])
def test_default_thm1_economy_reaches_equilibrium_at_large_d(d):
    # an absolute 1e-14 stop left the budget gaps stalled above it at these d
    econ = experiments.build_economy(experiments.default_config("thm1"), d)
    eq = economy.tatonnement_equilibrium(econ)
    bound = _budget_bound(econ, eq)
    assert eq.residual <= bound
    assert _budget_gaps(econ, eq).max() <= bound


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 512),
       gamma=st.sampled_from([0.5, 1.0, 2.0]))
def test_negishi_equilibrium_returns_only_within_its_rounding_bound(seed, d, gamma):
    econ = _random_crra_economy(np.random.default_rng(seed), d, gamma)
    try:
        eq = economy.tatonnement_equilibrium(econ)
    except geometry.ConvergenceError:
        return
    bound = _budget_bound(econ, eq)
    assert eq.residual <= bound
    assert _budget_gaps(econ, eq).max() <= bound


def test_negishi_stop_holds_at_a_skewed_two_state_economy():
    # a near-degenerate prior at gamma = 4: the gaps stall a few times above
    # d u of the budgets, inside the bound
    econ = economy.EconomySpec((
        economy.Agent(CRRASEU(np.array([0.85, 0.15]), 4.0), np.array([1.25, 1.60])),
        economy.Agent(CRRASEU(np.array([4e-6, 1 - 4e-6]), 4.0), np.array([1.39, 0.03]))))
    eq = economy.tatonnement_equilibrium(econ)
    assert eq.residual <= _budget_bound(econ, eq)


# (seed, alpha, gamma, d, agents): the 51 of 576 skewed-prior economies (seeds
# 0-3, alpha in {0.1, 0.2, 1}, gamma in {0.5, 2, 4, 16}, d in {2, 8, 32, 512},
# 2, 3 or 5 agents) whose Negishi weights did not converge in 1000 steps at
# a fixed exponent gamma
_CYCLING_NEGISHI_ECONOMIES = [
    (0, 0.1, 4.0, 2, 5), (0, 0.1, 4.0, 8, 2), (0, 0.1, 4.0, 8, 3), (0, 0.1, 4.0, 8, 5),
    (0, 0.1, 4.0, 32, 2), (0, 0.1, 4.0, 512, 2), (0, 0.1, 16.0, 2, 5), (0, 0.1, 16.0, 8, 2),
    (0, 0.1, 16.0, 8, 5), (0, 0.1, 16.0, 32, 3), (0, 0.1, 16.0, 512, 3),
    (0, 0.1, 16.0, 512, 5), (0, 0.2, 2.0, 8, 2), (0, 0.2, 4.0, 2, 2), (1, 0.1, 2.0, 2, 2),
    (1, 0.1, 2.0, 32, 2), (1, 0.1, 4.0, 2, 3), (1, 0.1, 4.0, 8, 5), (1, 0.1, 16.0, 2, 5),
    (1, 0.1, 16.0, 32, 2), (1, 0.1, 16.0, 32, 5), (1, 0.1, 16.0, 512, 5), (1, 0.2, 4.0, 2, 5),
    (2, 0.1, 2.0, 32, 3), (2, 0.1, 4.0, 2, 3), (2, 0.1, 4.0, 8, 2), (2, 0.1, 4.0, 8, 3),
    (2, 0.1, 4.0, 8, 5), (2, 0.1, 4.0, 32, 2), (2, 0.1, 4.0, 32, 5), (2, 0.1, 4.0, 512, 3),
    (2, 0.1, 16.0, 8, 2), (2, 0.1, 16.0, 32, 5), (2, 0.2, 4.0, 2, 5), (3, 0.1, 2.0, 2, 3),
    (3, 0.1, 2.0, 8, 5), (3, 0.1, 4.0, 2, 3), (3, 0.1, 4.0, 2, 5), (3, 0.1, 4.0, 8, 2),
    (3, 0.1, 4.0, 8, 5), (3, 0.1, 4.0, 32, 3), (3, 0.1, 4.0, 32, 5), (3, 0.1, 16.0, 2, 5),
    (3, 0.1, 16.0, 32, 5), (3, 0.1, 16.0, 512, 5), (3, 0.2, 2.0, 8, 3), (3, 0.2, 4.0, 2, 3),
    (3, 0.2, 4.0, 8, 5), (3, 0.2, 16.0, 8, 3), (3, 0.2, 16.0, 512, 2), (3, 0.2, 16.0, 512, 3),
]


def _skewed_crra_economy(seed, alpha, gamma, d, n):
    """n CRRA agents with Dirichlet(alpha) priors clipped at 1e-12 and U(0, 2) endowments."""
    rng = np.random.default_rng([seed, int(10 * alpha), int(2 * gamma), d, n])
    agents = []
    for _ in range(n):
        mu = np.clip(rng.dirichlet(np.full(d, alpha)), 1e-12, None)
        agents.append(economy.Agent(CRRASEU(mu / mu.sum(), gamma), rng.uniform(0.0, 2.0, d)))
    return economy.EconomySpec(tuple(agents))


def test_negishi_weights_converge_for_skewed_priors_at_high_curvature():
    # the update's exponent halves whenever the largest budget gap does not fall
    for case in _CYCLING_NEGISHI_ECONOMIES:
        econ = _skewed_crra_economy(*case)
        eq = economy.tatonnement_equilibrium(econ)
        bound = _budget_bound(econ, eq)
        assert eq.residual <= bound and _budget_gaps(econ, eq).max() <= bound, case


def test_equilibrium_refuses_mixed_curvatures():
    mu, w = np.array([0.6, 0.4]), np.ones(2)
    econ = economy.EconomySpec(
        (economy.Agent(CRRASEU(mu, 1.0), w), economy.Agent(CRRASEU(mu, 2.0), w)))
    with pytest.raises(ValueError, match="common-curvature"):
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


def test_planner_price_survives_an_underflowing_share():
    # at gamma = 1/4 shares go as (lam_i mu_is)^4: agent 0's prior of 1e-90 on
    # state 1 underflows its share there to 0, where its FOC value is 0 * inf
    econ = economy.EconomySpec(
        (economy.Agent(CRRASEU(np.array([1.0, 1e-90]), 0.25), np.full(2, 0.5)),
         economy.Agent(CRRASEU(np.array([0.5, 0.5]), 0.25), np.full(2, 0.5))),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f, price = economy.planner_allocation(econ)
        eq = economy.tatonnement_equilibrium(econ)
    assert f.acts[0, 1] == 0.0 and eq.allocation.acts[0, 1] == 0.0
    for p in (price, eq.price):
        assert np.all(np.isfinite(p)) and np.all(p > 0)


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
    """The decider in one pass: every agent's utility on every row, all rows at once."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    out = np.zeros(len(Z), dtype=bool)
    for i, agent in enumerate(econ.agents):
        fi = f.acts[i]
        base = agent.preference.utility(fi)
        cand = preferences.utility_extended(agent.preference, (1.0 - eps) * (fi + Z))
        out |= cand > base + preferences.TOL_STRICT
    return out


_AGENT_KINDS = ["crra", "maxmin-linear", "maxmin-log"]


def _draw_agent(draw, rng, d, kind):
    """An agent of the given kind with a random prior, and a random act for it."""
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
    return economy.Agent(pref, np.ones(d)), act


def _onto_boundary(z, s, act, eps):
    """The draws z moved along s onto the half-space boundary (1-eps) s.z = eps s.f_i."""
    return z + ((eps * (s @ act) - (1.0 - eps) * (z @ s)) / ((1.0 - eps) * (s @ s)))[:, None] * s


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
    kinds = [draw(st.sampled_from(_AGENT_KINDS)) for _ in range(draw(st.integers(2, 3)))]
    agents, acts = zip(*(_draw_agent(draw, rng, d, kind) for kind in kinds))
    econ = economy.EconomySpec(agents)
    law = sampling.PerturbationLaw("uniform-ball", d, draw(st.floats(0.1, 4.0)))
    Z = [law.sample(200, rng.integers(2**32))]
    for agent, act in zip(econ.agents, acts):
        s = preferences.supergradient(agent.preference, act)
        if s is None:
            continue
        z = _onto_boundary(law.sample(30, rng.integers(2**32)), s, act, eps)
        unit = s / np.linalg.norm(s)
        Z += [z, z + 1e-12 * unit, z - 1e-12 * unit]
    return econ, economy.Allocation(np.array(acts)), eps, np.vstack(Z)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_improvement_cases())
def test_improvement_event_matches_the_oracle(case):
    econ, f, eps, Z = case
    flags = economy.individual_improvement_event(econ, f, Z, eps)
    assert np.array_equal(flags, _oracle_improvement_event(econ, f, Z, eps))


def _improvement_event_reference(econ, f, Z, eps):
    """The decider written with fresh arrays: each agent's
    utility_extended(pref, (1 - eps)(f_i + z)) > U(f_i) + TOL_STRICT, on the
    decider's chunks and on the rows no earlier agent flagged, so that every
    BLAS product has the decider's operands."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    agents = [(a.preference, fi, a.preference.utility(fi) + preferences.TOL_STRICT)
              for a, fi in zip(econ.agents, f.acts)]
    out = np.zeros(len(Z), dtype=bool)
    step = max(1, economy._IMPROVEMENT_CHUNK_VALUES // Z.shape[1])
    for lo in range(0, len(Z), step):
        chunk, hit = Z[lo : lo + step], out[lo : lo + step]
        todo = np.arange(len(chunk))
        for pref, fi, level in agents:
            acts = chunk if len(todo) == len(chunk) else chunk[todo]
            flag = preferences.utility_extended(pref, (1.0 - eps) * (fi + acts)) > level
            hit[todo[flag]] = True
            todo = todo[~flag]
            if not len(todo):
                break
    return out


@st.composite
def _in_place_improvement_cases(draw):
    """CRRA agents at gamma 0, 1/2, 1 and 4 and max-min agents; rows that
    leave the domain, NaN rows, and chunks of a few rows."""
    d = draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    agents, acts = [], []
    for kind in draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 4.0, "linear", "log"]),
                              min_size=2, max_size=3)):
        if isinstance(kind, str):
            v = rng.uniform(0.0, 1.0, (draw(st.integers(1, 4)), d))
            pref = MaxMinEU(v / v.sum(axis=1, keepdims=True), kind)
        else:
            mu = rng.uniform(0.01, 1.0, d)
            pref = CRRASEU(mu / mu.sum(), kind)
        agents.append(economy.Agent(pref, np.ones(d)))
        acts.append(rng.uniform(0.05, 3.0, d))
    n = draw(st.integers(1, 300))
    Z = rng.standard_normal((n, d)) * np.exp(rng.uniform(-4.0, 1.5, n))[:, None]
    nan_rows = rng.choice(n, size=draw(st.integers(0, min(n, 5))), replace=False)
    Z[nan_rows, rng.integers(0, d, len(nan_rows))] = np.nan
    eps = draw(st.floats(0.0, 0.5, exclude_max=True))
    chunk = draw(st.sampled_from([d, 16, 64, 1 << 16]))
    return economy.EconomySpec(tuple(agents)), economy.Allocation(np.array(acts)), eps, Z, chunk


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_in_place_improvement_cases())
def test_in_place_improvement_event_matches_the_fresh_array_reference(case):
    econ, f, eps, Z, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(economy, "_IMPROVEMENT_CHUNK_VALUES", chunk)
        flags = economy.individual_improvement_event(econ, f, Z, eps)
        assert np.array_equal(flags, _improvement_event_reference(econ, f, Z, eps))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_improvement_cases())
def test_projected_screen_drops_no_oracle_hit(case):
    # the screen in Q coordinates, with the rows' largest length as the radius,
    # including the rows within 1e-12 of each agent's half-space boundary
    econ, f, eps, Z = case
    Q, keep = economy.improvement_screen(econ, f, eps, float(np.linalg.norm(Z, axis=1).max()))
    assert Q.shape[0] == econ.dim and np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-13)
    kept = keep(Z @ Q)
    assert not np.any(_oracle_improvement_event(econ, f, Z[~kept], eps))


def _thm1_maxmin_economy(d):
    """The pinned thm1 max-min economy (a linear and a log agent, non-parallel supergradients)
    at an alternating literal allocation in d states."""
    acts = "|".join(",".join([a, b] * (d // 2)) for a, b in (("1.2", "0.8"), ("0.8", "1.2")))
    cfg = experiments.parse_config_text(
        "experiment = thm1\nseed = 1\ntrials = 200\n"
        f"dims = {d}\nallocation = literal:{acts}\n"
        "agent.preference = maxmin\nagent.prior = cap:ge:0:0.4\nagent.bernoulli = linear\n"
        "agent.preference = maxmin\nagent.prior = cap:le:0:0.6\nagent.bernoulli = log\n")
    econ = experiments.build_economy(cfg, d)
    return econ, experiments.resolve_allocation(cfg, econ), 0.1


def _thm1_default_economy(d):
    cfg = experiments.default_config("thm1")
    econ = experiments.build_economy(cfg, d)
    return econ, experiments.resolve_allocation(cfg, econ), cfg.eps[0]


@pytest.mark.parametrize("build,d", [(_thm1_default_economy, 2), (_thm1_default_economy, 8),
                                     (_thm1_default_economy, 32),
                                     (_thm1_maxmin_economy, 2), (_thm1_maxmin_economy, 32)])
def test_projected_screen_on_fully_completed_blocks(build, d):
    # complete every row of a projected block, then screen its coordinates:
    # a dropped row is never a full-row improvement, and the kept rows are
    # flagged as the decider flags them among all the block's rows
    econ, f, eps = build(d)
    law = sampling.PerturbationLaw("uniform-ball", d, 1.0)
    Q, keep = economy.improvement_screen(econ, f, eps, law.radius)
    assert Q.shape == (d, min(d, econ.n_agents))
    Y, Z = law.sample_projected_coordinates(0, 20_000, SEED, Q,
                                            lambda Y: np.ones(len(Y), bool))
    kept = keep(Y)
    flags = economy.individual_improvement_event(econ, f, Z, eps)
    assert 0 < kept.sum() < len(Y) and flags.any()
    assert not np.any(_oracle_improvement_event(econ, f, Z[~kept], eps))
    assert np.array_equal(economy.individual_improvement_event(econ, f, Z[kept], eps),
                          flags[kept])


def test_projected_screen_keeps_every_row_without_a_finite_supergradient():
    # a zero payoff under 0 < gamma < 1 has no finite supergradient
    d = 4
    prefs = [CRRASEU(np.full(d, 0.25), 0.5), CRRASEU(np.full(d, 0.25), 2.0)]
    econ = economy.EconomySpec(tuple(economy.Agent(p, np.ones(d)) for p in prefs))
    f = economy.Allocation(np.array([[0.0, 1.0, 1.0, 1.0], [2.0, 1.0, 1.0, 1.0]]))
    Q, keep = economy.improvement_screen(econ, f, 0.1, 1.0)
    assert Q.shape == (d, 1)
    Y = np.random.default_rng(0).uniform(-1, 1, (50, 1))
    assert keep(Y).all()


def test_only_the_screen_takes_supergradients(monkeypatch):
    # thm1 takes each agent's supergradient once per cell, in improvement_screen,
    # however many blocks the cell draws; the decider takes none
    supergradient, calls = preferences.supergradient, []

    def counted(pref, f):
        calls.append(pref)
        return supergradient(pref, f)

    monkeypatch.setattr(preferences, "supergradient", counted)
    cfg = replace(experiments.default_config("thm1"), trials=2 * sampling.BLOCK_DRAWS + 100,
                  dims=(2, 32), threads=1)
    rows = experiments.run_experiment(cfg).rows
    assert [r["error"] for r in rows] == [None, None] and all(r["hits"] for r in rows)
    assert len(calls) == experiments.build_economy(cfg, 2).n_agents * len(cfg.dims)

    def refused(pref, f):
        raise AssertionError("the decider takes no supergradient")

    monkeypatch.setattr(preferences, "supergradient", refused)
    for econ, f, eps in (_thm1_default_economy(32), _thm1_maxmin_economy(32)):
        Z = sampling.PerturbationLaw("uniform-ball", 32, 1.0).sample(4_000, SEED)
        flags = economy.individual_improvement_event(econ, f, Z, eps)
        assert flags.any()
        assert np.array_equal(flags, _oracle_improvement_event(econ, f, Z, eps))


@pytest.mark.parametrize("d", [4, 32])
def test_oracle_hits_lie_in_the_agents_supporting_half_space(d):
    cfg = experiments.default_config("thm1")
    econ = experiments.build_economy(cfg, d)
    f = experiments.resolve_allocation(cfg, econ)
    eps = cfg.eps[0]
    Z = sampling.PerturbationLaw("uniform-ball", d, cfg.radius).sample(20_000, SEED)
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


def _bisect(below, lo, hi, steps=36):
    """Where ``below`` turns False in each [lo, hi], for a ``below`` that holds on a
    (possibly empty) left part of the interval and fails on the rest."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        left = below(mid)
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return 0.5 * (lo + hi)


def _disk_improvement_probability(econ, f, eps, n_angles=1 << 15):
    """P(some agent eps-improves) for z uniform on the unit disk, with no sampling.

    Along the ray t u(theta), agent i's margin U_i((1 - eps)(f_i + t u)) - U_i(f_i)
    - TOL_STRICT is concave in t and -inf off the domain, so its positive part on
    [0, 1] is one interval [a, b]: the peak is where the slope changes sign, and
    each end is where the margin does.  The radius CDF is F_R(t) = t^2, so a ray
    contributes the F_R-measure of the union of the agents' intervals (by
    inclusion-exclusion), and p is its mean over midpoint angles.  The agents are
    Cobb-Douglas, U_i(x) = mu_i . log x.
    """
    theta = (np.arange(n_angles) + 0.5) * (2.0 * np.pi / n_angles)
    prefs = [a.preference for a in econ.agents]
    assert econ.dim == 2 and all(isinstance(p, CRRASEU) and p.gamma == 1 for p in prefs)
    # one (agent, angle) array per state s: mu_is, f_is and the ray's u_s
    states = list(zip(np.array([p.prior for p in prefs]).T[:, :, None], f.acts.T[:, :, None],
                      (np.cos(theta), np.sin(theta))))
    level = sum(m * np.log(x) for m, x, _ in states) + preferences.TOL_STRICT

    def margin(t):  # bisection takes only points strictly inside [0, top)
        return sum(m * np.log((1.0 - eps) * (x + t * c)) for m, x, c in states) - level

    def rising(t):
        return sum(m * c / (x + t * c) for m, x, c in states) > 0

    # where the ray leaves the domain, or the disk
    top = np.min([np.where(c < 0, -x / c, 1.0) for _, x, c in states], axis=0).clip(max=1.0)
    zero = np.zeros_like(top)
    peak = _bisect(rising, zero, top)
    a = _bisect(lambda t: margin(t) <= 0, zero, peak)
    b = np.where(margin(peak) > 0, _bisect(lambda t: margin(t) > 0, peak, top), a)
    p = np.zeros(n_angles)
    for k in range(1, len(prefs) + 1):
        for group in map(list, itertools.combinations(range(len(prefs)), k)):
            lo, hi = a[group].max(axis=0), b[group].min(axis=0)
            p += (-1) ** (k + 1) * np.maximum(hi * hi - lo * lo, 0.0)
    return float(p.mean())


def test_thm1_d2_row_matches_the_exact_disk_probability():
    econ, f, eps = _thm1_default_economy(2)
    p = _disk_improvement_probability(econ, f, eps)
    assert p == pytest.approx(0.3971255, abs=1e-6)
    # cell 0 of a one-d sweep draws the default sweep's d = 2 stream
    (row,) = experiments.run_thm1(replace(experiments.default_config("thm1"), dims=(2,)))[0]
    assert row["error"] is None
    assert abs(row["p_hat"] - p) <= 4.0 * math.sqrt(p * (1.0 - p) / row["n"])


@pytest.mark.parametrize("d", [8, 512, 4000])
def test_improvement_flips_at_the_closed_form_threshold_along_state_zero(d):
    # with z = h e_0 every rest state keeps its payoff, so agent i improves
    # exactly when mu_i0 log(1 + h / f_i0) + log(1 - eps) > TOL_STRICT
    econ, f, eps = _thm1_default_economy(d)
    h = min(fi[0] * math.expm1((preferences.TOL_STRICT - math.log1p(-eps))
                               / a.preference.prior[0])
            for a, fi in zip(econ.agents, f.acts))
    assert h == pytest.approx(0.1315006070, abs=1e-9)
    Z = np.outer([h * (1.0 - 1e-9), h * (1.0 + 1e-9)], np.eye(d)[0])
    assert economy.individual_improvement_event(econ, f, Z, eps).tolist() == [False, True]


def test_scitovsky_exact_matches_grid_on_random_draws():
    econ = economy.EconomySpec(
        (
            economy.Agent(CRRASEU(np.array([0.7, 0.3])), np.full(2, 0.5)),
            economy.Agent(CRRASEU(np.array([0.5, 0.5])), np.full(2, 0.5)),
        ),
        no_aggregate_uncertainty=True,
    )
    f, _ = economy.planner_allocation(econ)
    Z = sampling.PerturbationLaw("uniform-ball", 2, 1.0).sample(60, SEED)
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


def _reference_frontier_cases(gamma, d):
    """A two-agent economy of curvature gamma in d states, and aggregates to decide.

    400 ball draws around 1 and extreme rows: log margins reach an edge of
    the planner weights only along the prior tilt, CRRA ones where utilities
    vanish (tiny aggregates for gamma < 1, huge for gamma > 1); zero and
    negative entries too.
    """
    gen = np.random.default_rng(d)
    mu1, mu2 = gen.dirichlet(np.full(d, 0.5)), gen.dirichlet(np.full(d, 0.5))
    econ = economy.EconomySpec(
        (economy.Agent(CRRASEU(mu1, gamma), np.full(d, 0.5)),
         economy.Agent(CRRASEU(mu2, gamma), np.full(d, 0.5))),
        no_aggregate_uncertainty=True,
    )
    ones = np.ones(d)
    tilt = (mu1 - mu2) / np.abs(mu1 - mu2).max()
    extremes = [np.exp(k * tilt) for k in (-600, -300, -100, 100, 300, 600)]
    extremes += [1e-30 * ones, 1e30 * ones, np.zeros(d), np.where(np.arange(d) == 0, 0.0, 1.0)]
    extremes += [np.where(np.arange(d) == d - 1, -0.1, 1.0), -ones]
    Z = sampling.PerturbationLaw("uniform-ball", d, 0.8).sample(400, SEED)
    return econ, np.vstack([ones + Z, *extremes])


@pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5])
@pytest.mark.parametrize("d", [2, 8, 32])
def test_scitovsky_newton_matches_reference_bisection(gamma, d):
    econ, W = _reference_frontier_cases(gamma, d)
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
    # rows whose margins do not cross inside the weight bracket are bisected
    # to its edges: both edges must be exercised
    low_seen, high_seen = np.any(edges, axis=0)
    assert low_seen and high_seen


@pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5])
def test_rows_that_do_not_cross_stop_at_the_edge(gamma, monkeypatch):
    # a row whose margins do not cross inside the weight bracket is evaluated
    # at the edge its Newton step heads for, and stops there, rather than
    # being bisected to it (47 evaluations)
    econ, W = _reference_frontier_cases(gamma, 8)
    evaluations, evaluate = [], economy._margins_on_frontier

    def counted(*args):
        evaluations.append(1)
        return evaluate(*args)

    monkeypatch.setattr(economy, "_margins_on_frontier", counted)
    edge_rows = 0
    for weights in ((0.8, 0.2), (0.2, 0.8)):
        f, _ = economy.planner_allocation(econ, np.array(weights))
        for eps in (0.0, 0.2):
            frontier = economy._frontier(econ, f, eps)
            _, low, high = _bisection_margins(econ, f, W, eps)
            for k in np.flatnonzero(low | high):
                sums = economy._class_sums(frontier, W[k:k + 1])
                evaluations.clear()
                economy._max_min_margins(frontier, sums, math.inf)
                assert len(evaluations) <= 3, (weights, eps, k, len(evaluations))
            edge_rows += np.count_nonzero(low | high)
    assert edge_rows > 0


@pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5])
@pytest.mark.parametrize("d", [2, 8, 32])
def test_converged_newton_steps_stop_at_the_bracket_end(gamma, d, monkeypatch):
    # a converged step that rounds onto the bracket end it just set stops
    # there, rather than being sent to the midpoint and bisected back (up to
    # 53 evaluations), and a step larger than half the previous one is
    # bisected, rather than zigzagging inside a bracket that barely shrinks
    # (18 evaluations at gamma = 0.5, d = 8, eps = 0.05); each loop pass
    # evaluates every live row once, so the passes of one call on the ball
    # rows are the most any of them takes
    econ, W = _reference_frontier_cases(gamma, d)
    passes, evaluate = [], economy._margins_on_frontier

    def counted(*args):
        passes.append(1)
        return evaluate(*args)

    monkeypatch.setattr(economy, "_margins_on_frontier", counted)
    for weights in ((0.8, 0.2), (0.2, 0.8)):
        f, _ = economy.planner_allocation(econ, np.array(weights))
        for eps in (0.0, 0.05, 0.2):
            frontier = economy._frontier(econ, f, eps)
            sums = economy._class_sums(frontier, W[:400])
            passes.clear()
            economy._max_min_margins(frontier, sums, math.inf)
            assert len(passes) <= 14, (weights, eps, len(passes))


@pytest.mark.parametrize("gamma", [1.0, 2.0, 0.5])
@pytest.mark.parametrize("d", [2, 8, 32])
def test_scitovsky_members_match_the_exact_margin_classes(gamma, d):
    econ, W = _reference_frontier_cases(gamma, d)
    allocations = [economy.planner_allocation(econ, np.array(weights))[0]
                   for weights in ((0.8, 0.2), (0.2, 0.8))]
    # agent 1 holds nothing in state 0: under gamma >= 1 its base utility is
    # -inf, and a row with a zero entry has a nan margin at every weight
    hold = np.where(np.arange(d) == 0, 0.0, 0.5)
    allocations.append(economy.Allocation(np.array([hold, 1.0 - hold])))
    for f in allocations:
        for eps in (0.0, 0.05, 0.2):
            exact = economy.scitovsky_margins_batch(econ, f, W, eps)
            member, indeterminate = economy.scitovsky_members(econ, f, W, eps)
            assert np.array_equal(member, exact > economy.MEMBER_TOL)
            assert np.array_equal(indeterminate, np.abs(exact) <= economy.MEMBER_TOL)


def _common_curvature_pair(rng, d, gamma):
    """Two CRRA agents of curvature gamma with random priors, endowments 1/2 each."""
    priors = rng.dirichlet(np.full(d, 0.5), size=2) + 1e-9
    return economy.EconomySpec(
        tuple(economy.Agent(CRRASEU(mu / mu.sum(), gamma), np.full(d, 0.5)) for mu in priors),
        no_aggregate_uncertainty=True,
    )


def _along_the_cap_boundary(rng, u, w, eps, n, size):
    """n draws eps/(1-eps) w + v with v orthogonal to u and |v| up to ``size``.

    eps/(1-eps) w is where the cap's boundary (1-eps) u.z = eps u.w touches
    the contour set (the base allocation scaled by 1/(1-eps)), so the max-min
    margins there are within about |v|^2 of 0.
    """
    v = rng.standard_normal((n, len(w)))
    v -= (v @ u)[:, None] * u
    v *= (size * rng.uniform(0.0, 1.0, n) / np.linalg.norm(v, axis=1))[:, None]
    return eps / (1.0 - eps) * w + v


@st.composite
def _contour_cases(draw):
    """A two-agent common-curvature economy at a planner allocation, eps, and draws.

    The draws are one plain ``sample_block`` of either law, and 60 rows near
    where the cap's boundary touches the contour set, on the boundary and
    1e-12 to either side of it: the rows :func:`contour_screen` comes closest
    to dropping, many of them indeterminate.
    """
    d = draw(st.integers(2, 32))
    gamma = draw(st.sampled_from([0.5, 1.0, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    econ = _common_curvature_pair(rng, d, gamma)
    f, _ = economy.planner_allocation(econ, rng.uniform(0.05, 1.0, 2))
    eps = draw(st.floats(0.0, 0.3))
    law = sampling.PerturbationLaw(draw(st.sampled_from(["uniform-ball", "restricted-gaussian"])),
                                   d, draw(st.floats(0.1, 1.2)))
    Z = law.sample_block(draw(st.integers(0, 7)), 2_000, rng.integers(2**32))
    s = preferences.supergradient(econ.agents[0].preference, f.acts[0])
    u = s / np.linalg.norm(s)
    edge = _along_the_cap_boundary(rng, u, econ.aggregate, eps, 20, draw(st.floats(1e-7, 1e-3)))
    return econ, f, eps, np.vstack([Z, edge, edge + 1e-12 * u, edge - 1e-12 * u])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_contour_cases())
def test_contour_screen_drops_no_member_or_indeterminate_row(case):
    # the screen with the rows' largest length as the radius
    econ, f, eps, Z = case
    Q, keep = economy.contour_screen(econ, f, eps, float(np.linalg.norm(Z, axis=1).max()))
    assert Q.shape == (econ.dim, 1) and abs(np.linalg.norm(Q) - 1.0) < 1e-15
    kept = keep(Z @ Q)
    assert not kept.all()
    member, indeterminate = economy.scitovsky_members(econ, f, econ.aggregate + Z[~kept], eps)
    assert not np.any(member | indeterminate)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("d", [2, 8, 32])
@pytest.mark.parametrize("eps", [0.05, 0.2])
def test_contour_screen_keeps_members_just_inside_the_cap(gamma, d, eps):
    # rows near where the cap's boundary touches the contour set, pushed along
    # u until their max-min margin is 2 MEMBER_TOL: members whose coordinate
    # clears the cap's boundary by about 1e-5 or less, so a level raised by a
    # relative 1e-3 would drop them
    rng = np.random.default_rng(SEED + d)
    econ = _common_curvature_pair(rng, d, gamma)
    f, _ = economy.planner_allocation(econ, rng.uniform(0.05, 1.0, 2))
    w, tol = econ.aggregate, economy.MEMBER_TOL
    Q, keep = economy.contour_screen(econ, f, eps, 1.0)
    u = Q[:, 0]
    edge = _along_the_cap_boundary(rng, u, w, eps, 200, 1e-3)
    # bisection on the push t along u: the margin rises with t
    lo, hi = np.zeros(len(edge)), np.full(len(edge), 1e-3)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        above = economy.scitovsky_margins_batch(econ, f, w + edge + mid[:, None] * u, eps) > 2 * tol
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    Z = edge + hi[:, None] * u
    margins = economy.scitovsky_margins_batch(econ, f, w + Z, eps)
    assert np.all(np.abs(margins - 2 * tol) < 0.5 * tol)
    assert np.all(economy.scitovsky_members(econ, f, w + Z, eps)[0])
    Y = Z @ Q
    assert np.all(keep(Y))
    assert np.all((1.0 - eps) * Y[:, 0] - eps * (u @ w) < 1e-5)


def test_contour_screen_keeps_every_row_off_the_pareto_set():
    # cru's literal allocation has non-parallel supergradients; an agent that
    # holds nothing in a state under log utility has none
    econ = _uniform_pair()
    Y = np.random.default_rng(0).uniform(-1, 1, (50, 1))
    for acts in ([[0.8, 0.2], [0.2, 0.8]], [[0.0, 0.5], [1.0, 0.5]]):
        Q, keep = economy.contour_screen(econ, economy.Allocation(np.array(acts)), 0.1, 1.0)
        assert Q.shape == (2, 0)
        assert keep(Y[:, :0]).all()
    Q, keep = economy.contour_screen(econ, economy.equal_split(econ), 0.1, 1.0)
    assert np.allclose(Q[:, 0], np.full(2, 0.5**0.5)) and not keep(Y).all()


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
# row chunks
# ---------------------------------------------------------------------------


# batch sizes around a decider's chunk of k rows, as (multiple of k, rows added):
# 1, k - 1, k, k + 1 and 3 k + 7
_BATCH_SIZES = pytest.mark.parametrize(
    "size", [(0, 1), (1, -1), (1, 0), (1, 1), (3, 7)], ids=["1", "k-1", "k", "k+1", "3k+7"])


def _batch_rows(size, chunk_values, d):
    times, extra = size
    return times * max(1, chunk_values // d) + extra


def _by_slices(decide, X, cuts):
    """decide run on the slices of X's rows between the cut points, concatenated."""
    edges = [0, *sorted(cuts), len(X)]
    return np.concatenate([decide(X[lo:hi]) for lo, hi in zip(edges, edges[1:])])


@st.composite
def _chunked_improvement_cases(draw, size):
    """A linear max-min agent and one or two others, and a batch of the given size.

    The max-min agent's domain is all of R^d, so its utility reads rows of
    any sign; the rows' lengths vary over two orders of magnitude.  Up to 30
    rows per agent with a supergradient are moved onto its half-space
    boundary, and 1e-12 to either side of it: the rows :func:`improvement_screen`
    comes closest to dropping.
    """
    d = draw(st.integers(2, 64))
    n = _batch_rows(size, economy._IMPROVEMENT_CHUNK_VALUES, d)
    eps = draw(st.floats(0.0, 0.5, exclude_max=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["maxmin-linear"] + [draw(st.sampled_from(_AGENT_KINDS))
                                 for _ in range(draw(st.integers(1, 2)))]
    agents, acts = zip(*(_draw_agent(draw, rng, d, kind) for kind in kinds))
    Z = sampling.PerturbationLaw("uniform-ball", d, 1.0).sample(n, rng.integers(2**32))
    Z *= np.exp(rng.uniform(-3.0, 1.5, n))[:, None]
    for agent, act in zip(agents, acts):
        s = preferences.supergradient(agent.preference, act)
        if s is None:
            continue
        rows = rng.choice(n, size=min(n, 30), replace=False)
        offset = rng.choice([-1e-12, 0.0, 1e-12], size=len(rows))[:, None]
        Z[rows] = _onto_boundary(Z[rows], s, act, eps) + offset * s / np.linalg.norm(s)
    cuts = draw(st.lists(st.integers(0, n), max_size=4))
    return economy.EconomySpec(agents), economy.Allocation(np.array(acts)), eps, Z, cuts


@_BATCH_SIZES
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_improvement_flags_do_not_depend_on_the_chunks(size, data):
    econ, f, eps, Z, cuts = data.draw(_chunked_improvement_cases(size))
    flags = economy.individual_improvement_event(econ, f, Z, eps)
    sliced = _by_slices(lambda X: economy.individual_improvement_event(econ, f, X, eps), Z, cuts)
    assert np.array_equal(flags, sliced)
    assert np.array_equal(flags, _oracle_improvement_event(econ, f, Z, eps))


def _grouped_pair(rng, d, k, gamma):
    """Two CRRA agents of curvature gamma whose priors are constant on the same k classes of states.

    A class's states share both priors' values, so they share a prior
    log-ratio and the frontier has at most k classes (k = d: generic priors).
    """
    classes = rng.permutation(np.arange(d) % k)
    values = rng.dirichlet(np.full(k, 0.5), size=2) + 1e-9
    priors = [v[classes] / v[classes].sum() for v in values]
    return economy.EconomySpec(
        tuple(economy.Agent(CRRASEU(mu, gamma), np.full(d, 0.5)) for mu in priors),
        no_aggregate_uncertainty=True,
    )


@st.composite
def _chunked_frontier_cases(draw, size, gamma=None):
    """A two-agent economy of curvature gamma (drawn if None), an allocation, eps, and aggregates around 1.

    The frontier has K classes, from d/8 to d, and the batch has the given
    size in the solver's chunks of rows (each holding at most
    _FRONTIER_CHUNK_VALUES class sums); a radius above 1 gives some rows a
    negative entry, which have no nonnegative split.
    """
    d = draw(st.integers(2, 512))
    k = draw(st.integers(max(1, d // 8), d))
    if gamma is None:
        gamma = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    econ = _grouped_pair(rng, d, k, gamma)
    f, _ = economy.planner_allocation(econ, rng.uniform(0.05, 1.0, 2))
    eps = draw(st.floats(0.0, 0.3))
    n = _batch_rows(size, economy._FRONTIER_CHUNK_VALUES, len(economy._frontier(econ, f, eps).c))
    law = sampling.PerturbationLaw("uniform-ball", d, draw(st.floats(0.1, 1.2)))
    W = 1.0 + law.sample(n, rng.integers(2**32))
    cuts = draw(st.lists(st.integers(0, n), max_size=4))
    return econ, f, eps, W, cuts


@_BATCH_SIZES
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_frontier_margins_do_not_depend_on_the_chunks(size, data):
    # every sum runs along a row, so a row's margin and flags are the same
    # bits alone, in the block, in slices of it and in a shuffled block,
    # under log curvature and under power curvature either side of it
    for gamma in (0.5, 1.0, 2.0, 4.0):
        econ, f, eps, W, cuts = data.draw(_chunked_frontier_cases(size, gamma))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shuffled = rng.permutation(len(W))
        alone = rng.choice(len(W), size=min(len(W), 24), replace=False)

        def margins(X):
            return economy.scitovsky_margins_batch(econ, f, X, eps)

        def flags(X):
            return np.column_stack(economy.scitovsky_members(econ, f, X, eps))

        for decide in (margins, flags):
            whole = decide(W)
            assert np.array_equal(whole, _by_slices(decide, W, cuts), equal_nan=True)
            assert np.array_equal(whole[shuffled], decide(W[shuffled]), equal_nan=True)
            for k in alone:
                assert np.array_equal(whole[k:k + 1], decide(W[k:k + 1]), equal_nan=True)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_exact_margin_lies_between_the_half_weight_margins(data):
    # the ends of the solver's first evaluation, at lam = 1/2:
    # min(m1, m2) <= max-min margin <= (m1 + m2)/2 <= max(m1, m2)
    econ, f, eps, W, _ = data.draw(_chunked_frontier_cases((1, 1)))
    W = W[np.all(W >= 0, axis=1)]
    exact = economy.scitovsky_margins_batch(econ, f, W, eps)
    frontier = economy._frontier(econ, f, eps)
    # logit(1/2) = 0 on every row
    m1, m2, _ = economy._margins_on_frontier(
        frontier, economy._class_sums(frontier, W), np.zeros(len(W)))
    assert np.all(np.isfinite(exact))
    # 1e-12, relative where the margin exceeds 1
    tol = 1e-12 * np.maximum(1.0, np.abs(exact))
    assert np.all(np.minimum(m1, m2) <= exact + tol)
    assert np.all(exact <= 0.5 * (m1 + m2) + tol)
    assert np.all(0.5 * (m1 + m2) <= np.maximum(m1, m2))


@settings(max_examples=30, deadline=None)
@given(gamma=st.sampled_from([0.5, 1.0, 2.0, 4.0]), d=st.sampled_from([2, 8, 32]),
       weight=st.floats(0.05, 0.95), eps=st.sampled_from([0.0, 0.05, 0.2]),
       seed=st.integers(0, 2**32 - 1))
def test_margin_ends_bracket_the_exact_margin_at_any_weight(gamma, d, weight, eps, seed):
    # the ends the solver stops a row on: at every planner weight lam,
    # min(m1, m2) <= max-min margin <= lam m1 + (1 - lam) m2 (Sion's
    # minimax), at logits from 1e-2 to the bracket's edges
    econ, W = _reference_frontier_cases(gamma, d)
    f, _ = economy.planner_allocation(econ, np.array([weight, 1.0 - weight]))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(len(W)) * 10.0 ** rng.uniform(-2.0, 1.5, len(W))
    x = np.clip(x, economy._X_LO, economy._X_HI)
    frontier = economy._frontier(econ, f, eps)
    with np.errstate(invalid="ignore", divide="ignore"):
        m1, m2, _ = economy._margins_on_frontier(frontier, economy._class_sums(frontier, W), x)
        lower, upper = economy._margin_ends(m1, m2, x)
    exact = economy.scitovsky_margins_batch(econ, f, W, eps)
    finite = np.isfinite(exact)
    assert finite.sum() >= 400
    lower, exact, upper = lower[finite], exact[finite], upper[finite]
    # 1e-12, relative where the margin exceeds 1
    tol = 1e-12 * np.maximum(1.0, np.abs(exact))
    assert np.all(lower <= exact + tol)
    assert np.all(exact <= upper + tol)


def test_default_thm2_makes_few_frontier_evaluations(monkeypatch):
    # a row stops at the first planner weight whose ends settle its class
    # (17,734 frontier row evaluations); solving every row the lam = 1/2
    # evaluation leaves open to its exact margin takes 26,865
    rows, evaluate = [], economy._margins_on_frontier

    def counted(frontier, sums, x):
        rows.append(len(x))
        return evaluate(frontier, sums, x)

    monkeypatch.setattr(economy, "_margins_on_frontier", counted)
    experiments.run_experiment(experiments.default_config("thm2"))
    assert 0 < sum(rows) <= 18_000


def test_frontier_holds_a_few_chunks_of_values_at_a_time():
    # the frontier builds about a dozen temporaries of its input's shape per
    # evaluation; on whole blocks they took about ten times W's bytes
    d = 32
    gen = np.random.default_rng(d)
    econ = economy.EconomySpec(
        (economy.Agent(CRRASEU(gen.dirichlet(np.ones(d))), np.full(d, 0.5)),
         economy.Agent(CRRASEU(np.full(d, 1.0 / d)), np.full(d, 0.5))),
        no_aggregate_uncertainty=True,
    )
    f, _ = economy.planner_allocation(econ)
    W = 1.0 + sampling.PerturbationLaw("restricted-gaussian", d, 1.0).sample(16_384, SEED)
    tracemalloc.start()
    try:
        economy.scitovsky_margins_batch(econ, f, W, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * W.nbytes


def test_improvement_event_holds_a_few_chunks_of_values_at_a_time():
    # the decider evaluates every row it is given, so perturbed acts built for
    # a whole block would take at least as many bytes as the block
    d, m = 512, 4096
    agents = tuple(economy.Agent(CRRASEU(np.full(d, 1.0 / d)), np.ones(d)) for _ in range(3))
    econ = economy.EconomySpec(agents)
    Z = sampling.PerturbationLaw("uniform-ball", d, 1.0).sample(m, SEED)
    tracemalloc.start()
    try:
        flags = economy.individual_improvement_event(econ, economy.equal_split(econ), Z, 0.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < flags.sum() < m
    assert peak < 0.125 * Z.nbytes


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
    split = economy.belief_volume_split(
        economy.belief_sets(econ, economy.equal_split(econ)), [0])
    # the caps {mu_0 >= 0.6} and {mu_0 <= 0.2}: mu_0 is Beta(1, d-1) on the simplex
    assert split.vol_J == (1 - 0.6) ** (d - 1)
    assert split.vol_Jc == 1 - (1 - 0.2) ** (d - 1)
    assert split.min_rel_vol == min(split.vol_J, split.vol_Jc) <= 0.5


def test_belief_volume_split_validates_coalition():
    econ = _meu_economy(3)
    f = economy.equal_split(econ)
    for bad in ([], [0, 1], [5]):
        with pytest.raises(ValueError):
            economy.belief_volume_split(economy.belief_sets(econ, f), bad)


def test_belief_volume_split_singleton_belief_sets_have_no_volume():
    # log-utility belief sets are single priors, of measure zero on the simplex
    econ = experiments.build_economy(experiments.default_config("thm2"), 3)
    f, _ = economy.planner_allocation(econ)
    split = economy.belief_volume_split(economy.belief_sets(econ, f), [0])
    assert (split.vol_J, split.vol_Jc, split.min_rel_vol) == (0.0, 0.0, 0.0)


def test_belief_volume_split_faces_at_a_trade_have_no_volume():
    # away from the constant act each worst-case face is the cap's level facet
    econ = _meu_economy(4)
    h = np.array([0.1, -0.1 / 3, -0.1 / 3, -0.1 / 3])
    f = economy.Allocation(np.vstack([0.5 - h, 0.5 + h])).check_feasible(econ)
    const = economy.equal_split(econ)
    traded, constant = (economy.belief_volume_split(economy.belief_sets(econ, g), [1])
                        for g in (f, const))
    assert (traded.vol_J, traded.vol_Jc) == (0.0, 0.0)
    assert (constant.vol_J, constant.vol_Jc) == (1 - (1 - 0.2) ** 3, (1 - 0.6) ** 3)


# ---------------------------------------------------------------------------
# refusals of the value types
# ---------------------------------------------------------------------------


def _meu(d):
    return MaxMinEU(np.eye(d))


_AGENT = economy.Agent(CRRASEU(np.array([0.5, 0.5])), np.ones(2))
_PAIR = economy.EconomySpec((_AGENT, _AGENT))
_PRIOR_SUM = "prior must sum to 1 within 1e-12"
_PRIOR_STATES = "prior must be a vector over at least 2 states"
_ENDOWMENT = "endowment must be finite and nonnegative"
_ENDOWMENT_DIM = "endowment dimension must match the preference's state count"
_CAP_INDEX = "need d >= 2 and a valid state index"
_CAP_LEVEL = "cap level must lie strictly between 0 and 1"

# (what is built, the exact message of its ValueError)
_REFUSALS = {
    "crra-nan": (lambda: CRRASEU(np.array([np.nan, 0.5])), "prior must be finite"),
    "crra-inf": (lambda: CRRASEU(np.array([np.inf, 0.5])), "prior must be finite"),
    "crra-negative": (lambda: CRRASEU(np.array([1.5, -0.5]), 0.0), "prior must be nonnegative"),
    "crra-zero": (lambda: CRRASEU(np.array([1.0, 0.0])),
                  "this preference family requires a strictly positive prior"),
    "crra-sum": (lambda: CRRASEU(np.array([0.5, 0.6])), _PRIOR_SUM),
    "crra-empty": (lambda: CRRASEU(np.array([])), _PRIOR_STATES),
    "crra-one-state": (lambda: CRRASEU(np.array([1.0])), _PRIOR_STATES),
    "crra-matrix": (lambda: CRRASEU(np.full((2, 2), 0.5)), _PRIOR_STATES),
    "crra-gamma-nan": (lambda: CRRASEU(np.array([0.5, 0.5]), np.nan),
                       "gamma must be a nonnegative real"),
    "meu-nan": (lambda: MaxMinEU(np.array([[np.nan, 0.5, 0.5]])), "prior must be finite"),
    "meu-inf": (lambda: MaxMinEU(np.array([[0.5, 0.5], [np.inf, 0.0]])), "prior must be finite"),
    "meu-negative": (lambda: MaxMinEU(np.array([[1.2, -0.2]])), "prior must be nonnegative"),
    "meu-sum": (lambda: MaxMinEU(np.array([0.5, 0.6])), _PRIOR_SUM),
    "meu-empty": (lambda: MaxMinEU([]), "prior polytope needs at least one vertex"),
    "meu-no-rows": (lambda: MaxMinEU(np.empty((0, 3))),
                    "prior polytope needs at least one vertex"),
    "meu-one-state": (lambda: MaxMinEU(np.ones((2, 1))), _PRIOR_STATES),
    "meu-cube": (lambda: MaxMinEU(np.full((2, 2, 2), 0.5)), _PRIOR_STATES),
    "meu-bernoulli": (lambda: MaxMinEU(np.eye(2), "cubic"), "bernoulli must be 'linear' or 'log'"),
    "agent-nan": (lambda: economy.Agent(_meu(2), np.array([np.nan, 1.0])), _ENDOWMENT),
    "agent-inf": (lambda: economy.Agent(_meu(2), np.array([1.0, np.inf])), _ENDOWMENT),
    "agent-negative": (lambda: economy.Agent(_meu(2), np.array([1.0, -1e-300])), _ENDOWMENT),
    "agent-empty": (lambda: economy.Agent(_meu(2), np.array([])), _ENDOWMENT_DIM),
    "agent-long": (lambda: economy.Agent(_meu(2), np.ones(3)), _ENDOWMENT_DIM),
    "agent-matrix": (lambda: economy.Agent(_meu(2), np.ones((1, 2))), _ENDOWMENT_DIM),
    "economy-empty": (lambda: economy.EconomySpec(()), "an economy needs at least 2 agents"),
    "economy-one": (lambda: economy.EconomySpec((_AGENT,)), "an economy needs at least 2 agents"),
    "economy-dims": (lambda: economy.EconomySpec((_AGENT, economy.Agent(_meu(3), np.ones(3)))),
                     "all agents must share one state space"),
    "economy-uncertain": (
        lambda: economy.EconomySpec((_AGENT, economy.Agent(_meu(2), np.array([1.0, 2.0]))),
                                    no_aggregate_uncertainty=True),
        "aggregate endowment is not constant across states"),
    "allocation-vector": (lambda: economy.Allocation(np.ones(2)),
                          "allocation must be an (agents, states) matrix"),
    "allocation-shape": (lambda: economy.Allocation(np.ones((3, 2))).check_feasible(_PAIR),
                         "allocation shape does not match the economy"),
    "allocation-sum": (lambda: economy.Allocation(np.array([[1.2, 1.0], [1.0, 1.0]]))
                       .check_feasible(_PAIR),
                       "allocation misses the aggregate endowment by 2.000e-01"),
    "allocation-inf": (lambda: economy.Allocation(np.array([[np.inf, 1.0], [1.0, 1.0]]))
                       .check_feasible(_PAIR), "allocation misses the aggregate endowment by inf"),
    "allocation-negative": (lambda: economy.Allocation(np.array([[3.0, 1.0], [-1.0, 1.0]]))
                            .check_feasible(_PAIR, nonneg=True),
                            "allocation violates the nonnegativity restriction"),
    "polytope-empty": (lambda: geometry.Polytope([]),
                       "empty set: a polytope needs at least one vertex"),
    "polytope-no-rows": (lambda: geometry.Polytope(np.empty((0, 3))),
                         "empty set: a polytope needs at least one vertex"),
    "cap-d1": (lambda: cap_prior_polytope(1, 0, 0.5, "ge"), _CAP_INDEX),
    "cap-index": (lambda: cap_prior_polytope(3, 3, 0.5, "ge"), _CAP_INDEX),
    "cap-negative-index": (lambda: cap_prior_polytope(3, -1, 0.5, "le"), _CAP_INDEX),
    "cap-nan": (lambda: cap_prior_polytope(3, 0, np.nan, "ge"), _CAP_LEVEL),
    "cap-inf": (lambda: cap_prior_polytope(3, 0, np.inf, "le"), _CAP_LEVEL),
    "cap-zero": (lambda: cap_prior_polytope(3, 0, 0.0, "ge"), _CAP_LEVEL),
    "cap-one": (lambda: cap_prior_polytope(3, 0, 1.0, "le"), _CAP_LEVEL),
    "cap-side": (lambda: cap_prior_polytope(3, 0, 0.5, "between"), "side must be 'ge' or 'le'"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_value_types_refuse_bad_input_with_their_messages(case):
    build, message = _REFUSALS[case]
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError and str(info.value) == message


def test_single_vertex_inputs_are_one_row_polytopes():
    assert MaxMinEU(np.array([0.25, 0.75])).prior_vertices.shape == (1, 2)
    assert geometry.Polytope(np.array([0.25, 0.75])).vertices.shape == (1, 2)


def test_check_feasible_refuses_a_nan_allocation():
    # a nan gap compares false with the tolerance; it used to pass as feasible
    with pytest.raises(ValueError, match="misses the aggregate endowment by nan"):
        economy.Allocation(np.array([[np.nan, 1.0], [1.0, 1.0]])).check_feasible(_PAIR)


def test_aggregate_is_summed_once_and_read_only():
    econ = economy.EconomySpec((_AGENT, economy.Agent(_meu(2), np.array([1.0, 2.0]))))
    assert econ.aggregate is econ.aggregate
    np.testing.assert_array_equal(econ.aggregate, [2.0, 3.0])
    with pytest.raises(ValueError, match="read-only"):
        econ.aggregate[0] = 0.0
