"""Exchange economies, equilibrium machinery, and event deciders.

An economy is a list of agents (preference + endowment).  On top of it this
module provides:

* a tatonnement equilibrium solver for log-utility (CRRA gamma = 1) economies,
  with closed-form demands;
* planner (Pareto-optimal) allocations with supporting prices for smooth
  common-curvature economies;
* the event deciders the Monte Carlo experiments evaluate per draw —
  individual improvement and aggregate (Scitovsky-contour) membership;
* scalar diagnostics: the coefficient of resource utilization (bisection),
  the split-norm constant rho, and exact belief-set volume splits.

Individual improvement evaluates utilities only inside each agent's
supporting half-space.  U is concave, so with a supergradient s at f_i,
U((1-eps)(f_i + z)) <= U(f_i) + (1-eps) s.z - eps s.f_i: a draw outside the
half-space (1-eps) s.z > eps s.f_i (widened by a rounding slack) cannot
improve agent i, and one product Z @ s screens a block before any utility
is computed.  A draw's flag can differ from an evaluation of every row only
if its utility lies within about one ulp of the strict-preference threshold,
because BLAS may round a row's dot product differently once the surviving
rows are compacted.

Aggregate membership is decided on the utility-possibility frontier of a
two-agent economy with common CRRA curvature: the frontier is a one-parameter
family and the max-min margin is found by a safeguarded Newton iteration on
the logit of the planner weight (exact up to float tolerance), with the
decision rule "member iff margin > 1e-9".  Other economies are refused.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import geometry, preferences
# utility_extended is imported by name: the benchmark tracer patches this binding
from .preferences import CRRASEU, Preference, utility_extended

FEASIBILITY_TOL = 1e-9
RESIDUAL_TOL = 1e-10
MEMBER_TOL = 1e-9
_TATONNEMENT_CAP = 10**5
# the frontier solver's planner-weight bracket, as weights and as logits
_LAM_LO, _LAM_HI = 1e-12, 1.0 - 1e-12
_X_LO = math.log(_LAM_LO) - math.log1p(-_LAM_LO)
_X_HI = math.log(_LAM_HI) - math.log1p(-_LAM_HI)
_NEWTON_CAP = 100


@dataclass(frozen=True, eq=False)
class Agent:
    preference: Preference
    endowment: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.endowment, dtype=float)
        if w.ndim != 1 or w.size != self.preference.dim:
            raise ValueError("endowment dimension must match the preference's state count")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("endowment must be finite and nonnegative")
        w.flags.writeable = False
        object.__setattr__(self, "endowment", w)


@dataclass(frozen=True, eq=False)
class EconomySpec:
    """At least two agents sharing one state space.

    ``no_aggregate_uncertainty`` asserts the aggregate endowment is constant
    across states (within 1e-12); several deciders require it.
    """

    agents: tuple[Agent, ...]
    no_aggregate_uncertainty: bool = False

    def __post_init__(self):
        agents = tuple(self.agents)
        if len(agents) < 2:
            raise ValueError("an economy needs at least 2 agents")
        d = agents[0].preference.dim
        if any(a.preference.dim != d for a in agents):
            raise ValueError("all agents must share one state space")
        object.__setattr__(self, "agents", agents)
        if self.no_aggregate_uncertainty:
            w = self.aggregate
            if w.max() - w.min() > 1e-12:
                raise ValueError("aggregate endowment is not constant across states")

    @property
    def dim(self) -> int:
        return self.agents[0].preference.dim

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @property
    def aggregate(self) -> np.ndarray:
        return np.sum([a.endowment for a in self.agents], axis=0)

    @property
    def preferences(self) -> list[Preference]:
        return [a.preference for a in self.agents]


@dataclass(frozen=True, eq=False)
class Allocation:
    """Per-agent acts; rows must add up to the economy's aggregate endowment."""

    acts: np.ndarray

    def __post_init__(self):
        F = np.asarray(self.acts, dtype=float)
        if F.ndim != 2:
            raise ValueError("allocation must be an (agents, states) matrix")
        F = F.copy()
        F.flags.writeable = False
        object.__setattr__(self, "acts", F)

    def check_feasible(self, econ: EconomySpec, nonneg: bool = False) -> "Allocation":
        if self.acts.shape != (econ.n_agents, econ.dim):
            raise ValueError("allocation shape does not match the economy")
        gap = np.abs(self.acts.sum(axis=0) - econ.aggregate).max()
        if gap > FEASIBILITY_TOL:
            raise ValueError(f"allocation misses the aggregate endowment by {gap:.3e}")
        if nonneg and np.any(self.acts < 0):
            raise ValueError("allocation violates the nonnegativity restriction")
        return self


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    price: np.ndarray
    allocation: Allocation
    residual: float

    def __post_init__(self):
        p = np.asarray(self.price, dtype=float)
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("price must be nonnegative with unit l1 norm")
        if self.residual > 1e-7:
            raise ValueError(f"excess-demand residual {self.residual:.3e} exceeds 1e-7")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "price", p)


def equal_split(econ: EconomySpec) -> Allocation:
    w = econ.aggregate / econ.n_agents
    return Allocation(np.tile(w, (econ.n_agents, 1))).check_feasible(econ)


# ---------------------------------------------------------------------------
# equilibrium and planner allocations
# ---------------------------------------------------------------------------


def tatonnement_equilibrium(econ: EconomySpec) -> EquilibriumResult:
    """Walrasian equilibrium of a log-utility economy by price iteration.

    Log-utility demand is x_is = mu_is (p . w_i) / p_s, so market clearing
    is the positive fixed point of p <- normalized sum_i mu_i (p . w_i); the
    iteration is a power method on a positive matrix and converges linearly.
    Stops when the worst excess demand is below 1e-10.
    """
    if not all(isinstance(u, CRRASEU) and u.gamma == 1 for u in econ.preferences):
        raise ValueError("tatonnement solver requires log-utility agents (CRRA gamma = 1)")
    M = np.array([a.preference.prior for a in econ.agents])  # (I, d)
    W = np.array([a.endowment for a in econ.agents])  # (I, d)
    supply = econ.aggregate
    if np.any(supply <= 0):
        raise ValueError("every state needs positive aggregate supply")

    p = np.full(econ.dim, 1.0 / econ.dim)
    trace = []
    for _ in range(_TATONNEMENT_CAP):
        wealth = W @ p
        if np.any(wealth <= 0):
            raise ValueError("an agent has zero wealth; tatonnement demand is undefined")
        demand_value = M.T @ wealth  # sum_i mu_is (p . w_i)
        residual = float(np.abs(demand_value / p - supply).max())
        trace.append(residual)
        if residual < RESIDUAL_TOL:
            F = M * wealth[:, None] / p[None, :]
            return EquilibriumResult(p, Allocation(F).check_feasible(econ), residual)
        # clearing means p_s supply_s = demand_value_s, so iterate the
        # supply-scaled map (a positive matrix: power iteration converges)
        p_next = demand_value / supply
        p = p_next / p_next.sum()
    raise geometry.ConvergenceError(
        f"tatonnement did not converge in {_TATONNEMENT_CAP} iterations; "
        f"last residuals {trace[-5:]}",
        value=trace[-1],
        gap=trace[-1],
    )


def _common_crra_exponent(prefs: list[Preference]) -> float | None:
    """The shared 1/gamma when every agent is CRRA with one curvature gamma > 0."""
    gammas = [p.gamma for p in prefs if isinstance(p, CRRASEU) and p.gamma > 0]
    if len(gammas) < len(prefs) or max(gammas) - min(gammas) > 1e-14:
        return None
    return 1.0 / gammas[0]


def planner_allocation(econ: EconomySpec, weights=None) -> tuple[Allocation, np.ndarray]:
    """Pareto-optimal allocation maximizing a weighted utility sum, with its supporting price.

    Closed form for log / common-curvature CRRA agents: statewise shares
    proportional to (weight_i mu_is)^(1/gamma).  The supporting price is the
    common weighted marginal utility, normalized to sum 1.
    """
    q = _common_crra_exponent(econ.preferences)
    if q is None:
        raise ValueError("planner closed form requires log or common-curvature CRRA agents")
    lam = np.full(econ.n_agents, 1.0 / econ.n_agents) if weights is None else np.asarray(
        weights, dtype=float
    )
    if lam.shape != (econ.n_agents,) or np.any(lam <= 0):
        raise ValueError("weights must be positive, one per agent")
    M = np.array([a.preference.prior for a in econ.agents])
    scores = (lam[:, None] * M) ** q
    shares = scores / scores.sum(axis=0, keepdims=True)
    F = shares * econ.aggregate[None, :]
    gamma = 1.0 / q
    # common FOC value lam_i mu_is g_is^(-gamma), identical across i by construction
    price = lam[0] * M[0] * F[0] ** (-gamma)
    price = price / price.sum()
    return Allocation(F).check_feasible(econ, nonneg=True), price


# ---------------------------------------------------------------------------
# event deciders
# ---------------------------------------------------------------------------


def individual_improvement_event(
    econ: EconomySpec, f: Allocation, Z: np.ndarray, eps: float
) -> np.ndarray:
    """For each perturbation z: does (1-eps)(f_i + z) beat f_i for SOME agent?

    Vectorized over the rows of Z.  Perturbed acts that leave an agent's
    utility domain (nonpositive payoffs under log curvature) never improve:
    the monotone extension assigns them -inf utility.

    Utilities are evaluated only inside each agent's supporting half-space.
    U is concave, so a supergradient s at f_i gives
    U((1-eps)(f_i + z)) <= U(f_i) + (1-eps) s.z - eps s.f_i, and z can
    improve agent i only if (1-eps) s.z > eps s.f_i.  One Z @ s per agent
    drops the rows outside that half-space widened by a rounding slack
    (:func:`_screen`), and the agent's utility is computed on the rows left;
    an agent without a finite supergradient has every row evaluated.  The
    flags are those of evaluating every row, except that BLAS may round a
    row's dot product differently once the kept rows are compacted: a row
    whose utility lies within about one ulp of ``base + TOL_STRICT`` can flip.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    out = np.zeros(len(Z), dtype=bool)
    for i, agent in enumerate(econ.agents):
        pref, fi = agent.preference, f.acts[i]
        base = pref.utility(fi)
        s = preferences.supergradient(pref, fi)
        rows = slice(None) if s is None else _screen(pref, Z, fi, s, float(base), eps)
        cand = utility_extended(pref, (1.0 - eps) * (fi + Z[rows]))
        out[rows] |= cand > base + preferences.TOL_STRICT
    return out


# Relative slack of the improvement screen, and the largest |log x| over
# positive finite doubles.
_SCREEN_SLACK = 1e-9
_LOG_RANGE = 745.0


def _screen(pref, Z, fi, s, base, eps):
    """Indices of the rows of Z that may improve the agent: (1-eps) s.z > eps s.f_i - slack.

    A dropped row has U((1-eps)(f_i + z)) - U(f_i) <= (1-eps) s.z - eps s.f_i
    <= -slack in exact arithmetic, so the slack must cover every rounding
    between that and the computed utilities.  Each quantity involved is a sum
    of at most d terms, rounded within a few (d + 4) u (u = 2^-53) times the
    sum of its terms' magnitudes:

    * U at f_i: |U(f_i)| for power CRRA (its terms share a sign), and at most
      _LOG_RANGE for a log index (the index weights sum to 1);
    * U at the perturbed act: relative to |U| for power CRRA, which cannot
      lift a dropped row by more than the rounding of U(f_i); _LOG_RANGE for
      a log index; ||s||_1 (||f_i||_inf + max|z|) for a linear one;
    * Z @ s, s.f_i, s itself and the perturbed act: ||s||_1 (||f_i||_inf +
      max|z|).  Where the domain lies in the nonnegative orthant (every agent
      but the risk-neutral and linear max-min ones), s >= 0 and z >= -f_i on
      every row that could improve, so sum_k s_k |z_k| <= |s.z| + 2 s.f_i;
      the |s.z| part only rescales s.z, which cannot carry a row across the
      line, so max|z| is needed only where the domain is all of R^d.

    So, with zmax = max|z| over the block where the domain is all of R^d and
    0 elsewhere, the slack 1e-9 (|U(f_i)| + ||s||_1 (||f_i||_inf + zmax) +
    _LOG_RANGE) dominates the sum while 64 (d + 4) u < 1e-9, that is for d
    below 10^5.  An infinite U(f_i) makes the threshold -inf or NaN, and
    neither drops a row.
    """
    zmax = 0.0
    if pref.in_domain(-np.ones(len(fi))):
        zmax = float(max(Z.max(initial=0.0), -Z.min(initial=0.0)))
    slack = _SCREEN_SLACK * (
        abs(base) + float(s.sum()) * (float(np.abs(fi).max()) + zmax) + _LOG_RANGE)
    threshold = eps * float(s @ fi) - slack
    return np.flatnonzero(~((1.0 - eps) * (Z @ s) <= threshold))


def _margins_on_frontier(M, logM, F_w, base, lam, q, eps):
    """Margins (u_i((1-eps) g_i(lam)) - u_i(f_i)) on the 2-agent CRRA frontier.

    lam is an (n,) array of planner weights; F_w an (n, d) array of candidate
    aggregates.  The frontier share of agent 1 in state s is
    expit(q [logit(lam) + log mu_1s - log mu_2s]), which keeps the algebra
    stable for extreme weights and curvatures.  The third value is
    d(m1 - m2)/dx at x = logit(lam): the share s has ds/dx = q s (1 - s), so
    agent 1's margin rises at q sum_s mu_1s ((1-eps) g_1s)^(1-gamma) (1 - s)
    and agent 2's falls at q sum_s mu_2s ((1-eps) g_2s)^(1-gamma) s (the
    powers are 1 under log curvature).
    """
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
        slope = q * ((1.0 - share) @ M[0] + share @ M[1])
    else:
        p_ = 1.0 - gamma
        with np.errstate(divide="ignore"):
            U1 = np.maximum(scale * g1, 0.0) ** p_
            U2 = np.maximum(scale * g2, 0.0) ** p_
        u1 = (U1 @ M[0]) / p_
        u2 = (U2 @ M[1]) / p_
        if gamma > 1:
            u1 = np.where(np.all(g1 > 0, axis=1), u1, -np.inf)
            u2 = np.where(np.all(g2 > 0, axis=1), u2, -np.inf)
        slope = q * ((U1 * (1.0 - share)) @ M[0] + (U2 * share) @ M[1])
    return u1 - base[0], u2 - base[1], slope


def _frontier_crossing(M, logM, F_w, base, q, eps):
    """The planner weight at which m1 = m2, per row of F_w.

    Every row must have m1 - m2 < 0 at lam = _LAM_LO and > 0 at _LAM_HI.
    Safeguarded Newton on x = logit(lam): each evaluation narrows the row's
    bracket [x_lo, x_hi] to the side its sign shows, and a Newton step that
    leaves the bracket or is not finite is replaced by the bracket midpoint.
    Only rows still moving are evaluated; a row stops once its step is
    within 1e-14 (1 + |x|) or its difference is exactly 0.
    """
    n = len(F_w)
    x_lo = np.full(n, _X_LO)
    x_hi = np.full(n, _X_HI)
    x = np.zeros(n)
    live = np.arange(n)
    for _ in range(_NEWTON_CAP):
        xl = x[live]
        m1, m2, slope = _margins_on_frontier(M, logM, F_w[live], base, expit(xl), q, eps)
        diff = m1 - m2
        below = diff < 0
        lo = np.where(below, xl, x_lo[live])
        hi = np.where(below, x_hi[live], xl)
        x_new = xl - diff / slope
        x_new = np.where((x_new > lo) & (x_new < hi), x_new, 0.5 * (lo + hi))
        done = (np.abs(x_new - xl) <= 1e-14 * (1.0 + np.abs(xl))) | (diff == 0)
        x[live] = np.where(diff == 0, xl, x_new)
        x_lo[live], x_hi[live] = lo, hi
        live = live[~done]
        if not len(live):
            break
    return expit(x)


def scitovsky_margins_batch(
    econ: EconomySpec, f: Allocation, W: np.ndarray, eps: float
) -> np.ndarray:
    """Max-min improvement margin for each candidate aggregate row of W.

    Exact two-agent path: the utility-possibility frontier of a common-
    curvature economy is a one-parameter planner family along which agent 1's
    margin rises and agent 2's falls, so the max-min sits at their crossing.
    Planner weights live in [1e-12, 1 - 1e-12].  A row whose margin
    difference is already >= 0 at the low edge (or <= 0 at the high edge)
    takes that edge's margins; a row that crosses inside is solved by a
    safeguarded Newton iteration on logit(lam) (:func:`_frontier_crossing`).
    """
    q = _common_crra_exponent(econ.preferences)
    if q is None or econ.n_agents != 2:
        raise ValueError("batch margins need the 2-agent common-curvature closed form")
    W = np.atleast_2d(np.asarray(W, dtype=float))
    bad = np.any(W < 0, axis=1)  # no nonnegative split exists: margin -inf
    W = np.where(bad[:, None], 1.0, W)
    M = np.array([a.preference.prior for a in econ.agents])
    logM = np.log(M)
    base = np.array(
        [utility_extended(a.preference, f.acts[i]) for i, a in enumerate(econ.agents)]
    )
    n = len(W)

    # A -inf base act (or a zero entry under gamma >= 1) makes both margins
    # infinite at every weight and diff = m1 - m2 nan.  nan comparisons are
    # all False, so such rows neither take an edge rule nor cross, and their
    # weight-free margin is read at the low edge.
    with np.errstate(invalid="ignore", divide="ignore"):
        m1_lo, m2_lo, _ = _margins_on_frontier(M, logM, W, base, np.full(n, _LAM_LO), q, eps)
        m1_hi, m2_hi, _ = _margins_on_frontier(M, logM, W, base, np.full(n, _LAM_HI), q, eps)
        # diff = m1 - m2 is increasing in lam.
        diff_lo, diff_hi = m1_lo - m2_lo, m1_hi - m2_hi
        all_low = diff_lo >= 0  # already above: min is m2 at lam -> 0
        all_high = diff_hi <= 0  # min is m1 throughout, best lam -> 1
        margins = np.minimum(m1_lo, m2_lo)
        cross = np.flatnonzero((diff_lo < 0) & (diff_hi > 0) & ~bad)
        if len(cross):
            Wc = W[cross]
            lam = _frontier_crossing(M, logM, Wc, base, q, eps)
            m1, m2, _ = _margins_on_frontier(M, logM, Wc, base, lam, q, eps)
            margins[cross] = np.minimum(m1, m2)
    margins = np.where(all_high, np.minimum(m1_hi, m2_hi), margins)
    return np.where(bad, -np.inf, margins)


def scitovsky_member_grid(
    econ: EconomySpec, f: Allocation, w: np.ndarray, eps: float, grid: int = 200
) -> bool:
    """Brute-force membership for 2-agent, 2-state economies on a grid of splits."""
    if econ.n_agents != 2 or econ.dim != 2:
        raise ValueError("grid oracle covers 2 agents x 2 states only")
    w = np.asarray(w, dtype=float)
    xs = np.linspace(0.0, w[0], grid)
    ys = np.linspace(0.0, w[1], grid)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    G1 = np.stack([X.ravel(), Y.ravel()], axis=1)
    G2 = w[None, :] - G1
    scale = 1.0 - eps
    p1, p2 = econ.preferences
    m1 = utility_extended(p1, scale * G1) - p1.utility(f.acts[0])
    m2 = utility_extended(p2, scale * G2) - p2.utility(f.acts[1])
    return bool(np.any(np.minimum(m1, m2) > MEMBER_TOL))


# ---------------------------------------------------------------------------
# scalar diagnostics
# ---------------------------------------------------------------------------


def cru(econ: EconomySpec, f: Allocation, tol: float = 1e-6) -> float:
    """Coefficient of resource utilization: smallest beta with beta*1 still improving f.

    Requires aggregate endowment exactly 1 in every state, and the two-agent
    common-curvature economy that :func:`scitovsky_margins_batch` decides
    (other economies raise its ValueError at the first membership test).
    Bisection on the membership threshold along the symmetric ray;
    Pareto-optimal allocations return exactly 1.0.  Allocations dominated by
    arbitrarily small aggregate scalings are degenerate and raise an error.
    """
    if not econ.no_aggregate_uncertainty or np.abs(econ.aggregate - 1.0).max() > FEASIBILITY_TOL:
        raise ValueError("resource-utilization decider needs aggregate endowment = 1 per state")
    ones = np.ones(econ.dim)

    def member(beta: float) -> bool:
        return scitovsky_margins_batch(econ, f, (beta * ones)[None, :], 0.0)[0] > MEMBER_TOL

    if not member(1.0):
        return 1.0
    lo = 0.01
    if member(lo):
        raise ValueError("degenerate allocation: dominated by arbitrarily small aggregates")
    hi = 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def rho(econ: EconomySpec, mode: str = "definitional") -> float:
    """Split-norm constant: 2/wbar times the max of sum_i ||f_i|| over splits of wbar*1.

    The maximum over the split polytope of this convex objective is attained
    at an extreme point, i.e. every state assigned wholly to one agent, and
    sqrt is concave, so it is the most balanced partition of d into |I|
    parts: with q, s = divmod(d, |I|), rho = 2 (s sqrt(q+1) + (|I|-s) sqrt(q)).
    mode='paper' returns the constant 2 sqrt(d) used by the volume-bound
    proofs instead.
    """
    if not econ.no_aggregate_uncertainty:
        raise ValueError("rho assumes no aggregate uncertainty")
    d, I = econ.dim, econ.n_agents
    if mode == "paper":
        return 2.0 * math.sqrt(d)
    if mode != "definitional":
        raise ValueError("mode must be 'definitional' or 'paper'")
    q, s = divmod(d, I)
    return 2.0 * (s * math.sqrt(q + 1) + (I - s) * math.sqrt(q))


@dataclass(frozen=True)
class BeliefVolumeSplit:
    vol_J: float
    vol_Jc: float

    @property
    def min_rel_vol(self) -> float:
        return min(self.vol_J, self.vol_Jc)


def belief_volume_split(
    econ: EconomySpec, allocations: Sequence[Allocation], J: list[int]
) -> list[BeliefVolumeSplit]:
    """Exact relative simplex volumes of the two coalition belief-set intersections.

    Returns one split per allocation in ``allocations``.  At an allocation,
    B_J is the intersection of the belief sets of the agents in J at their
    allocated acts (B_Jc for the complement), and each volume is its share
    of the simplex by :func:`geometry.relative_volume`: 0.0 when a belief
    set is lower-dimensional (a proper face of a cap, a single prior), the
    Beta(1, d-1) mass of the slab for caps and slabs on one coordinate, and
    ValueError for any other intersection.
    """
    J = sorted(set(J))
    if not J or not all(0 <= j < econ.n_agents for j in J) or len(J) == econ.n_agents:
        raise ValueError("J must be a proper nonempty subset of the agents")
    Jc = [i for i in range(econ.n_agents) if i not in J]

    def volume(group, f):
        return geometry.relative_volume(
            [preferences.belief_set(econ.agents[i].preference, f.acts[i]) for i in group])

    return [BeliefVolumeSplit(volume(J, f), volume(Jc, f)) for f in allocations]
