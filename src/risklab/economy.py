"""Exchange economies, equilibrium machinery, and event deciders.

An economy is a list of agents (preference + endowment).  On top of it this
module provides:

* planner (Pareto-optimal) allocations with supporting prices for smooth
  common-curvature CRRA economies, and the Walrasian equilibrium among them:
  the planner allocation at Negishi weights;
* the event deciders the Monte Carlo experiments evaluate per draw —
  individual improvement and aggregate (Scitovsky-contour) membership;
* scalar diagnostics: the coefficient of resource utilization (bisection),
  the split-norm constant rho, and exact belief-set volume splits.

Individual improvement is screened once, before a draw is completed.  U is
concave, so with a supergradient s at f_i,
U((1-eps)(f_i + z)) <= U(f_i) + (1-eps) s.z - eps s.f_i: a draw outside the
half-space (1-eps) s.z > eps s.f_i (widened by a rounding slack) cannot
improve agent i.  The agents' supergradients span k <= (number of agents)
dimensions, so :func:`improvement_screen` decides from a draw's k
coordinates in an orthonormal basis of that span which draws some agent may
prefer; the decider evaluates every agent's utility on every row it is given.

Aggregate membership is screened the same way.  At a Pareto-optimal interior
allocation the agents' supergradients are parallel, s_i = alpha_i u with
|u| = 1, and summing the concavity bounds over any split of w + z shows that
a draw with (1-eps) u.z below eps u.w - 1e-9 sum_i 1/alpha_i (widened by a
rounding slack) is neither a member nor indeterminate:
:func:`contour_screen` decides that from a draw's one coordinate along u,
and keeps every row when the supergradients are not parallel.

Aggregate membership is decided on the utility-possibility frontier of a
two-agent economy with common CRRA curvature: the frontier is a one-parameter
family of planner weights lam, along which agent 1's margin m1 rises and
agent 2's margin m2 falls, and the rule is "member iff the max-min margin
exceeds 1e-9, indeterminate iff its size is at most 1e-9".  At every lam the
max-min margin is at least min(m1, m2) and at most lam m1 + (1 - lam) m2,
the largest lam-weighted margin over all splits (Sion's minimax), so one
safeguarded Newton loop on the logit of the planner weight, started at
lam = 1/2, stops each row at the first weight whose two ends settle its
class; :func:`scitovsky_margins_batch` without that stop runs the loop to
the exact margin (up to float tolerance), or to the edge of the weight
bracket for a row whose margins do not cross inside it.  Other economies
are refused.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import geometry, preferences
# utility_extended is imported by name: the benchmark tracer patches this binding
from .preferences import CRRASEU, Preference, utility_extended

FEASIBILITY_TOL = 1e-9
MEMBER_TOL = 1e-9
# Negishi weights: iteration cap
_NEGISHI_CAP = 1000
# the frontier solver's planner-weight bracket, as weights and as logits
_LAM_LO, _LAM_HI = 1e-12, 1.0 - 1e-12
_X_LO = math.log(_LAM_LO) - math.log1p(-_LAM_LO)
_X_HI = math.log(_LAM_HI) - math.log1p(-_LAM_HI)
_NEWTON_CAP = 100
# bisection width of cru's beta, and points per state in the membership grid oracle
_CRU_TOL = 1e-6
_MEMBER_GRID = 200


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
            raise ValueError(f"budget residual {self.residual:.3e} exceeds 1e-7")
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
    """Walrasian equilibrium of a common-curvature CRRA economy, at Negishi weights.

    The equilibrium is the planner allocation g(lam) whose supporting price p
    leaves every agent's budget balanced, p.g_i = p.w_i (Negishi,
    *Metroeconomica* 12, 1960).  From equal weights the iteration
    lam_i <- lam_i (p.w_i / p.g_i)^k, normalized to sum 1, raises the weight
    of every agent who consumes less than its wealth; at k = gamma = 1 it is
    the power iteration p <- normalized sum_i mu_i (p.w_i) on market-clearing
    prices.  The largest budget gap |p.w_i - p.g_i| falls to a rounding floor
    that grows with d: each dot product has d terms, rounded within a few
    (d + 4) u times the sum of its terms' magnitudes (u the unit round-off,
    as in :func:`improvement_screen`).  So the iteration stops at the first
    gap within 64 (d + 4) u max_i (|w_i|.p + |g_i|.p) that is no smaller than
    the one before.  A gap above that bound that does not fall halves k,
    which starts at gamma: with skewed priors and gamma > 1 the full step can
    cycle.  :func:`planner_allocation` refuses all but common-curvature CRRA.
    """
    if np.any(econ.aggregate <= 0):
        raise ValueError("every state needs positive aggregate supply")
    W = np.array([a.endowment for a in econ.agents])  # (I, d)
    lam = np.full(econ.n_agents, 1.0 / econ.n_agents)
    damp, trace = 1.0, []
    for _ in range(_NEGISHI_CAP):
        f, p = planner_allocation(econ, lam)
        wealth = W @ p
        if np.any(wealth <= 0):
            raise ValueError("an agent has zero wealth; the equilibrium is undefined")
        spending = f.acts @ p
        residual = float(np.abs(wealth - spending).max())
        trace.append(residual)
        bound = 64 * (econ.dim + 4) * 2.0**-53 * float(((np.abs(W) + np.abs(f.acts)) @ p).max())
        if len(trace) > 1 and trace[-2] <= residual:
            if residual <= bound:
                return EquilibriumResult(p, f, residual)
            damp /= 2
        # planner_allocation has checked that every agent shares agent 0's gamma
        lam = lam * (wealth / spending) ** (damp * econ.agents[0].preference.gamma)
        lam = lam / lam.sum()
    raise geometry.ConvergenceError(
        f"Negishi weights did not converge in {_NEGISHI_CAP} iterations; "
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
    common weighted marginal utility weight_i mu_is g_is^(-gamma), normalized
    to sum 1, taken in each state from the agent with the largest share
    (another agent's share may underflow to 0).
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
    top = np.argmax(shares, axis=0)
    states = np.arange(econ.dim)
    price = lam[top] * M[top, states] * F[top, states] ** (-1.0 / q)
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
    the monotone extension assigns them -inf utility.  Each agent's base
    utility is taken once per call; the rows of Z are then worked through in
    chunks of at most _IMPROVEMENT_CHUNK_VALUES values, every agent in turn
    on each chunk, so the chunk is read from memory once for all agents.  An
    agent is evaluated only on the chunk's rows that no earlier agent has
    flagged, and a chunk every row of which is flagged stops there.
    ``thm1`` hands it only the rows that :func:`improvement_screen` keeps.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    # each agent's strict-improvement threshold U(f_i) + TOL_STRICT
    agents = [(a.preference, fi, a.preference.utility(fi) + preferences.TOL_STRICT)
              for a, fi in zip(econ.agents, f.acts)]
    out = np.zeros(len(Z), dtype=bool)
    for rows in _row_chunks(*Z.shape, _IMPROVEMENT_CHUNK_VALUES):
        chunk, hit = Z[rows], out[rows]
        todo = np.arange(len(chunk))  # the chunk's rows no agent has flagged yet
        for pref, fi, level in agents:
            flag = utility_extended(pref, (chunk[todo] + fi) * (1.0 - eps)) > level
            hit[todo[flag]] = True
            todo = todo[~flag]
            if not len(todo):
                break
    return out


# Rows per improvement chunk hold at most this many values (512 KiB of float64).
# An agent's perturbed acts and their log are at most the chunk's size each, so
# the chunk and these two arrays fit a 2 MiB L2 and the rows are read from
# memory once for all agents; a block every row of which the screen keeps (an
# agent without a finite supergradient) never takes more than that, even at
# d = 4000.
_IMPROVEMENT_CHUNK_VALUES = 1 << 16
# Relative slack of the improvement screen, and the largest |log x| over
# positive finite doubles.
_SCREEN_SLACK = 1e-9
_LOG_RANGE = 745.0


def _rounding_size(pref, fi, s, reach: float) -> float:
    """|U(f_i)| + _LOG_RANGE + ||s||_1 (||f_i||_inf + reach): an agent's screen slack size."""
    return (abs(float(pref.utility(fi))) + _LOG_RANGE
            + float(np.abs(s).sum()) * (float(np.abs(fi).max()) + reach))


def _row_chunks(n, width, values):
    """Slices of n rows of ``width`` values, each holding at most ``values`` values (and at least one row)."""
    step = max(1, values // max(1, width))
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def improvement_screen(econ: EconomySpec, f: Allocation, eps: float, radius: float):
    """``(Q, keep)``: the individual-improvement screen in the coordinates of a basis Q.

    Q is the reduced-QR factor of the agents' stacked finite supergradients
    at f: d x k orthonormal columns spanning every s_i, k = min(d, number of
    such agents), 0 when no agent has one.  ``keep(Y)`` takes the
    coordinates Y = z Q of draws from a law supported on the ball of the
    given radius r and flags the rows that some agent keeps, those with
    (1-eps) Y . (Q^T s_i) > eps s_i.f_i - slack_i; every row when an agent
    has no finite supergradient.  A row it drops is one that
    :func:`individual_improvement_event` cannot flag, so the pair can be
    handed to :meth:`sampling.PerturbationLaw.sample_projected_block`; with
    one column the rows it drops are an intersection of half-lines of Y, an
    interval, as the sampler requires.

    A dropped row has U((1-eps)(f_i + z)) - U(f_i) <= (1-eps) s.z - eps s.f_i
    <= -slack in exact arithmetic, so the slack must cover every rounding
    between that and the computed utilities.  Q comes from Householder QR,
    so Q^T Q = I and s lies in span(Q) up to a few d u (u = 2^-53),
    relatively.  The dropped row is the completed draw z = Y Q^T + P of
    :meth:`sampling.PerturbationLaw.sample_projected_block`, whose orthogonal
    part P is projected off Q twice and has |P| <= r; every coordinate of z,
    every |Y| and every sum_l |Y_l| |Q_jl| is at most r (up to rounding).
    Each quantity involved is a sum of at most d terms, rounded within a few
    (d + 4) u times the sum of its terms' magnitudes:

    * U at f_i: |U(f_i)| for power CRRA (its terms share a sign), and at most
      _LOG_RANGE for a log index (the index weights sum to 1);
    * U at the perturbed act: relative to |U| for power CRRA, which cannot
      lift a dropped row by more than the rounding of U(f_i); _LOG_RANGE for
      a log index; ||s||_1 (||f_i||_inf + r) for a linear one;
    * s.f_i, s itself and the perturbed act: ||s||_1 (||f_i||_inf + r);
    * s.z against the computed Y . (Q^T s): the roundings of Q^T s, of the
      k-term product and of z, and s.P, each within a few
      (d + 4) u ||s||_1 r.

    So the slack 1e-9 (|U(f_i)| + ||s||_1 (||f_i||_inf + r) + _LOG_RANGE)
    dominates the sum on every row while 64 (d + 4) u < 1e-9, that is for d
    below 10^5.  An infinite U(f_i) makes the threshold -inf or NaN, and
    neither drops a row.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    grads = [(a.preference, fi, preferences.supergradient(a.preference, fi))
             for a, fi in zip(econ.agents, f.acts)]
    finite = [s for _, _, s in grads if s is not None]
    if finite:
        Q = np.linalg.qr(np.column_stack(finite))[0]
    else:
        Q = np.zeros((econ.dim, 0))
    every_row = len(finite) < len(grads)
    # per agent: Q^T s and the level its screen compares (1-eps) Y . (Q^T s) with
    screens = []
    for pref, fi, s in ([] if every_row else grads):
        level = eps * float(s @ fi) - _SCREEN_SLACK * _rounding_size(pref, fi, s, radius)
        screens.append((Q.T @ s, level))

    def keep(Y):
        out = np.full(len(Y), every_row)
        for v, level in screens:
            out |= ~((1.0 - eps) * (Y @ v) <= level)
        return out

    return Q, keep


# Largest relative part of an agent's supergradient off the contour normal u
# for which :func:`contour_screen` still screens.  The level carries the
# residual's effect exactly, so any value keeps the screen valid; beyond this
# one the allocation is not Pareto optimal and the screen would drop little.
_PARALLEL_TOL = 1e-6


def contour_screen(econ: EconomySpec, f: Allocation, eps: float, radius: float):
    """``(Q, keep)``: the aggregate-membership screen, along the contour normal u.

    With every agent's finite supergradient s_i at f parallel (within
    _PARALLEL_TOL relatively, with positive alpha_i = s_i.u), Q is the
    d x 1 column u = s_1/|s_1|, and ``keep(Y)`` takes the coordinates
    Y = z Q of draws from a law supported on the ball of the given radius r
    and flags the rows with (1-eps) Y >= level, where
    level = u.(sum_i f_i) - (1-eps) u.w - sum_i (MEMBER_TOL + |e_i| R_i)/alpha_i - slack,
    w the aggregate endowment, e_i = s_i - alpha_i u the computed residual and
    R_i = |w| + r + |f_i|.  Otherwise (an agent outside its domain or without
    a finite supergradient, or non-parallel supergradients) Q is d x 0 and
    every row is kept.  A row it drops is one that :func:`scitovsky_members`
    calls neither member nor indeterminate, so the pair can be handed to
    :meth:`sampling.PerturbationLaw.sample_projected_block`; the rows it
    drops are a half-line of Y, as that method requires of one column.

    The decider calls a row W = w + z member or indeterminate only when its
    computed margins at some computed split g of W (the frontier shares
    g_1 = W * share and g_2 = W - g_1, nonnegative, whose sum is W up to
    rounding) are both >= -MEMBER_TOL; a row with a negative entry is a
    miss.  In exact arithmetic concavity gives, at x_i = (1-eps) g_i - f_i,
    -MEMBER_TOL <= m_i <= s_i.x_i = alpha_i u.x_i + e_i.x_i, and
    |e_i.x_i| <= |e_i| R_i since |g_i| <= |W| <= |w| + r; dividing by alpha_i
    and summing over the agents gives (1-eps) u.z >= level + slack.  So the
    residual of the computed s_i off u, rounding or an allocation only near
    Pareto optimality, enters the level as computed, and the slack must cover
    every rounding between that bound and the computed decision.  Each
    quantity involved is a sum of at most d terms, rounded within a few
    (d + 4) eta (eta = 2^-53) times the sum of its terms' magnitudes; the
    first two are per agent and are divided by alpha_i as the bound is:

    * the computed margin m_i against the exact one at the computed split:
      |U_i(f_i)| and at most _LOG_RANGE, as in :func:`improvement_screen`
      (a power CRRA utility far from U_i(f_i) cannot be lifted to the
      threshold by more than the rounding of U_i(f_i));
    * s_i.x_i at the rounded (1-eps) g_i, s_i.f_i and s_i itself:
      ||s_i||_1 (||f_i||_inf + ||w||_inf + r);
    * u.(g_1 + g_2) against u.w + u.z, the rounding of W = w + z included:
      ||w||_1 + r;
    * the computed Y against u.z: the draw is completed as
      z = Y Q^T + P with P projected off Q twice and |P| <= r, so
      |Y - u.z| is a few (d + 4) eta r.

    So the slack
    1e-9 (sum_i (|U_i(f_i)| + _LOG_RANGE + ||s_i||_1 (||f_i||_inf + ||w||_inf + r))/alpha_i
    + ||w||_1 + r) dominates the sum on every row while 64 (d + 4) eta < 1e-9,
    that is for d below 10^5.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError("eps must lie in [0, 1)")
    w = econ.aggregate
    grads = [preferences.supergradient(a.preference, fi) if a.preference.in_domain(fi) else None
             for a, fi in zip(econ.agents, f.acts)]
    norms = [0.0 if s is None else float(np.linalg.norm(s)) for s in grads]
    level = None
    if min(norms) > 0.0:
        u = grads[0] / norms[0]
        alphas = [float(s @ u) for s in grads]
        resid = [float(np.linalg.norm(s - a * u)) for s, a in zip(grads, alphas)]
        if all(res <= _PARALLEL_TOL * n for res, n in zip(resid, norms)):
            w_inf, w_norm = float(np.abs(w).max()), float(np.linalg.norm(w))
            slack = float(np.abs(w).sum()) + radius
            level = float(u @ f.acts.sum(axis=0)) - (1.0 - eps) * float(u @ w)
            for a, fi, s, alpha, res in zip(econ.agents, f.acts, grads, alphas, resid):
                slack += _rounding_size(a.preference, fi, s, w_inf + radius) / alpha
                level -= (MEMBER_TOL + res * (w_norm + radius + float(np.linalg.norm(fi)))) / alpha
            level -= _SCREEN_SLACK * slack
    if level is None:
        return np.zeros((econ.dim, 0)), lambda Y: np.ones(len(Y), dtype=bool)

    def keep(Y):
        return ~((1.0 - eps) * Y[:, 0] < level)

    return u[:, None], keep


@dataclass(frozen=True, eq=False)
class _Frontier:
    """The two-agent common-curvature frontier of an economy at f, for margins at level eps.

    Agent 1's share of state s on the frontier depends on s only through
    c_s = log mu_1s - log mu_2s, so the states fall into the K classes of
    equal c_s (K = 2 for a spike prior against a flat one, d at worst).
    ``c`` holds the classes' log-ratios in ascending order and ``mass`` the
    two agents' prior masses on each class, (2, K); ``order`` is the stable
    sort of the states by c_s, ``starts`` the first position of each class
    in it, and ``prior`` the two priors.  ``base`` holds the
    base utilities u_i(f_i), ``q`` the shared exponent 1/gamma and
    ``scale`` 1 - eps.
    """

    c: np.ndarray
    mass: np.ndarray
    order: np.ndarray
    starts: np.ndarray
    prior: np.ndarray
    base: np.ndarray
    q: float
    scale: float

    @property
    def log(self) -> bool:
        return abs(1.0 / self.q - 1.0) < 1e-14


def _frontier(econ: EconomySpec, f: Allocation, eps: float) -> _Frontier:
    """The frontier of econ at f; every economy but two agents with common CRRA curvature is refused.

    The classes are found by a stable sort and a scan for changes of c_s
    (``np.unique`` would load ``numpy.ma`` inside a run).
    """
    q = _common_crra_exponent(econ.preferences)
    if q is None or econ.n_agents != 2:
        raise ValueError("batch margins need the 2-agent common-curvature closed form")
    M = np.array([a.preference.prior for a in econ.agents])
    c = np.log(M[0]) - np.log(M[1])
    order = np.argsort(c, kind="stable")
    c = c[order]
    starts = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
    base = np.array([utility_extended(a.preference, fi) for a, fi in zip(econ.agents, f.acts)])
    return _Frontier(c[starts], np.add.reduceat(M[:, order], starts, axis=1), order, starts, M,
                     base, q, 1.0 - eps)


def _class_sums(frontier: _Frontier, W):
    """``(S1, S2)``: the sums over the d states of each row of W that its margins need.

    Under log curvature S_i = sum_s mu_is log W_s + log(1-eps) - u_i(f_i),
    an (n,) array.  Otherwise, with p = 1 - gamma, S_i[:, u] = sum over the
    states s of class u of mu_is ((1-eps) W_s)^p, an (n, K) array.  A zero
    entry makes S_i -inf, or inf under gamma > 1, so the utility is -inf;
    a negative entry makes it nan.  The rows are read in chunks of at most
    _FRONTIER_CHUNK_VALUES values.
    """
    fr = frontier
    n, d = W.shape
    shape = (n,) if fr.log else (n, len(fr.c))
    sums = np.empty((2, *shape))
    prior = fr.prior[:, fr.order]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows in _row_chunks(n, d, _FRONTIER_CHUNK_VALUES):
            if fr.log:
                logs = np.log(W[rows])
                for i in range(2):
                    sums[i, rows] = (np.einsum("ij,j->i", logs, fr.prior[i])
                                     + (math.log(fr.scale) - fr.base[i]))
            else:
                powers = (fr.scale * np.take(W[rows], fr.order, axis=1)) ** (1.0 - 1.0 / fr.q)
                for i in range(2):
                    sums[i, rows] = np.add.reduceat(powers * prior[i], fr.starts, axis=1)
    return sums[0], sums[1]


def _expit(z):
    """The logistic function 1 / (1 + e^(-z)), elementwise.

    e^(-z) overflows to inf below z = -709, where the quotient is the 0 it
    should be, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _margins_on_frontier(frontier: _Frontier, sums, x):
    """Margins (u_i((1-eps) g_i(lam)) - u_i(f_i)) on the 2-agent CRRA frontier.

    x is an (n,) array of planner-weight logits x = logit(lam), and sums the
    rows' :func:`_class_sums`.  The frontier share of agent 1 in class u is
    s_u = expit(q [x + c_u]) and agent 2's is expit(-q [x + c_u]), its exact
    complement, which keeps the algebra stable for extreme weights and
    curvatures.  The third value is d(m1 - m2)/dx: ds_u/dx = q s_u (1 - s_u),
    so agent 1's margin rises at q sum_u (1 - s_u) s_u^p S1_u and agent 2's
    falls at q sum_u s_u (1 - s_u)^p S2_u (mass_iu for S_iu, and no power,
    under log curvature).  Every sum runs along a row, so a row's margins do
    not depend on the rows it is evaluated with.
    """
    fr = frontier
    z = fr.q * (x[:, None] + fr.c)
    s1, s2 = _expit(z), _expit(-z)
    if fr.log:
        with np.errstate(divide="ignore"):
            m1 = sums[0] + np.einsum("ij,j->i", np.log(s1), fr.mass[0])
            m2 = sums[1] + np.einsum("ij,j->i", np.log(s2), fr.mass[1])
        slope = fr.q * (np.einsum("ij,j->i", s2, fr.mass[0]) + np.einsum("ij,j->i", s1, fr.mass[1]))
    else:
        p_ = 1.0 - 1.0 / fr.q
        with np.errstate(divide="ignore", over="ignore"):
            U1 = s1**p_ * sums[0]
            U2 = s2**p_ * sums[1]
        m1 = np.einsum("ij->i", U1) / p_ - fr.base[0]
        m2 = np.einsum("ij->i", U2) / p_ - fr.base[1]
        slope = fr.q * (np.einsum("ij,ij->i", U1, s2) + np.einsum("ij,ij->i", U2, s1))
    return m1, m2, slope


def _margin_ends(m1, m2, x):
    """``(lower, upper)``: the max-min margin's ends from the margins at planner logit x."""
    return np.minimum(m1, m2), _expit(x) * m1 + _expit(-x) * m2


def _max_min_margins(frontier: _Frontier, sums, tol):
    """:func:`scitovsky_margins_batch` on the rows whose :func:`_class_sums` are ``sums``.

    diff = m1 - m2 rises with x = logit(lam), and the max-min margin sits
    where it crosses 0.  Every evaluation at x gives the margin two ends
    (Sion's minimax): lower = min(m1, m2), the smaller margin of one split,
    and upper = lam m1 + (1 - lam) m2, the largest lam-weighted margin over
    all splits, which no split's smaller margin exceeds.  A row stops once
    lower > tol (keeping lower) or upper < -tol (keeping upper): its class
    against tol is then certain.  Otherwise safeguarded Newton on x from
    x = 0, inside the bracket [_X_LO, _X_HI]: each evaluation narrows a
    row's bracket to the side the sign of diff shows.  A Newton step that
    leaves the bracket or is not finite is replaced by the bracket's end on
    that side when that end is still _X_LO or _X_HI and the row has not been
    sent to an edge before, and by the bracket midpoint otherwise; so is a
    step larger than half the row's previous one (the zigzag bound of
    Numerical Recipes' rtsafe).  So a row whose margins do not cross inside
    the bracket is evaluated at the edge where its smaller margin is
    largest, finds diff with the same sign there, and stops after two or
    three evaluations; a row that does cross is sent to an edge at most
    once.  Each pass evaluates only the rows still moving, packed together;
    a row also stops once its step is within 1e-14 (1 + |x|), tested on the
    Newton step before the bracket (a converged step can round onto the
    bracket end just set) and on its replacement, or its diff is 0 or nan
    (both margins infinite at every weight: an infinite base utility, or a
    zero entry under gamma >= 1), and keeps lower from its last evaluation.
    """
    n = len(sums[0])
    margins = np.empty(n)
    rows = np.arange(n)
    x = np.zeros(n)
    x_lo = np.full(n, _X_LO)
    x_hi = np.full(n, _X_HI)
    step = np.full(n, _X_HI - _X_LO)
    sent_to_edge = np.zeros(n, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(_NEWTON_CAP):
            m1, m2, slope = _margins_on_frontier(frontier, sums, x)
            lower, upper = _margin_ends(m1, m2, x)
            miss = upper < -tol
            margins[rows] = np.where(miss, upper, lower)
            diff = m1 - m2
            below = diff < 0
            lo = np.where(below, x, x_lo)
            hi = np.where(below, x_hi, x)
            x_new = x - diff / slope
            move = np.abs(x_new - x)
            close = move <= 1e-14 * (1.0 + np.abs(x))
            out = ~(close | ((x_new > lo) & (x_new < hi)))
            end = np.where(below, hi, lo)
            to_edge = out & ~sent_to_edge & (end == np.where(below, _X_HI, _X_LO))
            bisect = out | (~close & (move > 0.5 * step))
            x_new = np.where(to_edge, end, np.where(bisect, 0.5 * (lo + hi), x_new))
            step = np.abs(x_new - x)
            done = (step <= 1e-14 * (1.0 + np.abs(x))) | (diff == 0) | np.isnan(diff)
            done |= miss | (lower > tol)
            going = np.flatnonzero(~done)
            if not len(going):
                break
            rows, x, x_lo, x_hi, step = rows[going], x_new[going], lo[going], hi[going], step[going]
            sent_to_edge = (sent_to_edge | to_edge)[going]
            sums = (sums[0][going], sums[1][going])
    return margins


def scitovsky_margins_batch(
    econ: EconomySpec, f: Allocation, W: np.ndarray, eps: float, tol: float = math.inf
) -> np.ndarray:
    """Max-min improvement margin for each candidate aggregate row of W.

    Exact two-agent path: the utility-possibility frontier of a common-
    curvature economy is a one-parameter planner family along which agent 1's
    margin rises and agent 2's falls, so the max-min sits at their crossing,
    or at an edge of the planner weights [1e-12, 1 - 1e-12] when they do
    not cross there; :func:`_max_min_margins` finds it.  With a finite
    ``tol`` a row's margin is exact only as far as its class against tol:
    the solver stops a row once its lower end exceeds tol or its upper end
    is below -tol, and returns that end.  A row with a negative entry has
    no nonnegative split: its margin is -inf.  The frontier is set up once
    per call, each row's class sums are taken once, and Newton then runs
    on chunks of rows whose class sums hold at most _FRONTIER_CHUNK_VALUES
    values, so each evaluation costs O(K) per row.  A row's margin does not
    depend on the other rows of W.
    """
    W = np.atleast_2d(np.ascontiguousarray(W, dtype=float))
    frontier = _frontier(econ, f, eps)
    margins = np.full(len(W), -np.inf)
    for rows in _row_chunks(len(W), len(frontier.c), _FRONTIER_CHUNK_VALUES):
        live = np.flatnonzero(np.all(W[rows] >= 0, axis=1))
        sums = _class_sums(frontier, W[rows])
        margins[rows.start + live] = _max_min_margins(frontier, (sums[0][live], sums[1][live]), tol)
    return margins


# The frontier holds at most this many values per array (128 KiB of float64):
# the class sums are taken over chunks of rows of at most this many states, and
# Newton runs on chunks of rows whose (rows, K) class sums hold at most this many.
_FRONTIER_CHUNK_VALUES = 1 << 14


def scitovsky_members(econ: EconomySpec, f: Allocation, W: np.ndarray, eps: float):
    """``(member, indeterminate)``: boolean flags per candidate aggregate row of W.

    A row is a member when its max-min margin (:func:`scitovsky_margins_batch`)
    exceeds MEMBER_TOL and indeterminate when the margin's size is at most
    MEMBER_TOL.  The margins are solved only as far as these classes need
    (``tol = MEMBER_TOL``): a row stops at the first planner weight whose
    two ends settle it, most at the first, lam = 1/2, where the upper end is
    the mean margin (m1 + m2)/2.  A row with a negative entry (no
    nonnegative split exists) is a miss, and one whose margins are nan (an
    infinite base utility) is neither member nor indeterminate.
    """
    m = scitovsky_margins_batch(econ, f, W, eps, MEMBER_TOL)
    return m > MEMBER_TOL, np.abs(m) <= MEMBER_TOL


def scitovsky_member_grid(econ: EconomySpec, f: Allocation, w: np.ndarray, eps: float) -> bool:
    """Brute-force membership for 2-agent, 2-state economies on a grid of splits."""
    if econ.n_agents != 2 or econ.dim != 2:
        raise ValueError("grid oracle covers 2 agents x 2 states only")
    w = np.asarray(w, dtype=float)
    xs = np.linspace(0.0, w[0], _MEMBER_GRID)
    ys = np.linspace(0.0, w[1], _MEMBER_GRID)
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


def cru(econ: EconomySpec, f: Allocation) -> float:
    """Coefficient of resource utilization: smallest beta with beta*1 still improving f.

    Requires aggregate endowment exactly 1 in every state, and the two-agent
    common-curvature economy that :func:`scitovsky_members` decides (other
    economies raise its ValueError at the first membership test).  Bisection
    on that decider's member flag along the symmetric ray, so each scaling
    is solved only until its class is certain; Pareto-optimal allocations
    return exactly 1.0.  Allocations dominated by arbitrarily small
    aggregate scalings are degenerate and raise an error.
    """
    if not econ.no_aggregate_uncertainty or np.abs(econ.aggregate - 1.0).max() > FEASIBILITY_TOL:
        raise ValueError("resource-utilization decider needs aggregate endowment = 1 per state")
    ones = np.ones(econ.dim)

    def member(beta: float) -> bool:
        return scitovsky_members(econ, f, (beta * ones)[None, :], 0.0)[0][0]

    if not member(1.0):
        return 1.0
    lo = 0.01
    if member(lo):
        raise ValueError("degenerate allocation: dominated by arbitrarily small aggregates")
    hi = 1.0
    while hi - lo > _CRU_TOL:
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


def belief_sets(econ: EconomySpec, f: Allocation) -> list[geometry.Polytope]:
    """Each agent's belief set (:func:`preferences.belief_set`) at its act in f."""
    return [preferences.belief_set(a.preference, fi) for a, fi in zip(econ.agents, f.acts)]


def belief_volume_split(sets: Sequence[geometry.Polytope], J: list[int]) -> BeliefVolumeSplit:
    """Exact relative simplex volumes of the two coalition belief-set intersections.

    ``sets`` holds the agents' belief sets at one allocation
    (:func:`belief_sets`).  B_J is the intersection of the belief sets of
    the agents in J (B_Jc for the complement), and each volume is its share
    of the simplex by
    :func:`geometry.relative_volume`: 0.0 when a belief set is
    lower-dimensional (a proper face of a cap, a single prior), the
    Beta(1, d-1) mass of the slab for caps and slabs on one coordinate, and
    ValueError for any other intersection.
    """
    J, n = sorted(set(J)), len(sets)
    if not J or not all(0 <= j < n for j in J) or len(J) == n:
        raise ValueError("J must be a proper nonempty subset of the agents")
    Jc = [i for i in range(n) if i not in J]
    return BeliefVolumeSplit(geometry.relative_volume([sets[i] for i in J]),
                             geometry.relative_volume([sets[i] for i in Jc]))
