"""Full-size acceptance runs: one test per numbered criterion.

Each test evaluates its criterion at the default experiment sizes, records a
PASS/FAIL line through ``record_criterion`` (printed in the "acceptance
criteria" section at the end of the pytest run), then asserts.  The stated
tolerance appears both in the recorded line and in the assert message.

This is the slow module of the suite: the default-size runs take a couple of
minutes in total, dominated by the support-check and belief-extension runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from risklab import bounds, economy, experiments, geometry, sampling

# criterion 3: frontier solver vs brute-force grid
GRID_POINTS = 200
GRID_DRAWS = 500
GRID_SEED = 904
GRID_EPS = 0.1

# criterion 4: a nearly risk-neutral economy where a coin-flip perturbation
# helps about half the time, so the measured probability must be interior
NEAR_NEUTRAL_CONFIG = """\
experiment = thm2
seed = 31
trials = 10000
dims = 2
eps = 0.01
allocation = planner
agent.preference = crra
agent.gamma = 0.05
agent.prior = spike:0:0.7
agent.endowment = equal-share
agent.preference = crra
agent.gamma = 0.05
agent.prior = uniform
agent.endowment = equal-share
"""

PREFACTOR_PEAK = 1.956367206041929  # max over d of the root-volume prefactor, at d = 4


@pytest.fixture(scope="module")
def thm1_full():
    return experiments.run_experiment(experiments.default_config("thm1"))


@pytest.fixture(scope="module")
def thm2_full():
    return experiments.run_experiment(experiments.default_config("thm2"))


@pytest.fixture(scope="module")
def cru_full():
    return experiments.run_experiment(experiments.default_config("cru"))


@pytest.fixture(scope="module")
def prop3_full():
    return experiments.run_experiment(experiments.default_config("prop3"))


@pytest.fixture(scope="module")
def checks_full():
    return experiments.run_experiment(experiments.default_config("checks"))


def test_criterion_1_closed_form_anchor_values(record_criterion):
    t0 = time.perf_counter()
    anchors = experiments.reproduce_paper_anchors()
    rendered = [f"{value:.4g}" for _, value, _ in anchors]
    notes = [note for _, _, note in anchors]
    elapsed = time.perf_counter() - t0
    ok = (
        rendered[0] == "0.006738"
        and rendered[1] == "0.002085"
        and notes[0] == "= 0.67%"
        and notes[1] == "= 0.21%"
        and 1.0 < anchors[2][1] < math.exp(0.5)
        and elapsed < 1.0
    )
    record_criterion(
        1, "closed-form anchors reproduce the quoted decimals", ok,
        "exact %.4g strings; density ratio below e^(r^2/2); < 1 s",
    )
    assert ok, f"rendered={rendered}, notes={notes}, kappa={anchors[2][1]}, {elapsed:.2f}s"


def test_criterion_2_individual_improvement_within_bounds(record_criterion, thm1_full):
    rows = thm1_full.rows
    errors = [r["error"] for r in rows if r["error"]]
    within = all(r["within_bound"] is True for r in rows)
    p_hats = [r["p_hat"] for r in rows]
    decreasing = all(a > b for a, b in zip(p_hats, p_hats[1:]))
    in_time = thm1_full.wall_time_s < 300.0
    ok = not errors and within and decreasing and in_time
    record_criterion(
        2, "individual-improvement tails sit within their bounds and fall with d", ok,
        "Wilson 95% CI low end <= bound per cell; strict decrease; < 300 s",
    )
    assert ok, (
        f"errors={errors}, within={within}, p_hats={p_hats}, "
        f"wall={thm1_full.wall_time_s:.1f}s"
    )


def _log_utility_grid(mu, x0, x1):
    with np.errstate(divide="ignore"):
        return mu[0] * np.log(x0) + mu[1] * np.log(x1)


def _grid_member(econ, base, w, eps):
    """Brute force: scan a GRID_POINTS^2 lattice of splits of the aggregate w."""
    if np.any(w < 0.0):
        return False
    g0 = np.linspace(0.0, w[0], GRID_POINTS)
    g1 = np.linspace(0.0, w[1], GRID_POINTS)
    a0, a1 = np.meshgrid(g0, g1, indexing="ij")
    scale = 1.0 - eps
    u1 = _log_utility_grid(econ.agents[0].preference.prior, scale * a0, scale * a1)
    u2 = _log_utility_grid(
        econ.agents[1].preference.prior, scale * (w[0] - a0), scale * (w[1] - a1)
    )
    margin = np.minimum(u1 - base[0], u2 - base[1])
    return bool(margin.max() > economy.MEMBER_TOL)


def test_criterion_3_aggregate_improvement_and_grid_cross_check(record_criterion, thm2_full):
    rows_ok = all(r["error"] is None and r["within_bound"] is True for r in thm2_full.rows)

    cfg = experiments.default_config("thm2")
    econ = experiments.build_economy(cfg, 2, no_agg=True)
    f, _ = experiments.resolve_allocation(cfg, econ)
    base = [a.preference.utility(f.acts[i]) for i, a in enumerate(econ.agents)]
    law = sampling.PerturbationLaw("uniform-ball", 2, 1.0)
    W = econ.aggregate[None, :] + law.sample(GRID_DRAWS, GRID_SEED)
    exact = economy.scitovsky_margins_batch(econ, f, W, GRID_EPS) > economy.MEMBER_TOL
    grid = np.array([_grid_member(econ, base, w, GRID_EPS) for w in W])
    agreement = float(np.mean(exact == grid))
    in_time = thm2_full.wall_time_s < 600.0
    ok = rows_ok and agreement >= 0.99 and in_time
    record_criterion(
        3, "aggregate-improvement tails within bounds; frontier solver matches the grid", ok,
        ">= 99% agreement with a 200x200 split grid on 500 draws; CI low end <= bound; < 600 s",
    )
    assert ok, (
        f"rows_ok={rows_ok}, agreement={agreement:.4f}, wall={thm2_full.wall_time_s:.1f}s"
    )


def test_criterion_4_near_risk_neutral_probability_is_interior(record_criterion):
    res = experiments.run_experiment(experiments.parse_config_text(NEAR_NEUTRAL_CONFIG))
    (row,) = res.rows
    ok = (
        row["error"] is None
        and 0.40 <= row["p_hat"] <= 0.50
        and res.wall_time_s < 30.0
    )
    record_criterion(
        4, "near-risk-neutral tiny-eps improvement probability stays interior", ok,
        "p_hat within [0.40, 0.50] at 10^4 draws; < 30 s",
    )
    assert ok, f"p_hat={row['p_hat']!r}, error={row['error']!r}, wall={res.wall_time_s:.1f}s"


def test_criterion_5_utilization_coefficient_matches_oracle(record_criterion, cru_full):
    (row,) = cru_full.rows
    # each agent's crossed act (0.8, 0.2) under the uniform prior has
    # certainty equivalent exp(mean log) = 0.4; the scaled aggregate that just
    # funds both certainty equivalents is 2 * 0.4 = 0.8 of the endowment
    oracle = 2.0 * math.exp(0.5 * math.log(0.8) + 0.5 * math.log(0.2))
    ok = (
        row["error"] is None
        and abs(row["beta"] - oracle) <= 1e-4
        and row["within_bound"] is True
        and cru_full.wall_time_s < 10.0
    )
    record_criterion(
        5, "resource-utilization coefficient matches the certainty-equivalent oracle", ok,
        "|beta - 0.8| <= 1e-4; tail within bound; < 10 s",
    )
    assert ok, f"beta={row['beta']!r}, oracle={oracle}, wall={cru_full.wall_time_s:.1f}s"


def test_criterion_6_ball_cap_tails_match_exact_law(record_criterion, checks_full):
    rows = [r for r in checks_full.rows if r["family"] == "lemma1"]
    failed = [r["check"] for r in rows if r["passed"] is not True]
    ok = len(rows) >= 15 and not failed and checks_full.wall_time_s < 45.0
    record_criterion(
        6, "uniform-ball cap tails match the exact law and lie below the lemma1 bound "
        "in every dimension/threshold cell", ok,
        "|p_hat - exact| <= 5 SE and empirical tail <= bound at 10^6 draws per cell; < 45 s",
    )
    assert ok, (
        f"cells={len(rows)}, failed={failed}, wall={checks_full.wall_time_s:.1f}s"
    )


def test_criterion_7_density_ratio_strictly_below_ceiling(record_criterion):
    t0 = time.perf_counter()
    ok = True
    worst = (0, 0.0, 0.0)
    for r in (0.5, 1.0, 2.0):
        ceiling = math.exp(0.5 * r * r)
        for d in range(1, 51):
            k = sampling.gaussian_kappa_ratio(d, r)
            if not (1.0 <= k < ceiling):
                ok = False
                worst = (d, r, k)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    record_criterion(
        7, "restricted-Gaussian density ratio stays strictly below e^(r^2/2)", ok,
        "strict inequality for d = 1..50, r in {0.5, 1, 2}; < 5 s",
    )
    assert ok, f"first violation (d, r, kappa)={worst}, {elapsed:.2f}s"


def test_criterion_8_volume_inequality_on_random_boxes(record_criterion):
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260816)
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        lo_a = rng.uniform(-1.0, 1.0, d)
        lo_b = rng.uniform(-1.0, 1.0, d)
        A = geometry.Box(lo_a, lo_a + rng.uniform(0.05, 2.0, d))
        B = geometry.Box(lo_b, lo_b + rng.uniform(0.05, 2.0, d))
        res = geometry.bm_check(A, B, float(0.05 + 0.9 * rng.random()))
        if not res.holds or res.lhs_root < res.rhs_root * (1.0 - 1e-12):
            violations += 1
    equality_misses = 0
    for _ in range(50):
        d = int(rng.integers(1, 7))
        lo = rng.uniform(-1.0, 1.0, d)
        side = rng.uniform(0.1, 1.5, d)
        c = float(rng.uniform(0.3, 2.5))
        shift = rng.uniform(-1.0, 1.0, d)
        A = geometry.Box(lo, lo + side)
        B = geometry.Box(shift + c * lo, shift + c * (lo + side))
        if not geometry.bm_check(A, B, 0.37, rel_tol=1e-9).root_equality:
            equality_misses += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and equality_misses == 0 and elapsed < 5.0
    record_criterion(
        8, "root-volume inequality holds on random boxes, with homothetic equality", ok,
        "0 violations in 1000 pairs; homothetic equality within rel 1e-9; < 5 s",
    )
    assert ok, f"violations={violations}, equality_misses={equality_misses}, {elapsed:.2f}s"


def test_criterion_9_belief_extension_emptiness_and_volume_trend(record_criterion, prop3_full):
    rows = prop3_full.rows
    dominated = [r for r in rows if r["phase"] == "dominated"]
    constant = sorted((r for r in rows if r["phase"] == "constant"), key=lambda r: r["d"])
    errors = [r["error"] for r in rows if r["error"]]
    modes = {r["rho_mode"] for r in dominated}
    all_empty = all(r["empty_intersection"] is True for r in dominated)
    vol_cap = all(r["min_rel_vol"] <= 0.5 for r in rows)
    # faces of the caps at the traded acts have volume exactly 0, and the
    # constant-act caps {mu_0 >= cap_high}, {mu_0 <= cap_low} their Beta tails
    faces_zero = all(r["vol_J"] == r["vol_Jc"] == 0.0 for r in dominated)
    cfg = prop3_full.config

    def within_4_ulp(value, exact):
        return abs(value - exact) <= 4 * math.ulp(exact)

    caps_exact = all(
        within_4_ulp(r["vol_J"], (1 - cfg.cap_high) ** (r["d"] - 1))
        and within_4_ulp(r["vol_Jc"], 1 - (1 - cfg.cap_low) ** (r["d"] - 1))
        for r in constant
    )
    vols = [r["min_rel_vol"] for r in constant]
    monotone = all(a > b for a, b in zip(vols, vols[1:]))
    in_time = prop3_full.wall_time_s < 30.0
    ok = (
        not errors
        and modes == {"definitional", "paper"}
        and all_empty
        and vol_cap
        and faces_zero
        and caps_exact
        and len(constant) == 10
        and monotone
        and in_time
    )
    record_criterion(
        9, "extended belief sets never meet at dominated trades; minority volume shrinks", ok,
        "certified emptiness per row; min_rel_vol <= 0.5; face volumes 0; cap volumes exact "
        "within 4 ulp; strict volume decrease; < 30 s",
    )
    assert ok, (
        f"errors={errors}, modes={modes}, all_empty={all_empty}, vol_cap={vol_cap}, "
        f"faces_zero={faces_zero}, caps_exact={caps_exact}, "
        f"constant_vols={vols}, wall={prop3_full.wall_time_s:.1f}s"
    )


def test_criterion_10_isoperimetric_prefactor_bounded(record_criterion):
    t0 = time.perf_counter()
    below_4 = bounds.prop7_prefactor_below_4(10**6)
    at_1 = float(bounds.prop7_prefactor(1))
    grid = bounds.prop7_prefactor(np.arange(1, 101))
    peak_d = int(np.argmax(grid)) + 1
    peak = float(grid[peak_d - 1])
    slack_ok = True
    for d in (2, 3, 5, 8, 13, 21):
        chk = bounds.width_floor_ball_instance(d, 0.2)
        target = -(d - 1) * math.log(math.sqrt(3.0) - 1.0)
        slack_ok = slack_ok and chk.holds and abs(chk.slack_log - target) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = (
        below_4
        and abs(at_1 - 1.0) <= 1e-14
        and peak_d == 4
        and math.isclose(peak, PREFACTOR_PEAK, rel_tol=1e-12)
        and slack_ok
        and elapsed < 10.0
    )
    record_criterion(
        10, "volume-floor prefactor stays below 4, peaks at d = 4, and ball slack is exact", ok,
        "prefactor <= 4 for d <= 10^6; peak 1.956367206041929 rel 1e-12; slack abs 1e-9; < 10 s",
    )
    assert ok, (
        f"below_4={below_4}, at_1={at_1!r}, peak_d={peak_d}, peak={peak!r}, "
        f"slack_ok={slack_ok}, {elapsed:.2f}s"
    )


def test_criterion_11_byte_identical_results(record_criterion, tmp_path):
    cfg = replace(experiments.default_config("thm1"), seed=42, trials=40_000, dims=(2, 8))
    runs = [experiments.run_experiment(replace(cfg, threads=t)) for t in (1, 1, 4)]
    texts = [r.csv_text for r in runs]
    in_memory = texts[0] == texts[1] == texts[2]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    runs[0].write(dir_a)
    runs[2].write(dir_b)
    on_disk = (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()
    ok = in_memory and on_disk
    record_criterion(
        11, "repeated runs and different thread counts give byte-identical results.csv", ok,
        "exact byte equality, threads in {1, 4}",
    )
    assert ok, f"in_memory={in_memory}, on_disk={on_disk}"
