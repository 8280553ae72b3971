"""Config parsing, CSV/manifest plumbing, experiment runners, and the CLI.

Runner tests shrink the built-in default configs with dataclasses.replace so
this module stays fast; the full-size default runs live in test_acceptance.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from risklab import cli, economy, experiments, geometry, preferences, sampling

SMOKE_TRIALS = 200

THM1_COLUMNS = [
    "experiment", "d", "eps", "tau", "r", "kappa", "n", "hits",
    "p_hat", "ci_low", "ci_high", "bound", "within_bound", "error",
]
THM2_COLUMNS = [
    "experiment", "d", "eps", "r", "kappa", "n", "n_accepted", "hits",
    "indeterminate", "conditioned", "p_hat", "ci_low", "ci_high",
    "bound", "within_bound", "error",
]
CRU_COLUMNS = [
    "experiment", "d", "beta", "improvement", "r", "n", "n_accepted", "hits",
    "indeterminate", "p_hat", "ci_low", "ci_high", "bound", "within_bound", "error",
]
PROP3_COLUMNS = [
    "experiment", "phase", "d", "eps", "rho_mode", "rho", "delta", "dist",
    "empty_intersection", "vol_J", "vol_Jc", "min_rel_vol",
    "bound_c0.5", "bound_c1", "bound_c2", "within_bound", "error",
]
CHECKS_COLUMNS = ["family", "check", "passed", "detail"]


def _small(experiment_id, **overrides):
    return replace(experiments.default_config(experiment_id), **overrides)


def _manifest_dict(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("experiment_id,seed", [
    ("thm1", 1733), ("thm2", 744), ("cru", 55), ("prop3", 99), ("checks", 7),
])
def test_default_configs_parse(experiment_id, seed):
    cfg = experiments.default_config(experiment_id)
    assert cfg.experiment_id == experiment_id
    assert cfg.seed == seed


def test_parse_is_deterministic_and_sha_tracks_content():
    text = experiments.EXPERIMENTS["thm1"].default_text
    a = experiments.parse_config_text(text)
    b = experiments.parse_config_text(text)
    assert a == b
    assert a.sha256() == b.sha256()
    c = replace(a, seed=a.seed + 1)
    assert c.sha256() != a.sha256()


@pytest.mark.parametrize("experiment_id", sorted(experiments.EXPERIMENTS))
def test_default_canonical_text_parses_back(experiment_id):
    cfg = experiments.default_config(experiment_id)
    assert experiments.parse_config_text(cfg.canonical_text()) == cfg


def test_sha_distinguishes_nearby_floats():
    a = experiments.default_config("thm1")
    assert replace(a, eps_list=(0.1000001,)).sha256() != a.sha256()
    assert replace(a, radius=1.0000004).sha256() != a.sha256()


# values for every key a family may set, other than experiment and out
_FLOATS = st.floats(min_value=1e-9, max_value=1e6, allow_nan=False)
_KEY_VALUES = {
    "seed": st.integers(0, 2**64 - 1),
    "trials": st.integers(100, 10**8),
    "dims": st.lists(st.integers(1, 4096), min_size=1, max_size=5).map(tuple),
    "eps": st.lists(_FLOATS, min_size=1, max_size=3).map(tuple),
    "radius": _FLOATS,
    "law": st.sampled_from(["uniform-ball", "restricted-gaussian"]),
    "threads": st.integers(1, 64),
    "allocation": st.sampled_from(
        ["equilibrium", "planner", "equal-split", "literal:0.8,0.2|0.2,0.8"]),
    "condition_positive_price": st.booleans(),
    "max_dim": st.integers(1, 4096),
    "n_economies": st.integers(1, 10**4),
    "family_trials": st.integers(100, 10**8),
    "cap_high": _FLOATS,
    "cap_low": _FLOATS,
    "c_values": st.lists(_FLOATS, min_size=1, max_size=4).map(tuple),
}
# each kind sets only the keys it takes: gamma for crra, bernoulli for maxmin
_KIND_KEYS = {
    "cobb-douglas": {},
    "crra": {"gamma": _FLOATS},
    "maxmin": {"bernoulli": st.sampled_from(["linear", "log"])},
}
_AGENTS = st.lists(st.sampled_from(sorted(_KIND_KEYS)).flatmap(lambda kind: st.builds(
    experiments.AgentTemplate,
    kind=st.just(kind),
    prior=st.sampled_from(["uniform", "spike:0:0.9", "0.25,0.75", "cap:ge:0:0.4"]),
    endowment=st.sampled_from(["ones", "equal-share", "1,2"]),
    **_KIND_KEYS[kind],
)), max_size=3).map(tuple)


@st.composite
def _configs(draw, experiment_id):
    """A config of one family that sets only that family's own keys."""
    exp = experiments.EXPERIMENTS[experiment_id]
    values = draw(st.fixed_dictionaries(
        {key: _KEY_VALUES[key] for key in sorted(exp.keys - {"experiment", "out"})}))
    return experiments.ExperimentConfig(
        experiment_id=draw(st.sampled_from((exp.id, *exp.aliases))),
        agents=draw(_AGENTS) if exp.agents else (),
        **{experiments.CONFIG_FIELDS[key].attr: value for key, value in values.items()},
    )


_FAMILY_CONFIGS = st.sampled_from(sorted(experiments.EXPERIMENTS)).flatmap(_configs)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(_FAMILY_CONFIGS)
def test_canonical_text_round_trips(cfg):
    assert experiments.parse_config_text(cfg.canonical_text()) == cfg


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(_FAMILY_CONFIGS, _FAMILY_CONFIGS)
def test_distinct_configs_have_distinct_hashes(a, b):
    assume(a != b)
    assert a.sha256() != b.sha256()


def test_canonical_text_covers_agents():
    cfg = experiments.default_config("thm1")
    text = cfg.canonical_text()
    assert text.count("agent.preference = cobb-douglas") == 3
    assert "seed = 1733" in text


def test_comments_and_blank_lines_are_ignored():
    cfg = experiments.parse_config_text(
        "# a full-line comment\n"
        "\n"
        "experiment = checks   # trailing comment\n"
        "seed = 12\n"
    )
    assert cfg.experiment_id == "checks"
    assert cfg.seed == 12


@pytest.mark.parametrize("text,match", [
    ("experiment = thm1\n", "explicit seed"),
    ("seed = 1\n", "must set experiment"),
    ("experiment = nope\nseed = 1\n", "unknown experiment id"),
    ("experiment = thm1\nseed = 1\nfoo = 2\n", "unknown key 'foo'"),
    ("seed = 1\nseed = 2\nexperiment = thm1\n", "duplicate key"),
    ("experiment thm1\n", "expected key = value"),
    ("experiment = thm1\nseed = 1\nagent.prior = uniform\n",
     "before agent.preference"),
    ("experiment = thm1\nseed = 1\nagent.preference = cobb-douglas\n"
     "agent.colour = red\n", "unknown agent key"),
    ("experiment = cru\nseed = 1\neps = 0.1\n", "does not recognize key 'eps'"),
    ("experiment = checks\nseed = 1\ndims = 2\n", "does not recognize key 'dims'"),
    ("experiment = prop3\nseed = 1\nagent.preference = cobb-douglas\n",
     "constructs its own agents"),
    ("experiment = thm2\nseed = 1\ncondition_positive_price = maybe\n",
     "expected a boolean"),
    ("experiment = thm1\nseed = 1\ntrials = 50\n", "trials must be >= 100"),
])
def test_config_errors(text, match):
    with pytest.raises(ValueError, match=match):
        experiments.parse_config_text(text)


@pytest.mark.parametrize("kind,key,value", [
    ("cobb-douglas", "gamma", "4.0"),
    ("maxmin", "gamma", "0.5"),
    ("cobb-douglas", "bernoulli", "log"),
    ("crra", "bernoulli", "log"),
])
def test_agent_key_without_effect_is_refused(kind, key, value):
    text = f"experiment = thm1\nseed = 1\nagent.preference = {kind}\nagent.{key} = {value}\n"
    with pytest.raises(ValueError, match=f"agent.{key} has no effect on a {kind} agent"):
        experiments.parse_config_text(text)
    # the default value is accepted, so default texts and their hashes hold
    default = {"gamma": "1.0", "bernoulli": "linear"}[key]
    experiments.parse_config_text(text.replace(f"= {value}", f"= {default}"))


@pytest.mark.parametrize("block,key", [
    pytest.param("agent.preference = cobb-douglass\n", "preference", id="unknown-kind"),
    pytest.param("agent.preference = crra\nagent.gamma = -0.5\n", "gamma", id="negative-gamma"),
    pytest.param("agent.preference = crra\nagent.gamma = inf\n", "gamma", id="infinite-gamma"),
    pytest.param("agent.preference = crra\nagent.gamma = nan\n", "gamma", id="nan-gamma"),
    pytest.param("agent.preference = maxmin\nagent.prior = cap:ge:0:0.4\n"
                 "agent.bernoulli = logs\n", "bernoulli", id="unknown-bernoulli"),
])
def test_bad_agent_values_are_refused_at_parse_time(block, key, tmp_path):
    text = ("experiment = thm1\nseed = 1\ntrials = 200\ndims = 2\n" + block
            + "agent.preference = cobb-douglas\n")
    with pytest.raises(ValueError, match=f"agent.{key} must be"):
        experiments.parse_config_text(text)
    (tmp_path / "bad.txt").write_text(text)
    rc = cli.main(["thm1", "--config", str(tmp_path / "bad.txt"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_out_of_range_seed_is_refused_at_parse_time(seed, tmp_path, capsys):
    with pytest.raises(ValueError, match="64-bit unsigned"):
        experiments.parse_config_text(f"experiment = thm1\nseed = {seed}\n")
    rc = cli.main(["thm1", "--seed", str(seed), "--trials", "200", "--dims", "2",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "64-bit unsigned" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_spike_prior_state_outside_the_cell_dimension_is_an_error_row():
    cfg = experiments.parse_config_text(
        "experiment = thm1\nseed = 5\ntrials = 200\ndims = 2,8\n"
        "agent.preference = cobb-douglas\nagent.prior = spike:5:0.9\n"
        "agent.preference = cobb-douglas\nagent.prior = uniform\n"
    )
    d2, d8 = experiments.run_experiment(cfg).rows
    assert "spike state 5" in d2["error"] and "p_hat" not in d2
    assert d8["error"] is None and 0 <= d8["p_hat"] <= 1
    # the default agents spike state 0, which exists at d = 1, but a single
    # state leaves no mass to spread: (1 - p)/(d - 1) has no value there
    for experiment in ("thm1", "thm2"):
        cfg = replace(experiments.default_config(experiment), trials=200, dims=(1, 2))
        rows = experiments.run_experiment(cfg).rows
        assert {row["d"] for row in rows} == {1, 2}
        for row in rows:
            if row["d"] == 1:
                assert "at least 2 states" in row["error"] and "p_hat" not in row
            else:
                assert row["error"] is None and 0 <= row["p_hat"] <= 1
    with pytest.raises(ValueError, match="spike state -1"):
        experiments.AgentTemplate("cobb-douglas", prior="spike:-1:0.9")._prior_vector(8)


def test_thm1_cell_outside_an_agents_domain_is_an_error_row(tmp_path):
    # agent 0 holds nothing in state 1, where log utility has no value
    cfg = experiments.parse_config_text(
        "experiment = thm1\nseed = 5\ntrials = 200\ndims = 2\n"
        "allocation = literal:2,0|0,2\n"
        "agent.preference = cobb-douglas\nagent.preference = cobb-douglas\n"
    )
    (row,) = experiments.run_experiment(replace(cfg, out_dir=str(tmp_path / "o"))).rows
    assert "domain violation" in row["error"] and "p_hat" not in row
    assert (tmp_path / "o" / "results.csv").exists()


# ---------------------------------------------------------------------------
# CSV and manifest plumbing
# ---------------------------------------------------------------------------


def test_csv_formatting_rules():
    columns = ["f", "b", "missing", "i", "s"]
    rows = [{"f": 0.1, "b": True, "missing": None, "i": 7, "s": "x"}]
    text = experiments.rows_to_csv(columns, rows)
    assert text == "f,b,missing,i,s\n0.10000000000000001,true,,7,x\n"
    assert experiments.rows_to_csv(["a"], [{"b": 1}]) == "a\n\n"


def test_csv_text_with_comma_and_newline_stays_one_field():
    text = experiments.rows_to_csv(["i", "s", "j"], [{"i": 1, "s": "a, b\nc", "j": 2}])
    assert text == "i,s,j\n1,a; b c,2\n"


def test_manifest_hashes_and_layout(tmp_path):
    cfg = _small("thm1", trials=SMOKE_TRIALS, dims=(2,))
    res = experiments.run_experiment(cfg)
    man = _manifest_dict(res.manifest_text())
    assert man["schema"] == experiments.SCHEMA_VERSION
    assert man["experiment"] == "thm1"
    assert man["config_sha256"] == cfg.sha256()
    assert man["results_sha256"] == hashlib.sha256(res.csv_text.encode()).hexdigest()
    assert man["columns"] == ",".join(THM1_COLUMNS)
    assert man["rows"] == "1"
    assert man["plotdata"] == ",".join(sorted(res.plotdata))
    assert res.manifest_text().splitlines()[-1].startswith("wall_time_s = ")

    out = res.write(tmp_path / "run")
    assert (out / "results.csv").read_text() == res.csv_text
    assert (out / "manifest.txt").exists()
    written = sorted(p.name for p in (out / "plotdata").iterdir())
    assert written == sorted(res.plotdata)
    assert written == ["thm1_bound.csv", "thm1_ci_high.csv", "thm1_p_hat.csv"]


def test_config_txt_replays_the_run(tmp_path):
    cfg = _small("thm1", trials=SMOKE_TRIALS, dims=(2,), eps_list=(0.1000001,),
                 out_dir=str(tmp_path / "a"))
    first = experiments.run_experiment(cfg)
    text = (tmp_path / "a" / "config.txt").read_text()
    assert text == cfg.canonical_text()
    man = _manifest_dict((tmp_path / "a" / "manifest.txt").read_text())
    assert man["config_sha256"] == hashlib.sha256(text.encode()).hexdigest()
    replayed = experiments.load_config(tmp_path / "a" / "config.txt")
    assert replayed == replace(cfg, out_dir=None)
    assert experiments.run_experiment(replayed).csv_text == first.csv_text


def test_run_experiment_writes_when_out_dir_set(tmp_path):
    cfg = _small("thm1", trials=SMOKE_TRIALS, dims=(2,), out_dir=str(tmp_path / "auto"))
    experiments.run_experiment(cfg)
    assert (tmp_path / "auto" / "results.csv").exists()
    assert (tmp_path / "auto" / "manifest.txt").exists()


# ---------------------------------------------------------------------------
# runners (shrunk configs)
# ---------------------------------------------------------------------------


def test_thm1_smoke_row_shape():
    res = experiments.run_experiment(_small("thm1", trials=SMOKE_TRIALS, dims=(2, 8)))
    assert res.columns == THM1_COLUMNS
    assert [r["d"] for r in res.rows] == [2, 8]
    for row in res.rows:
        assert row["error"] is None
        assert row["experiment"] == "thm1"
        assert row["n"] == SMOKE_TRIALS
        assert 0 <= row["hits"] <= row["n"]
        assert 0.0 <= row["ci_low"] <= row["p_hat"] <= row["ci_high"] <= 1.0
        assert row["bound"] > 0
        assert row["tau"] == 1.0  # unit endowments in the default config


def test_thm2_smoke_row_shape():
    res = experiments.run_experiment(_small("thm2", trials=SMOKE_TRIALS, dims=(2,)))
    assert res.columns == THM2_COLUMNS
    assert len(res.rows) == 2  # one per eps in the default sweep
    for row in res.rows:
        assert row["error"] is None
        assert row["conditioned"] is False
        assert row["n_accepted"] == row["n"] == SMOKE_TRIALS
        assert row["indeterminate"] == 0
        assert 0.0 <= row["p_hat"] <= 1.0


def test_thm2_conditioning_doubles_bound_and_filters_draws():
    base = _small("thm2", trials=1000, dims=(2,))
    plain = experiments.run_experiment(base)
    cond = experiments.run_experiment(replace(base, condition_positive_price=True))
    for rp, rc in zip(plain.rows, cond.rows):
        assert (rp["d"], rp["eps"]) == (rc["d"], rc["eps"])
        assert rc["conditioned"] is True
        assert rc["bound"] == 2.0 * rp["bound"]
        assert rc["n_accepted"] < rc["n"]  # a positive-price cut discards draws


def test_cru_smoke_identities():
    res = experiments.run_experiment(_small("cru", trials=500))
    assert res.columns == CRU_COLUMNS
    (row,) = res.rows
    assert row["error"] is None
    assert 0.0 < row["beta"] < 1.0
    assert math.isclose(row["improvement"], 1.0 - row["beta"] ** 2, rel_tol=1e-12)
    assert math.isclose(row["beta"], 0.8, abs_tol=1e-3)
    assert "cru_bound_vs_d.csv" in res.plotdata


def test_prop3_smoke_phases_and_columns():
    cfg = _small("prop3", trials=1000, n_economies=2, family_trials=1000, dims=(3, 4))
    res = experiments.run_experiment(cfg)
    assert res.columns == PROP3_COLUMNS
    dominated = [r for r in res.rows if r["phase"] == "dominated"]
    constant = [r for r in res.rows if r["phase"] == "constant"]
    # 2 economies x 2 rho modes, then per swept d: 2 modes + 1 volume row
    assert len(dominated) == 2 * 2 + 2 * 2
    assert len(constant) == 2
    for row in dominated:
        assert row["error"] is None
        assert row["empty_intersection"] is True
        assert row["rho"] > 0
        assert math.isclose(row["delta"], row["eps"] / row["rho"], rel_tol=1e-12)
        assert row["rho_mode"] in ("definitional", "paper")
    for row in constant:
        assert row["rho_mode"] is None
        assert row["min_rel_vol"] <= 0.5
    assert set(res.plotdata) == {"thm4_min_rel_vol.csv", "thm4_bound_c1.csv"}


def test_checks_smoke_all_pass():
    res = experiments.run_experiment(_small("checks", trials=20_000))
    assert res.columns == CHECKS_COLUMNS
    families = {r["family"] for r in res.rows}
    assert families == set(experiments.CHECK_FAMILIES)
    failed = [r for r in res.rows if r["passed"] is not True]
    assert failed == []


@pytest.mark.parametrize("family", experiments.CHECK_FAMILIES)
def test_each_check_family_runs_alone(family):
    res = experiments.run_experiment(replace(_small("checks", trials=20_000),
                                             experiment_id=family))
    assert res.rows and {r["family"] for r in res.rows} == {family}
    assert all(r["passed"] is True for r in res.rows)


def _lemma1_only(trials):
    return replace(_small("checks", trials=trials), experiment_id="lemma1")


def test_lemma1_draws_one_ball_stream_per_dimension(monkeypatch):
    calls = []
    sample_block = sampling.PerturbationLaw.sample_block

    def counted(self, block, m, seed):
        calls.append((self.dim, block, m, seed))
        return sample_block(self, block, m, seed)

    monkeypatch.setattr(sampling.PerturbationLaw, "sample_block", counted)
    trials = 2 * sampling.BLOCK_DRAWS + 17
    res = experiments.run_experiment(_lemma1_only(trials))
    assert len(res.rows) == len(experiments._LEMMA1_DELTAS) * len(experiments._LEMMA1_DIMS)
    # every delta is counted on the same blocks: one stream per d, each block once
    blocks = math.ceil(trials / sampling.BLOCK_DRAWS)
    assert len(calls) == len(experiments._LEMMA1_DIMS) * blocks
    assert {(d, seed.stream_id) for d, _, _, seed in calls} == {
        (d, 100 + i) for i, d in enumerate(experiments._LEMMA1_DIMS)}


@pytest.mark.parametrize("threads", [1, 2])
def test_lemma1_counts_equal_per_delta_mc_probability(threads):
    seed = sampling.SeedSpec(7)
    trials = sampling.BLOCK_DRAWS + 300
    estimates = experiments._lemma1_cap_estimates(seed, trials, threads)
    for i, d in enumerate(experiments._LEMMA1_DIMS):
        law = sampling.PerturbationLaw("uniform-ball", d, 1.0)
        for delta in experiments._LEMMA1_DELTAS:
            ref = sampling.mc_probability(lambda Z: Z[:, 0] >= delta / 2.0, law, trials,
                                          seed.stream(100 + i))
            assert estimates[delta, d] == ref, (delta, d)


def test_lemma1_rows_fail_when_the_tail_misses_the_exact_law(monkeypatch):
    # the tail of a ball sampler that doubles its hits stays below the loose
    # bound at d = 2 and 8, but lies far outside the exact law's binomial spread
    true_estimates = experiments._lemma1_cap_estimates

    def doubled(seed, trials, threads):
        return {cell: sampling.MCEstimate(min(2 * est.hits, trials), trials)
                for cell, est in true_estimates(seed, trials, threads).items()}

    monkeypatch.setattr(experiments, "_lemma1_cap_estimates", doubled)
    res = experiments.run_experiment(_lemma1_only(20_000))
    low_d = [r for r in res.rows if r["check"].endswith(("-d2", "-d8"))]
    assert len(low_d) == 2 * len(experiments._LEMMA1_DELTAS)
    assert not any(r["passed"] for r in low_d)
    assert all(" z=" in r["detail"] for r in res.rows)


def test_single_family_config_runs_only_that_family():
    cfg = experiments.parse_config_text("experiment = bm\nseed = 3\ntrials = 200\n")
    res = experiments.run_experiment(cfg)
    assert res.experiment_id == "bm"
    assert {r["family"] for r in res.rows} == {"bm"}
    assert all(r["passed"] is True for r in res.rows)


def test_unknown_law_kind_raises():
    cfg = _small("thm1", trials=SMOKE_TRIALS, dims=(2,), law_kind="bogus")
    with pytest.raises(ValueError):
        experiments.run_experiment(cfg)


def test_underflowing_restricted_gaussian_cell_is_an_error_row(tmp_path):
    # the r = 1 Gaussian ball mass underflows at d = 512 but not at d = 256
    cfg = _small("thm1", trials=SMOKE_TRIALS, dims=(256, 512),
                 law_kind="restricted-gaussian")
    experiments.run_experiment(cfg).write(tmp_path)
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = {row["d"]: row for row in csv.DictReader(fh)}
    assert rows["256"]["error"] == "" and int(rows["256"]["hits"]) > 0
    assert "underflows at d=512 and r=1.0" in rows["512"]["error"]
    assert rows["512"]["hits"] == "" and rows["512"]["within_bound"] == ""


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_results_are_byte_identical_across_runs():
    cfg = _small("thm1", trials=SMOKE_TRIALS, dims=(2,))
    a = experiments.run_experiment(cfg)
    b = experiments.run_experiment(cfg)
    assert a.csv_text == b.csv_text
    am, bm = _manifest_dict(a.manifest_text()), _manifest_dict(b.manifest_text())
    assert am["results_sha256"] == bm["results_sha256"]


def test_results_do_not_depend_on_thread_count():
    # 40000 draws spans three scheduling blocks, so threads actually split work
    one = experiments.run_experiment(_small("thm1", trials=40_000, dims=(2,), threads=1))
    three = experiments.run_experiment(_small("thm1", trials=40_000, dims=(2,), threads=3))
    assert one.csv_text == three.csv_text


# results.csv sha256 of the runs that are cheap enough for every test run; a
# refactor that keeps the numbers keeps these bytes
PINNED_RESULTS = {
    ("thm2", None): "3a2167994a065db376a977826cea44e737530f802571dd26bd3912e628ece5a1",
    ("cru", None): "2cbdc642d303b089a5c5e8ef5da1459694a44c810fd89c35e613638f12226309",
    ("checks", 100_000): "e3de57931b4e8790d6238f6975bae3853e731c1bef1a9d9b7124cf904fc26525",
    # log-utility agents at the equilibrium allocation
    ("thm1", 20_000): "be93b5fa9892cf5efb99e49ddb09afb4d19f761001b9a57d6669d01b0edbeaa6",
}
# thm1 at 20,000 trials with crra agents of curvature gamma at the planner allocation
PINNED_THM1_CRRA_PLANNER = {
    0.5: "1317231452f4b5c46b027284b857f54cc41ca94cf0a361033a7f20e232b7d0c5",
    4.0: "a47135df2d1624badda39193c7ee9aa02e731fec1c295055fe63de9927b6abe5",
    16.0: "dfe4691d2d41f2e2d673309302d32e392b1359beeebc4136b31017a108a0ed12",
}
# thm1 at 20,000 trials with a linear and a log max-min agent at a literal allocation
THM1_MAXMIN_TEXT = """\
experiment = thm1
seed = 1733
trials = 20000
dims = 2
allocation = literal:1.2,0.8|0.8,1.2
agent.preference = maxmin
agent.prior = cap:ge:0:0.4
agent.bernoulli = linear
agent.preference = maxmin
agent.prior = cap:le:0:0.6
agent.bernoulli = log
"""
PINNED_THM1_MAXMIN = "efd013aa548c6620e3212aba0e300e672c1dda3abb59e807048756f6c9f3eebd"


@functools.cache
def _results_sha256(cfg):
    return hashlib.sha256(experiments.run_experiment(cfg).csv_text.encode()).hexdigest()


def _as_crra(cfg, gamma, allocation):
    """cfg with every agent a crra agent of curvature gamma, at the given allocation."""
    agents = tuple(replace(a, kind="crra", gamma=gamma) for a in cfg.agents)
    return replace(cfg, agents=agents, allocation=allocation)


def _pin_message(what):
    import scipy

    return (f"{what} results.csv moved; the pin was recorded under numpy 2.4.6 and "
            f"scipy 1.17.1, this run has numpy {np.__version__} and scipy {scipy.__version__}")


@pytest.mark.parametrize("experiment,trials", list(PINNED_RESULTS))
def test_default_results_bytes_are_pinned(experiment, trials):
    cfg = experiments.default_config(experiment)
    if trials is not None:
        cfg = replace(cfg, trials=trials)
    assert _results_sha256(cfg) == PINNED_RESULTS[experiment, trials], _pin_message(experiment)


def test_thm1_crra_planner_results_bytes_are_pinned():
    cfg = replace(experiments.default_config("thm1"), trials=20_000)
    for gamma, pin in PINNED_THM1_CRRA_PLANNER.items():
        assert _results_sha256(_as_crra(cfg, gamma, "planner")) == pin, _pin_message(
            f"thm1 crra gamma = {gamma} planner")


def test_thm1_maxmin_results_bytes_are_pinned():
    cfg = experiments.parse_config_text(THM1_MAXMIN_TEXT)
    assert _results_sha256(cfg) == PINNED_THM1_MAXMIN, _pin_message("thm1 maxmin")


def test_cobb_douglas_agents_are_crra_agents_at_unit_gamma():
    cfg = replace(experiments.default_config("thm1"), trials=20_000)
    crra = _as_crra(cfg, 1.0, cfg.allocation)
    assert crra.sha256() != cfg.sha256()
    assert _results_sha256(crra) == _results_sha256(cfg)


# ---------------------------------------------------------------------------
# closed-form anchors
# ---------------------------------------------------------------------------


def test_anchor_values_and_rendering():
    anchors = experiments.reproduce_paper_anchors()
    assert len(anchors) == 3
    (_, v1, n1), (_, v2, n2), (_, v3, n3) = anchors
    # rel_tol covers the different association order inside the bound routines
    assert math.isclose(v1, math.exp(-5.0), rel_tol=1e-12)
    assert math.isclose(v2, math.exp(-500.0 / 81.0), rel_tol=1e-12)
    assert n1 == "= 0.67%"
    assert n2 == "= 0.21%"
    assert 1.33 < v3 < 1.34
    assert v3 < math.exp(0.5)
    assert "1.6487" in n3

    table = experiments.format_anchor_table()
    assert "0.006738" in table
    assert "0.002085" in table
    assert "1.338" in table


# ---------------------------------------------------------------------------
# the two-agent ambiguity construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d,a,b", [
    (4, 0.25, 0.60),   # overlapping caps
    (3, 0.20, 0.70),
    (5, 0.60, 0.20),   # disjoint caps
    (12, 0.60, 0.20),
])
def test_ambiguity_instance_trade_hurts_both_agents(d, a, b):
    inst = experiments._ambiguity_instance(d, a, b)
    assert inst.eps > 0
    assert np.allclose(inst.traded.acts.sum(axis=0), np.ones(d))
    assert np.all(inst.traded.acts >= 0)
    floor = 2.0 * inst.eps * 0.5  # eps = min utility drop / (2 t), t = 0.5
    for i, agent in enumerate(inst.econ.agents):
        u_const = agent.preference.utility(inst.constant.acts[i])
        u_trade = agent.preference.utility(inst.traded.acts[i])
        assert u_const - u_trade >= floor - 1e-12


def _per_set_hits(econ, f, J, n, seed):
    """Hits of B_J and B_Jc with every belief set tested whole by contains."""
    pts = sampling.sample_uniform_simplex(econ.dim, n, seed)
    hits = []
    for group in (J, [i for i in range(econ.n_agents) if i not in J]):
        inside = np.ones(n, dtype=bool)
        for i in group:
            inside &= geometry.contains(
                preferences.belief_set(econ.agents[i].preference, f.acts[i]), pts
            )
        hits.append(int(inside.sum()))
    return hits


@pytest.mark.parametrize("a,b", [(0.25, 0.60), (0.60, 0.20)])  # overlapping, disjoint
@pytest.mark.parametrize("d", [3, 8, 12])
def test_belief_volume_split_matches_per_set_contains(d, a, b):
    # uniform simplex points tested against each belief set land within 5
    # binomial SE of the exact volumes (a face, of volume 0, takes no hit)
    inst = experiments._ambiguity_instance(d, a, b)
    n, seed = 100_000, 5000 + d
    splits = economy.belief_volume_split(inst.econ, [inst.traded, inst.constant], [0])
    assert (splits[0].vol_J, splits[0].vol_Jc) == (0.0, 0.0)
    assert (splits[1].vol_J, splits[1].vol_Jc) == ((1 - a) ** (d - 1), 1 - (1 - b) ** (d - 1))
    for split, f in zip(splits, (inst.traded, inst.constant)):
        hits = _per_set_hits(inst.econ, f, [0], n, seed)
        for vol, k in zip((split.vol_J, split.vol_Jc), hits):
            assert abs(k - n * vol) <= 5.0 * math.sqrt(n * vol * (1.0 - vol)), (vol, k)


def _refuse(*args, **kwargs):
    raise AssertionError("prop3 must not sample volumes")


def _run_small_prop3():
    cfg = replace(experiments.default_config("prop3"), trials=200, dims=(3, 4),
                  n_economies=2, family_trials=200)
    rows, _ = experiments.run_prop3_thm4(cfg)
    assert rows and all(r["error"] is None for r in rows)


def test_prop3_draws_no_simplex_sample(monkeypatch):
    # every volume is exact, so the simplex sampler is never reached
    monkeypatch.setattr(sampling, "sample_uniform_simplex", _refuse)
    _run_small_prop3()


def test_prop3_runs_no_half_space_membership_test(monkeypatch):
    # every volume is exact, so neither contains nor signed_slack is reached
    monkeypatch.setattr(geometry, "contains", _refuse)
    monkeypatch.setattr(geometry.HalfSpace, "signed_slack", _refuse)
    _run_small_prop3()


def test_prop3_results_ignore_trials_and_family_trials(tmp_path):
    # trials, family_trials (and threads) are accepted but inert until the
    # benchmark refresh drops them from the perfbench prop3 workload
    outputs = set()
    for trials in (200, 10**5):
        for family_trials in (200, 10**6):
            out = tmp_path / f"{trials}-{family_trials}"
            cfg = replace(experiments.default_config("prop3"), trials=trials, dims=(3, 4, 5),
                          n_economies=3, family_trials=family_trials, out_dir=str(out))
            experiments.run_experiment(cfg)
            outputs.add((out / "results.csv").read_bytes())
    assert len(outputs) == 1


def test_prop3_measures_one_distance_per_economy(monkeypatch):
    # the dist column and both rho modes' emptiness tests share one distance
    calls = []
    distance = geometry.polytope_distance

    def counted(*args, **kwargs):
        calls.append(args)
        return distance(*args, **kwargs)

    monkeypatch.setattr(geometry, "polytope_distance", counted)
    cfg = replace(experiments.default_config("prop3"), trials=200, dims=(3, 4),
                  n_economies=2, family_trials=200)
    rows, _ = experiments.run_prop3_thm4(cfg)
    assert len(calls) == cfg.n_economies + len(cfg.dims)
    assert sum(r["phase"] == "dominated" for r in rows) == 2 * len(calls)


def _corral_distance_200_bit(P, Q):
    """||a* - b*|| on the final corral of polytope_distance(P, Q), in 200-bit arithmetic."""
    mp = pytest.importorskip("mpmath")
    A, B = P.vertices, Q.vertices
    lam = geometry._min_norm_weights((A[:, None, :] - B[None, :, :]).reshape(1, -1, P.dim))[0]
    with mp.workprec(200):
        gens = [mp.matrix([mp.mpf(x) - mp.mpf(y) for x, y in zip(A[k // len(B)], B[k % len(B)])])
                for k in np.flatnonzero(lam > 0)]
        z = gens[0]
        if len(gens) > 1:
            D = mp.matrix(P.dim, len(gens) - 1)
            for c, g in enumerate(gens[1:]):
                D[:, c] = g - gens[0]
            z = gens[0] + D * mp.lu_solve(D.T * D, -(D.T * gens[0]))
        return mp.sqrt(sum(x * x for x in z))


def test_prop3_traded_distances_are_accurate_to_the_last_bits():
    # the final corral is re-solved on its generators, not on their Gram
    # matrix, so the distance keeps its last digit (1.29 ulp at most here)
    cfg = experiments.default_config("prop3")
    insts = []
    for e in range(cfg.n_economies):
        gen = sampling.generator_for_block(cfg.seed_spec.stream(1000 + e), 0)
        a, b = 0.15 + 0.20 * gen.random(), 0.55 + 0.25 * gen.random()
        insts.append(experiments._ambiguity_instance(cfg.dims[0], a, b))
    insts += [experiments._ambiguity_instance(d, cfg.cap_high, cfg.cap_low) for d in cfg.dims]
    worst = 0.0
    for inst in insts:
        P, Q = (preferences.belief_set(inst.econ.agents[i].preference, inst.traded.acts[i])
                for i in range(2))
        exact = _corral_distance_200_bit(P, Q)
        value = geometry.polytope_distance(P, Q).value
        worst = max(worst, float(abs(value - exact)) / math.ulp(float(exact)))
    assert len(insts) == 110
    assert worst <= 1.56


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_runs_thm1_and_writes_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli.main(["thm1", "--seed", "5", "--trials", "200", "--dims", "2",
                   "--out", str(out)])
    assert rc == 0
    assert (out / "results.csv").exists()
    assert (out / "manifest.txt").exists()
    assert "thm1: 1 rows" in capsys.readouterr().out


def test_cli_rejects_config_for_another_experiment(tmp_path, capsys):
    path = tmp_path / "cru.cfg"
    path.write_text("experiment = cru\nseed = 5\ntrials = 200\n")
    rc = cli.main(["thm1", "--config", str(path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_cli_checks_accepts_single_family_config(tmp_path):
    path = tmp_path / "bm.cfg"
    path.write_text("experiment = bm\nseed = 3\ntrials = 200\n")
    rc = cli.main(["checks", "--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 0
    assert (tmp_path / "o" / "results.csv").exists()


def test_cli_prop3_accepts_thm4_config(tmp_path):
    path = tmp_path / "thm4.cfg"
    path.write_text("experiment = thm4\nseed = 3\ntrials = 200\ndims = 3\n"
                    "n_economies = 1\nfamily_trials = 200\n")
    out = tmp_path / "o"
    rc = cli.main(["prop3-thm4", "--config", str(path), "--out", str(out)])
    assert rc == 0
    assert _manifest_dict((out / "manifest.txt").read_text())["experiment"] == "thm4"
    tags = [line.split(",")[0] for line in (out / "results.csv").read_text().splitlines()[1:]]
    assert tags == ["prop3", "prop3", "prop3", "prop3", "thm4"]


@pytest.mark.parametrize("key", sorted(cli._FLAGS))
@pytest.mark.parametrize("experiment_id", sorted(experiments.EXPERIMENTS))
def test_cli_offers_a_flag_only_for_the_family_keys(experiment_id, key):
    exp = experiments.EXPERIMENTS[experiment_id]
    argv = [exp.subcommand, "--" + key.replace("_", "-")]
    if cli._FLAGS[key].get("action") != "store_true":
        argv.append("3")
    if key in exp.keys:
        cli.build_parser().parse_args(argv)
    else:
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)


def test_cli_checks_rejects_dims_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["checks", "--dims", "2"])
    assert exc.value.code == 2
    assert "--dims" in capsys.readouterr().err


def test_cli_anchors_prints_table(capsys):
    assert cli.main(["anchors"]) == 0
    out = capsys.readouterr().out
    assert "0.006738" in out
    assert "0.002085" in out


def test_cli_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "risklab" in capsys.readouterr().out


def test_cli_import_loads_no_scipy_integrate_or_optimize():
    # each of these pulls in scipy.linalg and scipy.sparse.linalg, about
    # 0.4 s of start-up per process
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import risklab.cli, sys; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_condition_flag_is_thm2_only():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["thm1", "--condition-positive-price"])
