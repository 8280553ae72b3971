"""Config parsing, CSV/manifest plumbing, experiment runners, and the CLI.

Runner tests shrink the built-in default configs with dataclasses.replace so
this module stays fast; the full-size default runs live in test_acceptance.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import platform
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
    ("experiment = cru\nseed = 1\ndims = 0\n", "dims must be >= 1"),
    ("experiment = thm1\nseed = 1\ndims = 2,-1\n", "dims must be >= 1"),
    ("experiment = thm2\nseed = 1\nmax_dim = 64\n", "unknown key 'max_dim'"),
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


def test_dims_below_one_are_refused_at_parse_time(tmp_path, capsys):
    # a zero-state cell used to reach the cru runner and die on a ZeroDivisionError
    rc = cli.main(["cru", "--dims", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error: dims must be >= 1" in capsys.readouterr().err
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


def test_repeated_agent_key_is_refused(tmp_path, capsys):
    # a second agent.prior in one block used to win silently over the first
    text = experiments.EXPERIMENTS["thm1"].default_text.replace(
        "agent.prior = spike:0:0.9\n", "agent.prior = spike:0:0.9\nagent.prior = uniform\n", 1)
    message = "config line 11: duplicate key 'agent.prior'"
    with pytest.raises(ValueError, match=message):
        experiments.parse_config_text(text)
    (tmp_path / "dup.txt").write_text(text)
    rc = cli.main(["thm1", "--config", str(tmp_path / "dup.txt"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert message in capsys.readouterr().err
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
    assert man["python"] == platform.python_version()
    assert (man["numpy"], man["threads"]) == (np.__version__, str(cfg.threads))
    assert "scipy" not in man
    assert (man["error_rows"], man["failed_checks"]) == ("0", "0")
    assert res.manifest_text().splitlines()[-3:-1] == ["error_rows = 0", "failed_checks = 0"]
    assert res.manifest_text().splitlines()[-1].startswith("wall_time_s = ")
    # an error row and a failed check are each counted
    flawed = replace(res, rows=[{**res.rows[0], "error": "boom"}, {"passed": False}])
    assert (flawed.error_rows, flawed.failed_checks) == (1, 1)
    man = _manifest_dict(flawed.manifest_text())
    assert (man["error_rows"], man["failed_checks"]) == ("1", "1")

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


def test_thm2_runs_cells_above_d_64():
    # thm2 has no dimension budget: a d = 128 cell is an ordinary cell
    res = experiments.run_experiment(_small("thm2", trials=200, dims=(128,)))
    assert [(r["d"], r["eps"]) for r in res.rows] == [(128, 0.05), (128, 0.2)]
    assert all(r["error"] is None for r in res.rows)


def test_thm2_conditioning_doubles_bound_and_filters_draws():
    base = _small("thm2", trials=1000, dims=(2,))
    plain = experiments.run_experiment(base)
    cond = experiments.run_experiment(replace(base, condition_positive_price=True))
    for rp, rc in zip(plain.rows, cond.rows):
        assert (rp["d"], rp["eps"]) == (rc["d"], rc["eps"])
        assert rc["conditioned"] is True
        assert rc["bound"] == 2.0 * rp["bound"]
        assert rc["n_accepted"] < rc["n"]  # a positive-price cut discards draws
        # both draw the same stream, and every draw the contour screen keeps at
        # eps > 0 has a positive price: the cut discards no member
        assert rc["hits"] == rp["hits"] > 0


def test_thm2_conditioning_refuses_an_allocation_off_the_pareto_set():
    # the equal split of the default economy (unequal priors) is not Pareto
    # optimal: its supergradients point apart, so no price direction exists
    cfg = _small("thm2", trials=200, dims=(2,), allocation="equal-split",
                 condition_positive_price=True)
    rows = experiments.run_experiment(cfg).rows
    assert rows and all("parallel supergradients" in r["error"] for r in rows)


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
    projected = sampling.PerturbationLaw.sample_projected_coordinates

    def counted(self, block, m, seed, Q, keep):
        Y, Z = projected(self, block, m, seed, Q, keep)
        calls.append((self.dim, block, m, seed, Q, len(Z)))
        return Y, Z

    def unused(*args):
        raise AssertionError("lemma1 draws no full block")

    monkeypatch.setattr(sampling.PerturbationLaw, "sample_projected_coordinates", counted)
    monkeypatch.setattr(sampling.PerturbationLaw, "sample_block", unused)
    trials = 2 * sampling.BLOCK_DRAWS + 17
    res = experiments.run_experiment(_lemma1_only(trials))
    assert len(res.rows) == (len(experiments._LEMMA1_DELTAS) + 1) * len(experiments._LEMMA1_DIMS)
    # every delta and bin is counted on the same blocks: one stream per d, each
    # block once, drawn along e_1 only and completed on no row
    blocks = math.ceil(trials / sampling.BLOCK_DRAWS)
    assert len(calls) == len(experiments._LEMMA1_DIMS) * blocks
    assert {(d, seed.stream_id) for d, _, _, seed, _, _ in calls} == {
        (d, 100 + i) for i, d in enumerate(experiments._LEMMA1_DIMS)}
    assert all(np.array_equal(Q, np.eye(d, 1)) for d, _, _, _, Q, _ in calls)
    assert {kept for *_, kept in calls} == {0}


@pytest.mark.parametrize("threads", [1, 2])
def test_lemma1_counts_equal_per_delta_mc_probability(threads):
    # the same tails through the estimator, completing the rows past each
    # threshold: a completed row's first coordinate is its projected one
    seed = sampling.SeedSpec(7)
    trials = sampling.BLOCK_DRAWS + 300
    estimates, bins = experiments._lemma1_counts(seed, trials, threads)
    for i, d in enumerate(experiments._LEMMA1_DIMS):
        law = sampling.PerturbationLaw("uniform-ball", d, 1.0)
        assert bins[d].sum() == trials and len(bins[d]) == experiments._LEMMA1_BINS
        for delta in experiments._LEMMA1_DELTAS:
            beyond = lambda Z: Z[:, 0] >= delta / 2.0
            ref = sampling.mc_probability(beyond, law, trials, seed.stream(100 + i),
                                          projection=(np.eye(d, 1), beyond))
            assert estimates[delta, d] == ref, (delta, d)


def _lemma1_counts_by_search(first, cuts):
    """A block's lemma1 counts the direct way: one comparison and one binary search per value."""
    tails = [np.count_nonzero(first >= delta / 2.0) for delta in experiments._LEMMA1_DELTAS]
    cells = np.bincount(np.searchsorted(cuts, first), minlength=experiments._LEMMA1_BINS)
    return np.concatenate([tails, cells])


@pytest.mark.parametrize("i,d", list(enumerate(experiments._LEMMA1_DIMS)))
def test_lemma1_block_counts_equal_the_per_value_search(i, d):
    law = sampling.PerturbationLaw("uniform-ball", d, 1.0)
    stream, cuts = sampling.SeedSpec(7).stream(100 + i), experiments._lemma1_cuts()[d]
    e1 = np.eye(d, 1)
    for b, m in ((0, sampling.BLOCK_DRAWS), (1, 300)):
        Y, _ = law.sample_projected_coordinates(b, m, stream, e1, lambda Y: np.zeros(len(Y), bool))
        counts = experiments._lemma1_block_counts(Y[:, 0], cuts)
        assert np.array_equal(counts, _lemma1_counts_by_search(Y[:, 0], cuts))


@pytest.mark.parametrize("d", experiments._LEMMA1_DIMS)
def test_lemma1_block_counts_put_ties_where_the_search_does(d):
    # values exactly at every cut (0.0 among them), -0.0, at every delta/2,
    # one ulp either side of each, and the ball's ends, in shuffled order
    cuts = experiments._lemma1_cuts()[d]
    halves = np.divide(experiments._LEMMA1_DELTAS, 2.0)
    marks = np.concatenate([cuts, halves, [0.0, -0.0, -1.0, 1.0]])
    column = np.concatenate([marks, marks, np.nextafter(marks, -2.0), np.nextafter(marks, 2.0)])
    column = np.random.default_rng(d).permutation(column)
    counts = experiments._lemma1_block_counts(column, cuts)
    assert np.array_equal(counts, _lemma1_counts_by_search(column, cuts))
    assert counts[len(halves):].sum() == len(column)


@pytest.mark.parametrize("d", experiments._LEMMA1_DIMS)
def test_lemma1_cuts_split_the_exact_law_into_equal_masses(d):
    cuts = experiments._lemma1_cuts()[d]
    n = experiments._LEMMA1_BINS
    assert len(cuts) == n - 1 and np.all(np.diff(cuts) > 0)
    for j, t in enumerate(cuts, start=1):
        upper = geometry.cap_fraction(d, 1.0, abs(t))
        assert (upper if t >= 0 else 1.0 - upper) == pytest.approx((n - j) / n, rel=1e-12)


def test_lemma1_rows_fail_when_the_tail_misses_the_exact_law(monkeypatch):
    # the tail of a ball sampler that doubles its hits stays below the loose
    # bound at d = 2 and 8, but lies far outside the exact law's binomial spread
    true_counts = experiments._lemma1_counts

    def doubled(seed, trials, threads):
        estimates, bins = true_counts(seed, trials, threads)
        return {cell: sampling.MCEstimate(min(2 * est.hits, trials), trials)
                for cell, est in estimates.items()}, bins

    monkeypatch.setattr(experiments, "_lemma1_counts", doubled)
    res = experiments.run_experiment(_lemma1_only(20_000))
    low_d = [r for r in res.rows
             if r["check"].startswith("separated") and r["check"].endswith(("-d2", "-d8"))]
    assert len(low_d) == 2 * len(experiments._LEMMA1_DELTAS)
    assert not any(r["passed"] for r in low_d)
    assert all(" z=" in r["detail"] for r in res.rows if r["check"].startswith("separated"))


def test_lemma1_marginal_row_fails_when_the_bins_miss_the_exact_law(monkeypatch):
    # moving 2% of the draws from the outermost bin to the central ones, at d = 32
    true_counts = experiments._lemma1_counts

    def skewed(seed, trials, threads):
        estimates, bins = true_counts(seed, trials, threads)
        moved = bins[32].copy()
        moved[0] -= trials // 50
        moved[24] += trials // 50
        return estimates, {**bins, 32: moved}

    monkeypatch.setattr(experiments, "_lemma1_counts", skewed)
    res = experiments.run_experiment(_lemma1_only(20_000))
    marginal = {r["check"]: r for r in res.rows if r["check"].startswith("marginal")}
    assert sorted(marginal) == sorted(f"marginal-chi2-50bins-d{d}"
                                      for d in experiments._LEMMA1_DIMS)
    assert [c for c, r in marginal.items() if not r["passed"]] == ["marginal-chi2-50bins-d32"]
    assert all(" p=" in r["detail"] for r in marginal.values())


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


def test_restricted_gaussian_cell_at_an_underflowing_ball_mass_is_a_result_row(tmp_path):
    # the r = 1 Gaussian ball mass is below the smallest normal float at d = 512;
    # the radius inverse works from its log, so the cell is measured like d = 256
    assert sampling.restricted_gaussian_acceptance(512, 1.0) == 0.0
    cfg = _small("thm1", trials=SMOKE_TRIALS, dims=(256, 512),
                 law_kind="restricted-gaussian")
    experiments.run_experiment(cfg).write(tmp_path)
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = {row["d"]: row for row in csv.DictReader(fh)}
    assert int(rows["256"]["hits"]) > 0
    for row in rows.values():
        assert row["error"] == "" and row["hits"] != "" and row["within_bound"] == "true"
    assert float(rows["512"]["kappa"]) == pytest.approx(1.6455, abs=1e-4)


@pytest.mark.parametrize("cfg,cells", [
    (_small("thm1", trials=2 * sampling.BLOCK_DRAWS + 100, threads=2), 5),
    (_small("thm2", trials=SMOKE_TRIALS, threads=2), 6),
    (_small("cru", trials=SMOKE_TRIALS, threads=2), 1),
    (replace(_lemma1_only(SMOKE_TRIALS), threads=2), len(experiments._LEMMA1_DIMS)),
], ids=["thm1", "thm2", "cru", "lemma1"])
def test_a_threaded_run_schedules_its_blocks_in_one_call_on_one_pool(cfg, cells, monkeypatch):
    pools, calls = [], []
    map_blocks = sampling.map_blocks

    class CountedPool(sampling.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    def counted(fn, counts, threads=1):
        calls.append(len(counts))
        return map_blocks(fn, counts, threads)

    monkeypatch.setattr(sampling, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(sampling, "map_blocks", counted)
    rows = experiments.run_experiment(cfg).rows
    assert len(pools) == 1 and calls == [cells]
    assert all(row.get("error") is None for row in rows)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_failing_block_makes_only_its_cell_an_error_row(threads, monkeypatch):
    cfg = _small("thm1", trials=2 * sampling.BLOCK_DRAWS + 100, dims=(2, 8, 32),
                 threads=threads)
    clean = experiments.run_experiment(cfg).csv_text.splitlines()
    projected = sampling.PerturbationLaw.sample_projected_block

    def failing(self, block, m, seed, Q, keep):
        if self.dim == 8 and block == 1:
            raise ValueError("block 1 of the d = 8 cell failed")
        return projected(self, block, m, seed, Q, keep)

    monkeypatch.setattr(sampling.PerturbationLaw, "sample_projected_block", failing)
    res = experiments.run_experiment(cfg)
    assert [row["error"] for row in res.rows] == [None, "block 1 of the d = 8 cell failed",
                                                  None]
    lines = res.csv_text.splitlines()
    # the header and the d = 2 and d = 32 rows are those of the run without the failure
    assert lines[:2] + lines[3:] == clean[:2] + clean[3:] and lines[2] != clean[2]


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


def _thm1_maxmin_config(d):
    """THM1_MAXMIN_TEXT's economy, whose supergradients are not parallel, in d states."""
    acts = "|".join(",".join([a, b] * (d // 2)) for a, b in (("1.2", "0.8"), ("0.8", "1.2")))
    text = THM1_MAXMIN_TEXT.replace("dims = 2", f"dims = {d}").replace(
        "literal:1.2,0.8|0.8,1.2", f"literal:{acts}")
    return experiments.parse_config_text(text)


def test_results_do_not_depend_on_thread_count():
    # 40000 draws spans three scheduling blocks, so threads actually split work;
    # at d = 32 the basis spans fewer than d dimensions, so kept rows are completed
    for cfg in (_small("thm1", trials=40_000, dims=(2, 32)),
                replace(_thm1_maxmin_config(2), trials=40_000),
                replace(_thm1_maxmin_config(32), trials=40_000)):
        one = experiments.run_experiment(replace(cfg, threads=1))
        three = experiments.run_experiment(replace(cfg, threads=3))
        assert one.csv_text == three.csv_text
        assert all(row["error"] is None and row["hits"] > 0 for row in one.rows)


def test_thm2_and_cru_do_not_depend_on_thread_count():
    # 40000 draws spans three scheduling blocks; thm2 screens its draws, and
    # cru's literal allocation (non-parallel supergradients) keeps every one
    for cfg in (_small("thm2", trials=40_000, dims=(2, 32)), _small("cru", trials=40_000)):
        one = experiments.run_experiment(replace(cfg, threads=1))
        three = experiments.run_experiment(replace(cfg, threads=3))
        assert one.csv_text == three.csv_text
        assert all(row["error"] is None for row in one.rows)
        assert any(row["hits"] > 0 for row in one.rows)


@pytest.mark.parametrize("law", ["uniform-ball", "restricted-gaussian"])
def test_thm2_screened_estimate_agrees_with_plain_monte_carlo(law):
    # the screened estimate against the membership decider on every plain draw
    # of another stream, within 4 combined binomial standard errors in every
    # default cell
    cfg = replace(experiments.default_config("thm2"), law_kind=law, trials=20_000)
    rows = experiments.run_experiment(cfg).rows
    for row in rows:
        d, eps = row["d"], row["eps"]
        econ = experiments.build_economy(cfg, d, no_agg=True)
        f = experiments.resolve_allocation(cfg, econ)
        law_d = sampling.PerturbationLaw(law, d, cfg.radius)
        plain = sampling.mc_probability(
            lambda Z: economy.scitovsky_members(econ, f, econ.aggregate + Z, eps)[0], law_d,
            cfg.trials, sampling.SeedSpec(cfg.seed + 1))
        p, q = row["p_hat"], plain.p_hat
        se = math.sqrt((p * (1 - p) + q * (1 - q)) / cfg.trials)
        assert abs(p - q) <= 4 * se, (d, eps, p, q)


def test_thm1_projected_estimate_agrees_with_plain_monte_carlo():
    # the projected estimate against the decider on every plain draw of another
    # stream, within 4 combined binomial standard errors in every default cell
    cfg = _small("thm1", trials=40_000)
    rows = experiments.run_experiment(cfg).rows
    for row in rows:
        d, eps = row["d"], row["eps"]
        econ = experiments.build_economy(cfg, d)
        f = experiments.resolve_allocation(cfg, econ)
        law = sampling.PerturbationLaw(cfg.law_kind, d, cfg.radius)
        plain = sampling.mc_probability(
            lambda Z: economy.individual_improvement_event(econ, f, Z, eps), law,
            cfg.trials, sampling.SeedSpec(cfg.seed + 1))
        p, q = row["p_hat"], plain.p_hat
        se = math.sqrt((p * (1 - p) + q * (1 - q)) / cfg.trials)
        assert abs(p - q) <= 4 * se, (d, p, q)


# results.csv sha256 of the runs that are cheap enough for every test run; a
# refactor that keeps the numbers keeps these bytes
PINNED_RESULTS = {
    ("thm2", None): "6638351a54698d8a631378759013ee566892c6b00152385c86da5ca434db0594",
    ("cru", None): "293662d0e965c3c296f1972464526a875bbb689aa4d0e9d4af2752875098d93e",
    ("checks", 100_000): "10727b04e03ab5390db154ae9c8a9faa0d86953d25907e88509978b48e7b4126",
    # log-utility agents at the equilibrium allocation
    ("thm1", 20_000): "dbef17ad512a2a8683d69bec5ef12c5b994c05b347ec0b3769d0d7808d1ba0ec",
}
# thm1 at 20,000 trials with crra agents of curvature gamma at the planner allocation
PINNED_THM1_CRRA_PLANNER = {
    0.5: "ee0c73d264d567e07330e310241ad91bffc6150cff34ace2397ac437dd21f436",
    4.0: "d9556809d5cb0ece24ab106961904569323de15ecbc834be6825fa9eedf79039",
    16.0: "28ca80ac56470202cf271927860d7dd5fac43cc5cc5e8ec9e7851148b41cb91f",
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
PINNED_THM1_MAXMIN = "6efd5fd0bba0dbdb9c256b29dcb1212b91bef8402be3869a4ec620f449c8a8a1"
# default thm2 under the restricted-Gaussian law, the benchmark's thm2-rg at its default seed
PINNED_THM2_RG = "582866b41cc6e705e7fcc6fae2ff9d7d107e9cf5760b9d6ab682dcb2ed53d0c5"
# (experiment, law, conditioned): the default runs under the sampler paths they
# do not take by default; conditioning reads every draw's coordinates
PINNED_SAMPLER_VARIANTS = {
    ("thm2", "uniform-ball", True):
        "dc513cb4a73bb728348aa5c44c0cc700f352e00d5950ca6167513b4208ef21c7",
    ("thm2", "restricted-gaussian", True):
        "500ac0f3602f5b110982fa521b5d6ba49297f8a38d5da5e766c3c8b3ebc10687",
    ("cru", "restricted-gaussian", False):
        "54cb2cfda8802df3c5e7a166131f1ccde1e0504d50e7a267a4fc3b479c959c5e",
}


@functools.cache
def _results_sha256(cfg):
    return hashlib.sha256(experiments.run_experiment(cfg).csv_text.encode()).hexdigest()


def _as_crra(cfg, gamma, allocation):
    """cfg with every agent a crra agent of curvature gamma, at the given allocation."""
    agents = tuple(replace(a, kind="crra", gamma=gamma) for a in cfg.agents)
    return replace(cfg, agents=agents, allocation=allocation)


def _pin_message(what):
    return (f"{what} results.csv moved; the pin was recorded under numpy 2.4.6, "
            f"this run has numpy {np.__version__}")


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


def test_thm2_restricted_gaussian_results_bytes_are_pinned():
    cfg = replace(experiments.default_config("thm2"), law_kind="restricted-gaussian")
    assert _results_sha256(cfg) == PINNED_THM2_RG, _pin_message("thm2 restricted-gaussian")


@pytest.mark.parametrize("experiment,law,conditioned", list(PINNED_SAMPLER_VARIANTS))
def test_sampler_variant_results_bytes_are_pinned(experiment, law, conditioned):
    cfg = replace(experiments.default_config(experiment), law_kind=law,
                  condition_positive_price=conditioned)
    assert _results_sha256(cfg) == PINNED_SAMPLER_VARIANTS[experiment, law, conditioned], (
        _pin_message(f"{experiment} {law}{' conditioned' if conditioned else ''}"))


def _improvements_by_agent(econ, f, Z, eps):
    """(agents, rows) flags: does agent i improve on row z, every agent on all rows of Z at once."""
    return np.array([
        preferences.utility_extended(a.preference, (1.0 - eps) * (fi + Z))
        > a.preference.utility(fi) + preferences.TOL_STRICT
        for a, fi in zip(econ.agents, f.acts)])


@pytest.mark.parametrize("economy_id", ["default", "crra-0.5", "crra-4", "maxmin"])
def test_improvement_decider_skipping_flagged_rows_matches_every_agent(economy_id, monkeypatch):
    # the pinned thm1 economies; the decider hands each agent only the rows no
    # earlier agent flagged, and the BLAS products it takes on those must
    # flag every row as the products on all rows do
    base = replace(experiments.default_config("thm1"), trials=20_000)
    cfg = {"default": base, "crra-0.5": _as_crra(base, 0.5, "planner"),
           "crra-4": _as_crra(base, 4.0, "planner"),
           "maxmin": experiments.parse_config_text(THM1_MAXMIN_TEXT)}[economy_id]
    given, evaluate = [], economy.utility_extended
    monkeypatch.setattr(economy, "utility_extended",
                        lambda pref, F, **kw: given.append(len(F)) or evaluate(pref, F, **kw))
    eps, skipped = cfg.eps_list[0], 0
    for d in cfg.dims:
        econ = experiments.build_economy(cfg, d)
        f = experiments.resolve_allocation(cfg, econ)
        Z = sampling.PerturbationLaw("uniform-ball", d, cfg.radius).sample(3000, cfg.seed)
        Q, keep = economy.improvement_screen(econ, f, eps, cfg.radius)
        # the rows the runner hands over (those the screen keeps), and every row
        for rows in (Z[keep(Z @ Q)], Z):
            given.clear()
            flags = economy.individual_improvement_event(econ, f, rows, eps)
            by_agent = _improvements_by_agent(econ, f, rows, eps)
            assert np.array_equal(flags, by_agent.any(axis=0)), d
            # each agent after the first is given the rows no earlier agent flags
            open_rows = ~np.logical_or.accumulate(by_agent, axis=0)[:-1]
            assert sum(given) == len(rows) + np.count_nonzero(open_rows), d
            skipped += len(rows) * econ.n_agents - sum(given)
    assert skipped > 0


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
    splits = economy.belief_volume_split(
        [economy.belief_sets(inst.econ, f) for f in (inst.traded, inst.constant)], [0])
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
    # the dist column and both rho modes' emptiness tests share one distance,
    # and every economy's traded pair is measured in one batched call
    batches, solves = [], []
    distance, weights = geometry.polytope_distance, geometry._min_norm_weights

    def counted(pairs):
        batches.append(len(pairs))
        return distance(pairs)

    def solved(G):
        solves.append(G.shape)
        return weights(G)

    monkeypatch.setattr(geometry, "polytope_distance", counted)
    monkeypatch.setattr(geometry, "_min_norm_weights", solved)
    cfg = replace(experiments.default_config("prop3"), trials=200, dims=(3, 4),
                  n_economies=5, family_trials=200)
    rows, _ = experiments.run_prop3_thm4(cfg)
    assert batches == [cfg.n_economies + len(cfg.dims)]
    assert sum(r["phase"] == "dominated" for r in rows) == 2 * sum(batches)
    # the random economies' pairs share one shape and one lock-step solve; the
    # family's pair at the same d has fewer vertex differences and its own
    assert sorted(n for n, _, d in solves if d == cfg.dims[0]) == [1, cfg.n_economies]


def test_prop3_builds_only_the_sets_and_splits_it_reads(monkeypatch):
    # the traded belief sets serve both the distance and the volume split, and
    # only the dimension family builds (and reads) the constant equal split
    built = {"equal_split": 0, "belief_set": 0}
    for module, name in ((economy, "equal_split"), (preferences, "belief_set")):
        def counted(*args, _build=getattr(module, name), _name=name):
            built[_name] += 1
            return _build(*args)

        monkeypatch.setattr(module, name, counted)
    cfg = replace(experiments.default_config("prop3"), dims=(3, 4), n_economies=5)
    experiments.run_prop3_thm4(cfg)
    traded_pairs = cfg.n_economies + len(cfg.dims)
    assert built == {"equal_split": len(cfg.dims),
                     "belief_set": 2 * traded_pairs + 2 * len(cfg.dims)}


def _corral_distance_200_bit(P, Q):
    """||a* - b*|| on the final corral of the pair (P, Q)'s distance, in 200-bit arithmetic."""
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
        (cert,) = geometry.polytope_distance([(P, Q)])
        value = cert.value
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


# every runner at a tiny size, thm1, thm2 and cru under both laws
_TINY_RUNS = """
import json, sys
from dataclasses import replace
import risklab.cli
from risklab import experiments

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

runs = [(f"{name} {law}", name, {"dims": (2,), "law_kind": law})
        for name in ("thm1", "thm2", "cru") for law in ("uniform-ball", "restricted-gaussian")]
runs += [("prop3-thm4", "prop3", {"dims": (3, 4), "n_economies": 2, "family_trials": 200}),
         ("checks", "checks", {})]
report = {"import": scipy_modules(), "runs": {}}
for run, name, changes in runs:
    cfg = replace(experiments.default_config(name), trials=200, **changes)
    before = set(sys.modules)
    experiments.run_experiment(cfg)
    report["runs"][run] = sorted(set(sys.modules) - before)
report["after_runs"] = scipy_modules()
print(json.dumps(report))
"""


@functools.cache
def _tiny_runs_report():
    """What a fresh interpreter loads: after ``import risklab.cli``, and during each tiny run."""
    src = str(Path(experiments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _TINY_RUNS], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_cli_import_and_every_runner_load_no_scipy():
    # importing scipy.special alone costs about 0.25 s and 25 MB per process
    report = _tiny_runs_report()
    assert report["import"] == [] and report["after_runs"] == []


def test_run_experiment_loads_no_module():
    # a module first loaded inside run_experiment moves its cost from set-up
    # into the timed run
    report = _tiny_runs_report()
    assert len(report["runs"]) == 8
    assert report["runs"] == {run: [] for run in report["runs"]}


def test_cli_condition_flag_is_thm2_only():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["thm1", "--condition-positive-price"])

