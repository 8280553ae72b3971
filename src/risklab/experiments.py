"""Named, reproducible experiments with manifests, CSV results, and plot data.

Each experiment family is one :class:`Experiment` record in ``EXPERIMENTS``:
its config id and aliases (``thm4`` configs run the combined ``prop3``
runner; ``prop7``, ``lemma1``, ``kappa``, ``bm``, ``economy`` select one
family of the support ``checks``), its CLI subcommand and help text, its CSV
columns, its runner, the config keys it accepts, and its built-in default
config.

Configs are flat ``key = value`` text files with repeated ``agent.`` blocks
(one block per agent, started by ``agent.preference``); the field table
``CONFIG_FIELDS`` parses and renders every key.  Numbers in ``results.csv``
are printed with 17 significant digits, and all randomness flows through
seeded block substreams, so re-running a config byte-for-byte reproduces
``results.csv`` regardless of thread count.  ``manifest.txt`` records the
config hash, schema and tool versions, the Python and numpy versions,
the thread count, and the results hash; its wall-time line is the only part
allowed to differ between runs of one config on one installation.
``config.txt`` holds the canonical config text the hash is taken over, ready
to be run again.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import platform
import time
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import bounds, economy, geometry, preferences, sampling, special
from ._version import __version__

SCHEMA_VERSION = "risklab-results-v1"
CHECK_FAMILIES = ("bm", "lemma1", "kappa", "prop7", "economy")
_LEMMA1_DIMS = (2, 8, 32, 128, 512)
_LEMMA1_DELTAS = (0.1, 0.2, 0.4)
# largest |p_hat - exact| a lemma1 row accepts, in binomial standard errors of the exact law
_LEMMA1_Z = 5.0
# equal-mass bins of the lemma1 marginal, and the smallest chi-square p-value its row accepts
_LEMMA1_BINS = 50
_LEMMA1_CHI2_P = 1e-6


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AgentTemplate:
    """Dimension-independent agent description instantiated per sweep cell.

    Prior specs: 'uniform', 'spike:IDX:P' (mass P on state IDX in [0, d), the
    rest uniform), or a comma list.  Max-min prior sets: 'cap:ge:IDX:LEVEL',
    'cap:le:IDX:LEVEL', or 'vertices:v1|v2|...' with comma-separated
    coordinates.  Endowments: 'ones', 'equal-share', or a comma list.

    Kinds: 'crra' takes ``gamma``; 'maxmin' takes ``bernoulli``;
    'cobb-douglas' is 'crra' at gamma = 1 and takes neither.  A key a kind
    does not take must keep its default, so it cannot change the run's hash.
    Another kind, a negative or non-finite crra ``gamma`` and a max-min
    ``bernoulli`` other than 'linear' or 'log' are refused at parse time.
    """

    kind: str
    prior: str = "uniform"
    gamma: float = 1.0
    bernoulli: str = "linear"
    endowment: str = "ones"

    def __post_init__(self):
        if self.kind not in ("cobb-douglas", "crra", "maxmin"):
            raise ValueError("agent.preference must be 'cobb-douglas', 'crra' or 'maxmin', "
                             f"got {self.kind!r}")
        if self.kind == "crra" and not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"agent.gamma must be a finite nonnegative real, got {self.gamma!r}")
        if self.kind == "maxmin" and self.bernoulli not in ("linear", "log"):
            raise ValueError(f"agent.bernoulli must be 'linear' or 'log', got {self.bernoulli!r}")
        if self.kind in ("cobb-douglas", "maxmin") and self.gamma != 1.0:
            raise ValueError(f"agent.gamma has no effect on a {self.kind} agent; "
                             f"leave it at 1.0, got {self.gamma!r}")
        if self.kind in ("cobb-douglas", "crra") and self.bernoulli != "linear":
            raise ValueError(f"agent.bernoulli has no effect on a {self.kind} agent; "
                             f"leave it at 'linear', got {self.bernoulli!r}")

    def _prior_vector(self, d: int) -> np.ndarray:
        s = self.prior
        if s == "uniform":
            return np.full(d, 1.0 / d)
        if s.startswith("spike:"):
            _, idx, p = s.split(":")
            idx, p = int(idx), float(p)
            if d < 2:
                raise ValueError(f"a spike prior needs at least 2 states, cell dimension is {d}")
            if not 0 <= idx < d:
                raise ValueError(f"spike state {idx} is outside 0..{d - 1} at dimension {d}")
            mu = np.full(d, (1.0 - p) / (d - 1))
            mu[idx] = p
            return mu
        mu = np.array([float(x) for x in s.split(",")])
        if len(mu) != d:
            raise ValueError(f"literal prior has {len(mu)} entries, cell dimension is {d}")
        return mu

    def _preference(self, d: int) -> preferences.Preference:
        if self.kind != "maxmin":
            return preferences.CRRASEU(self._prior_vector(d), self.gamma)
        s = self.prior
        if s.startswith("cap:"):
            _, side, idx, level = s.split(":")
            verts, hs = preferences.cap_prior_polytope(d, int(idx), float(level), side)
            return preferences.MaxMinEU(verts, self.bernoulli, (hs,))
        if s.startswith("vertices:"):
            rows = [
                [float(x) for x in chunk.split(",")]
                for chunk in s[len("vertices:"):].split("|")
            ]
            return preferences.MaxMinEU(np.array(rows), self.bernoulli)
        raise ValueError(f"max-min agents need a cap: or vertices: prior, got {s!r}")

    def instantiate(self, d: int, n_agents: int) -> economy.Agent:
        if self.endowment == "ones":
            w = np.ones(d)
        elif self.endowment == "equal-share":
            w = np.ones(d) / n_agents
        else:
            w = np.array([float(x) for x in self.endowment.split(",")])
            if len(w) != d:
                raise ValueError(f"literal endowment has {len(w)} entries, cell dimension {d}")
        return economy.Agent(self._preference(d), w)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment_id: str
    seed: int
    trials: int
    dims: tuple = (2,)
    eps_list: tuple = (0.1,)
    radius: float = 1.0
    law_kind: str = "uniform-ball"
    threads: int = 1
    out_dir: str | None = None
    allocation: str = "equilibrium"
    condition_positive_price: bool = False
    n_economies: int = 100
    family_trials: int = 1_000_000
    cap_high: float = 0.6
    cap_low: float = 0.2
    c_values: tuple = (0.5, 1.0, 2.0)
    agents: tuple = ()

    def __post_init__(self):
        experiment_for(self.experiment_id)
        sampling.SeedSpec(self.seed)  # refuse a seed outside [0, 2^64) before any cell runs
        if self.trials < 100:
            raise ValueError("trials must be >= 100")
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")

    @property
    def seed_spec(self) -> sampling.SeedSpec:
        return sampling.SeedSpec(self.seed)

    def canonical_text(self) -> str:
        """The experiment's own keys, then the agent blocks; its hash identifies the run.

        Floats are written at round-trip precision, so ``parse_config_text``
        gives this config back, less its output directory (where a run is
        written is not part of what it computes).
        """
        keys = experiment_for(self.experiment_id).keys
        lines = [
            f"{key} = {f.render(getattr(self, f.attr))}"
            for key, f in CONFIG_FIELDS.items() if key in keys and f.render
        ]
        for agent in self.agents:
            lines += [
                f"agent.{key} = {f.render(getattr(agent, f.attr))}"
                for key, f in _AGENT_FIELDS.items()
            ]
        return "\n".join(lines) + "\n"

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _parse_bool(v: str) -> bool:
    if v.lower() in ("true", "1", "yes", "on"):
        return True
    if v.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


@dataclass(frozen=True)
class ConfigField:
    """A config key: the attribute it sets, its parser, and its renderer.

    ``render`` is None for a key that is not part of the run's identity.
    """

    attr: str
    parse: Callable[[str], object]
    render: Callable[[object], str] | None


_TEXT = (str, str)
_INT = (int, str)
_FLOAT = (float, lambda v: repr(float(v)))
_BOOL = (_parse_bool, lambda v: str(v).lower())


def _csv(kind):
    """A comma-separated list of ``kind`` values, held as a tuple."""
    parse, render = kind
    return (lambda v: tuple(parse(x) for x in v.split(",")),
            lambda v: ",".join(render(x) for x in v))


CONFIG_FIELDS = {
    "experiment": ConfigField("experiment_id", *_TEXT),
    "seed": ConfigField("seed", *_INT),
    "trials": ConfigField("trials", *_INT),
    "dims": ConfigField("dims", *_csv(_INT)),
    "eps": ConfigField("eps_list", *_csv(_FLOAT)),
    "radius": ConfigField("radius", *_FLOAT),
    "law": ConfigField("law_kind", *_TEXT),
    "threads": ConfigField("threads", *_INT),
    "out": ConfigField("out_dir", str, None),
    "allocation": ConfigField("allocation", *_TEXT),
    "condition_positive_price": ConfigField("condition_positive_price", *_BOOL),
    "n_economies": ConfigField("n_economies", *_INT),
    "family_trials": ConfigField("family_trials", *_INT),
    "cap_high": ConfigField("cap_high", *_FLOAT),
    "cap_low": ConfigField("cap_low", *_FLOAT),
    "c_values": ConfigField("c_values", *_csv(_FLOAT)),
}
_AGENT_FIELDS = {
    "preference": ConfigField("kind", *_TEXT),
    "prior": ConfigField("prior", *_TEXT),
    "gamma": ConfigField("gamma", *_FLOAT),
    "bernoulli": ConfigField("bernoulli", *_TEXT),
    "endowment": ConfigField("endowment", *_TEXT),
}


def _read_lines(text: str) -> tuple[dict, list]:
    """The global ``key = value`` pairs of a config text and its agent blocks, unparsed."""
    flat: dict[str, str] = {}
    agent_blocks: list[dict] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key = value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key.startswith("agent."):
            akey = key[len("agent."):]
            if akey not in _AGENT_FIELDS:
                raise ValueError(f"config line {ln}: unknown agent key {akey!r}")
            if akey == "preference":
                agent_blocks.append({})
            elif not agent_blocks:
                raise ValueError(f"config line {ln}: agent.{akey} before agent.preference")
            elif akey in agent_blocks[-1]:
                raise ValueError(f"config line {ln}: duplicate key {key!r}")
            agent_blocks[-1][akey] = value
        else:
            if key not in CONFIG_FIELDS:
                raise ValueError(f"config line {ln}: unknown key {key!r}")
            if key in flat:
                raise ValueError(f"config line {ln}: duplicate key {key!r}")
            flat[key] = value
    return flat, agent_blocks


def _parsed(fields: dict, raw: dict) -> dict:
    return {fields[key].attr: fields[key].parse(value) for key, value in raw.items()}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key=value format (agent blocks start at agent.preference)."""
    flat, agent_blocks = _read_lines(text)
    if "experiment" not in flat:
        raise ValueError("config must set experiment = <id>")
    exp_id = flat["experiment"]
    exp = experiment_for(exp_id)
    if "seed" not in flat:
        raise ValueError("config must set an explicit seed (no wall-clock default)")
    for key in flat:
        if key not in exp.keys:
            raise ValueError(f"experiment {exp_id!r} does not recognize key {key!r}")
    if agent_blocks and not exp.agents:
        raise ValueError(f"experiment {exp_id!r} constructs its own agents; drop agent blocks")
    flat.setdefault("trials", _read_lines(exp.default_text)[0]["trials"])
    agents = tuple(AgentTemplate(**_parsed(_AGENT_FIELDS, a)) for a in agent_blocks)
    return ExperimentConfig(**_parsed(CONFIG_FIELDS, flat), agents=agents)


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


def default_config(experiment_id: str) -> ExperimentConfig:
    return parse_config_text(EXPERIMENTS[experiment_id].default_text)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    """One CSV field: text has commas mapped to ';' and newlines to spaces."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v).replace(",", ";").replace("\n", " ")


def rows_to_csv(columns: list[str], rows: list[dict]) -> str:
    out = [",".join(columns)]
    for row in rows:
        out.append(",".join(_fmt(row.get(c)) for c in columns))
    return "\n".join(out) + "\n"


@dataclass(frozen=True)
class RunResult:
    experiment_id: str
    columns: list
    rows: list
    plotdata: dict
    config: ExperimentConfig
    wall_time_s: float

    @cached_property
    def csv_text(self) -> str:
        return rows_to_csv(self.columns, self.rows)

    @property
    def error_rows(self) -> int:
        return sum(1 for r in self.rows if r.get("error"))

    @property
    def failed_checks(self) -> int:
        return sum(1 for r in self.rows if r.get("passed") is False)

    def manifest_text(self) -> str:
        csv_bytes = self.csv_text.encode()
        lines = [
            f"schema = {SCHEMA_VERSION}",
            f"tool = risklab {__version__}",
            # the Monte Carlo streams depend on numpy's generators and LAPACK's QR
            f"python = {platform.python_version()}",
            f"numpy = {np.__version__}",
            f"threads = {self.config.threads}",
            f"experiment = {self.experiment_id}",
            f"config_sha256 = {self.config.sha256()}",
            "columns = " + ",".join(self.columns),
            f"rows = {len(self.rows)}",
            f"results_sha256 = {hashlib.sha256(csv_bytes).hexdigest()}",
            "plotdata = " + ",".join(sorted(self.plotdata)),
            f"error_rows = {self.error_rows}",
            f"failed_checks = {self.failed_checks}",
            # wall time is informational; everything above is reproducible
            f"wall_time_s = {self.wall_time_s:.3f}",
        ]
        return "\n".join(lines) + "\n"

    def write(self, out_dir: str | Path) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "results.csv").write_text(self.csv_text)
        (out / "manifest.txt").write_text(self.manifest_text())
        (out / "config.txt").write_text(self.config.canonical_text())
        if self.plotdata:
            pd = out / "plotdata"
            pd.mkdir(exist_ok=True)
            for name, text in self.plotdata.items():
                (pd / name).write_text(text)
        return out


def _two_column(pairs) -> str:
    return "\n".join(f"{_fmt(a)},{_fmt(b)}" for a, b in pairs) + "\n"


def _estimate_columns(est: sampling.MCEstimate, bound: float) -> dict:
    return {"hits": est.hits, "p_hat": est.p_hat, "ci_low": est.ci_low,
            "ci_high": est.ci_high, "bound": bound, "within_bound": est.ci_low <= bound}


def _series(rows, prefix: str, ys) -> dict:
    """Plot files ``<prefix>_<y>.csv`` of (d, y) over the rows without an error."""
    ok = [r for r in rows if r["error"] is None]
    return {f"{prefix}_{y}.csv": _two_column((r["d"], r[y]) for r in ok) for y in ys}


# ---------------------------------------------------------------------------
# economy construction from config
# ---------------------------------------------------------------------------


def build_economy(config: ExperimentConfig, d: int, no_agg: bool = False) -> economy.EconomySpec:
    if not config.agents:
        raise ValueError("this experiment needs agent blocks in the config")
    n = len(config.agents)
    agents = tuple(t.instantiate(d, n) for t in config.agents)
    return economy.EconomySpec(agents, no_aggregate_uncertainty=no_agg)


def resolve_allocation(config: ExperimentConfig, econ: economy.EconomySpec) -> economy.Allocation:
    """The experiment's base allocation."""
    spec = config.allocation
    if spec == "equilibrium":
        return economy.tatonnement_equilibrium(econ).allocation
    if spec == "planner":
        return economy.planner_allocation(econ)[0]
    if spec == "equal-split":
        return economy.equal_split(econ)
    if spec.startswith("literal:"):
        rows = [
            [float(x) for x in chunk.split(",")]
            for chunk in spec[len("literal:"):].split("|")
        ]
        return economy.Allocation(np.array(rows)).check_feasible(econ)
    raise ValueError(f"unknown allocation spec {spec!r}")


# ---------------------------------------------------------------------------
# runners: each returns (rows, plotdata)
# ---------------------------------------------------------------------------


def _sweep(config: ExperimentConfig, prepare, **fixed) -> list[dict]:
    """One row per (eps, d) cell, each with its own law and seed stream.

    ``prepare(law, eps, seed)`` sets a cell up (its economy, allocation and
    screen) and returns ``(block, finish)``: ``block(b, m)`` measures block b
    of the cell's ``trials`` draws, and ``finish(results)`` turns the block
    results, in block order, into the cell's measured columns.  Every cell
    is prepared first, then the blocks of all of them run in one
    :func:`sampling.map_blocks` call, and then each cell is finished.  A
    cell whose economy, solver or blocks fail with ValueError or
    ConvergenceError gets the message in its ``error`` column.
    """
    rows, prepared = [], []
    for cell, (eps, d) in enumerate(itertools.product(config.eps_list, config.dims)):
        law = sampling.PerturbationLaw(config.law_kind, d, config.radius)
        row = {**fixed, "d": d, "eps": eps, "r": config.radius, "n": config.trials,
               "error": None}
        rows.append(row)
        try:
            prepared.append((row, *prepare(law, eps, config.seed_spec.stream(cell))))
        except (ValueError, geometry.ConvergenceError) as exc:
            row["error"] = str(exc)
    results = sampling.map_blocks(lambda cell, b, m: prepared[cell][1](b, m),
                                  [config.trials] * len(prepared), config.threads)
    for (row, _, finish), blocks in zip(prepared, results):
        try:
            row.update(finish(sampling.cell_results(blocks)))
        except (ValueError, geometry.ConvergenceError) as exc:
            row["error"] = str(exc)
    return rows


def run_thm1(config: ExperimentConfig):
    """Individual-improvement probability vs its tail bound across the d sweep."""
    if len(config.eps_list) != 1:
        raise ValueError("this experiment takes a single eps")

    def prepare(law, eps, seed):
        econ = build_economy(config, law.dim)
        f = resolve_allocation(config, econ)
        tau = min(float(a.endowment.min()) for a in econ.agents)
        if tau <= 0:
            raise ValueError("the tail bound needs strictly positive endowments (tau > 0)")
        # the screen takes every agent's supergradient and utility once before
        # sampling, so an act outside its agent's domain makes an error row
        projection = economy.improvement_screen(econ, f, eps, law.radius)

        def event(Z):
            return economy.individual_improvement_event(econ, f, Z, eps)

        def finish(hits):
            est = sampling.MCEstimate(sum(hits), config.trials)
            bound = bounds.bound_thm1(eps, tau, config.radius, law.dim, law.kappa)
            return {"tau": tau, "kappa": law.kappa, **_estimate_columns(est, bound)}

        return sampling.block_hits(event, law, seed, projection), finish

    rows = _sweep(config, prepare, experiment="thm1")
    return rows, _series(rows, "thm1", ("p_hat", "ci_high", "bound"))


def _membership_counts(econ, f, law, eps, n, seed_spec, conditioned=False):
    """Blockwise aggregate membership: ``(work, tally)``.

    ``work(b, m)`` decides block b of m draws, and ``tally(results)`` turns
    the block results of all n draws into the estimate over accepted draws
    and the count of indeterminate ones.  Every block is drawn by
    :meth:`sampling.PerturbationLaw.sample_projected_block`
    with :func:`economy.contour_screen`: only the draws in the contour cap are
    completed, and one :func:`economy.scitovsky_members` call per block (an
    empty one too) decides them; every other draw is a miss.  When
    ``conditioned``, only draws with Y = u . z > 0 are counted (rejection
    conditioning on the positive-price half-space: at the Pareto-optimal
    interior allocations that have a supporting price, u is that price's
    direction), so the estimate's trials are the accepted draws, counted on
    every row's coordinates (:meth:`sampling.PerturbationLaw.sample_projected_coordinates`),
    and the rejected ones are never completed; conditioning at an allocation whose
    supergradients are not parallel raises ValueError.  In ``tally``, more
    than 1% boundary-indeterminate draws raise ConvergenceError, and a
    conditioning that rejects every draw raises ValueError.
    """
    w = econ.aggregate
    Q, keep = economy.contour_screen(econ, f, eps, law.radius)
    if conditioned:
        if not Q.shape[1]:
            raise ValueError("conditioning needs parallel supergradients at the allocation")
        screen = keep

        def keep(Y):
            return screen(Y) & (Y[:, 0] > 0.0)

    def work(b, m):
        if conditioned:
            Y, Z = law.sample_projected_coordinates(b, m, seed_spec, Q, keep)
            acc = int(np.count_nonzero(Y[:, 0] > 0.0))
        else:
            _, Z = law.sample_projected_block(b, m, seed_spec, Q, keep)
            acc = m
        member, indet = economy.scitovsky_members(econ, f, w[None, :] + Z, eps)
        return acc, int(np.count_nonzero(member)), int(np.count_nonzero(indet))

    def tally(results):
        acc, hits, indet = (sum(col) for col in zip(*results))
        if indet > 0.01 * n:
            raise geometry.ConvergenceError(
                f"{indet} boundary-indeterminate draws (> 1% of {n})", value=indet,
                gap=indet / n,
            )
        if acc == 0:
            raise ValueError("conditioning rejected every draw")
        return sampling.MCEstimate(hits=hits, trials=acc), indet

    return work, tally


def run_thm2(config: ExperimentConfig):
    """Aggregate-improvement (Scitovsky membership) probability vs its bound."""
    conditioned = config.condition_positive_price

    def prepare(law, eps, seed):
        econ = build_economy(config, law.dim, no_agg=True)
        f = resolve_allocation(config, econ)
        work, tally = _membership_counts(econ, f, law, eps, config.trials, seed, conditioned)

        def finish(results):
            est, indet = tally(results)
            bound = bounds.bound_thm2(eps, config.radius, law.dim, law.kappa)
            if conditioned:
                bound *= 2.0
            return {"kappa": law.kappa, "n_accepted": est.trials, "indeterminate": indet,
                    **_estimate_columns(est, bound)}

        return work, finish

    rows = _sweep(config, prepare, experiment="thm2", conditioned=conditioned)
    plot = {}
    for eps in config.eps_list:
        plot.update(_series([r for r in rows if r["eps"] == eps], f"thm2_eps{eps:g}",
                            ("p_hat", "bound")))
    return rows, plot


def run_cru(config: ExperimentConfig):
    """Resource-utilization coefficient, its improvement level, and the tail bound."""
    d = config.dims[0]
    econ = build_economy(config, d, no_agg=True)
    f = resolve_allocation(config, econ)
    beta = economy.cru(econ, f)
    if beta >= 1.0 - 5e-7:
        raise ValueError(
            "allocation is Pareto optimal (beta = 1); the utilization experiment needs waste"
        )
    improvement = 1.0 - beta * beta
    law = sampling.PerturbationLaw(config.law_kind, d, config.radius)
    work, tally = _membership_counts(econ, f, law, improvement, config.trials,
                                     config.seed_spec.stream(0))
    results = sampling.map_blocks(lambda cell, b, m: work(b, m), [config.trials],
                                  config.threads)[0]
    est, indet = tally(sampling.cell_results(results))
    row = {
        "experiment": "cru", "d": d, "beta": beta, "improvement": improvement,
        "r": config.radius, "n": config.trials, "n_accepted": est.trials,
        "indeterminate": indet,
        **_estimate_columns(est, bounds.bound_cru(beta, config.radius, d)), "error": None,
    }
    plot = {
        "cru_bound_vs_d.csv": _two_column(
            (dd, bounds.bound_cru(beta, config.radius, dd))
            for dd in sorted(set(config.dims) | {2, 8, 32, 128, 512, 4000})
        )
    }
    return [row], plot


# -- the two-agent ambiguity construction ------------------------------------


@dataclass(frozen=True)
class AmbiguityInstance:
    """A two-agent max-min economy with a built-in eps-dominated trade.

    Agent 1's priors are the cap {mu_0 >= a}, agent 2's {mu_0 <= b}.  From
    the constant equal split t*1 the agents hold the transfer
    h = (x, -y/(d-1), ...): with overlapping caps (a < b) and
    y/x strictly between (d-1)a/(1-a) and (d-1)b/(1-b) both agents are
    strictly worse off than at t*1, so undoing the trade improves both and
    the traded allocation is eps-dominated for every eps below min_i G_i/t.
    With disjoint caps (a > b) the reversed assignment (agent 1 takes the
    negative state-0 leg) hurts both for any positive x, y.
    """

    d: int
    econ: economy.EconomySpec
    traded: economy.Allocation
    eps: float

    @property
    def constant(self) -> economy.Allocation:
        return economy.equal_split(self.econ)


def _ambiguity_instance(d: int, a: float, b: float) -> AmbiguityInstance:
    t = 0.5
    v1, h1 = preferences.cap_prior_polytope(d, 0, a, "ge")
    v2, h2 = preferences.cap_prior_polytope(d, 0, b, "le")
    agents = (
        economy.Agent(preferences.MaxMinEU(v1, "linear", (h1,)), np.full(d, t)),
        economy.Agent(preferences.MaxMinEU(v2, "linear", (h2,)), np.full(d, t)),
    )
    econ = economy.EconomySpec(agents, no_aggregate_uncertainty=True)
    ones = np.ones(d)
    if a < b:
        # overlapping caps: agent 1 takes the positive state-0 leg and the
        # transfer ratio sits mid-band so both worst cases deteriorate
        m_lo = (d - 1) * a / (1.0 - a)
        m_hi = (d - 1) * b / (1.0 - b)
        mmid = 0.5 * (m_lo + m_hi)
        x = 0.8 * min(t, t * (d - 1) / mmid)
        ybar = mmid * x / (d - 1)
        h = np.full(d, -ybar)
        h[0] = x
        f1, f2 = t * ones + h, t * ones - h
        G1 = (1.0 - a) * ybar - a * x
        G2 = b * x - (1.0 - b) * ybar
    else:
        # disjoint caps: agent 1 (who believes state 0) gives up state 0
        x = ybar = 0.2 * t
        h = np.full(d, -ybar)
        h[0] = x
        f1, f2 = t * ones - h, t * ones + h
        G1, G2 = x, ybar
    if min(G1, G2) <= 0:
        raise ValueError("construction failed to hurt both agents")
    eps = 0.5 * min(G1, G2) / t
    traded = economy.Allocation(np.vstack([f1, f2])).check_feasible(econ, nonneg=True)
    return AmbiguityInstance(d, econ, traded, eps)


def _prop3_rows(inst: AmbiguityInstance, c_values, traded_sets, dist: float,
                constant_phase: bool):
    """Emptiness rows (both rho modes) at the traded acts, plus an optional volume row."""
    bound_columns = {f"bound_c{c:g}": bounds.bound_thm4(inst.eps, inst.d, c)
                     for c in c_values}
    mid_bound = bound_columns[f"bound_c{c_values[len(c_values) // 2]:g}"]

    sets = [traded_sets]
    if constant_phase:
        sets.append(economy.belief_sets(inst.econ, inst.constant))
    splits = economy.belief_volume_split(sets, [0])

    def row(experiment, phase, vols, **fields):
        return {
            "experiment": experiment, "phase": phase, "d": inst.d, "eps": inst.eps,
            "vol_J": vols.vol_J, "vol_Jc": vols.vol_Jc,
            "min_rel_vol": vols.min_rel_vol, **bound_columns,
            "within_bound": vols.min_rel_vol <= mid_bound, "error": None, **fields,
        }

    traded = row("prop3", "dominated", splits[0], dist=dist)
    rows = []
    for mode in ("definitional", "paper"):
        rho_v = economy.rho(inst.econ, mode=mode)
        delta = inst.eps / rho_v
        r = {**traded, "rho_mode": mode, "rho": rho_v, "delta": delta}
        try:
            r["empty_intersection"] = preferences.belief_set_extension_empty(dist, delta)
        except geometry.ConvergenceError as exc:
            r["empty_intersection"] = None
            r["error"] = str(exc)
        rows.append(r)
    if constant_phase:
        rows.append(row("thm4", "constant", splits[1], rho_mode=None, rho=None,
                        delta=None, dist=None, empty_intersection=None))
    return rows


def run_prop3_thm4(config: ExperimentConfig):
    """Joint belief-extension emptiness and exact belief-volume splits.

    Two phases: a batch of random overlapping-cap economies at the first
    sweep dimension (emptiness of the delta-extended belief sets at the
    constructed dominated allocation, delta = eps/rho in both rho modes),
    and a fixed disjoint-cap family across the dimension sweep whose
    constant-act belief volumes trace the min-relative-volume trend.  One
    :func:`geometry.polytope_distance` call measures every traded pair.

    Every volume is exact (:func:`economy.belief_volume_split`): the belief
    sets at a traded act are proper faces of the caps, so both volumes are
    0, and the constant-act caps {mu_0 >= cap_high} and {mu_0 <= cap_low}
    have (1 - cap_high)^(d-1) and 1 - (1 - cap_low)^(d-1).  Nothing is
    sampled but the random economies' cap levels, so ``trials``,
    ``family_trials`` and ``threads`` have no effect.
    """
    seed = config.seed_spec
    insts = []
    for e in range(config.n_economies):
        gen = sampling.generator_for_block(seed.stream(1000 + e), 0)
        a = 0.15 + 0.20 * gen.random()
        b = 0.55 + 0.25 * gen.random()
        insts.append(_ambiguity_instance(config.dims[0], a, b))
    insts += [_ambiguity_instance(d, config.cap_high, config.cap_low) for d in config.dims]
    traded = [economy.belief_sets(inst.econ, inst.traded) for inst in insts]
    certs = geometry.polytope_distance(traded)
    rows = []
    for k, inst in enumerate(insts):
        rows += _prop3_rows(inst, config.c_values, traded[k], certs[k].value,
                            k >= config.n_economies)
    const = [r for r in rows if r["phase"] == "constant"]
    mid_c = config.c_values[len(config.c_values) // 2]
    return rows, _series(const, "thm4", ("min_rel_vol", f"bound_c{mid_c:g}"))


# -- support checks ----------------------------------------------------------


def _check_row(family, check, passed, detail=""):
    return {"family": family, "check": check, "passed": bool(passed), "detail": detail}


def _bm_pairs(seed: sampling.SeedSpec) -> dict:
    """The 1000 random box pairs of the ``bm`` checks, stacked by dimension.

    Each pair draws its dimension d in 2..6, its bounds and lam from one
    stream, pair after pair.  Maps d to ``(A, B, lam)``: A and B the stacks
    of that dimension's boxes, lam their (n,) weights, pairs in draw order.
    """
    gen = sampling.generator_for_block(seed.stream(0), 0)
    pairs = {d: [] for d in range(2, 7)}
    for _ in range(1000):
        d = int(gen.integers(2, 7))
        lo_a = gen.random(d)
        lo_b = gen.random(d)
        pairs[d].append((lo_a, lo_a + 0.2 + gen.random(d), lo_b, lo_b + 0.2 + gen.random(d),
                         0.1 + 0.8 * gen.random()))
    stacks = {}
    for d, drawn in pairs.items():
        lo_a, hi_a, lo_b, hi_b, lam = (np.array(v) for v in zip(*drawn))
        stacks[d] = geometry.Box(lo_a, hi_a), geometry.Box(lo_b, hi_b), lam
    return stacks


def _bm_checks(seed: sampling.SeedSpec):
    """Brunn-Minkowski on random box pairs, one call per dimension, and on two homothetic pairs."""
    rows = []
    violations = 0
    worst = math.inf
    for A, B, lam in _bm_pairs(seed).values():
        res = geometry.bm_check(A, B, lam)
        violations += int(np.count_nonzero(~res.holds))
        worst = min(worst, float(np.min(res.lhs_root - res.rhs_root)))
    rows.append(_check_row("bm", "random-boxes-1000", violations == 0,
                           f"violations={violations} worst_root_gap={worst:.3e}"))
    A = geometry.Box(np.zeros(3), np.array([1.0, 2.0, 0.5]))
    Bh = geometry.Box(np.full(3, 0.25), np.full(3, 0.25) + 2.0 * A.sides)
    res = geometry.bm_check(A, Bh, 0.3)
    rows.append(_check_row("bm", "homothetic-equality", res.root_equality,
                           f"lhs_root={res.lhs_root:.12g} rhs_root={res.rhs_root:.12g}"))
    ball_res = geometry.bm_check(geometry.Ball(np.zeros(4), 0.7),
                                 geometry.Ball(np.ones(4), 1.9), 0.45)
    rows.append(_check_row("bm", "balls-homothetic", ball_res.holds and ball_res.root_equality,
                           f"gap={ball_res.lhs_root - ball_res.rhs_root:.3e}"))
    return rows


def _lemma1_cuts() -> dict[int, np.ndarray]:
    """Each d's ``_LEMMA1_BINS - 1`` cut points splitting z_1 into bins of equal mass.

    Under the uniform unit-ball law P(z_1 >= t) = 0.5 I_{1-t^2}((d+1)/2, 1/2)
    for t >= 0 (:func:`geometry.cap_fraction`), and z_1 is symmetric about
    0, so the upper cuts are the cap heights of the tails k / ``_LEMMA1_BINS``.
    """
    tail = np.arange(1, _LEMMA1_BINS // 2) / _LEMMA1_BINS
    upper = special.cap_height(_LEMMA1_DIMS, tail)
    return {d: np.concatenate([-row, [0.0], row[::-1]]) for d, row in zip(_LEMMA1_DIMS, upper)}


def _lemma1_block_counts(first: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """One block's counts of z_1: at or above each delta/2, then in each bin between the cuts.

    The column is sorted once and the delta/2 and the cuts are located in
    it: the values >= delta/2 are those from its leftmost insertion point
    on, and the values <= a cut those before its rightmost one, so a value
    equal to a cut falls in the bin below it.  The counts are those of
    ``count_nonzero(first >= delta/2)`` and
    ``bincount(searchsorted(cuts, first))``, a binary search per value.
    """
    z = np.sort(first)
    tails = len(z) - np.searchsorted(z, np.divide(_LEMMA1_DELTAS, 2.0), side="left")
    cells = np.diff(np.searchsorted(z, cuts, side="right"), prepend=0, append=len(z))
    return np.concatenate([tails, cells])


def _lemma1_counts(seed: sampling.SeedSpec, trials: int, threads: int):
    """``(estimates, bins)`` of z_1 under the uniform unit-ball law.

    ``estimates[delta, d]`` is the MCEstimate of P(z_1 >= delta/2), and
    ``bins[d]`` the counts of z_1 in the bins between :func:`_lemma1_cuts`.
    Each d (index i in ``_LEMMA1_DIMS``) reads the coordinates along
    Q = e_1 of one projected stream, ``seed.stream(100 + i)``, and completes
    no row; every count is taken on the same blocks
    (:func:`_lemma1_block_counts`).  The d are the cells of one
    :func:`sampling.map_blocks` call.
    """
    estimates, bins, cuts = {}, {}, _lemma1_cuts()
    cells = [(sampling.PerturbationLaw("uniform-ball", d, 1.0), seed.stream(100 + i),
              np.eye(d, 1), cuts[d]) for i, d in enumerate(_LEMMA1_DIMS)]

    def count(i: int, b: int, m: int) -> np.ndarray:
        law, stream, e1, cut = cells[i]
        Y, _ = law.sample_projected_coordinates(b, m, stream, e1, lambda Y: np.zeros(m, bool))
        return _lemma1_block_counts(Y[:, 0], cut)

    results = sampling.map_blocks(count, [trials] * len(_LEMMA1_DIMS), threads)
    for d, blocks in zip(_LEMMA1_DIMS, results):
        counts = sum(sampling.cell_results(blocks))
        for delta, k in zip(_LEMMA1_DELTAS, counts):
            estimates[delta, d] = sampling.MCEstimate(int(k), trials)
        bins[d] = counts[len(_LEMMA1_DELTAS):]
    return estimates, bins


def _lemma1_checks(seed: sampling.SeedSpec, trials: int, threads: int, plot: dict):
    """The separated-halfspace and marginal rows; the exact-fraction curves go to ``plot``.

    A separated-halfspace row passes when the exact cap fraction lies below
    the lemma's bound, the Monte Carlo tail is within ``_LEMMA1_Z`` binomial
    standard errors of that exact fraction, and the tail is within the bound.
    A marginal row passes when the chi-square test of z_1's counts in
    ``_LEMMA1_BINS`` equal-mass bins has p-value above ``_LEMMA1_CHI2_P``.
    """
    estimates, bins = _lemma1_counts(seed, trials, threads)
    rows = []
    plot_pairs = {delta: [] for delta in _LEMMA1_DELTAS}
    for delta, d in itertools.product(_LEMMA1_DELTAS, _LEMMA1_DIMS):
        exact, bound = geometry.separation_bound_check(delta, d)
        est = estimates[delta, d]
        z = (est.p_hat - exact) / math.sqrt(exact * (1.0 - exact) / trials)
        ok = exact <= bound and abs(z) <= _LEMMA1_Z and est.ci_low <= bound
        rows.append(_check_row(
            "lemma1", f"separated-halfspaces-delta{delta:g}-d{d}", ok,
            f"exact={exact:.6g} mc={est.p_hat:.6g} z={z:.3g} bound={bound:.6g}",
        ))
        plot_pairs[delta].append((d, exact))
    expected = trials / _LEMMA1_BINS
    for d in _LEMMA1_DIMS:
        chi2 = float(np.sum((bins[d] - expected) ** 2) / expected)
        p = special.chi2_sf(_LEMMA1_BINS - 1, chi2)
        rows.append(_check_row(
            "lemma1", f"marginal-chi2-{_LEMMA1_BINS}bins-d{d}", p > _LEMMA1_CHI2_P,
            f"chi2={chi2:.6g} df={_LEMMA1_BINS - 1} p={p:.3g}",
        ))
    for delta, pairs in plot_pairs.items():
        plot[f"lemma1_fraction_delta{delta:g}.csv"] = _two_column(pairs)
    return rows


def _kappa_checks():
    rows = []
    worst = -math.inf
    strict = True
    for r in (0.5, 1.0, 2.0):
        cap = math.exp(r * r / 2.0)
        for d in range(1, 51):
            k = sampling.gaussian_kappa_ratio(d, r)
            if not k < cap:
                strict = False
            worst = max(worst, k - cap)
    # the id names the quadrature the closed form replaced; it stays so the checks bytes hold
    rows.append(_check_row("kappa", "quadrature-ratio-below-gaussian-cap", strict,
                           f"worst_ratio_minus_cap={worst:.3e}"))
    return rows


def _prop7_checks():
    rows = []
    rows.append(_check_row(
        "prop7", "prefactor-below-4-up-to-1e6", bounds.prop7_prefactor_below_4(10**6),
        f"max_at_d4={bounds.prop7_prefactor(4):.6g}",
    ))
    log_slack_target = lambda d: -(d - 1) * math.log(math.sqrt(3.0) - 1.0)
    ok = True
    worst = 0.0
    for d in range(2, 11):
        for rho_ in (0.25, 0.5):
            chk = bounds.width_floor_ball_instance(d, rho_)
            gap = abs(chk.slack_log - log_slack_target(d))
            worst = max(worst, gap)
            ok = ok and chk.holds and gap <= 1e-9
    rows.append(_check_row("prop7", "ball-instances-meet-floor-with-exact-slack", ok,
                           f"worst_identity_gap={worst:.3e}"))
    return rows


def _economy_checks(seed: sampling.SeedSpec):
    rows = []
    gen = sampling.generator_for_block(seed.stream(200), 0)

    cfg1 = default_config("thm1")
    econ = build_economy(cfg1, 4)
    eq = economy.tatonnement_equilibrium(econ)
    p, F = eq.price, eq.allocation.acts
    eps = 0.1
    tau = min(float(a.endowment.min()) for a in econ.agents)
    cert_ok, q_ok = True, True
    for i, agent in enumerate(econ.agents):
        E = np.abs(gen.standard_normal((1000, 4))) * 0.2 + 1e-6
        better = F[i][None, :] + E
        keep = agent.preference.utility(better) > agent.preference.utility(F[i])
        cert_ok &= bool(np.all(better[keep] @ p > agent.endowment @ p - 1e-12))
        members = (F[i][None, :] + E) / (1.0 - eps)
        q_ok &= bool(np.all((members - agent.endowment) @ p > eps * tau * p.sum() - 1e-12))
    rows.append(_check_row("economy", "equilibrium-price-certificate", cert_ok,
                           "better bundles cost more at equilibrium prices"))
    rows.append(_check_row("economy", "improvement-halfspace-inclusion", q_ok,
                           "eps-improvements clear the eps*tau price margin"))

    cfg2 = default_config("thm2")
    econ2 = build_economy(cfg2, 4, no_agg=True)
    f2, price2 = economy.planner_allocation(econ2)
    # 1000 perturbations of the (2, 4) allocation in one draw, the stream of 1000 draws of one
    E = np.abs(gen.standard_normal((1000, 2, 4))) * 0.1 + 1e-9
    v = ((f2.acts + E) / (1.0 - eps)).sum(axis=1)
    v_ok = bool(np.all(v @ price2 >= price2.sum() / (1.0 - eps) - 1e-8))
    rows.append(_check_row("economy", "aggregate-contour-halfspace-inclusion", v_ok,
                           "contour members clear ||p||_1/(1-eps)"))

    econ2d = build_economy(cfg2, 2, no_agg=True)
    eq2 = economy.tatonnement_equilibrium(econ2d)
    dominated = economy.scitovsky_member_grid(econ2d, eq2.allocation, econ2d.aggregate, 0.0)
    rows.append(_check_row("economy", "first-welfare-grid", not dominated,
                           "equilibrium allocation not grid-dominated at eps=0"))

    inner_v, inner_h = preferences.cap_prior_polytope(4, 0, 0.5, "ge")
    outer_v, outer_h = preferences.cap_prior_polytope(4, 0, 0.3, "ge")
    inner = geometry.Polytope(vertices=inner_v, halfspaces=(inner_h,))
    outer = geometry.Polytope(vertices=outer_v, halfspaces=(outer_h,))
    pts = sampling.sample_uniform_simplex(4, 1000, seed.stream(201))
    d_in = geometry.distance_point_to_convex(pts, inner)
    d_out = geometry.distance_point_to_convex(pts, outer)
    rows.append(_check_row("economy", "intersection-extension-containment",
                           np.all(d_in >= d_out - 1e-9), "distance to the smaller set dominates"))
    return rows


def run_support_checks(config: ExperimentConfig):
    """Invariant suites over geometry, sampling, bounds, and economy wiring."""
    seed = config.seed_spec
    plot = {}
    suites = {
        "bm": lambda: _bm_checks(seed),
        "lemma1": lambda: _lemma1_checks(seed, config.trials, config.threads, plot),
        "kappa": _kappa_checks,
        "prop7": _prop7_checks,
        "economy": lambda: _economy_checks(seed),
    }
    fam = config.experiment_id
    families = CHECK_FAMILIES if fam == "checks" else (fam,)
    return [row for name in families for row in suites[name]()], plot


def reproduce_paper_anchors() -> list[tuple[str, float, str]]:
    """The three closed-form anchor values, with display notes."""
    b1 = bounds.bound_thm1(eps=0.1, tau=1.0, r=1.0, d=4000, kappa=1.0)
    b2 = bounds.bound_cru(beta=0.9, r=1.0, d=4000)
    k3 = sampling.gaussian_kappa_ratio(3, 1.0)
    return [
        ("individual-improvement tail (eps=0.1, tau=1, r=1, d=4000)",
         b1, f"= {b1 * 100:.2f}%"),
        ("resource-utilization tail (beta=0.9, r=1, d=4000)",
         b2, f"= {b2 * 100:.2f}%"),
        ("density-ratio ceiling kappa(d=3, r=1)",
         k3, f"<= e^(r^2/2) = {math.exp(0.5):.4f}"),
    ]


def format_anchor_table() -> str:
    lines = []
    for label, value, note in reproduce_paper_anchors():
        lines.append(f"{label}: {value:.4g} {note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the experiment registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Experiment:
    """One experiment family: its ids, CLI subcommand, columns, runner, keys, defaults."""

    id: str
    # further config ``experiment`` values this family runs
    aliases: tuple
    subcommand: str
    help: str
    # "bound_c*" stands for one bound_c<c> column per configured c value
    columns: tuple
    # (config) -> (rows, plotdata)
    runner: Callable
    # the config keys the family accepts
    keys: frozenset
    default_text: str
    # whether configs carry agent.* blocks
    agents: bool = False

    def columns_for(self, config: ExperimentConfig) -> list[str]:
        out = []
        for c in self.columns:
            out += [f"bound_c{v:g}" for v in config.c_values] if c == "bound_c*" else [c]
        return out


_COMMON_KEYS = frozenset({"experiment", "seed", "trials", "threads", "out"})
_ECONOMY_KEYS = _COMMON_KEYS | {"dims", "radius", "law", "allocation"}

EXPERIMENTS = {e.id: e for e in (
    Experiment(
        "thm1", (), "thm1", "individual eps-improvement probability vs its tail bound",
        ("experiment", "d", "eps", "tau", "r", "kappa", "n", "hits",
         "p_hat", "ci_low", "ci_high", "bound", "within_bound", "error"),
        run_thm1, _ECONOMY_KEYS | {"eps"}, """\
experiment = thm1
seed = 1733
trials = 100000
dims = 2,8,32,128,512
eps = 0.1
radius = 1.0
law = uniform-ball
allocation = equilibrium
agent.preference = cobb-douglas
agent.prior = spike:0:0.9
agent.endowment = ones
agent.preference = cobb-douglas
agent.prior = spike:0:0.85
agent.endowment = ones
agent.preference = cobb-douglas
agent.prior = spike:0:0.8
agent.endowment = ones
""", agents=True),
    Experiment(
        "thm2", (), "thm2", "aggregate (Scitovsky) improvement probability vs its tail bound",
        ("experiment", "d", "eps", "r", "kappa", "n", "n_accepted", "hits",
         "indeterminate", "conditioned", "p_hat", "ci_low", "ci_high",
         "bound", "within_bound", "error"),
        run_thm2, _ECONOMY_KEYS | {"eps", "condition_positive_price"}, """\
experiment = thm2
seed = 744
trials = 10000
dims = 2,8,32
eps = 0.05,0.2
radius = 1.0
law = uniform-ball
allocation = planner
agent.preference = cobb-douglas
agent.prior = spike:0:0.7
agent.endowment = equal-share
agent.preference = cobb-douglas
agent.prior = uniform
agent.endowment = equal-share
""", agents=True),
    Experiment(
        "cru", (), "cru", "resource-utilization coefficient and the waste-detection bound",
        ("experiment", "d", "beta", "improvement", "r", "n", "n_accepted", "hits",
         "indeterminate", "p_hat", "ci_low", "ci_high", "bound", "within_bound", "error"),
        run_cru, _ECONOMY_KEYS, """\
experiment = cru
seed = 55
trials = 100000
dims = 2
radius = 1.0
law = uniform-ball
allocation = literal:0.8,0.2|0.2,0.8
agent.preference = cobb-douglas
agent.prior = uniform
agent.endowment = equal-share
agent.preference = cobb-douglas
agent.prior = uniform
agent.endowment = equal-share
""", agents=True),
    Experiment(
        "prop3", ("thm4",), "prop3-thm4", "belief-extension emptiness and belief-volume splits",
        ("experiment", "phase", "d", "eps", "rho_mode", "rho", "delta", "dist",
         "empty_intersection", "vol_J", "vol_Jc", "min_rel_vol", "bound_c*",
         "within_bound", "error"),
        run_prop3_thm4,
        # trials, threads, family_trials are inert: kept for perfbench until ROADMAP 5(a)
        _COMMON_KEYS | {"dims", "n_economies", "family_trials", "cap_high", "cap_low",
                        "c_values"}, """\
experiment = prop3
seed = 99
trials = 100000
dims = 3,4,5,6,7,8,9,10,11,12
n_economies = 100
cap_high = 0.6
cap_low = 0.2
c_values = 0.5,1,2
"""),
    Experiment(
        "checks", ("prop7", "lemma1", "kappa", "bm", "economy"), "checks",
        "support invariants: bm, lemma1, kappa, prop7, economy wiring",
        ("family", "check", "passed", "detail"),
        run_support_checks, _COMMON_KEYS, """\
experiment = checks
seed = 7
trials = 1000000
threads = 2
"""),
)}


def experiment_for(config_id: str) -> Experiment:
    """The family that runs configs with ``experiment = config_id``."""
    for exp in EXPERIMENTS.values():
        if config_id == exp.id or config_id in exp.aliases:
            return exp
    raise ValueError(f"unknown experiment id {config_id!r}")


def run_experiment(config: ExperimentConfig) -> RunResult:
    exp = experiment_for(config.experiment_id)
    t0 = time.perf_counter()
    rows, plot = exp.runner(config)
    result = RunResult(config.experiment_id, exp.columns_for(config), rows, plot, config,
                       time.perf_counter() - t0)
    if config.out_dir:
        result.write(config.out_dir)
    return result
