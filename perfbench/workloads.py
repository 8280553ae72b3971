"""The four benchmark workloads: which CLI subcommand runs each, and its config.

Each workload is a risklab default experiment config written out in the
public ``key = value`` format, so the benchmark does not depend on how the
package stores its defaults.  The seed is the only input that varies between
benchmark runs, and it reaches the program only through the generated file.
"""

from __future__ import annotations

from dataclasses import dataclass

_THM1 = """\
experiment = thm1
seed = {seed}
trials = {trials}
dims = 2,8,32,128,512
eps = 0.1
radius = 1.0
law = uniform-ball
threads = 2
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
"""

_THM2_RG = """\
experiment = thm2
seed = {seed}
trials = {trials}
dims = 2,8,32
eps = 0.05,0.2
radius = 1.0
law = restricted-gaussian
threads = 1
allocation = planner
agent.preference = cobb-douglas
agent.prior = spike:0:0.7
agent.endowment = equal-share
agent.preference = cobb-douglas
agent.prior = uniform
agent.endowment = equal-share
"""

_PROP3 = """\
experiment = prop3
seed = {seed}
trials = {trials}
dims = {dims}
threads = 1
n_economies = {n_economies}
family_trials = {family_trials}
cap_high = 0.6
cap_low = 0.2
c_values = 0.5,1,2
"""

_CHECKS = """\
experiment = checks
seed = {seed}
trials = {trials}
threads = 1
"""


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    default_seed: int
    threads: int
    template: str
    # full-size template fields, and the tiny ones the self-test uses
    sizes: dict
    tiny_sizes: dict
    # the layers predicted to cover at least hot_share of the traced busy time
    # (the run's wall time when it uses one thread)
    hot_layers: tuple
    hot_share: float

    def config_text(self, seed: int, tiny: bool = False) -> str:
        return self.template.format(seed=seed, **(self.tiny_sizes if tiny else self.sizes))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("thm1", "thm1", 1733, 2, _THM1,
                 {"trials": 100_000}, {"trials": 200},
                 ("sampling.ball", "preferences.utility_extended",
                  "economy.individual_improvement_event"), 0.90),
        Workload("thm2-rg", "thm2", 744, 1, _THM2_RG,
                 {"trials": 10_000}, {"trials": 200},
                 ("sampling.rg", "economy.scitovsky_margins_batch"), 0.90),
        Workload("prop3", "prop3-thm4", 99, 1, _PROP3,
                 {"trials": 100_000, "dims": "3,4,5,6,7,8,9,10,11,12",
                  "n_economies": 100, "family_trials": 1_000_000},
                 {"trials": 200, "dims": "3,4", "n_economies": 2, "family_trials": 200},
                 ("geometry.contains", "sampling.simplex"), 0.90),
        # the default checks config draws 1e6 per lemma1 cell (83 s a run);
        # 1e5 keeps the same code path at about 9 s
        Workload("checks", "checks", 7, 1, _CHECKS,
                 {"trials": 100_000}, {"trials": 200},
                 ("sampling.ball",), 0.70),
    )
}
