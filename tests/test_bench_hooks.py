"""The benchmark tracer's hook points still exist and still see the work.

``perfbench/tracer.py`` patches named package attributes and reads some
arguments by position, so a refactor that renames or reorders them would
silently blind the benchmark's per-layer numbers.  This test installs the
tracer, runs a small threaded ``thm1``, a small ``thm2``, a small ``prop3``
and the ``economy`` checks, and checks the spans of the benchmark's hot
layers.  Every runner draws its blocks through the projected sampler, which
has no hook, so the uniform-ball sampler's spans come from a plain
``mc_probability`` call.  ``prop3`` computes its volumes exactly, so the
simplex sampler's spans come from the ``economy`` checks, and no run reaches
``geometry.contains``: its hook is only checked to be installed and
restored.  The two event deciders work through a block in chunks inside one
call, and a traced ``thm1`` and ``thm2`` check that the benchmark still sees
one decider span per sampled block.  ``thm2`` completes only the draws its
contour screen keeps, and its membership decider hands all of them to the
margin solver, which stops each row once its class is certain, so the
margins span of a block carries the block's kept rows.  Last, no module of
the package may bind a patched function under a second name, which the
tracer would not see.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import pkgutil
from dataclasses import replace
from pathlib import Path

import pytest

import risklab
from risklab import experiments, geometry, sampling

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_record_the_hot_layers(tmp_path):
    tracer = _load_tracer().Tracer("hooks")
    original_run, original_contains = experiments.run_experiment, geometry.contains
    tracer.install()
    try:
        assert geometry.contains is not original_contains
        thm1 = replace(experiments.default_config("thm1"), trials=200, threads=2)
        thm2 = replace(experiments.default_config("thm2"), trials=200, dims=(2, 8))
        prop3 = replace(experiments.default_config("prop3"), trials=200, dims=(3,),
                        n_economies=2, family_trials=200, out_dir=str(tmp_path / "prop3"))
        for cfg in (thm1, thm2, prop3):
            experiments.run_experiment(cfg)
        for d in (2, 8):
            sampling.mc_probability(lambda Z: Z[:, 0] > 0.0,
                                    sampling.PerturbationLaw("uniform-ball", d, 1.0), 200, 5)
        experiments._economy_checks(experiments.default_config("checks").seed_spec)
    finally:
        tracer.uninstall()
    assert experiments.run_experiment is original_run
    assert geometry.contains is original_contains

    names = {span[1] for span in tracer.spans}
    for layer in ("sampling.ball", "sampling.mc_probability", "sampling.simplex",
                  "economy.individual_improvement_event", "economy.belief_volume_split",
                  "experiments.run", "experiments.write"):
        assert layer in names, layer
    # ball blocks carry their size: draws x dimension, read from sample_block's m
    ball = [span for span in tracer.spans if span[1] == "sampling.ball"]
    assert [(span[7] // span[8], span[8]) for span in ball] == [(200, 2), (200, 8)]
    # one simplex draw, the economy checks' 1,000 points at d = 4: values x dimension
    simplex = [span for span in tracer.spans if span[1] == "sampling.simplex"]
    assert [(span[7], span[8]) for span in simplex] == [(4000, 4)]
    # the traced prop3 run measures all its traded pairs in one distance call
    assert [span[1] for span in tracer.spans].count("geometry.polytope_distance") == 1


def test_tracer_sees_the_two_batched_containment_distances():
    # the containment check measures all its points in one call per set, so
    # the distance layer's spans stay two, whatever the number of points
    tracer = _load_tracer().Tracer("hooks")
    tracer.install()
    try:
        rows = experiments._economy_checks(experiments.default_config("checks").seed_spec)
    finally:
        tracer.uninstall()
    assert {row["family"] for row in rows} == {"economy"}
    assert all(row["passed"] for row in rows)
    names = [span[1] for span in tracer.spans]
    assert names.count("geometry.distance_point_to_convex") == 2


@pytest.mark.parametrize("experiment,law,decider,threads", [
    ("thm1", "uniform-ball", "economy.individual_improvement_event", 2),
    ("thm2", "restricted-gaussian", "economy.scitovsky_margins_batch", 1),
], ids=["thm1", "thm2"])
def test_deciders_record_one_span_per_sampled_block(experiment, law, decider, threads,
                                                    monkeypatch):
    # three blocks per cell, and at d = 32 many chunks per block: the chunks stay
    # inside the decider's one call, so its per-layer calls and rows stay per block
    kept = []
    projected = sampling.PerturbationLaw.sample_projected_block

    def recorded(self, block, m, seed, Q, keep):
        rows, Z = projected(self, block, m, seed, Q, keep)
        kept.append(len(Z))
        return rows, Z

    monkeypatch.setattr(sampling.PerturbationLaw, "sample_projected_block", recorded)
    trials = 2 * sampling.BLOCK_DRAWS + 100
    cfg = replace(experiments.default_config(experiment), trials=trials, dims=(2, 32),
                  law_kind=law, threads=threads)
    tracer = _load_tracer().Tracer("hooks")
    tracer.install()
    try:
        experiments.run_experiment(cfg)
    finally:
        tracer.uninstall()
    decisions = [span for span in tracer.spans if span[1] == decider]
    assert len(decisions) == math.ceil(trials / sampling.BLOCK_DRAWS) * len(cfg.dims) * len(
        cfg.eps_list)
    # each decider span carries the rows it decides: both runners hand on only
    # the rows their projected screens keep (an empty block too), and
    # projected draws have no sampler span
    assert 0 < sum(kept) < trials * len(cfg.dims) * len(cfg.eps_list)
    assert not [span for span in tracer.spans if span[1].startswith("sampling.")
                and span[1] != "sampling.mc_probability"]
    assert sorted(span[7] for span in decisions) == sorted(kept)


def test_no_package_name_escapes_the_tracer():
    # the tracer patches each function in its home module; a second binding of a
    # patched original anywhere else in the package would be called untraced
    modules = [risklab] + [importlib.import_module(f"risklab.{info.name}")
                           for info in pkgutil.iter_modules(risklab.__path__)]
    tracer = _load_tracer().Tracer("hooks")
    tracer.install()
    try:
        originals = {id(original) for _, _, original in tracer._patched}
        patched = {(owner, attr) for owner, attr, _ in tracer._patched}
        escapes = [f"{module.__name__}.{attr}" for module in modules
                   for attr, value in vars(module).items()
                   if id(value) in originals and (module, attr) not in patched]
    finally:
        tracer.uninstall()
    assert escapes == []
