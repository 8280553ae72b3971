"""The benchmark tracer's hook points still exist and still see the work.

``perfbench/tracer.py`` patches named package attributes and reads some
arguments by position, so a refactor that renames or reorders them would
silently blind the benchmark's per-layer numbers.  This test installs the
tracer, runs a small threaded ``thm1``, a small ``prop3`` and the ``economy``
checks, and checks the spans of the benchmark's hot layers.  ``prop3``
computes its volumes exactly, so the simplex sampler's spans come from the
``economy`` checks, and no run reaches ``geometry.contains``: its hook is only
checked to be installed and restored.
"""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

from risklab import experiments, geometry

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
        prop3 = replace(experiments.default_config("prop3"), trials=200, dims=(3,),
                        n_economies=2, family_trials=200, out_dir=str(tmp_path / "prop3"))
        for cfg in (thm1, prop3):
            experiments.run_experiment(cfg)
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
    assert sum(span[7] // span[8] for span in ball) == 200 * len(thm1.dims)
    assert {span[8] for span in ball} == set(thm1.dims)
    # one simplex draw, the economy checks' 1,000 points at d = 4: values x dimension
    simplex = [span for span in tracer.spans if span[1] == "sampling.simplex"]
    assert [(span[7], span[8]) for span in simplex] == [(4000, 4)]


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
