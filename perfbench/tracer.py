"""Span recording around risklab's public functions, installed from outside the package.

A span is one call of a wrapped function: its name, start and end (CLOCK_MONOTONIC
seconds), the span that caused it, the thread it ran on, the run id, and a work
count (rows, points or sampled values) with the dimension where that applies.
Spans stay in memory and are written out once, when the run ends.

Parents are taken from a per-thread stack.  A span that opens on a thread with
an empty stack while ``mc_probability`` is running is a block run by that
function's thread pool, so its parent is the ``mc_probability`` span on the
submitting thread.
"""

from __future__ import annotations

import csv
import functools
import itertools
import threading
import time

FIELDS = ("id", "name", "start", "end", "parent", "thread", "run_id", "count", "d")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._fanout = None
        self._patched: list[tuple] = []
        # restricted-Gaussian rejection acceptance per sampled dimension
        self.acceptance: dict[int, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, measure=None, fanout=False):
        """``fn`` recording one span per call; ``name`` may be a function of the arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            count, d = measure(args, kwargs) if measure else (0, 0)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._fanout
            previous_fanout = self._fanout
            stack.append(span_id)
            if fanout:
                self._fanout = span_id
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                if fanout:
                    self._fanout = previous_fanout
                stack.pop()
                self.spans.append((span_id, label, start, end, parent,
                                   threading.get_ident(), self.run_id, count, d))

        return traced

    def patch(self, owner, attr, name, measure=None, fanout=False, wrapper=None):
        """Replace ``owner.attr`` by its traced form (or by ``wrapper``, to share one)."""
        original = owner.__dict__[attr]
        traced = wrapper or self.wrap(original, name, measure, fanout)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)
        return traced

    def install(self) -> None:
        from risklab import bounds, economy, experiments, geometry, preferences, sampling

        def law_name(args):
            return "sampling.ball" if args[0].kind == "uniform-ball" else "sampling.rg"

        def law_values(args, kwargs):
            law = args[0]
            if law.kind != "uniform-ball" and law.dim not in self.acceptance:
                self.acceptance[law.dim] = sampling.restricted_gaussian_acceptance(
                    law.dim, law.radius)
            return _arg(args, kwargs, 2, "m") * law.dim, law.dim

        def simplex_values(args, kwargs):
            d = _arg(args, kwargs, 0, "d")
            return _arg(args, kwargs, 1, "n") * d, d

        def rows_of(index, name):
            return lambda args, kwargs: (_rows(_arg(args, kwargs, index, name)), 0)

        self.patch(sampling.PerturbationLaw, "sample_block", law_name, law_values)
        self.patch(sampling, "sample_uniform_simplex", "sampling.simplex", simplex_values)
        self.patch(sampling, "mc_probability", "sampling.mc_probability", fanout=True)
        self.patch(sampling, "gaussian_kappa_ratio", "bounds.gaussian_kappa_ratio")
        utility = self.patch(preferences, "utility_extended", "preferences.utility_extended",
                             rows_of(1, "f"))
        # economy imports utility_extended by name, so its binding is patched too
        self.patch(economy, "utility_extended", None, wrapper=utility)
        for attr in ("belief_set", "belief_set_extension_empty"):
            self.patch(preferences, attr, f"preferences.{attr}")
        self.patch(economy, "individual_improvement_event",
                   "economy.individual_improvement_event", rows_of(2, "Z"))
        self.patch(economy, "scitovsky_margins_batch",
                   "economy.scitovsky_margins_batch", rows_of(2, "W"))
        for attr in ("tatonnement_equilibrium", "planner_allocation", "belief_volume_split"):
            self.patch(economy, attr, f"economy.{attr}")
        self.patch(geometry, "contains", "geometry.contains", rows_of(1, "x"))
        for attr in ("polytope_distance", "distance_point_to_convex",
                     "separation_bound_check", "bm_check"):
            self.patch(geometry, attr, f"geometry.{attr}")
        for attr in sorted(vars(bounds)):
            if attr.startswith("bound_") and callable(getattr(bounds, attr)):
                self.patch(bounds, attr, f"bounds.{attr}")
        self.patch(experiments, "run_experiment", "experiments.run")
        self.patch(experiments.RunResult, "write", "experiments.write")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, and verify the restore."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")

    def write(self, path) -> None:
        idents: dict[int, int] = {}
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(FIELDS)
            for span in sorted(self.spans):
                thread = idents.setdefault(span[5], len(idents))
                parent = "" if span[4] is None else span[4]
                out.writerow((*span[:4], parent, thread, *span[6:]))
