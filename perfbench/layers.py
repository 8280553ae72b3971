"""Per-layer metrics computed from one traced run's spans.

A span's self time is its duration minus the part of it covered by its child
spans on the same thread.  Blocks that ``mc_probability`` hands to its thread
pool are children on other threads: they count towards its busy time, not
against its self time, so on every thread the self times add up to the time
that thread spent inside traced calls.
"""

from __future__ import annotations

import csv
from collections import defaultdict

BALL_DIMS = (2, 8, 32, 128, 512)
RG_DIMS = (2, 8, 32)

# (name, unit, better); the names are those in BENCHMARK.json's per_layer list
PER_LAYER = (
    ("sampling.ball.self_s", "s", "lower"),
    *((f"sampling.ball.ns_per_value.d{d}", "ns", "lower") for d in BALL_DIMS),
    ("sampling.rg.self_s", "s", "lower"),
    *((f"sampling.rg.ns_per_value.d{d}", "ns", "lower") for d in RG_DIMS),
    *((f"sampling.rg.acceptance.d{d}", "ratio", "higher") for d in RG_DIMS),
    ("sampling.simplex.self_s", "s", "lower"),
    ("sampling.simplex.ns_per_value", "ns", "lower"),
    ("sampling.mc_probability.self_s", "s", "lower"),
    ("sampling.busy_over_wall", "ratio", "higher"),
    ("preferences.utility_extended.calls", "count", "lower"),
    ("preferences.utility_extended.self_s", "s", "lower"),
    ("preferences.utility_extended.ns_per_row", "ns", "lower"),
    ("economy.individual_improvement_event.self_s", "s", "lower"),
    ("economy.individual_improvement_event.ns_per_row", "ns", "lower"),
    ("economy.scitovsky_margins_batch.calls", "count", "lower"),
    ("economy.scitovsky_margins_batch.self_s", "s", "lower"),
    ("economy.scitovsky_margins_batch.ns_per_row", "ns", "lower"),
    ("economy.tatonnement_equilibrium.calls", "count", "lower"),
    ("economy.tatonnement_equilibrium.self_s", "s", "lower"),
    ("economy.planner_allocation.calls", "count", "lower"),
    ("economy.belief_volume_split.calls", "count", "lower"),
    ("economy.belief_volume_split.self_s", "s", "lower"),
    ("geometry.contains.calls", "count", "lower"),
    ("geometry.contains.self_s", "s", "lower"),
    ("geometry.contains.ns_per_point", "ns", "lower"),
    ("geometry.polytope_distance.calls", "count", "lower"),
    ("geometry.polytope_distance.us_per_call", "us", "lower"),
    ("preferences.belief_set.self_s", "s", "lower"),
    ("preferences.belief_set_extension_empty.self_s", "s", "lower"),
    ("geometry.distance_point_to_convex.self_s", "s", "lower"),
    ("geometry.separation_bound_check.self_s", "s", "lower"),
    ("geometry.bm_check.self_s", "s", "lower"),
    ("bounds.calls", "count", "lower"),
    ("bounds.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.write_s", "s", "lower"),
    ("experiments.results_bytes", "bytes", "lower"),
    ("process.minor_faults", "count", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("machine.philox_ns_per_draw", "ns", "lower"),
)


def read_spans(path) -> list[dict]:
    spans = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            spans.append({
                "id": int(row["id"]), "name": row["name"],
                "start": float(row["start"]), "end": float(row["end"]),
                "parent": int(row["parent"]) if row["parent"] else None,
                "thread": int(row["thread"]), "count": int(row["count"]), "d": int(row["d"]),
            })
    return spans


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _group(name: str) -> str:
    """The layer a span's time is reported under."""
    for prefix in ("bounds", "experiments"):
        if name.startswith(prefix + "."):
            return prefix
    return name


class SpanSet:
    """Self times, busy time and per-thread attribution of one run's spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        by_id = {s["id"]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)
        for s in spans:
            same = [(c["start"], c["end"]) for c in children[s["id"]] if c["thread"] == s["thread"]]
            s["self"] = (s["end"] - s["start"]) - _union(same)
            s["root"] = s["parent"] is None or by_id[s["parent"]]["thread"] != s["thread"]
        self.children = children

    def select(self, name, d=None) -> list[dict]:
        return [s for s in self.spans
                if _group(s["name"]) == name and (d is None or s["d"] == d)]

    def self_s(self, name, **where) -> float:
        return sum((s["self"] for s in self.select(name, **where)), 0.0)

    def per_unit(self, name, scale, **where) -> float:
        """Self time per unit of counted work (or per call when nothing is counted)."""
        spans = self.select(name, **where)
        work = sum(s["count"] for s in spans) if any(s["count"] for s in spans) else len(spans)
        return sum(s["self"] for s in spans) / work * scale if work else 0.0

    def wall_s(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == "experiments.run")

    def busy_s(self) -> float:
        """Time spent inside traced calls, summed over threads, less the self time of
        spans that were waiting for their work on other threads."""
        roots = defaultdict(list)
        for s in self.spans:
            if s["root"]:
                roots[s["thread"]].append((s["start"], s["end"]))
        waiting = sum(s["self"] for s in self.spans
                      if any(c["thread"] != s["thread"] for c in self.children[s["id"]]))
        return sum(_union(iv) for iv in roots.values()) - waiting

    def attribution_gap_s(self) -> float:
        """Largest per-thread difference between summed self times and traced time."""
        self_sum, roots = defaultdict(float), defaultdict(list)
        for s in self.spans:
            self_sum[s["thread"]] += s["self"]
            if s["root"]:
                roots[s["thread"]].append((s["start"], s["end"]))
        return max(abs(self_sum[t] - _union(roots[t])) for t in self_sum)

    def busy_over_wall(self) -> float:
        """Time covered by mc_probability's blocks, summed over threads, per second of it."""
        busy = wall = 0.0
        for mc in self.select("sampling.mc_probability"):
            per_thread = defaultdict(list)
            for c in self.children[mc["id"]]:
                per_thread[c["thread"]].append((c["start"], c["end"]))
            busy += sum(_union(iv) for iv in per_thread.values())
            wall += mc["end"] - mc["start"]
        return busy / wall if wall else 0.0


def layer_metrics(spans: SpanSet, acceptance: dict[int, float]) -> dict[str, float]:
    """Every span-derived per-layer metric of one traced run; layers never called read 0."""
    m = {
        "sampling.ball.self_s": spans.self_s("sampling.ball"),
        "sampling.rg.self_s": spans.self_s("sampling.rg"),
        "sampling.simplex.self_s": spans.self_s("sampling.simplex"),
        "sampling.simplex.ns_per_value": spans.per_unit("sampling.simplex", 1e9),
        "sampling.mc_probability.self_s": spans.self_s("sampling.mc_probability"),
        "sampling.busy_over_wall": spans.busy_over_wall(),
        "geometry.contains.ns_per_point": spans.per_unit("geometry.contains", 1e9),
        "geometry.polytope_distance.us_per_call": spans.per_unit("geometry.polytope_distance", 1e6),
        "experiments.self_s": spans.self_s("experiments"),
        "experiments.write_s": sum(s["end"] - s["start"] for s in spans.select("experiments")
                                   if s["name"] == "experiments.write"),
        "trace.wall_s": spans.wall_s(),
    }
    for d in BALL_DIMS:
        m[f"sampling.ball.ns_per_value.d{d}"] = spans.per_unit("sampling.ball", 1e9, d=d)
    for d in RG_DIMS:
        m[f"sampling.rg.ns_per_value.d{d}"] = spans.per_unit("sampling.rg", 1e9, d=d)
        m[f"sampling.rg.acceptance.d{d}"] = float(acceptance.get(d, 0.0))
    for name in ("preferences.utility_extended", "economy.individual_improvement_event",
                 "economy.scitovsky_margins_batch"):
        m[f"{name}.ns_per_row"] = spans.per_unit(name, 1e9)
    for name in ("preferences.utility_extended", "economy.individual_improvement_event",
                 "economy.scitovsky_margins_batch", "economy.tatonnement_equilibrium",
                 "economy.belief_volume_split", "geometry.contains",
                 "preferences.belief_set", "preferences.belief_set_extension_empty",
                 "geometry.distance_point_to_convex", "geometry.separation_bound_check",
                 "geometry.bm_check", "bounds"):
        m[f"{name}.self_s"] = spans.self_s(name)
    for name in ("preferences.utility_extended", "economy.scitovsky_margins_batch",
                 "economy.tatonnement_equilibrium", "economy.planner_allocation",
                 "economy.belief_volume_split", "geometry.contains",
                 "geometry.polytope_distance", "bounds"):
        m[f"{name}.calls"] = float(len(spans.select(name)))
    return {name: m[name] for name, _, _ in PER_LAYER if name in m}
