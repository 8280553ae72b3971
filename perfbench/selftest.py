"""Self-test of the benchmark: tiny configs, every workload, traced and untraced.

    python3 perfbench/selftest.py

Checks that each run passes the correctness gate, that the metrics printed are
exactly the ones BENCHMARK.json names, with the same units, that span self
times add up per thread, that tracing leaves every patched function restored,
and that the benchmark fails, printing no result, in a copy without ``src/``.
Takes about half a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import run
from workloads import WORKLOADS

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    check(emitted == {m["name"]: m["unit"] for m in declared}, f"{what}: metric names and units")
    check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
              for v in result["metrics"].values()), f"{what}: finite values")


def check_restore() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from risklab import bounds, economy, experiments, geometry, preferences, sampling
    from tracer import Tracer

    owners = (bounds, economy, experiments, geometry, preferences, sampling,
              sampling.PerturbationLaw, experiments.RunResult)
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer("restore")
    tracer.install()
    patched = len(tracer._patched)
    tracer.uninstall()
    after = [dict(vars(o)) for o in owners]
    same = all(b.keys() == a.keys() and all(b[k] is a[k] for k in b) for b, a in zip(before, after))
    check(patched > 20 and same, f"tracer restores all {patched} patched attributes")


def check_bare_copy() -> None:
    bare = run.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "thm1", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        if not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "a copy without src/ exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names every workload")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]]
          == [(n, u) for n, u, _ in run.PER_LAYER], "per_layer list matches layers.PER_LAYER")
    for name in WORKLOADS:
        for seed in (None, 12345):
            for trace in (False, True):
                what = f"{name} seed={seed} trace={int(trace)}"
                result, lines = run.run_workload(name, seed, 0, trace, tiny=True)
                check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                      f"{what}: correctness gate")
                check_metrics(result, spec["per_layer" if trace else "end_to_end"], what)
                if trace:
                    gap = next(float(l.split()[1]) for l in lines
                               if l.startswith("attribution_gap_s"))
                    check(gap < 1e-6, f"{what}: self times add up per thread (gap {gap:.2g} s)")
    check_restore()
    check_bare_copy()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    os.chdir(run.ROOT)
    raise SystemExit(main())
