"""risklab benchmark: one workload, several fresh-interpreter runs, checked outputs.

    python3 perfbench/run.py --workload thm1 [--seed N] [--seconds S] [--trace 0|1]

Each run of the workload is a new ``python3`` process that calls
``risklab.cli.main`` on a config file generated from the seed; a process is
never reused, because allocator state left by an earlier run moves a later
run's time by a third.  Runs start one after another until the next one
would end past ``--seconds`` (at least two, so outputs can be compared).

With ``--trace 0`` every run is untraced and the last line of stdout holds the
end-to-end metrics (medians over the runs).  With ``--trace 1`` untraced and
traced runs alternate, and the last line holds the per-layer metrics of the
traced runs.  Both modes check every run's results.csv; see README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import PER_LAYER, SpanSet, layer_metrics, read_spans
from machine import loadavg, machine_block, philox_ns_per_draw
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_out"
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("passed_row_frac", "ratio"))
MIN_RUNS = 2
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class HarnessError(RuntimeError):
    """The benchmark could not run the program at all; no result is printed."""


@dataclass
class Run:
    index: int
    mode: str
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    minor_faults: int
    cpu_s: float
    elapsed_s: float
    rows: int
    failed: int
    sha256: str
    results_bytes: int
    report: dict
    layers: dict = field(default_factory=dict)


def _row_failed(row: dict) -> bool:
    """A row fails on an error, or unless its bound or check verdict reads true."""
    verdict = row["within_bound"] if "within_bound" in row else row.get("passed")
    return bool(row.get("error")) or verdict != "true"


def _check_outputs(out: Path, results: bytes) -> tuple[int, int]:
    """(rows, failed rows) of one run; an incomplete result directory fails every row."""
    rows = list(csv.DictReader(io.StringIO(results.decode())))
    failed = sum(_row_failed(r) for r in rows)
    manifest = (out / "manifest.txt").read_text() if (out / "manifest.txt").is_file() else ""
    sha_line = f"results_sha256 = {hashlib.sha256(results).hexdigest()}"
    plotdata = out / "plotdata"
    if sha_line not in manifest.splitlines() or not plotdata.is_dir() or not any(plotdata.iterdir()):
        failed = len(rows)
    return len(rows), failed


def _spawn(wl: Workload, index: int, mode: str, config: Path, work_root: Path,
           deadline: float):
    """Run child.py once; returns (report, rusage, spawn time, elapsed, work dir)."""
    work = work_root / f"run{index:02d}-{mode}"
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), f"{wl.name}-{index}", str(work), mode,
           "--", wl.subcommand, "--config", str(config), "--out", str(work / "out")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    with open(work / "child.log", "wb") as log:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - spawn), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - spawn
    tail = (work / "child.log").read_text(errors="replace")[-2000:]
    if proc.returncode != 0 or not (work / "report.json").is_file():
        raise HarnessError(f"{mode} run {index} exited {proc.returncode}:\n{tail}")
    report = json.loads((work / "report.json").read_text())
    if not Path(report["risklab_file"]).resolve().is_relative_to(ROOT / "src"):
        raise HarnessError(f"risklab was imported from {report['risklab_file']}, not {ROOT / 'src'}")
    if "run_start" not in report or (mode != "setup" and "run_end" not in report):
        raise HarnessError(f"{mode} run {index} did not run the experiment:\n{tail}")
    return report, usage, spawn, elapsed, work


def run_child(wl: Workload, index: int, mode: str, config: Path, work_root: Path,
              deadline: float) -> Run:
    report, usage, spawn, elapsed, work = _spawn(wl, index, mode, config, work_root, deadline)
    out = work / "out"
    if not (out / "results.csv").is_file():
        raise HarnessError(f"{mode} run {index} wrote no results.csv")
    results = (out / "results.csv").read_bytes()
    rows, failed = _check_outputs(out, results)
    run = Run(
        index=index, mode=mode,
        wall_s=report["run_end"] - report["run_start"],
        setup_s=report["run_start"] - spawn,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        minor_faults=usage.ru_minflt,
        cpu_s=usage.ru_utime + usage.ru_stime,
        elapsed_s=elapsed,
        rows=rows, failed=failed,
        sha256=hashlib.sha256(results).hexdigest(),
        results_bytes=len(results),
        report=report,
    )
    if mode == "traced":
        spans = SpanSet(read_spans(work / "spans.csv"))
        acceptance = {int(d): a for d, a in report["rg_acceptance"].items()}
        run.layers = layer_metrics(spans, acceptance)
        run.layers["attribution_gap_s"] = spans.attribution_gap_s()
        busy = spans.busy_s()
        run.layers["hot_share"] = sum(spans.self_s(n) for n in wl.hot_layers) / busy
    shutil.rmtree(out)
    return run


def run_workload(name: str, seed: int | None, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the lines printed before it."""
    wl = WORKLOADS[name]
    seed = wl.default_seed if seed is None else seed
    lines = []
    machine = machine_block(ROOT)
    machine["threads"] = wl.threads
    calibration = philox_ns_per_draw()
    machine["philox_ns_per_draw"] = calibration
    work_root = WORK_ROOT / f"{name}-{os.getpid()}"
    if work_root.exists():
        shutil.rmtree(work_root)
    work_root.mkdir(parents=True)
    try:
        config = work_root / "workload.cfg"
        config.write_text(wl.config_text(seed, tiny))
        start = time.monotonic()
        deadline = start + DEADLINE_S
        runs: list[Run] = []
        while True:
            mode = "traced" if trace and len(runs) % 2 == 1 else "plain"
            runs.append(run_child(wl, len(runs), mode, config, work_root, deadline))
            next_s = statistics.median(r.elapsed_s for r in runs)
            ends_at = time.monotonic() + next_s
            if len(runs) >= MIN_RUNS and (ends_at - start > seconds or ends_at > deadline):
                break
            if ends_at > deadline:
                raise HarnessError(f"{len(runs)} runs left no time for a second one")
        # workloads with few runs get set-up-only runs, so setup_s is a median of several
        setups = [r.setup_s for r in runs if r.mode == "plain"]
        while not trace and len(setups) < SETUP_SAMPLES:
            report, _, spawn, _, _ = _spawn(wl, len(runs) + len(setups), "setup", config,
                                            work_root, deadline)
            setups.append(report["run_start"] - spawn)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    machine["loadavg_after"] = loadavg()
    machine["blas"] = runs[0].report["blas"]
    lines.append("machine " + json.dumps(machine))
    lines.append(f"workload {name} seed {seed} threads {wl.threads} runs {len(runs)}")
    if not trace:
        lines.append("setup_s " + " ".join(f"{v:.4f}" for v in setups))

    shas = [r.sha256 for r in runs]
    reference = max(shas, key=shas.count)
    for r in runs:
        if r.sha256 != reference:
            r.failed = r.rows
        lines.append(f"run {r.index} {r.mode} wall_s={r.wall_s:.4f} setup_s={r.setup_s:.4f} "
                     f"peak_rss_mb={r.peak_rss_mb:.1f} cpu_s={r.cpu_s:.3f} "
                     f"minor_faults={r.minor_faults} rows={r.rows} failed={r.failed} "
                     f"sha256={r.sha256}")
    attempted = sum(r.rows for r in runs)
    failed = sum(r.failed for r in runs)
    lines.append(f"results_sha256 {name} {reference}")
    lines.append(f"failed_row_frac {failed / attempted!r} ({failed}/{attempted})")

    plain = [r for r in runs if r.mode == "plain"]
    if not trace:
        values = {
            "wall_s": statistics.median(r.wall_s for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
            "passed_row_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
    else:
        traced = [r for r in runs if r.mode == "traced"]
        values = {k: statistics.median(r.layers[k] for r in traced) for k in traced[0].layers}
        plain_wall = statistics.median(r.wall_s for r in plain)
        values.update({
            "experiments.results_bytes": float(plain[0].results_bytes),
            "process.minor_faults": float(statistics.median(r.minor_faults for r in plain)),
            "process.cpu_s": statistics.median(r.cpu_s for r in plain),
            "trace.overhead_frac": values["trace.wall_s"] / plain_wall - 1.0,
            "machine.philox_ns_per_draw": calibration,
        })
        wl_hot = " + ".join(wl.hot_layers)
        lines.append(f"coverage {name}: {wl_hot} = {values['hot_share']:.4f} of traced "
                     f"busy time (predicted >= {wl.hot_share})")
        lines.append(f"attribution_gap_s {values['attribution_gap_s']:.3g}")
        metrics = {k: {"value": values[k], "unit": unit} for k, unit, _ in PER_LAYER}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the config's own)")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
