"""One workload run in a fresh interpreter, through ``risklab.cli.main``.

    python3 perfbench/child.py RUN_ID WORK_DIR {plain|traced|setup} -- CLI_ARGS...

Times ``run_experiment`` from the outside and writes ``report.json`` to
WORK_DIR; a traced run also records spans and writes ``spans.csv`` there.
A setup run stops when ``run_experiment`` is entered, so it measures only the
set-up.  The parent reads the child's resource usage from ``wait4``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


class _SetupDone(Exception):
    """Raised at ``run_experiment`` entry in a setup run."""


def main(argv: list[str]) -> int:
    run_id, work_dir, mode = argv[0], Path(argv[1]), argv[2]
    cli_args = argv[argv.index("--") + 1:]

    import numpy
    import risklab.cli
    from risklab import experiments

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer(run_id)
        tracer.install()

    stamps = {}
    run_experiment = experiments.run_experiment

    def timed(config):
        stamps["run_start"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        try:
            return run_experiment(config)
        finally:
            stamps["run_end"] = time.monotonic()

    experiments.run_experiment = timed
    try:
        rc = risklab.cli.main(cli_args)
    except _SetupDone:
        rc = 0
    finally:
        experiments.run_experiment = run_experiment
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        tracer.write(work_dir / "spans.csv")

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "rc": rc,
        **stamps,
        "risklab_file": risklab.__file__,
        "risklab_version": risklab.__version__,
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "rg_acceptance": tracer.acceptance if tracer is not None else {},
    }
    (work_dir / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
