"""The machine block printed with every benchmark run, and the host speed sentinel."""

from __future__ import annotations

import os
import platform
import statistics
import time
from importlib import metadata
from pathlib import Path

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")) if base.is_dir() else ():
        if _read(index / "level") == str(level) and _read(index / "type") in ("Unified", "Data"):
            return _read(index / "size") or "unknown"
    return "unknown"


def _git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git (absent in an export)."""
    head = _read(root / ".git" / "HEAD")
    if head is None:
        return "unavailable"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha:
        return sha
    for line in (_read(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unavailable"


def loadavg() -> tuple | None:
    try:
        return os.getloadavg()
    except OSError:
        return None


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def machine_block(root: Path) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(root),
        # as found in the environment; unset means OpenBLAS uses one thread per core
        "blas_thread_env": {k: os.environ.get(k, "unset") for k in _THREAD_VARS},
        "loadavg_before": loadavg(),
    }


def philox_ns_per_draw(draws: int = 1 << 20, repeats: int = 7) -> float:
    """Median ns per Philox standard-normal draw, to tell a slow host from a regression."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(20240113))
    out = np.empty(draws)
    gen.standard_normal(out=out)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        gen.standard_normal(out=out)
        times.append(time.perf_counter() - start)
    return statistics.median(times) / draws * 1e9
