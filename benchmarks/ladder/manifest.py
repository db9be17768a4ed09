"""Run manifest: the provenance every ladder output file carries."""

from __future__ import annotations

import datetime
import importlib.metadata
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

#: pinned to one thread before NumPy loads (the host has two cores and
#: the benchmark is one process); recorded so a reader can see it held
THREAD_VARIABLES = ("OMP_NUM_THREADS", "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _size_bytes(text: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text)


def cache_sizes() -> dict[str, int]:
    """``{"L1d": bytes, "L2": ..., "L3": ...}`` of cpu0, from sysfs."""
    sizes: dict[str, int] = {}
    base = pathlib.Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = _size_bytes((index / "size").read_text())
        except (OSError, ValueError):
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        sizes[f"L{level}{suffix}"] = size
    return sizes


def last_level_cache_bytes() -> int | None:
    sizes = cache_sizes()
    return max(sizes.values()) if sizes else None


def _version(package: str) -> str | None:
    # without importing: SciPy is not otherwise loaded by a ladder run
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def collect(seed: int, seconds: float, **extra) -> dict:
    """Commit, host, library versions, thread pinning, seed, time."""
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "commit": commit or "unknown (not a git checkout)",
        "dirty": bool(status) if status is not None else None,
        "host": {
            "cpu_model": _cpu_model(),
            "nproc": os.cpu_count(),
            "cache_bytes": cache_sizes(),
            "machine": platform.machine(),
            "system": f"{platform.system()} {platform.release()}",
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": _version("numpy"),
            "scipy": _version("scipy"),
        },
        "threads": {var: os.environ.get(var) for var in THREAD_VARIABLES},
        "seed": seed,
        "seconds": seconds,
        "argv": sys.argv[1:],
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        **extra,
    }
