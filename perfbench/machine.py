"""Facts about the machine and checkout a result was measured on (read only)."""

from __future__ import annotations

import os
import platform
import subprocess

import numpy as np

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, or None where git is missing or `root` is not the
    top of a git work tree (a worktree or a plain clone both count)."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2:
        return None
    top, head = lines
    return head if os.path.realpath(top) == os.path.realpath(root) else None


def facts(root: str, acsp_threads: str | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "acsp_threads": "unset" if acsp_threads is None
        else f"unset for the run (was {acsp_threads!r})",
        "git_commit": _git_commit(root),
    }
