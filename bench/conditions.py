"""Run conditions recorded in every result file: machine, versions, code."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess

import numpy as np

from . import ROOT


def code_sha() -> str:
    """sha256 over the program's and the benchmark's sources.

    Identifies "one commit" where there is no git (the driver's checkout).
    """
    digest = hashlib.sha256()
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=5.0)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_conditions() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_sha": _git_sha(),
        "code_sha": code_sha(),
    }
