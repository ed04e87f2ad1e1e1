"""Machine and build record attached to every result, so that only like is
compared with like."""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path

import numpy as np


def _git_sha(root: Path) -> str | None:
    """HEAD's commit read from the checkout's own .git, or None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256(root: Path) -> str:
    """Digest of the measured sources; identifies the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def machine_record(root: Path, seed: int, blas_threads: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**_blas(), "threads": blas_threads},
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
        "seed": seed,
    }
