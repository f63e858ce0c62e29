"""Machine and code provenance stored with every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _git_commit(root: Path):
    # The benchmark may run in an exported tree without .git; never let git
    # search the parent directories for one.
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(src: Path) -> str:
    """sha256 over the library sources, so results identify the code even
    where no git commit is available."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _caches() -> list:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        fields = {k: _read(str(index / k)).strip() for k in ("level", "type", "size")}
        out.append(f"L{fields['level']} {fields['type']} {fields['size']}")
    return out


def _mem_total_mib():
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024.0
    return None


def provenance(root: Path, seed: int, thread_vars) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "mem_total_mib": _mem_total_mib(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in thread_vars},
        "seed": seed,
    }
