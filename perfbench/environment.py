"""The environment record every result carries.

Results are compared only when the fields in COMPARED agree. The git rev and
source hash identify the code under test, so they differ between the sides
of a comparison by design; the seed and load averages vary per run.
"""

import ctypes
import hashlib
import os
import platform
import subprocess

import numpy as np
import scipy

COMPARED = ("workload", "trace", "seconds", "python", "numpy", "scipy",
            "blas", "blas_threads", "nproc", "sizes")


def _git_rev(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_sha256(root):
    """Hash of the package sources, for checkouts that are not git repos."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _blas():
    """(library description, thread count) of the BLAS numpy loaded."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        desc = f"{name['name']} {name.get('version', '')}".strip()
    except (TypeError, KeyError):
        desc = None
    threads = None
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                threads = int(getattr(dll, sym)())
                break
    return desc, threads


def environment(root, workload, seed, seconds, trace, sizes):
    blas, threads = _blas()
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "sizes": sizes,
        "git_rev": _git_rev(root), "src_sha256": _src_sha256(root),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
        "nproc": os.cpu_count(),
        "loadavg_1m_before": os.getloadavg()[0],
    }
