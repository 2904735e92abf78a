"""Record of the machine and software a benchmark run measured on.

Everything here is read only: files under /proc and /sys, the repository's
``.git`` directory if there is one, and the loaded BLAS library.
"""

import ctypes
import os
import platform
from pathlib import Path

_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads", "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
)


def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _blas():
    import numpy as np

    info = {"vendor": None, "version": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(vendor=blas.get("name"), version=blas.get("version"))
    except (TypeError, KeyError):
        pass
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "blas" in line.lower() and line.split()[-1].startswith("/")})
    info["threads"] = None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = int(fn())
                return info
    return info


def _cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches():
    """Data and unified cache sizes of cpu0 by level, e.g. {"L2": "2048K"}."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if _read(index / "type") == "Instruction":
            continue
        level, size = _read(index / "level"), _read(index / "size")
        if level and size:
            out[f"L{level}"] = size
    return out


def cache_bytes(size):
    """'2048K' -> 2097152; None when the size is not known."""
    if not size:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1].upper())
    return int(size[:-1]) * scale if scale else int(size)


def _git_commit(root):
    """HEAD commit of ``root``'s git checkout, or None outside one."""
    git = Path(root) / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(root):
    import numpy as np

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": affinity or os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(root),
    }
