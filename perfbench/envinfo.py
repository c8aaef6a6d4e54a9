"""Environment record: BLAS threads read back from OpenBLAS, versions, CPU."""

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path


def _openblas_threads(package):
    """Thread count of the OpenBLAS bundled in ``<package>.libs``, or None."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if getter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                build = None
                if config is not None:
                    config.argtypes, config.restype = [], ctypes.c_char_p
                    build = config().decode()
                return getter(), build
    return None, None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """Commit of a git checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def collect(root, seed):
    import numpy
    import scipy

    np_threads, np_build = _openblas_threads(numpy)
    sp_threads, _ = _openblas_threads(scipy)
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": np_build,
        "blas_threads_numpy": np_threads,
        "blas_threads_scipy": sp_threads,
        "env_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
    }
