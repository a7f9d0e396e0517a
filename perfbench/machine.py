"""Process set-up shared by the benchmark scripts, and the machine facts.

`prepare()` must run before numpy is imported: OpenBLAS reads its thread
count from the environment when it loads.
"""

import ctypes
import glob
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFS_DIR = BENCH_DIR / "refs"

# The workloads are single-process; BLAS may use every core up to this cap.
MAX_BLAS_THREADS = 2

# Facts that change the measured numbers so much that two runs which differ
# in them must not be compared.
COMPARABLE_FACTS = ("rational_backend", "blas_threads", "nproc")


def nproc():
    return len(os.sched_getaffinity(0))


def prepare():
    """Pin the BLAS thread count, put the checkout's sources on sys.path and
    make the checkout root the working directory.

    Paths handed to the program are relative to the root, so that reports
    which echo them are the same in every checkout.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(MAX_BLAS_THREADS, nproc()))
    src = ROOT / "src"
    if not (src / "elacomplex" / "__init__.py").is_file():
        raise FileNotFoundError("no elacomplex sources under %s" % src)
    sys.path.insert(0, str(src))
    os.chdir(ROOT)


def _openblas_runtime(numpy_module):
    """(thread count, configuration) of the OpenBLAS that numpy loaded."""
    libdir = Path(numpy_module.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_threads = getattr(lib, prefix + "openblas_get_num_threads" + suffix, None)
            get_config = getattr(lib, prefix + "openblas_get_config" + suffix, None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            return int(get_threads()), get_config().decode().strip()
    return None, None


def facts():
    """Facts of this machine and process that the numbers depend on."""
    import numpy
    import scipy

    from elacomplex import rational

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    backend = rational.Q
    blas_threads, blas_config = _openblas_runtime(numpy)
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_config": blas_config,
        "blas_threads": blas_threads,
        "rational_backend": "%s.%s" % (backend.__module__, backend.__qualname__),
    }
