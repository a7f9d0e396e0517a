"""The cold-run benchmark script `benchmarks/bench.py` against the package.

Its child process wraps `exactlin.select_rows` (reading the third result,
the primes used), `exactlin._structural_pivots`, `_assemble_level`,
`_normalized_level`, `_images` and `_l2_norms` by name (reading the
row count of the CSR rows `_l2_norms` gets), reads the stored entries of
each level's rows, and times `float_grams` after the build.  A rename
there breaks no other test but empties or breaks the benchmark's
counters, so cold p=4 runs of the child run here.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_bench():
    spec = importlib.util.spec_from_file_location(
        "benchmarks_bench", ROOT / "benchmarks" / "bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_child_records_every_counter():
    rec = _load_bench().run_one(ROOT / "src", 4, "all")
    assert rec["levels_assembled"] == 3
    # three levels and the kernel-overflow solve, whose rows are all
    # structural pivots, so no prime runs
    assert rec["select_rows_calls"] == 4
    assert rec["primes_used"] == [0, 0, 0, 0]
    assert rec["structural_rows"] == [87, 12, 9, 6]
    # the stored entries of each level's rows, which are its nonzeros
    assert rec["level_nnz"] == [2187, 6723, 615, 75]
    assert rec["cpu_s"] > 0
    assert isinstance(rec["norm_fallback_rows"], int)
    assert rec["norm_fallback_rows"] >= 0
    assert 0 < rec["select_rows_s"] < rec["wall_s"]
    assert 0 < rec["normalize_s"] < rec["wall_s"]
    assert 0 < rec["images_s"] < rec["wall_s"]
    assert rec["float_grams_s"] > 0
    # the interpreter, numpy and scipy alone take more than 10 MiB
    assert 10 < rec["peak_rss_mb"] < 4096
    assert rec["dims"] and rec["ranks"]


def test_child_counts_norm_fallback_rows():
    # at p=4 `X0` a few rows reach `_l2_norms`, as one CSR matrix
    assert _load_bench().run_one(ROOT / "src", 4, "X0")["norm_fallback_rows"] > 0


def test_spread_is_min_median_max():
    assert _load_bench().spread([0.3, 0.1004, 0.2, 0.9]) == [0.1, 0.25, 0.9]
