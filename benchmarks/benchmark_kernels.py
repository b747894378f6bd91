#!/usr/bin/env python3
"""Time the enumeration and counting kernels.

Usage:
    python benchmarks/benchmark_kernels.py [--repeat N]

Each kernel runs on a workload large enough to dominate call overhead:
transfer-state counting of three classes, pruned listing of a mid-size
class, the vectorized oracle scanning every permutation of length 9 and 10,
and the oracle census of length 8.  Every time is the median of ``--repeat``
runs, printed with its sample count.  The counter and the oracle always run
on the interpreter and numpy; the pruned listing kernel is also timed
compiled when numba is available, warmed once so that compilation is
reported apart from steady-state runtime.
"""
from __future__ import annotations

import argparse
import statistics
import time

from ballotkit._kernels import (
    NUMBA_ENABLED,
    oracle_census,
    oracle_fill,
    pruned_count,
    pruned_fill_jit,
    pruned_fill_py,
)
from ballotkit.enumeration import _mask3
from ballotkit.patterns import parse_pattern_set

CASES = [
    ("pruned_count {321} n=40", "count", "321", 40),
    ("pruned_count {231,312,321} n=40", "count", "231,312,321", 40),
    ("pruned_count {132} n=20", "count", "132", 20),
    ("pruned_fill {132} n=10", "fill", "132", 10),
    ("oracle_fill {132,213} n=9", "oracle", "132,213", 9),
    ("oracle_fill {132,213} n=10", "oracle", "132,213", 10),
    ("oracle_census n=8", "census", "", 8),
]

# the census is memoized per length; time the computation behind the cache
PY_KERNELS = {"count": pruned_count, "fill": pruned_fill_py, "oracle": oracle_fill,
              "census": oracle_census.__wrapped__}
JIT_KERNELS = {"fill": pruned_fill_jit}


def _run(kind, fn, mask, n):
    if kind == "count":
        return fn(n, mask, True)
    if kind == "census":
        return fn(n)
    return fn(n, mask, True, 0)


def _time(kind, fn, mask, n, repeat):
    """Median seconds over ``repeat`` runs, and the result size."""
    samples = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = _run(kind, fn, mask, n)
        samples.append(time.perf_counter() - t0)
    if kind == "count":
        size = result[-1]
    elif kind == "census":
        size = int(result.sum())
    else:
        size = len(result)
    return statistics.median(samples), size


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    if not NUMBA_ENABLED:
        print("numba backend unavailable (missing or disabled via BALLOTKIT_NUMBA); "
              "pruned_fill can be timed interpreted only")

    print(f"medians of {args.repeat} run(s) each")
    print(f"{'case':<36} {'python':>10} {'numba':>10} {'speedup':>9}  result")
    for label, kind, class_text, n in CASES:
        mask = _mask3(parse_pattern_set(class_text))
        py_time, size = _time(kind, PY_KERNELS[kind], mask, n, args.repeat)
        jit_fn = JIT_KERNELS.get(kind) if NUMBA_ENABLED else None
        if jit_fn is not None:
            t0 = time.perf_counter()
            _run(kind, jit_fn, mask, n)  # warm: includes compilation
            warm = time.perf_counter() - t0
            jit_time, jit_size = _time(kind, jit_fn, mask, n, args.repeat)
            assert jit_size == size, f"backend mismatch in {label}"
            print(f"{label:<36} {py_time:>9.3f}s {jit_time:>9.4f}s {py_time / jit_time:>8.1f}x"
                  f"  {size} (first numba call {warm:.2f}s)")
        else:
            print(f"{label:<36} {py_time:>9.3f}s {'-':>10} {'-':>9}  {size}")


if __name__ == "__main__":
    main()
