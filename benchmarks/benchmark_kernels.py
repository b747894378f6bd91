#!/usr/bin/env python3
"""Time the enumeration and counting kernels.

Usage:
    python benchmarks/benchmark_kernels.py [--repeat N]

Each kernel runs on a workload large enough to dominate call overhead:
transfer-state counting of four classes, pruned listing of the classes the
``enumerate`` workload of the benchmark lists and of the single ballot
{123,132} avoider of length 100 (whose blocked sites outgrow 64 bits), the
vectorized oracle scanning every permutation of length 9 and 10, and the
oracle census of length 8.
Every time is the median of ``--repeat`` runs, printed with its sample
count.  All kernels run on the interpreter and numpy.
"""
from __future__ import annotations

import argparse
import statistics
import time

from ballotkit._kernels import oracle_census, oracle_fill, pruned_count, pruned_fill
from ballotkit.enumeration import _mask3
from ballotkit.patterns import parse_pattern_set

# (label, kernel, class, n, ballot)
CASES = [
    ("pruned_count {321} n=40", "count", "321", 40, True),
    ("pruned_count {231,312,321} n=40", "count", "231,312,321", 40, True),
    ("pruned_count {132} n=20", "count", "132", 20, True),
    ("pruned_count {123,132} n=100", "count", "123,132", 100, True),
    ("pruned_fill {} n=9", "fill", "", 9, True),
    ("pruned_fill {132} n=11", "fill", "132", 11, True),
    ("pruned_fill {231} plain n=10", "fill", "231", 10, False),
    ("pruned_fill {321} n=11", "fill", "321", 11, True),
    ("pruned_fill {123,132} n=100", "fill", "123,132", 100, True),
    ("oracle_fill {132,213} n=9", "oracle", "132,213", 9, True),
    ("oracle_fill {132,213} n=10", "oracle", "132,213", 10, True),
    ("oracle_census n=8", "census", "", 8, True),
]

# the census is memoized per length; time the computation behind the cache
KERNELS = {"count": pruned_count, "fill": pruned_fill, "oracle": oracle_fill,
           "census": oracle_census.__wrapped__}


def _run(kind, mask, n, ballot):
    fn = KERNELS[kind]
    if kind == "count":
        return fn(n, mask, ballot)
    if kind == "census":
        return fn(n)
    return fn(n, mask, ballot, 0)


def _time(kind, mask, n, ballot, repeat):
    """Median seconds over ``repeat`` runs, and the result size."""
    samples = []
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = _run(kind, mask, n, ballot)
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

    print(f"medians of {args.repeat} run(s) each")
    print(f"{'case':<36} {'time':>10}  result")
    for label, kind, class_text, n, ballot in CASES:
        mask = _mask3(parse_pattern_set(class_text))
        seconds, size = _time(kind, mask, n, ballot, args.repeat)
        print(f"{label:<36} {seconds:>9.3f}s  {size}")


if __name__ == "__main__":
    main()
