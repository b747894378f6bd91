#!/usr/bin/env python3
"""Time the enumeration and counting kernels.

Usage:
    python benchmarks/benchmark_kernels.py [--repeat N]

Each kernel runs on a workload large enough to dominate call overhead:
transfer-state counting of four classes, pruned listing of the classes the
``enumerate`` workload of the benchmark lists, of the single ballot
{123,132} avoider of length 100 (whose blocked sites outgrow 64 bits) and
of two sets with patterns of length 4 (dropped by the completion test), the
refused listing of every ballot permutation of length 11, both by the walk
(timed until the row bound stops it) and by ``check_rows``, which refuses
it from the class counts before any row is built, as ``enumerate`` does, the
vectorized oracle listing one class from every permutation of length 9 and
10, the oracle listing of plain {132,1234} of length 9 through
``enumerate_rows`` (the 1234 test runs on the {132} avoiders alone) and of
plain {1234} of length 9 (no length-3 pattern narrows it, so the 1234 test
runs on every permutation), the
oracle listing all 64 classes of length 8, ballot and plain, from
one shared classification, the oracle census of length 8, and the
bijection suite of ``verify`` to n = 8 and n = 10 (its rows list from the
oracle up to its default cap of 10).  Every time is the median of
``--repeat`` runs, printed with its sample count.  The oracle's row and
classification memos are cleared before each run, so each time includes
the work that every command pays once.  All kernels run on the
interpreter and numpy.
"""
from __future__ import annotations

import argparse
import statistics
import time

from ballotkit import _kernels
from ballotkit._kernels import (
    check_rows,
    oracle_census,
    oracle_fill,
    pruned_count,
    pruned_fill,
)
from ballotkit.enumeration import _split, enumerate_rows
from ballotkit.errors import CapExceededError
from ballotkit.patterns import parse_pattern_set
from ballotkit.verification import suite_bijections

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
    ("pruned_fill {1234} plain n=10", "fill", "1234", 10, False),
    ("pruned_fill {3142,2413} n=9", "fill", "2413,3142", 9, True),
    ("pruned_fill {} n=11 (refused)", "refused", "", 11, True),
    ("check_rows {} n=11 (refused)", "check", "", 11, True),
    ("oracle_fill {132,213} n=9", "oracle", "132,213", 9, True),
    ("oracle_fill {132,213} n=10", "oracle", "132,213", 10, True),
    ("oracle rows {132,1234} plain n=9", "oracle_rows", "132,1234", 9, False),
    ("oracle rows {1234} plain n=9", "oracle_rows", "1234", 9, False),
    ("oracle_fill every class n=8", "every", "", 8, True),
    ("oracle_census n=8", "census", "", 8, True),
    ("suite_bijections n=8", "bijections", "", 8, True),
    ("suite_bijections n=10", "bijections", "", 10, True),
]


def _every_class(n):
    """Every class of length n, ballot and plain, through the oracle."""
    return [oracle_fill(n, mask, ballot, 0) for mask in range(64) for ballot in (True, False)]


def _oracle_rows(n, pset, ballot):
    """The oracle listing as ``enumerate --method oracle`` makes it."""
    return enumerate_rows(n, pset, ballot=ballot, method="oracle")


def _refusal(kernel):
    """``kernel``, run until it refuses the request."""

    def refused(*args):
        try:
            kernel(*args)
        except CapExceededError:
            return "refused"
        raise AssertionError(f"{kernel.__name__}{args} was not refused")

    return refused


# the census is memoized per length; time the computation behind the cache
KERNELS = {"count": pruned_count, "fill": pruned_fill, "refused": _refusal(pruned_fill),
           "check": _refusal(check_rows), "oracle": oracle_fill,
           "oracle_rows": _oracle_rows,
           "every": _every_class, "census": oracle_census.__wrapped__,
           "bijections": suite_bijections}


def _run(kind, pset, n, ballot):
    fn = KERNELS[kind]
    mask, rest = _split(pset)
    if kind in ("count", "check"):
        return fn(n, mask, ballot)
    if kind in ("every", "census", "bijections"):
        return fn(n)
    if kind == "oracle_rows":
        return fn(n, pset, ballot)
    if kind in ("fill", "refused"):
        return fn(n, mask, ballot, rest)
    return fn(n, mask, ballot, 0)


def _time(kind, pset, n, ballot, repeat):
    """Median seconds over ``repeat`` runs, and the result size."""
    samples = []
    result = None
    for _ in range(repeat):
        _kernels._oracle_codes.cache_clear()  # each oracle run classifies afresh
        _kernels._lex_rows.cache_clear()  # and builds its rows afresh
        t0 = time.perf_counter()
        result = _run(kind, pset, n, ballot)
        samples.append(time.perf_counter() - t0)
    if kind == "count":
        size = result[-1]
    elif kind == "census":
        size = int(result.sum())
    elif kind == "every":
        size = sum(map(len, result))
    elif kind == "bijections":
        size = sum(row["status"] == "pass" for row in result)
    elif kind in ("refused", "check"):
        size = result
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
        seconds, size = _time(kind, parse_pattern_set(class_text), n, ballot, args.repeat)
        print(f"{label:<36} {seconds:>9.3f}s  {size}")


if __name__ == "__main__":
    main()
