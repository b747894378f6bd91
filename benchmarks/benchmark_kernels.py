#!/usr/bin/env python3
"""Time the enumeration and counting kernels.

Usage:
    python benchmarks/benchmark_kernels.py [--repeat N]

Each case is one direct call of a kernel, on a workload large enough to
dominate call overhead, that returns the result printed beside its time;
the comment beside each case says why it is there.  Every time is the
median of ``--repeat`` runs, printed with its sample count.  The runs go in
``--repeat`` rounds, each of which runs every case once in a shuffled
order (the same on every invocation), so that a drift of the host's speed
spreads over all cases instead of reading as a change of the cases timed
while it lasted.  The peak is the tracemalloc peak of one more, untimed run
(numpy reports its buffers to tracemalloc).  The oracle's row and
classification memos are cleared before each run, so each time and peak
includes the work that every command pays once.  All kernels run on the
interpreter and numpy.
"""
from __future__ import annotations

import argparse
import collections
import math
import random
import statistics
import time
import tracemalloc

from ballotkit import _kernels
from ballotkit._kernels import (
    check_rows,
    listing_rows,
    oracle_census,
    oracle_fill,
    pruned_count,
    pruned_fill,
    pruned_levels,
    split,
)
from ballotkit.enumeration import enumerate_rows
from ballotkit.errors import CapExceededError
from ballotkit.patterns import parse_pattern_set
from ballotkit.verification import suite_bijections


def _mask(text):
    """The kernel mask of a set of length-3 patterns, e.g. "132,213"."""
    return split(parse_pattern_set(text))[0]


def _rest(text):
    """The patterns of a set that are not of length 3, as kernels take them."""
    return split(parse_pattern_set(text))[1]


def _refused(call):
    """"refused" when ``call()`` refuses its request, as it must."""
    try:
        call()
    except CapExceededError:
        return "refused"
    raise AssertionError("the call was not refused")


def _passed(rows):
    return sum(row["status"] == "pass" for row in rows)


CASES = [
    # transfer-state counting, one pass to n; {123,132} outgrows 64-bit sites
    ("pruned_count {321} n=40", lambda: pruned_count(40, _mask("321"), True)[-1]),
    ("pruned_count {231,312,321} n=40",
     lambda: pruned_count(40, _mask("231,312,321"), True)[-1]),
    ("pruned_count {123,132} n=100", lambda: pruned_count(100, _mask("123,132"), True)[-1]),
    # the classes that keep the most states: at most 458, 977 and 1,324 a
    # length to n = 100
    ("pruned_count {132} n=100", lambda: pruned_count(100, _mask("132"), True)[-1]),
    ("pruned_count {312} n=100", lambda: pruned_count(100, _mask("312"), True)[-1]),
    ("pruned_count {} n=100", lambda: pruned_count(100, 0, True)[-1]),
    # plain {} meets each (top, blocked) pair once: the counter's memo of
    # steps holds one length's pairs; the result is whether it counts 600!
    ("pruned_count {} plain n=600",
     lambda: pruned_count(600, 0, False)[-1] == math.factorial(600)),
    # the classes the benchmark's enumerate workload lists, as packed keys;
    # "rows" decodes every row at once, as enumerate_rows returns them
    ("pruned_fill {} n=9", lambda: len(pruned_fill(9, 0, True))),
    ("pruned_fill {} n=9 rows", lambda: len(listing_rows(pruned_fill(9, 0, True), 9))),
    ("pruned_fill {132} n=11", lambda: len(pruned_fill(11, _mask("132"), True))),
    ("pruned_fill {231} plain n=10", lambda: len(pruned_fill(10, _mask("231"), False))),
    ("pruned_fill {321} n=11", lambda: len(pruned_fill(11, _mask("321"), True))),
    # the largest listing the row bound accepts: its keys set the peak
    ("pruned_fill {} plain n=10", lambda: len(pruned_fill(10, 0, False))),
    ("pruned_fill {} plain n=10 rows", lambda: len(listing_rows(pruned_fill(10, 0, False), 10))),
    # the ballot listing whose walk state is largest beside its keys: 894,660
    # members of length 14, each with its blocked sites and height
    ("pruned_fill {312} n=15", lambda: len(pruned_fill(15, _mask("312"), True))),
    # the single member of length 100 and 300, whose blocked sites outgrow
    # 64 bits: one row, whose few open sites are tested and stepped one at a
    # time; past n = 16 the row path
    ("pruned_fill {123,132} n=100", lambda: len(pruned_fill(100, _mask("123,132"), True))),
    ("pruned_fill {123,132} n=300", lambda: len(pruned_fill(300, _mask("123,132"), True))),
    # patterns of length 4, dropped by the completion test: the row path
    ("pruned_fill {1234} plain n=10", lambda: len(pruned_fill(10, 0, False, _rest("1234")))),
    ("pruned_fill {3142,2413} n=9",
     lambda: len(pruned_fill(9, 0, True, _rest("2413,3142")))),
    # every ballot permutation of length 11: the walk runs until its row
    # bound stops it, check_rows refuses from the counts before any row;
    # at n=80 the counts stop at length 11 too
    ("pruned_levels {} n=11 (refused)",
     lambda: _refused(lambda: collections.deque(pruned_levels(11, 0, True), maxlen=0))),
    ("check_rows {} n=11 (refused)", lambda: _refused(lambda: check_rows(11, 0, True))),
    ("check_rows {} n=80 (refused)", lambda: _refused(lambda: check_rows(80, 0, True))),
    # one class from every permutation of length 9 and 10
    ("oracle_fill {132,213} n=9", lambda: len(oracle_fill(9, _mask("132,213"), True, 0))),
    ("oracle_fill {132,213} n=10", lambda: len(oracle_fill(10, _mask("132,213"), True, 0))),
    # enumerate --method oracle: the 1234 test runs on the {132} avoiders
    # alone, then on every permutation, since no length-3 pattern narrows it
    ("oracle rows {132,1234} plain n=9",
     lambda: len(enumerate_rows(9, parse_pattern_set("132,1234"), ballot=False,
                                method="oracle"))),
    ("oracle rows {1234} plain n=9",
     lambda: len(enumerate_rows(9, parse_pattern_set("1234"), ballot=False,
                                method="oracle"))),
    # all 64 classes of length 8, ballot and plain, from one classification
    ("oracle_fill every class n=8",
     lambda: sum(len(oracle_fill(8, mask, ballot, 0))
                 for mask in range(64) for ballot in (True, False))),
    # the census is memoized per length; time the computation behind the cache
    ("oracle_census n=8", lambda: int(oracle_census.__wrapped__(8).sum())),
    # the whole classification of 10!: 90 blocks of 8! rows, kept as codes
    ("oracle_census n=10", lambda: int(oracle_census.__wrapped__(10).sum())),
    # verify's bijection rows, listed from the oracle up to its cap of 10
    ("suite_bijections n=8", lambda: _passed(suite_bijections(8))),
    ("suite_bijections n=10", lambda: _passed(suite_bijections(10))),
]


def _clear_memos():
    _kernels._oracle_codes.cache_clear()  # each oracle run classifies afresh
    _kernels._lex_rows.cache_clear()  # and builds its rows afresh


def _time(call):
    """Seconds of one run of ``call``, and its result."""
    _clear_memos()
    t0 = time.perf_counter()
    result = call()
    return time.perf_counter() - t0, result


def _peak(call):
    """The tracemalloc peak, in bytes, of one more run of ``call``."""
    _clear_memos()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    rng = random.Random(0)
    samples = collections.defaultdict(list)
    results = {}
    order = list(CASES)
    for _ in range(args.repeat):
        rng.shuffle(order)
        for label, call in order:
            seconds, results[label] = _time(call)
            samples[label].append(seconds)

    print(f"medians of {args.repeat} run(s) each")
    print(f"{'case':<36} {'time':>10} {'peak':>10}  result")
    for label, call in CASES:
        seconds = statistics.median(samples[label])
        peak = _peak(call) / 2**20
        print(f"{label:<36} {seconds:>9.4f}s {peak:>7.1f} MB  {results[label]}")


if __name__ == "__main__":
    main()
