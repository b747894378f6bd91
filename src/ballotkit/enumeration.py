"""Two independent enumerators and a counter for pattern-avoiding (ballot)
permutations.

``enumerate_oracle`` classifies every permutation of 1..n and is the
reference everything else is validated against; it refuses lengths above a
cap (default 10, 10! = 3.6M candidates).  Its kernel ``_kernels.oracle_fill``
is vectorized with numpy and scans the permutations in blocks of at most 9!
rows, so it needs no thread partition.  ``enumerate_pruned`` grows
permutations position by position and abandons a prefix as soon as it breaks
the ballot prefix condition or contains a forbidden pattern; both conditions
are monotone, so the two enumerators agree exactly wherever both run.

``count_pruned`` and ``count_sequence`` produce tallies without
materializing elements.  For length-3 pattern sets they make one pass of the
transfer-state counter ``_kernels.pruned_count``, which runs interpreted on
Python ints, does not use numba, and yields every length up to n at once.
It keeps a bounded number of states per length and raises
``CapExceededError`` past that bound, as it does past the length cap.
``count_sequence(..., "oracle")`` reads length-3 classes off the oracle's
census (``_kernels.oracle_census``): one memoized classification per length
counts every class, ballot and plain, without listing any of them.

Pattern sets whose members all have length 3 run on the kernels in
``_kernels``; anything else takes the generic pure-Python paths below.
``_count_generic`` also serves as the small-n cross-check of the counter.

Caps and parallelism are configurable per call, by environment variable
(BALLOTKIT_ORACLE_MAX_N, BALLOTKIT_PRUNED_MAX_N, BALLOTKIT_THREADS), or fall
back to the defaults.  Threads partition only the pruned listing.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import permutations as _all_perms

from . import _kernels
from .errors import CapExceededError, ConfigError, InvalidInputError
from .patterns import (
    LENGTH3_PATTERNS,
    PatternSet,
    avoids_all,
    canonical_pattern_set,
    extends_occurrence,
    format_pattern_set,
)
from .perms import Perm, is_ballot

ORACLE_MAX_N_DEFAULT = 10
PRUNED_MAX_N_DEFAULT = 16

#: Partitioning the search by first value only pays off for deep trees.
_PARTITION_MIN_N = 10


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from None


def oracle_max_n() -> int:
    return _env_int("BALLOTKIT_ORACLE_MAX_N", ORACLE_MAX_N_DEFAULT)


def pruned_max_n() -> int:
    return _env_int("BALLOTKIT_PRUNED_MAX_N", PRUNED_MAX_N_DEFAULT)


def default_threads() -> int:
    threads = _env_int("BALLOTKIT_THREADS", os.cpu_count() or 1)
    if threads < 1:
        raise ConfigError(f"BALLOTKIT_THREADS must be at least 1, got {threads}")
    return threads


def _check_oracle_cap(n: int, max_n: int | None, what: str) -> None:
    cap = oracle_max_n() if max_n is None else max_n
    if n > cap:
        raise CapExceededError(
            f"oracle {what} at n={n} exceeds the cap of {cap} "
            f"({n}! candidates); raise BALLOTKIT_ORACLE_MAX_N or max_n to allow it"
        )


def _check_pruned_cap(n: int, max_n: int | None, what: str) -> None:
    cap = pruned_max_n() if max_n is None else max_n
    if n > cap:
        raise CapExceededError(
            f"pruned {what} at n={n} exceeds the cap of {cap}; "
            f"raise BALLOTKIT_PRUNED_MAX_N or max_n to allow it"
        )


@dataclass(frozen=True)
class SequenceRecord:
    """A computed or referenced count sequence for one avoidance class."""

    patterns: PatternSet
    counts: tuple[int, ...]          # counts[i] is the value at n = start + i
    provenance: str                  # oracle | pruned | formula | paper-table
    start: int = 1

    @property
    def class_name(self) -> str:
        return format_pattern_set(self.patterns)

    def value_at(self, n: int) -> int:
        if not self.start <= n < self.start + len(self.counts):
            raise InvalidInputError(f"n={n} outside recorded range of {self.class_name}")
        return self.counts[n - self.start]


def _mask3(pset: PatternSet) -> int | None:
    """6-bit kernel mask, or None when some pattern is not of length 3."""
    mask = 0
    for q in pset:
        if len(q) != 3:
            return None
        mask |= 1 << LENGTH3_PATTERNS.index(q)
    return mask


def _rows_to_perms(rows) -> list[Perm]:
    return [tuple(int(v) for v in row) for row in rows]


def _census_count(n: int, mask: int, ballot: bool) -> int:
    """|avoiders of length n| read off the oracle's census of length n."""
    table = _kernels.oracle_census(n)
    avoiders = table[[s for s in range(64) if not s & mask]]
    return int(avoiders[:, 1].sum() if ballot else avoiders.sum())


def _partition_firsts(kernel, n: int, mask: int, ballot: bool, threads: int) -> list[Perm]:
    kernel(2, mask, ballot, 0)  # compile/warm before fanning out
    with ThreadPoolExecutor(max_workers=min(threads, n)) as pool:
        chunks = list(pool.map(lambda v: kernel(n, mask, ballot, v), range(1, n + 1)))
    out: list[Perm] = []
    for chunk in chunks:
        out.extend(_rows_to_perms(chunk))
    return out


def _pruned_generic(n: int, pset: PatternSet, ballot: bool) -> list[Perm]:
    """Value-choice DFS for pattern sets the kernels do not cover."""
    out: list[Perm] = []
    prefix: list[int] = []
    used = [False] * (n + 1)

    def walk(asc: int, desc: int) -> None:
        depth = len(prefix)
        if depth == n:
            out.append(tuple(prefix))
            return
        for v in range(1, n + 1):
            if used[v]:
                continue
            a, d = asc, desc
            if depth > 0:
                if prefix[-1] < v:
                    a += 1
                else:
                    d += 1
                if ballot and d > a:
                    continue
            prefix.append(v)
            if any(extends_occurrence(tuple(prefix), q) for q in pset):
                prefix.pop()
                continue
            used[v] = True
            walk(a, d)
            used[v] = False
            prefix.pop()

    walk(0, 0)
    return out


def _count_generic(n: int, pset: PatternSet, ballot: bool) -> int:
    """Rank-insertion DFS count for pattern sets the kernels do not cover."""

    def walk(pre: Perm, asc: int, desc: int) -> int:
        depth = len(pre)
        if depth == n:
            return 1
        total = 0
        for r in range(1, depth + 2):
            a, d = asc, desc
            if depth > 0:
                if pre[-1] < r:
                    a += 1
                else:
                    d += 1
                if ballot and d > a:
                    continue
            nxt = tuple(x + 1 if x >= r else x for x in pre) + (r,)
            if any(extends_occurrence(nxt, q) for q in pset):
                continue
            total += walk(nxt, a, d)
        return total

    return walk((), 0, 0)


def enumerate_oracle(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    max_n: int | None = None,
) -> list[Perm]:
    """Every avoider of length ``n`` by exhaustive filtering, lex order.

    Refuses n above the oracle cap; pass ``max_n`` to override it.
    """
    _check_oracle_cap(n, max_n, "enumeration")
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    if n == 0:
        return [()]
    pset = canonical_pattern_set(patterns)
    mask = _mask3(pset)
    if mask is None:
        return [
            p
            for p in _all_perms(range(1, n + 1))
            if (not ballot or is_ballot(p)) and avoids_all(p, pset)
        ]
    return _rows_to_perms(_kernels.oracle_fill(n, mask, ballot, 0))


def enumerate_pruned(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    max_n: int | None = None,
) -> list[Perm]:
    """Every avoider of length ``n`` by pruned backtracking, lex order.

    Matches ``enumerate_oracle`` element for element wherever both run.
    """
    _check_pruned_cap(n, max_n, "enumeration")
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    if n == 0:
        return [()]
    pset = canonical_pattern_set(patterns)
    mask = _mask3(pset)
    if mask is None:
        return _pruned_generic(n, pset, ballot)
    threads = default_threads()
    if threads > 1 and n >= _PARTITION_MIN_N:
        return _partition_firsts(_kernels.pruned_fill, n, mask, ballot, threads)
    return _rows_to_perms(_kernels.pruned_fill(n, mask, ballot, 0))


def count_pruned(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    max_n: int | None = None,
) -> int:
    """|avoiders of length n| without materializing them."""
    _check_pruned_cap(n, max_n, "counting")
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    if n == 0:
        return 1
    pset = canonical_pattern_set(patterns)
    mask = _mask3(pset)
    if mask is None:
        return _count_generic(n, pset, ballot)
    return _kernels.pruned_count(n, mask, ballot)[-1]


def count_sequence(
    patterns: PatternSet,
    n_max: int,
    method: str = "pruned",
    *,
    ballot: bool = True,
    max_n: int | None = None,
) -> SequenceRecord:
    """Counts for n = 1..n_max with the stated provenance."""
    if n_max < 1:
        raise InvalidInputError("n_max must be at least 1")
    pset = canonical_pattern_set(patterns)
    if method == "oracle":
        _check_oracle_cap(n_max, max_n, "counting")
        mask = _mask3(pset)
        if mask is None:
            counts = tuple(
                len(enumerate_oracle(n, pset, ballot=ballot, max_n=max_n))
                for n in range(1, n_max + 1)
            )
        else:
            counts = tuple(_census_count(n, mask, ballot) for n in range(1, n_max + 1))
    elif method == "pruned":
        _check_pruned_cap(n_max, max_n, "counting")
        mask = _mask3(pset)
        if mask is None:
            counts = tuple(_count_generic(n, pset, ballot) for n in range(1, n_max + 1))
        else:
            counts = tuple(_kernels.pruned_count(n_max, mask, ballot))
    else:
        raise InvalidInputError(f"unknown counting method: {method!r}")
    return SequenceRecord(patterns=pset, counts=counts, provenance=method)
