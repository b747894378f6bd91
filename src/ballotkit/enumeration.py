"""Two independent enumerators and a counter for pattern-avoiding (ballot)
permutations.

``enumerate_oracle`` classifies every permutation of 1..n and is the
reference everything else is validated against; it refuses lengths above a
cap (default 10, 10! = 3.6M candidates).  Its kernel ``_kernels.oracle_fill``
is vectorized with numpy and scans the permutations in blocks of at most 9!
rows.  ``enumerate_pruned`` grows permutations position by position and
abandons a prefix as soon as it breaks the ballot prefix condition or
contains a forbidden pattern; both conditions are monotone, so the two
enumerators agree exactly wherever both run.  Its kernel
``_kernels.pruned_fill`` tracks the forbidden values with the counter's
blocked-sites state and is called once per first value.

``count_pruned`` and ``count_sequence`` produce tallies without
materializing elements.  For length-3 pattern sets they make one pass of the
transfer-state counter ``_kernels.pruned_count``, which runs interpreted on
Python ints and yields every length up to n at once.
It keeps a bounded number of states per length and raises
``CapExceededError`` past that bound, as it does past the length cap.
``count_sequence(..., "oracle")`` reads length-3 classes off the oracle's
census (``_kernels.oracle_census``): one memoized classification per length
counts every class, ballot and plain, without listing any of them.

Pattern sets whose members all have length 3 run on the kernels in
``_kernels``; anything else takes the generic pure-Python paths below.
``_count_generic`` also serves as the small-n cross-check of the counter.

Each function takes its length cap as ``max_n``; None means the default.
``Caps`` holds both caps for callers that pass them down, such as
``verification``, and rejects a cap below 1 with ``ConfigError``.  Nothing
here reads the environment; the CLI resolves the caps once per command.
"""
from __future__ import annotations

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


@dataclass(frozen=True)
class Caps:
    """The oracle's and the pruned paths' length caps, each at least 1."""

    oracle: int = ORACLE_MAX_N_DEFAULT
    pruned: int = PRUNED_MAX_N_DEFAULT

    def __post_init__(self) -> None:
        for name, cap in (("oracle", self.oracle), ("pruned", self.pruned)):
            if cap < 1:
                raise ConfigError(f"the {name} cap must be at least 1, got {cap}")


def _check_cap(n: int, cap: int | None, what: str) -> None:
    """Refuse length ``n`` past ``cap``.  ``what`` starts with the method,
    "oracle" or "pruned": its default cap applies when ``cap`` is None, and
    the error names its flag."""
    method = what.split()[0]
    if cap is None:
        cap = getattr(Caps(), method)
    if n > cap:
        raise CapExceededError(
            f"{what} at n={n} exceeds the cap of {cap}; "
            f"raise --{method}-max-n or max_n to allow it"
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
    return list(map(tuple, rows.tolist()))


def _census_count(n: int, mask: int, ballot: bool) -> int:
    """|avoiders of length n| read off the oracle's census of length n."""
    table = _kernels.oracle_census(n)
    avoiders = table[[s for s in range(64) if not s & mask]]
    return int(avoiders[:, 1].sum() if ballot else avoiders.sum())


def _partition_firsts(n: int, mask: int, ballot: bool) -> list[Perm]:
    """The pruned listing, one kernel call per first value."""
    out: list[Perm] = []
    for first in range(1, n + 1):
        out.extend(_rows_to_perms(_kernels.pruned_fill(n, mask, ballot, first)))
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
    _check_cap(n, max_n, "oracle enumeration")
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
    _check_cap(n, max_n, "pruned enumeration")
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    if n == 0:
        return [()]
    pset = canonical_pattern_set(patterns)
    mask = _mask3(pset)
    if mask is None:
        return _pruned_generic(n, pset, ballot)
    return _partition_firsts(n, mask, ballot)


def count_pruned(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    max_n: int | None = None,
) -> int:
    """|avoiders of length n| without materializing them."""
    _check_cap(n, max_n, "pruned counting")
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
        _check_cap(n_max, max_n, "oracle counting")
        mask = _mask3(pset)
        if mask is None:
            counts = tuple(
                len(enumerate_oracle(n, pset, ballot=ballot, max_n=max_n))
                for n in range(1, n_max + 1)
            )
        else:
            counts = tuple(_census_count(n, mask, ballot) for n in range(1, n_max + 1))
    elif method == "pruned":
        _check_cap(n_max, max_n, "pruned counting")
        mask = _mask3(pset)
        if mask is None:
            counts = tuple(_count_generic(n, pset, ballot) for n in range(1, n_max + 1))
        else:
            counts = tuple(_kernels.pruned_count(n_max, mask, ballot))
    else:
        raise InvalidInputError(f"unknown counting method: {method!r}")
    return SequenceRecord(patterns=pset, counts=counts, provenance=method)
