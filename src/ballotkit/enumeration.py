"""Two independent enumerators and a counter for pattern-avoiding (ballot)
permutations.

``enumerate_oracle`` classifies every permutation of 1..n and is the
reference everything else is validated against; it refuses lengths above a
cap (default 10, 10! = 3.6M candidates).  Its kernel ``_kernels.oracle_fill``
is vectorized with numpy and scans the permutations in blocks of at most 9!
rows.  ``enumerate_pruned`` grows the members one length at a time, each
from its standardized prefix, and never extends a prefix that breaks the
ballot prefix condition or contains a forbidden pattern; both conditions are
monotone, so the two enumerators agree exactly wherever both run.  Its
kernel ``_kernels.pruned_fill`` steps every member of a length at once with
numpy, tracking the forbidden values with the counter's blocked-sites state,
and makes one call per listing.  Both enumerators return lists of tuples;
``enumerate_rows`` is the one listing function behind them, which checks the
cap, n and the pattern set once and returns the members as the rows of an
integer array, as the CLI prints them.

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
``_kernels``; anything else takes one pure-Python search,
``_generic_members``, which walks West's generating tree once and yields
the members of every length up to n: ``enumerate_pruned`` sorts those of
length n, and ``count_sequence`` tallies every length from the same pass.
Run on length-3 classes, it also cross-checks the kernels at small n.

Each function takes its length cap as ``max_n``; None means the default.
``Caps`` holds both caps for callers that pass them down, such as
``verification``, and rejects a cap below 1 with ``ConfigError``.  Nothing
here reads the environment; the CLI resolves the caps once per command.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import permutations as _all_perms

import numpy as np

from . import _kernels
from .errors import CapExceededError, ConfigError, InvalidInputError
from .patterns import (
    LENGTH3_PATTERNS,
    PatternSet,
    avoids_all,
    canonical_pattern_set,
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


def _partition_firsts(n: int, mask: int, ballot: bool):
    """The pruned listing as an (m, n) array, in one kernel call.  A function
    of its own because ``perfbench/tracer.py`` times it by this name."""
    return _kernels.pruned_fill(n, mask, ballot, 0)


def _generic_members(n_max: int, pset: PatternSet, ballot: bool) -> Iterator[Perm]:
    """Every member of lengths 1..n_max, each once, for pattern sets the
    kernels do not cover.

    A depth-first walk of West's generating tree: a member's children append
    a last entry of rank r = 1..len+1, lifting the entries at or above r.  A
    member's standardized prefixes are members, so pruning a non-member loses
    none.  The parent avoids ``pset``, so ``avoids_all`` on a child decides
    whether the new entry completes an occurrence.
    """
    stack: list[tuple[Perm, int]] = [((), 0)]
    while stack:
        pre, height = stack.pop()
        for r in range(1, len(pre) + 2):
            h = height
            if pre:
                h += 1 if pre[-1] < r else -1
                if ballot and h < 0:
                    continue
            nxt = tuple(x + 1 if x >= r else x for x in pre) + (r,)
            if avoids_all(nxt, pset):
                yield nxt
                if len(nxt) < n_max:
                    stack.append((nxt, h))


def enumerate_rows(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    method: str = "pruned",
    max_n: int | None = None,
) -> np.ndarray:
    """Every avoider of length ``n`` as the rows of an (m, n) array, lex order.

    ``method`` is "oracle" (exhaustive filtering) or "pruned"; each refuses n
    above its cap, which ``max_n`` overrides.  Length 0 gives one empty row.
    """
    if method not in ("oracle", "pruned"):
        raise InvalidInputError(f"unknown enumeration method: {method!r}")
    _check_cap(n, max_n, f"{method} enumeration")
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    if n == 0:
        return np.empty((1, 0), dtype=np.uint8)
    pset = canonical_pattern_set(patterns)
    mask = _mask3(pset)
    if mask is not None:
        if method == "oracle":
            return _kernels.oracle_fill(n, mask, ballot, 0)
        return _partition_firsts(n, mask, ballot)
    if method == "oracle":
        members = [
            p
            for p in _all_perms(range(1, n + 1))
            if (not ballot or is_ballot(p)) and avoids_all(p, pset)
        ]
    else:
        members = sorted(p for p in _generic_members(n, pset, ballot) if len(p) == n)
    return np.array(members, dtype=np.min_scalar_type(n)).reshape(len(members), n)


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
    return _rows_to_perms(enumerate_rows(n, patterns, ballot=ballot, method="oracle",
                                         max_n=max_n))


def enumerate_pruned(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    max_n: int | None = None,
) -> list[Perm]:
    """Every avoider of length ``n`` by pruned search, lex order.

    Matches ``enumerate_oracle`` element for element wherever both run.
    """
    return _rows_to_perms(enumerate_rows(n, patterns, ballot=ballot, max_n=max_n))


def count_pruned(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    max_n: int | None = None,
) -> int:
    """|avoiders of length n| without materializing them."""
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    if n == 0:
        return 1
    return count_sequence(patterns, n, ballot=ballot, max_n=max_n).counts[-1]


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
            tally = [0] * n_max
            for p in _generic_members(n_max, pset, ballot):
                tally[len(p) - 1] += 1
            counts = tuple(tally)
        else:
            counts = tuple(_kernels.pruned_count(n_max, mask, ballot))
    else:
        raise InvalidInputError(f"unknown counting method: {method!r}")
    return SequenceRecord(patterns=pset, counts=counts, provenance=method)
