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
numpy, tracking the values that length-3 patterns forbid with the counter's
blocked-sites state, and makes one call per listing.  Both enumerators
return lists of tuples; ``enumerate_rows`` is the one listing function
behind them, which checks the cap, n and the pattern set once and returns
the members as the rows of an integer array, as the CLI prints them.  For
length-3 patterns it refuses a pruned listing of more than
``_kernels.MAX_ROWS`` rows at some length from the class counts
(``_kernels.check_rows``), before any row is built.

``count_pruned`` and ``count_sequence`` produce tallies.  For length-3
pattern sets they make one pass of the transfer-state counter
``_kernels.pruned_count``, which materializes no element, runs interpreted
on Python ints and yields every length up to n at once.
It keeps a bounded number of states per length and raises
``CapExceededError`` past that bound, as it does past the length cap.
``count_sequence(..., "oracle")`` reads length-3 classes off the oracle's
census (``_kernels.oracle_census``): one memoized classification per length
counts every class, ballot and plain, without listing any of them.

``_split`` parts a pattern set into the 6-bit mask of its length-3
patterns and the patterns of other lengths.  The listing kernel takes both:
it drops each child whose new last entry completes an occurrence of one of
the others.  So one walk of West's generating tree lists every pattern set,
and the pruned counts of a set with such a pattern are the sizes of the
levels of one walk to n (``_kernels.pruned_levels``), bounded, like
listing, by ``_kernels.MAX_ROWS`` children per length.  The oracle takes
both as well: it lists and counts such a set by classifying every
permutation for the mask and dropping, block by block, the members that
contain one of the others.

``Caps`` holds both length caps and applies them: each function takes one
as ``caps`` and refuses n past the cap of the method it runs.  Nothing here
reads the environment; the CLI builds the ``Caps`` from its flags.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CapExceededError, InvalidInputError
from .patterns import (
    LENGTH3_PATTERNS,
    PatternSet,
    canonical_pattern_set,
    format_pattern_set,
)
from .perms import Perm


@dataclass(frozen=True)
class Caps:
    """The longest length the oracle and the pruned paths accept, each at
    least 1."""

    oracle: int = 10
    pruned: int = 16

    def __post_init__(self) -> None:
        for name, cap in (("oracle", self.oracle), ("pruned", self.pruned)):
            if cap < 1:
                raise InvalidInputError(f"the {name} cap must be at least 1, got {cap}")

    def check(self, method: str, n: int, what: str) -> None:
        """Refuse length ``n`` past the cap of ``method``, "oracle" or
        "pruned"; the error names that method's flag."""
        cap = getattr(self, method)
        if n > cap:
            raise CapExceededError(
                f"{method} {what} at n={n} exceeds the cap of {cap}; "
                f"raise --{method}-max-n to allow it"
            )


@dataclass(frozen=True)
class SequenceRecord:
    """A computed or referenced count sequence for one avoidance class."""

    patterns: PatternSet
    counts: tuple[int, ...]          # counts[i] is the value at n = i + 1
    provenance: str                  # oracle | pruned | formula | paper-table

    @property
    def class_name(self) -> str:
        return format_pattern_set(self.patterns)

    def value_at(self, n: int) -> int:
        if not 1 <= n <= len(self.counts):
            raise InvalidInputError(f"n={n} outside recorded range of {self.class_name}")
        return self.counts[n - 1]


def _split(pset: PatternSet) -> tuple[int, PatternSet]:
    """The 6-bit kernel mask of the length-3 patterns, and the other patterns."""
    mask = sum(1 << LENGTH3_PATTERNS.index(q) for q in pset if len(q) == 3)
    return mask, tuple(q for q in pset if len(q) != 3)


def _rows_to_perms(rows) -> list[Perm]:
    return list(map(tuple, rows.tolist()))


def _census_count(n: int, mask: int, ballot: bool) -> int:
    """|avoiders of length n| read off the oracle's census of length n."""
    table = _kernels.oracle_census(n)
    avoiders = table[[s for s in range(64) if not s & mask]]
    return int(avoiders[:, 1].sum() if ballot else avoiders.sum())


def _partition_firsts(n: int, mask: int, ballot: bool, rest: PatternSet):
    """The pruned listing as an (m, n) array, in one kernel call.  A function
    of its own because ``perfbench/tracer.py`` times it by this name."""
    return _kernels.pruned_fill(n, mask, ballot, rest)


def enumerate_rows(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    method: str = "pruned",
    caps: Caps = Caps(),
) -> np.ndarray:
    """Every avoider of length ``n`` as the rows of an (m, n) array, lex order.

    ``method`` is "oracle" (exhaustive filtering) or "pruned"; each refuses n
    above its cap in ``caps``, and "pruned" also a length of more than
    ``_kernels.MAX_ROWS`` rows.  Length 0 gives one empty row.
    """
    if method not in ("oracle", "pruned"):
        raise InvalidInputError(f"unknown enumeration method: {method!r}")
    caps.check(method, n, "enumeration")
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    mask, rest = _split(canonical_pattern_set(patterns))
    if method == "oracle":
        return _kernels.oracle_fill(n, mask, ballot, 0, rest)
    if not rest:
        _kernels.check_rows(n, mask, ballot)
    return _partition_firsts(n, mask, ballot, rest)


def enumerate_oracle(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    caps: Caps = Caps(),
) -> list[Perm]:
    """Every avoider of length ``n`` by exhaustive filtering, lex order.

    Refuses n above the oracle cap of ``caps``.
    """
    return _rows_to_perms(enumerate_rows(n, patterns, ballot=ballot, method="oracle",
                                         caps=caps))


def enumerate_pruned(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    caps: Caps = Caps(),
) -> list[Perm]:
    """Every avoider of length ``n`` by pruned search, lex order.

    Matches ``enumerate_oracle`` element for element wherever both run.
    """
    return _rows_to_perms(enumerate_rows(n, patterns, ballot=ballot, caps=caps))


def count_pruned(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    caps: Caps = Caps(),
) -> int:
    """|avoiders of length n| without materializing them."""
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    if n == 0:
        canonical_pattern_set(patterns)  # refuse an invalid set at every n
        return 1
    return count_sequence(patterns, n, ballot=ballot, caps=caps).counts[-1]


def count_sequence(
    patterns: PatternSet,
    n_max: int,
    method: str = "pruned",
    *,
    ballot: bool = True,
    caps: Caps = Caps(),
) -> SequenceRecord:
    """Counts for n = 1..n_max with the stated provenance."""
    if n_max < 1:
        raise InvalidInputError("n_max must be at least 1")
    if method not in ("oracle", "pruned"):
        raise InvalidInputError(f"unknown counting method: {method!r}")
    caps.check(method, n_max, "counting")
    pset = canonical_pattern_set(patterns)
    mask, rest = _split(pset)
    if method == "oracle" and rest:
        counts = tuple(len(_kernels.oracle_fill(n, mask, ballot, 0, rest))
                       for n in range(1, n_max + 1))
    elif method == "oracle":
        counts = tuple(_census_count(n, mask, ballot) for n in range(1, n_max + 1))
    elif rest:
        counts = tuple(map(len, _kernels.pruned_levels(n_max, mask, ballot, rest)))
    else:
        counts = tuple(_kernels.pruned_count(n_max, mask, ballot))
    return SequenceRecord(patterns=pset, counts=counts, provenance=method)
