"""Two independent enumerators and a counter for pattern-avoiding (ballot)
permutations: the policy around the kernels of ``_kernels``.

``enumerate_oracle`` classifies every permutation of 1..n and is the
reference everything else is validated against; ``enumerate_pruned`` grows
the members one length at a time and never extends a prefix that breaks the
ballot prefix condition or contains a forbidden pattern.  Both conditions
are monotone, so the two agree exactly wherever both run.  Both return lists
of tuples; ``enumerate_listing`` is the one listing function behind them:
it returns the kernel's packed keys or rows, which the CLI decodes slice by
slice and ``enumerate_rows`` decodes whole.
``count_pruned`` and ``count_sequence`` produce tallies without listing.

Each function checks n and the pattern set once, applies the cap of the
method it runs, parts the set with ``_kernels.split`` and makes one kernel
call: ``oracle_fill`` or ``pruned_fill`` to list (``pruned_fill`` refuses an
oversized listing itself), and ``oracle_tally`` or ``pruned_tally`` to count.
The kernels' module docstring states the pattern encoding, the engines and
the refusal rule.

``Caps`` holds both length caps and applies them: each function takes one
as ``caps`` and refuses n past the cap of the method it runs (the oracle's
default of 10 is 10! = 3.6M candidates).  Nothing here reads the
environment; the CLI builds the ``Caps`` from its flags.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import CapExceededError, InvalidInputError
from .patterns import PatternSet, canonical_pattern_set, format_pattern_set
from .perms import Perm


@dataclass(frozen=True)
class Caps:
    """The longest length the oracle and the pruned paths accept, each at
    least 1."""

    oracle: int = 10
    pruned: int = 16

    def __post_init__(self) -> None:
        for name, cap in vars(self).items():
            if cap < 1:
                raise InvalidInputError(f"the {name} cap must be at least 1, got {cap}")

    def check(self, method: str, n: int, what: str) -> None:
        """Refuse a ``method`` other than "oracle" and "pruned", and length
        ``n`` past the cap of ``method``; the error names that method's flag."""
        cap = vars(self).get(method)
        if cap is None:
            raise InvalidInputError(f"unknown {what} method: {method!r}")
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


def _rows_to_perms(rows) -> list[Perm]:
    return list(map(tuple, rows.tolist()))


def _partition_firsts(n: int, mask: int, ballot: bool, rest: PatternSet):
    """The pruned listing, in one kernel call.  A function of its own because
    ``perfbench/tracer.py`` times it by this name."""
    return _kernels.pruned_fill(n, mask, ballot, rest)


def enumerate_listing(
    n: int,
    patterns: PatternSet = (),
    *,
    ballot: bool = True,
    method: str = "pruned",
    caps: Caps = Caps(),
) -> np.ndarray:
    """Every avoider of length ``n`` in lex order: ``pruned_fill``'s packed
    keys or rows, or the oracle's rows (``_kernels.listing_rows`` reads both).

    ``method`` is "oracle" (exhaustive filtering) or "pruned"; each refuses n
    above its cap in ``caps``, and "pruned" also a length of more than
    ``_kernels.MAX_ROWS`` rows.  Length 0 gives one empty row.
    """
    caps.check(method, n, "enumeration")
    if n < 0:
        raise InvalidInputError("n must be nonnegative")
    mask, rest = _kernels.split(canonical_pattern_set(patterns))
    if method == "oracle":
        return _kernels.oracle_fill(n, mask, ballot, 0, rest)
    return _partition_firsts(n, mask, ballot, rest)


def enumerate_rows(n: int, patterns: PatternSet = (), **options) -> np.ndarray:
    """``enumerate_listing`` (with ``options``) as one (m, n) array of rows."""
    return _kernels.listing_rows(enumerate_listing(n, patterns, **options), n)


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
    caps.check(method, n_max, "counting")
    pset = canonical_pattern_set(patterns)
    mask, rest = _kernels.split(pset)
    tally = _kernels.oracle_tally if method == "oracle" else _kernels.pruned_tally
    counts = tuple(tally(n_max, mask, ballot, rest))
    return SequenceRecord(patterns=pset, counts=counts, provenance=method)
