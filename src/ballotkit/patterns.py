"""Pattern containment, avoidance, and canonical avoidance-class names.

A pattern is itself a permutation (length 1..9).  ``p`` contains pattern
``q`` when some subsequence of ``p`` standardizes to ``q``.  A pattern set
names an avoidance class; its canonical form is sorted with duplicates
removed, so "213,132" and "132,213" denote the same class everywhere.
"""
from __future__ import annotations

from functools import cache
from itertools import combinations

from .errors import InvalidInputError
from .perms import Perm, check_perm, parse_perm

PatternSet = tuple[Perm, ...]

PATTERN_MAX_LEN = 9

#: The six patterns of length 3, in lexicographic order.
LENGTH3_PATTERNS: tuple[Perm, ...] = (
    (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
)


def check_pattern(values) -> Perm:
    """Validate a pattern: a permutation of length 1..9."""
    q = check_perm(values)
    if not 1 <= len(q) <= PATTERN_MAX_LEN:
        raise InvalidInputError(f"pattern length must be 1..{PATTERN_MAX_LEN}: {q!r}")
    return q


def canonical_pattern_set(patterns) -> PatternSet:
    """Sort lexicographically and drop duplicates."""
    return tuple(sorted(set(check_pattern(q) for q in patterns)))


def parse_pattern_set(text: str) -> PatternSet:
    """Parse "132,213" into the canonical class ((1,3,2), (2,1,3)).

    The empty string names the unrestricted class.
    """
    text = text.strip()
    if text == "":
        return ()
    return canonical_pattern_set(parse_perm(part) for part in text.split(","))


def format_pattern_set(pset: PatternSet) -> str:
    """Canonical textual form, e.g. "132,213"; "" for the unrestricted class."""
    return ",".join("".join(str(v) for v in q) for q in canonical_pattern_set(pset))


@cache
def _neighbours(q: Perm) -> tuple[tuple[int | None, int | None], ...]:
    """For each index t of ``q``, the earlier indices holding q[t]'s nearest
    value below and nearest value above (None where q[:t] has none)."""
    out = []
    for t, v in enumerate(q):
        below = [s for s in range(t) if q[s] < v]
        above = [s for s in range(t) if q[s] > v]
        out.append((max(below, key=q.__getitem__, default=None),
                    min(above, key=q.__getitem__, default=None)))
    return tuple(out)


def _match_from(p: Perm, near: tuple, start: int, chosen: list[int]) -> bool:
    """Extend ``chosen`` (indices matching q[:len(chosen)]) scanning from ``start``.

    ``near`` is ``_neighbours(q)``.  Since ``chosen`` already matches q[:t]
    in order, a value extends it exactly when it lies strictly between the
    values chosen at q[t]'s nearest neighbours below and above.  Indices are
    explored in increasing order, so the first full match found is the
    lexicographically least witness.
    """
    t = len(chosen)
    if t == len(near):
        return True
    below, above = near[t]
    lo = 0 if below is None else p[chosen[below]]
    hi = len(p) + 1 if above is None else p[chosen[above]]
    # Too few positions left to host the remaining pattern entries.
    for c in range(start, len(p) - (len(near) - t) + 1):
        if lo < p[c] < hi:
            chosen.append(c)
            if _match_from(p, near, c + 1, chosen):
                return True
            chosen.pop()
    return False


def contains(p: Perm, q: Perm) -> bool:
    """True when some subsequence of ``p`` standardizes to ``q``.

    >>> contains((4, 6, 5, 1, 2, 3), (1, 3, 2))
    True
    >>> contains((4, 5, 6, 3, 1, 2), (2, 1, 3))
    False
    """
    return find_occurrence(p, q) is not None


def find_occurrence(p: Perm, q: Perm) -> tuple[int, ...] | None:
    """The lexicographically least witness (1-indexed), or None.

    >>> find_occurrence((4, 6, 5, 1, 2, 3), (1, 3, 2))
    (1, 2, 3)
    """
    chosen: list[int] = []
    if _match_from(p, _neighbours(tuple(q)), 0, chosen):
        return tuple(c + 1 for c in chosen)
    return None


def avoids_all(p: Perm, pset: PatternSet) -> bool:
    """True when ``p`` contains no member of ``pset`` (vacuously for empty sets)."""
    return not any(contains(p, q) for q in pset)


#: Canonical catalogue of the length-3 avoidance classes.
SINGLE_CLASSES: tuple[PatternSet, ...] = tuple((q,) for q in LENGTH3_PATTERNS)
PAIR_CLASSES: tuple[PatternSet, ...] = tuple(
    (a, b) for a, b in combinations(LENGTH3_PATTERNS, 2)
)
TRIPLE_CLASSES: tuple[PatternSet, ...] = tuple(
    (a, b, c) for a, b, c in combinations(LENGTH3_PATTERNS, 3)
)
ALL_CLASSES: tuple[PatternSet, ...] = SINGLE_CLASSES + PAIR_CLASSES + TRIPLE_CLASSES
