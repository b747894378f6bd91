"""Constructive maps between avoidance classes and simpler objects.

Nine catalogued classes have the property that the descent word determines
the member uniquely, so every class-to-class map here goes through the word
as a pivot: read the word off the source, rebuild in the target.  Each of
the three families of such classes states once which ballot words its
members have:

- the four pair classes around {132,213} admit every ballot word;
- the {132,213,312} family admits words whose descents form a suffix
  (U^a D^b);
- the {132,213,321} family admits words with at most one descent
  (U^a D U^b or all U).

Each family maps its member classes to their builders.  Only the four pair
classes have builders of their own.  Each triple class lies inside one of
them, so its member with a given word is the pair's member with that word,
and its family lists the pair's builder.

The remaining maps are the insertion bijections onto plain avoider sets, the
excluded-element construction, the two recursive generators, and the
explicit members of the always-small classes.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import reduce

from .errors import InvalidInputError, UnrealizableWordError, UnsupportedClassError
from .patterns import PatternSet, canonical_pattern_set, find_occurrence, format_pattern_set
from .perms import (
    Perm,
    check_step_word,
    descent_word,
    direct_sum,
    identity,
    is_ballot,
    is_ballot_word,
    reverse,
    skew_sum,
    standardize,
)


def _require_avoider(p: Perm, pset: PatternSet, where: str) -> None:
    for q in pset:
        witness = find_occurrence(p, q)
        if witness is not None:
            pattern = "".join(str(v) for v in q)
            raise InvalidInputError(
                f"{where}: {p} contains {pattern} at positions {witness}"
            )


def _require_member(p: Perm, pset: PatternSet, where: str) -> None:
    if not is_ballot(p):
        raise InvalidInputError(f"{where}: {p} is not a ballot permutation")
    _require_avoider(p, pset, where)


def _u_runs(w: str) -> list[int]:
    """Lengths of the maximal U-runs delimited by each D (one run per split slot)."""
    return [len(run) for run in w.split("D")]


def _from_word_132_213(w: str) -> Perm:
    blocks = [identity(r + 1) for r in _u_runs(w)]
    return reduce(skew_sum, blocks)


def _from_word_213_231(w: str) -> Perm:
    runs = _u_runs(w)
    n = len(w) + 1
    out: list[int] = []
    nxt = 1
    for i, r in enumerate(runs):
        out.extend(range(nxt, nxt + r))
        nxt += r
        out.append(n - i)  # a fresh maximum closes each block
    return tuple(out)


def _from_word_231_312(w: str) -> Perm:
    if not w:
        return (1,)
    blocks: list[Perm] = [(1,)]
    i = 0
    while i < len(w):
        j = i + 1
        while j < len(w) and w[j] == "D":
            j += 1
        blocks.append(reverse(identity(j - i)))
        i = j
    return reduce(direct_sum, blocks)


def _from_word_132_312(w: str) -> Perm:
    runs = _u_runs(w)
    m = len(runs)
    out: list[int] = []
    climb = m  # values 1..m-1 are reserved for the positions after each descent
    for i, r in enumerate(runs):
        width = r + 1 if i == 0 else r
        for _ in range(width):
            out.append(climb)
            climb += 1
        if i < m - 1:
            out.append(m - 1 - i)
    return tuple(out)


@dataclass(frozen=True)
class WilfFamily:
    """Classes whose members correspond word-for-word: each class name with
    the builder of its member for a word; ``admits`` says which ballot words."""

    members: dict[str, Callable[[str], Perm]]
    admits: Callable[[str], bool]

    @property
    def canonical_member(self) -> str:
        return next(iter(self.members))


DESCENT_WORD_FAMILIES: tuple[WilfFamily, ...] = (
    WilfFamily({"132,213": _from_word_132_213, "132,312": _from_word_132_312,
                "213,231": _from_word_213_231, "231,312": _from_word_231_312},
               lambda w: True),
    WilfFamily({"132,213,312": _from_word_132_213, "213,231,312": _from_word_213_231},
               lambda w: "DU" not in w),
    WilfFamily({"132,213,321": _from_word_132_213, "132,312,321": _from_word_132_312,
                "213,231,321": _from_word_213_231},
               lambda w: w.count("D") <= 1),
)


def _family_of(name: str) -> WilfFamily | None:
    for family in DESCENT_WORD_FAMILIES:
        if name in family.members:
            return family
    return None


def perm_from_word(patterns: PatternSet, w: str) -> Perm:
    """The unique class member of length len(w)+1 whose descent word is ``w``.

    >>> perm_from_word(((1, 3, 2), (2, 1, 3)), "UUDUUD")
    (5, 6, 7, 2, 3, 4, 1)
    >>> perm_from_word(((1, 3, 2), (2, 1, 3), (3, 2, 1)), "UUDU")
    (3, 4, 5, 1, 2)
    """
    return _member_with_word(format_pattern_set(patterns), w)


def _member_with_word(name: str, w: str) -> Perm:
    """``perm_from_word`` for the class whose canonical name is ``name``."""
    family = _family_of(name)
    if family is None:
        raise UnsupportedClassError(
            f"{{{name}}} is not one of the descent-word-determined classes"
        )
    check_step_word(w)
    if not is_ballot_word(w):
        raise UnrealizableWordError(f"{w!r} is not a ballot word")
    if not family.admits(w):
        raise UnrealizableWordError(f"no member of {{{name}}} has descent word {w!r}")
    return family.members[name](w)


def wilf_transport(p: Perm, source: PatternSet, target: PatternSet) -> Perm:
    """Map a member of one class to the same-word member of an equivalent class."""
    src_set = canonical_pattern_set(source)
    src = format_pattern_set(src_set)
    dst = format_pattern_set(target)
    src_family = _family_of(src)
    dst_family = _family_of(dst)
    if src_family is None or dst_family is None or src_family is not dst_family:
        raise UnsupportedClassError(
            f"{{{src}}} and {{{dst}}} are not word-equivalent classes"
        )
    _require_member(p, src_set, "wilf_transport")
    if not p:  # the one member of length 0 of every class, which has no word
        return ()
    return _member_with_word(dst, descent_word(p))


_DYCK_CLASS: PatternSet = ((1, 3, 2), (2, 1, 3))


def to_dyck_prefix(p: Perm) -> str:
    """The nonnegative lattice word of a {132,213}-avoiding ballot permutation.

    A word of length n - 1 stands for a member of length n >= 1, so the
    empty permutation has none.

    >>> to_dyck_prefix((4, 5, 6, 3, 1, 2))
    'UUDDU'
    """
    _require_member(p, _DYCK_CLASS, "to_dyck_prefix")
    if not p:
        raise InvalidInputError("to_dyck_prefix: the empty permutation has no lattice word")
    return descent_word(p)


def from_dyck_prefix(w: str) -> Perm:
    """Inverse of :func:`to_dyck_prefix`.

    >>> from_dyck_prefix("UUDDU")
    (4, 5, 6, 3, 1, 2)
    """
    return perm_from_word(_DYCK_CLASS, w)


_CLASS_132_321: PatternSet = ((1, 3, 2), (3, 2, 1))
_CLASS_231_321: PatternSet = ((2, 3, 1), (3, 2, 1))


def insert_132_321(s: Perm) -> Perm:
    """Insert s(1)+1 at the second position, lifting larger values.

    Maps {132,321}-avoiding permutations of length n onto the ballot
    avoiders of length n+1.

    >>> insert_132_321((3, 1, 2))
    (3, 4, 1, 2)
    """
    if not s:
        return (1,)
    _require_avoider(s, _CLASS_132_321, "insert_132_321")
    k = s[0]
    return (k, k + 1) + tuple(v + 1 if v > k else v for v in s[1:])


def remove_132_321(p: Perm) -> Perm:
    """Delete the second entry and standardize; inverse of :func:`insert_132_321`."""
    _require_member(p, _CLASS_132_321, "remove_132_321")
    if len(p) == 0:
        raise InvalidInputError("remove_132_321: nothing to remove from the empty permutation")
    if len(p) == 1:
        return ()
    return standardize(p[:1] + p[2:])


def prepend_231_321(s: Perm) -> Perm:
    """Prefix a new minimum; maps {231,321}-avoiders of length n into the
    ballot avoiders of length n+1.

    >>> prepend_231_321((2, 1, 3))
    (1, 3, 2, 4)
    """
    _require_avoider(s, _CLASS_231_321, "prepend_231_321")
    return (1,) + tuple(v + 1 for v in s)


def behead_231_321(p: Perm) -> Perm:
    """Drop the leading minimum; inverse of :func:`prepend_231_321`."""
    _require_member(p, _CLASS_231_321, "behead_231_321")
    if len(p) == 0:
        raise InvalidInputError("behead_231_321: nothing to remove from the empty permutation")
    if p[0] != 1:
        raise InvalidInputError(f"behead_231_321: {p} does not start with its minimum")
    return tuple(v - 1 for v in p[1:])


def excluded_element_213_321(n: int) -> Perm:
    """The unique non-ballot {213,321}-avoider of length n: n 1 2 ... n-1.

    >>> excluded_element_213_321(4)
    (4, 1, 2, 3)
    """
    if n < 2:
        raise InvalidInputError("excluded_element_213_321 needs n >= 2")
    return (n,) + identity(n - 1)


def generate_312_321(n: int) -> list[Perm]:
    """Build the {312,321}-avoiding ballot permutations of length n recursively.

    From length 4 on, each member of the previous generation contributes two
    children: the new maximum goes immediately before or after the last
    entry.  The doubling starts only at length 3; smaller lengths are listed
    directly.
    """
    if n < 1:
        raise InvalidInputError("generate_312_321 needs n >= 1")
    bases: dict[int, list[Perm]] = {
        1: [(1,)],
        2: [(1, 2)],
        3: [(1, 2, 3), (1, 3, 2), (2, 3, 1)],
    }
    if n in bases:
        return bases[n]
    out: list[Perm] = []
    for parent in generate_312_321(n - 1):
        head, last = parent[:-1], parent[-1]
        out.append(head + (n, last))
        out.append(head + (last, n))
    # children of distinct parents are provably distinct
    assert len(set(out)) == len(out)
    return out


def generate_fib(n: int) -> list[Perm]:
    """Build the {231,312,321}-avoiding ballot permutations of length n.

    Members arise by appending n to a member of length n-1 or n(n-1) to a
    member of length n-2; the two batches are disjoint, so the counts obey
    a(n) = a(n-1) + a(n-2) with a(1) = a(2) = 1.
    """
    if n < 1:
        raise InvalidInputError("generate_fib needs n >= 1")
    if n == 1:
        return [(1,)]
    if n == 2:
        return [(1, 2)]
    out = [s + (n,) for s in generate_fib(n - 1)]
    out += [t + (n, n - 1) for t in generate_fib(n - 2)]
    assert len(set(out)) == len(out)
    return out


def _chain_of_pairs(n: int) -> Perm:
    """(12) skew (12) skew ... with a trailing single point when n is odd."""
    blocks: list[Perm] = [(1, 2)] * (n // 2)
    if n % 2:
        blocks.append((1,))
    return reduce(skew_sum, blocks) if blocks else ()


def _members_123_213(n: int) -> list[Perm]:
    """The chain of pairs, and at odd n >= 3 also a chain ending in 132."""
    if n == 1 or n % 2 == 0:
        return [_chain_of_pairs(n)]
    return sorted([_chain_of_pairs(n), skew_sum(_chain_of_pairs(n - 3), (1, 3, 2))])


#: The always-small classes ``unique_members`` constructs, by canonical name,
#: each with its members of length n: a single chain of descending pairs,
#: the identity alone, or the one class with two members at odd lengths.
UNIQUE_MEMBER_CLASSES: dict[str, Callable[[int], list[Perm]]] = {
    "123,132": lambda n: [_chain_of_pairs(n)],
    "123,213": _members_123_213,
    "132,231": lambda n: [identity(n)],
    "123,132,213": lambda n: [_chain_of_pairs(n)],
    "132,213,231": lambda n: [identity(n)],
    "132,231,312": lambda n: [identity(n)],
    "132,231,321": lambda n: [identity(n)],
}


def unique_members(patterns: PatternSet, n: int) -> list[Perm]:
    """The members of length n of a class of ``UNIQUE_MEMBER_CLASSES``,
    constructed explicitly; any other class raises ``UnsupportedClassError``."""
    if n < 0:
        raise InvalidInputError("unique_members needs n >= 0")
    name = format_pattern_set(patterns)
    if name not in UNIQUE_MEMBER_CLASSES:
        raise UnsupportedClassError(f"{{{name}}} has no explicit member construction")
    return UNIQUE_MEMBER_CLASSES[name](n)
