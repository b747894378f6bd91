"""Permutation algebra in one-line notation.

A permutation of length n is a tuple of the values 1..n, where position i
(1-indexed) holds the image of i.  All operations here are pure functions
over such tuples; the empty tuple is the length-0 permutation and is a valid
operand everywhere.

Step words record the up/down shape of a permutation: a string over {U, D}
with one letter per adjacent pair.  A *ballot* permutation is one in which
every prefix has at least as many ascents as descents; equivalently its step
word never dips below zero when U counts +1 and D counts -1.

Two textual formats are supported: the compact digit string ("456312",
values 1..9 only) and the comma-separated form ("4,5,6,3,1,2") for any
length.  ``format_rows`` prints a whole listing, held as the rows of an
integer array, in the format ``format_perm`` picks.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError

Perm = tuple[int, ...]

COMPACT_MAX_N = 9


def check_perm(values: Iterable[int]) -> Perm:
    """Validate that ``values`` is a permutation of 1..n and return it as a tuple.

    >>> check_perm([2, 1, 3])
    (2, 1, 3)
    """
    p = tuple(values)
    n = len(p)
    seen = [False] * (n + 1)
    for v in p:
        if not isinstance(v, int) or not 1 <= v <= n or seen[v]:
            raise InvalidInputError(f"not a permutation of 1..{n}: {p!r}")
        seen[v] = True
    return p


def identity(n: int) -> Perm:
    """The increasing permutation 1 2 ... n.

    >>> identity(4)
    (1, 2, 3, 4)
    """
    return tuple(range(1, n + 1))


def standardize(word: Sequence[float]) -> Perm:
    """The unique permutation with the same relative order as ``word``.

    Entries must be pairwise distinct.

    >>> standardize((4.5, 2, 7))
    (2, 1, 3)
    >>> standardize((6, 5, 1, 2, 3))
    (5, 4, 1, 2, 3)
    """
    if len(set(word)) != len(word):
        raise InvalidInputError(f"cannot standardize a word with repeats: {word!r}")
    rank = {v: i + 1 for i, v in enumerate(sorted(word))}
    return tuple(rank[v] for v in word)


def reverse(p: Perm) -> Perm:
    """Positional reversal; an involution.

    >>> reverse((1, 2, 3))
    (3, 2, 1)
    """
    return p[::-1]


def skew_sum(a: Perm, b: Perm) -> Perm:
    """Concatenate with the first block shifted above the second.

    >>> skew_sum((1, 3, 2), (1, 2, 3))
    (4, 6, 5, 1, 2, 3)
    """
    m = len(b)
    return tuple(v + m for v in a) + b


def direct_sum(a: Perm, b: Perm) -> Perm:
    """Concatenate with the second block shifted above the first.

    >>> direct_sum((1, 3, 2), (1, 2, 3))
    (1, 3, 2, 4, 5, 6)
    """
    n = len(a)
    return a + tuple(v + n for v in b)


def descent_set(p: Perm) -> frozenset[int]:
    """Positions i (1-indexed, i <= n-1) with p(i) > p(i+1).

    >>> sorted(descent_set((4, 5, 6, 3, 1, 2)))
    [3, 4]
    """
    return frozenset(i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def ascent_set(p: Perm) -> frozenset[int]:
    """Positions i (1-indexed, i <= n-1) with p(i) < p(i+1)."""
    return frozenset(i + 1 for i in range(len(p) - 1) if p[i] < p[i + 1])


def is_ballot(p: Perm) -> bool:
    """True when every prefix has at least as many ascents as descents.

    Lengths 0 and 1 are ballot vacuously.

    >>> is_ballot((4, 5, 6, 3, 1, 2))
    True
    >>> is_ballot((2, 1))
    False
    """
    asc = desc = 0
    for i in range(len(p) - 1):
        if p[i] < p[i + 1]:
            asc += 1
        else:
            desc += 1
        if desc > asc:
            return False
    return True


def descent_word(p: Perm) -> str:
    """The step word of ``p``: U for each ascent, D for each descent.

    The word has length n-1; lengths 0 and 1 give the empty word.

    >>> descent_word((4, 5, 6, 3, 1, 2))
    'UUDDU'
    """
    return "".join("U" if p[i] < p[i + 1] else "D" for i in range(len(p) - 1))


def check_step_word(w: str) -> str:
    """Validate the U/D alphabet and return the word unchanged."""
    if any(c not in "UD" for c in w):
        raise InvalidInputError(f"step word must be over {{U, D}}: {w!r}")
    return w


def is_ballot_word(w: str) -> bool:
    """True when every prefix of ``w`` has at least as many U as D.

    >>> is_ballot_word("UUDDU")
    True
    >>> is_ballot_word("UDD")
    False
    """
    check_step_word(w)
    height = 0
    for c in w:
        height += 1 if c == "U" else -1
        if height < 0:
            return False
    return True


def parse_perm(text: str) -> Perm:
    """Parse either textual permutation format.

    Comma-separated works for any length; the compact digit string only for
    values up to 9 (larger values have no single-character spelling).

    >>> parse_perm("456312")
    (4, 5, 6, 3, 1, 2)
    >>> parse_perm("4,5,6,3,1,2")
    (4, 5, 6, 3, 1, 2)
    """
    text = text.strip()
    if text == "":
        return ()
    if "," in text:
        try:
            values = [int(part) for part in text.split(",")]
        except ValueError:
            raise InvalidInputError(f"bad separated permutation: {text!r}") from None
        return check_perm(values)
    if not text.isdigit() or "0" in text:
        raise InvalidInputError(f"bad compact permutation: {text!r}")
    if len(text) > COMPACT_MAX_N:
        raise InvalidInputError(
            f"compact format holds at most {COMPACT_MAX_N} entries; "
            f"use the comma-separated format: {text!r}"
        )
    return check_perm(int(c) for c in text)


def format_perm(p: Perm, style: str = "auto") -> str:
    """Render a permutation (``auto`` picks compact when every value fits).

    >>> format_perm((4, 5, 6, 3, 1, 2))
    '456312'
    """
    if style not in ("auto", "compact", "csv"):
        raise InvalidInputError(f"unknown permutation format: {style!r}")
    if style == "compact" and len(p) > COMPACT_MAX_N:
        raise InvalidInputError(f"compact format holds at most {COMPACT_MAX_N} entries")
    if style == "csv" or (style == "auto" and len(p) > COMPACT_MAX_N):
        return ",".join(str(v) for v in p)
    return "".join(str(v) for v in p)


def format_rows(rows: np.ndarray) -> str:
    """One line per row of an (m, n) array of permutations, as ``format_perm``
    writes them, each ending in a newline.

    Every entry is spelled in one array pass: its digits right-aligned in a
    fixed width, then its separator, with zero bytes in the unused places
    (leading digits, and the commas the compact format omits) dropped at
    the end.

    >>> format_rows(np.array([[4, 5, 6, 3, 1, 2], [1, 2, 3, 4, 5, 6]]))
    '456312\\n123456\\n'
    >>> format_rows(np.arange(1, 11).reshape(1, 10))
    '1,2,3,4,5,6,7,8,9,10\\n'
    """
    m, n = rows.shape
    if n == 0:
        return "\n" * m
    width = len(str(n))
    cells = np.zeros((m, n, width + 1), dtype=np.uint8)
    for i in range(width):
        place = 10 ** (width - 1 - i)
        cells[:, :, i] = np.where(rows >= place, rows // place % 10 + ord("0"), 0)
    if n > COMPACT_MAX_N:
        cells[:, :, width] = ord(",")
    cells[:, -1, width] = ord("\n")
    text = cells.ravel()
    return text[text != 0].tobytes().decode("ascii")
