"""Hot enumeration and counting kernels.

Kernels only understand pattern sets in which every pattern has length 3,
encoded as a 6-bit mask over the lexicographic pattern order
123, 132, 213, 231, 312, 321.  Callers route other sets to the generic
pure-Python paths in ``enumeration``.

There are three kernels and a census.  All run on the interpreter and
numpy.

- ``pruned_count``: a transfer-state counter (a generating tree in the sense
  of West 1995).  It grows standardized prefixes one rank at a time, but
  keeps only what decides their future: which value sites an earlier pair
  already blocks, the rank of the last entry, and the ascent-minus-descent
  height.  A ``{state: multiplicity}`` table is carried forward one length
  at a time, so one pass yields the counts of every length up to n.  Counts
  outgrow int64, so it works on Python ints.  At most ``MAX_STATES`` states
  are kept per length; past that it raises ``CapExceededError``.
- ``pruned_fill``: the counter's generating tree walked one length at a
  time with whole-array numpy steps, keeping every member of each length:
  its standardized row, blocked sites, last rank and height.  A child is
  made only at an open site, one whose entry completes no forbidden triple
  and, with the ballot flag, takes the height no lower than zero; prefixes
  of members are members, so the walk visits members only and no prefix
  without a completion.  One lexsort at the end gives lexicographic order.
  At most ``MAX_ROWS`` rows are held per length; past that it raises
  ``CapExceededError``.  Which sites the entries block is stated once, in
  ``_blocked_by``, for both kernels.
- ``oracle_fill``: classify every permutation of 1..n and keep the members,
  in lexicographic order.  Deliberately free of pruning and of the pruned
  kernels' logic; this is the independent reference the pruned paths are
  validated against.  It is vectorized with numpy: the permutations are
  generated as uint8 blocks, one per fixed prefix (the first value, or the
  first n - 9 values from n = 11 on, so that no block exceeds 9! rows);
  each row's ballot flag comes from a cumulative sum of +1/-1 steps, and
  its set of contained length-3 patterns from one pass over all C(n, 3)
  position triples, whose comparison codes a lookup table maps to
  patterns.
- ``oracle_census``: the same classification tallied by (set of contained
  patterns, ballot flag), memoized per length, so one scan of length n
  gives the oracle count of every class.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import CapExceededError
from .patterns import LENGTH3_PATTERNS, format_pattern_set

#: Most states ``pruned_count`` keeps for one length (under 20 MB of tables).
MAX_STATES = 100_000
#: Most rows ``pruned_fill`` holds at one length.
MAX_ROWS = 4_000_000


def _class_label(mask, ballot_req):
    """The class of a kernel call as cap errors name it, e.g. "ballot {132}"."""
    name = format_pattern_set(tuple(q for i, q in enumerate(LENGTH3_PATTERNS) if mask >> i & 1))
    return f"{'ballot' if ballot_req else 'plain'} {{{name}}}"


def _sites(lo, hi):
    """Bitmask of the value sites lo..hi (empty when lo > hi)."""
    return (1 << (hi + 1)) - (1 << lo) if lo <= hi else 0


def _blocked_by(mask, k):
    """For each site s of a length-k prefix, the sites a new entry placed at s
    blocks through the pairs it ends.

    After the placement there are k + 2 sites, numbered from the bottom, and
    the new entry w sits between sites s and s + 1.  An earlier x below w
    forbids later values above w (123), between the smallest entry and w
    (132), or below the largest entry under w (231); an earlier x above w
    forbids values above the smallest entry over w (213), between w and the
    largest entry (312), or below w (321).
    """
    out = []
    for s in range(k + 1):
        below, above = s > 0, s < k
        b = 0
        if below and mask & 1:
            b |= _sites(s + 1, k + 1)
        if below and mask & 2:
            b |= _sites(1, s)
        if above and mask & 4:
            b |= _sites(s + 2, k + 1)
        if below and mask & 8:
            b |= _sites(0, s - 1)
        if above and mask & 16:
            b |= _sites(s + 1, k)
        if above and mask & 32:
            b |= _sites(0, s)
        out.append(b)
    return out


def pruned_count(n, mask, ballot_req):
    """[|class at length m| for m = 1..n], in one pass over transfer states.

    The table maps (rank of the last entry, height) to {blocked sites:
    multiplicity}.  Placing an entry at an open site s splits that site in
    two, both inheriting its blocked bit, and adds ``_blocked_by``.  Without
    the ballot flag the last rank and the height do not matter and are
    dropped; with it, a height above the steps still to come is cut down to
    that number, since such a prefix can no longer fall below zero.
    """
    if n < 1:
        return []
    counts = [1]
    table = {(1, 0): {0: 1}}
    for k in range(1, n):
        moves = [((2 << s) - 1, s, b) for s, b in enumerate(_blocked_by(mask, k))]
        room = n - k - 1
        nxt = {}
        size = 0
        for (last, height), group in table.items():
            targets = []
            for low, s, add in moves:
                key = (0, 0)
                if ballot_req:
                    h = height + 1 if s >= last else height - 1
                    if h < 0:
                        continue
                    key = (s + 1, min(h, room))
                targets.append((low, s, add, nxt.setdefault(key, {})))
            for blocked, c in group.items():
                for low, s, add, sub in targets:
                    if blocked >> s & 1:
                        continue
                    b = (blocked & low) | (blocked >> s << (s + 1)) | add
                    old = sub.get(b)
                    if old is None:
                        size += 1
                        sub[b] = c
                    else:
                        sub[b] = old + c
                if size > MAX_STATES:
                    raise CapExceededError(
                        f"counting {_class_label(mask, ballot_req)} to n={n} needs more than "
                        f"{MAX_STATES:,} states at n={k + 1}; lower n"
                    )
        counts.append(sum(sum(sub.values()) for sub in nxt.values()))
        # drop keys whose every state was blocked: the next length would loop over their moves
        table = {key: sub for key, sub in nxt.items() if sub}
    return counts


def pruned_fill(n, mask, ballot_req, first):
    """Members of the class at length n as an (m, n) array, lex order.

    ``first`` > 0 keeps the rows whose position 0 holds that value.  The
    walk steps the counter's generating tree one length at a time over
    whole arrays: the frontier is every member of length k, each with its
    blocked sites, last rank and height.  A child places a new last entry
    at an open site s, so the entries above s move up by one and s + 1 is
    appended; its blocked sites follow the counter's own step.  Prefixes of
    members are members, so every row visited is a member of its length.
    No level may hold more than ``MAX_ROWS`` rows; past that it raises
    ``CapExceededError``.
    """
    dtype = np.min_scalar_type(n)
    if n < 1:
        return np.empty((0, n), dtype=dtype)
    bits = np.uint64 if n < 64 else object  # a level of length k has k + 1 sites
    rows = np.ones((1, 1), dtype=dtype)
    blocked = np.zeros(1, dtype=bits)
    last = np.ones(1, dtype=np.intp)
    height = np.zeros(1, dtype=np.intp)
    for k in range(1, n):
        sites = np.arange(k + 1)
        open_ = (blocked[:, None] >> sites.astype(bits) & 1) == 0
        if ballot_req:
            open_ &= (last[:, None] <= sites) | (height[:, None] > 0)
        size = np.count_nonzero(open_)
        if size > MAX_ROWS:
            raise CapExceededError(
                f"listing {_class_label(mask, ballot_req)} at n={n} needs {size:,} rows at "
                f"length {k + 1}, more than {MAX_ROWS:,}; lower n")
        parent, s = np.nonzero(open_)
        prev = rows[parent]
        rows = np.empty((size, k + 1), dtype=dtype)
        np.add(prev, prev > s.astype(dtype)[:, None], out=rows[:, :k])
        rows[:, k] = s + 1
        if k + 1 == n:  # the last length needs no state to grow from
            break
        b, sb = blocked[parent], s.astype(bits)
        low = np.array([(2 << j) - 1 for j in range(k + 1)], dtype=bits)
        add = np.array(_blocked_by(mask, k), dtype=bits)
        blocked = (b & low[s]) | (b >> sb << (sb + 1)) | add[s]
        if ballot_req:
            height = height[parent] + np.where(last[parent] <= s, 1, -1)
        last = s + 1
    if first > 0:
        rows = rows[rows[:, 0] == first]
    return rows[np.lexsort(rows.T[::-1])]


#: Most values a block of the oracle leaves free behind its fixed prefix, so
#: that no block holds more than 9! = 362,880 rows.
_FREE_MAX = 9


def _codes_to_patterns():
    """Lookup table from a set of triple comparison codes (8 bits) to the
    6-bit set of length-3 patterns those codes stand for.

    The comparison code of values a, b, c at positions i < j < k is
    4 [a < b] + 2 [a < c] + [b < c]; codes 2 and 5 cannot occur.
    """
    bit_of_code = [0] * 8
    for index, (a, b, c) in enumerate(LENGTH3_PATTERNS):
        bit_of_code[4 * (a < b) + 2 * (a < c) + (b < c)] = 1 << index
    return np.array(
        [sum(bit for code, bit in enumerate(bit_of_code) if codes >> code & 1)
         for codes in range(256)],
        dtype=np.uint8,
    )


_PATTERNS_OF_CODES = _codes_to_patterns()


@functools.cache
def _lex_perms(k):
    """Every permutation of 0..k-1 as a read-only (k!, k) uint8 array, lex order."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(k)))
    out = np.fromiter(flat, dtype=np.uint8, count=math.factorial(k) * k)
    out = out.reshape(math.factorial(k), k)
    out.flags.writeable = False
    return out


def _oracle_blocks(n, first):
    """Every permutation of 1..n, or those starting with ``first`` when it is
    positive, as (rows, n) uint8 blocks in lex order: one block per prefix of
    max(1, n - _FREE_MAX) values, followed by every order of the rest."""
    fixed = max(1, n - _FREE_MAX)
    tail = _lex_perms(n - fixed)
    for prefix in itertools.permutations(range(1, n + 1), fixed):
        if first > 0 and prefix[0] != first:
            continue
        block = np.empty((len(tail), n), dtype=np.uint8)
        block[:, :fixed] = prefix
        rest = block[:, fixed:]
        np.add(tail, 1, out=rest)
        for v in sorted(prefix):
            rest += rest >= v  # step over the values the prefix holds
        yield block


def _classify(block):
    """Each row's 6-bit set of contained length-3 patterns, and its ballot flag.

    The ballot flag is a cumulative sum of +1 (ascent) and -1 (descent)
    steps that never goes below zero.  Every one of the C(n, 3) position
    triples of every row is classified: a triple's factors are 16 for
    a < b, 4 for a < c and 2 for b < c (1 where the comparison fails), so
    their product is 1 << code, and OR-ing the products over all triples
    gives each row's set of comparison codes.
    """
    m, n = block.shape
    cols = np.ascontiguousarray(block.T)
    steps = (cols[1:] > cols[:-1]).view(np.int8) * np.int8(2) - np.int8(1)
    ballot = (np.cumsum(steps, axis=0, dtype=np.int8) >= 0).all(axis=0)

    def factor(i, j, below):
        """``below`` where the value at position i is below the one at j, else 1."""
        f = (cols[i] < cols[j]).view(np.uint8)
        f *= below - 1
        f += 1
        return f

    bc = {(j, k): factor(j, k, 2) for j in range(1, n - 1) for k in range(j + 1, n)}
    codes = np.zeros(m, dtype=np.uint8)
    one_hot = np.empty(m, dtype=np.uint8)
    for i in range(n - 2):
        ac = {k: factor(i, k, 4) for k in range(i + 2, n)}
        for j in range(i + 1, n - 1):
            ab = factor(i, j, 16)
            for k in range(j + 1, n):
                np.multiply(ab, ac[k], out=one_hot)
                one_hot *= bc[j, k]
                codes |= one_hot
    return _PATTERNS_OF_CODES[codes], ballot


def oracle_fill(n, mask, ballot_req, first):
    """Members of the class at length n as an (m, n) uint8 array, lex order.

    Classifies every permutation of 1..n (or every one starting with
    ``first`` when it is positive) and keeps those that contain no pattern
    of ``mask`` and, when ``ballot_req`` is set, are ballot.
    """
    kept = []
    for block in _oracle_blocks(n, first):
        patterns, ballot = _classify(block)
        keep = (patterns & mask) == 0
        if ballot_req:
            keep &= ballot
        kept.append(block[keep])
    return np.concatenate(kept) if kept else np.empty((0, n), dtype=np.uint8)


@functools.cache
def oracle_census(n):
    """Every permutation of length n tallied by what the oracle sees in it.

    A read-only (64, 2) int64 table: entry [s, b] counts the permutations
    whose set of contained length-3 patterns is the 6-bit set s and whose
    ballot flag is b.  One classification of length n thus gives the oracle
    count of every class, ballot and plain; it is computed once per n.
    """
    table = np.zeros(128, dtype=np.int64)
    for block in _oracle_blocks(n, 0):
        patterns, ballot = _classify(block)
        table += np.bincount(patterns.astype(np.intp) * 2 + ballot, minlength=128)
    table = table.reshape(64, 2)
    table.flags.writeable = False
    return table


def backend_name() -> str:
    """The backend every kernel runs on: the interpreter and numpy."""
    return "python"
