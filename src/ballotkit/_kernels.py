"""Hot enumeration and counting kernels, on the interpreter and numpy.

A pattern set enters as the 6-bit mask of its length-3 patterns, over the
lexicographic order 123, 132, 213, 231, 312, 321, and the tuple ``rest`` of
its other patterns; ``split`` is the one place a set becomes both.  Each
method counts through one entry point, ``pruned_tally`` or ``oracle_tally``,
and lists through one, ``pruned_fill`` or ``oracle_fill``.

- ``pruned_count``: a transfer-state counter (a generating tree in the sense
  of West 1995) that carries one ``{state: multiplicity}`` table one length
  at a time (``_counts``).  A state keeps only the blocked sites at the
  bottom and the top, so there are polynomially many: at most 1,324 a length
  to n = 100, against the bound of ``MAX_STATES``.
- ``pruned_levels``: the same tree walked over the members themselves, at
  most ``MAX_ROWS`` children a length.  ``_blocked_by`` states the transfer
  step once for both; the walk keeps every blocked site of a member, since
  it builds the rows themselves, in one 32- or 64-bit word (Python ints
  past 63 sites), and its height in the narrowest signed type for n.
  ``pruned_fill`` refuses an oversized listing before any row is built
  (``check_rows``) and keeps the walk's last length: for length-3 patterns
  alone and n <= ``KEY_MAX_N`` = 16 as packed keys of the first n - 1
  entries, 4 bits an entry with the first entry highest, in uint32 up to
  n = 9 and uint64 above (the last entry is the one value the others
  lack), sorted in place and decoded a range at a time by ``listing_rows``;
  otherwise as rows, sorted by one lexsort.
- ``oracle_fill``: classify every permutation of 1..n, block by block
  (``_blocks``, ``_classify``), and keep the members in lex order.  Free of
  pruning and of the pruned kernels' logic, it is the independent reference
  the pruned paths are validated against.  A block of up to 9! rows is built
  and classified ``_CLASSIFY_ROWS`` = 8! rows at a time (``_codes_into``),
  so that its temporaries stay a few MB: ``_oracle_codes(10)`` peaks at
  10.4 MB traced, 6.9 MB of it the codes and the tails.  Rows up to n = 9 and
  codes up to n = 10 are memoized, so every class of such a length is listed
  from one classification.
- ``oracle_census``: the same codes tallied by code, memoized per length.
  ``_kept`` alone says which codes a class keeps, listed or tallied.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import CapExceededError
from .patterns import LENGTH3_PATTERNS, format_pattern_set

#: Most states ``pruned_count`` keeps for one length; ballot {321} counted to
#: n = 800 passes it at length 367.
MAX_STATES = 100_000
#: Most children ``pruned_fill`` builds at one length.
MAX_ROWS = 4_000_000
#: Longest length whose members ``pruned_fill`` lists as packed keys.
KEY_MAX_N = 16
#: Most keys ``listing_rows`` decodes at once, so that its temporaries stay
#: small beside a whole listing.
_DECODE_KEYS = 1 << 16


def split(pset):
    """The kernel arguments of a canonical pattern set: the 6-bit mask of its
    length-3 patterns, and its other patterns."""
    mask = sum(1 << LENGTH3_PATTERNS.index(q) for q in pset if len(q) == 3)
    return mask, tuple(q for q in pset if len(q) != 3)


def _class_label(mask, ballot_req, rest=()):
    """The class of a kernel call as cap errors name it, e.g. "ballot {132}"."""
    pset = tuple(q for i, q in enumerate(LENGTH3_PATTERNS) if mask >> i & 1) + tuple(rest)
    return f"{'ballot' if ballot_req else 'plain'} {{{format_pattern_set(pset)}}}"


def _too_many_rows(n, mask, ballot_req, rest, size, length):
    """The error of a listing to n that needs ``size`` rows, more than
    ``MAX_ROWS``, at ``length``."""
    return CapExceededError(
        f"{_class_label(mask, ballot_req, rest)} at n={n} needs {size:,} rows "
        f"at length {length}, more than {MAX_ROWS:,}; lower n")


def _blocked_by(mask, k, s):
    """The transfer step of a new entry w placed at site s of a length-k
    prefix: the pair of the sites below w and the sites w blocks.

    After the placement there are k + 2 sites, numbered from the bottom:
    0..s below w and s + 1..k + 1 above it, site s split in two with both
    halves inheriting its blocked bit.  An earlier x below w forbids later
    values above w (123), between the smallest entry and w (132), or below
    the largest entry under w (231); an earlier x above w forbids values
    above the smallest entry over w (213), between w and the largest entry
    (312), or below w (321).  Callers build the pair only for the sites
    some prefix leaves open.
    """
    low = (2 << s) - 1  # sites 0..s
    high = (2 << (k + 1)) - 1 - low  # sites s + 1..k + 1
    b = 0
    if s > 0:  # an earlier entry is below w
        if mask & 1:
            b |= high
        if mask & 2:
            b |= low - 1  # sites 1..s
        if mask & 8:
            b |= low >> 1  # sites 0..s - 1
    if s < k:  # an earlier entry is above w
        if mask & 4:
            b |= high - (2 << s)  # sites s + 2..k + 1
        if mask & 16:
            b |= high - (2 << k)  # sites s + 1..k
        if mask & 32:
            b |= low
    return low, b


def _counts(n, mask, ballot_req):
    """|class at length m| for m = 1..n, each yielded as soon as its length
    is finished: the counter's one pass over transfer states, in Python ints
    (counts outgrow int64).

    A state holds what decides a prefix's future: its top site, which of
    sites 0 and top are blocked, the rank of its last entry and its height
    (ascents minus descents), mapped to its multiplicity in one table.  A
    blocked site strictly between 0 and top is deleted after each step, and
    that is exact.  Every range that ``_blocked_by`` blocks is fixed by order
    alone: the sites between two of the bottom site, the top site and the two
    halves of the new entry's site, each end taken or not.  Whether earlier
    entries lie below or above the new one is whether its site is above the
    bottom or below the top.  A blocked site never opens again, and deleting
    it keeps the order of the others, so it changes no later step, provided
    the last rank counts only the kept sites below the last entry.  Without
    the ballot flag the last rank and the height do not matter and are
    dropped; with it, a height above the steps still to come is cut down to
    that number, since such a prefix can no longer fall below zero.
    """
    if n < 1:
        return

    @functools.cache
    def steps(top, blocked):
        """(s, (top, blocked, last rank)) for each open site s of a state:
        the child's state once its interior blocked sites are deleted."""
        out = []
        for s in range(top + 1):
            if not blocked >> s & 1:
                low, add = _blocked_by(mask, top, s)
                b = (blocked & low) | (blocked >> s << (s + 1)) | add
                inner = b & ((2 << top) - 2)  # sites 1..top of the new 0..top + 1
                kept = top + 1 - inner.bit_count()
                rank = s + 1 - (inner & low).bit_count() if ballot_req else 0
                out.append((s, (kept, b & 1 | b >> (top + 1) << kept, rank)))
        return out

    yield 1
    table = {(1, 0, 1, 0): 1}
    for k in range(1, n):
        room = n - k - 1
        nxt = {}
        for (top, blocked, last, height), c in table.items():
            for s, state in steps(top, blocked):
                h = 0
                if ballot_req:
                    h = height + 1 if s >= last else height - 1
                    if h < 0:
                        continue
                    if h > room:
                        h = room
                key = (*state, h)
                nxt[key] = nxt.get(key, 0) + c
            if len(nxt) > MAX_STATES:
                raise CapExceededError(
                    f"counting {_class_label(mask, ballot_req)} to n={n} needs more than "
                    f"{MAX_STATES:,} states at n={k + 1}; lower n")
        yield sum(nxt.values())
        table = nxt


def pruned_count(n, mask, ballot_req):
    """[|class at length m| for m = 1..n]: the whole pass of ``_counts``."""
    return list(_counts(n, mask, ballot_req))


def _completes(rows, q):
    """For each row, whether its last entry ends an occurrence of ``q``.

    Every choice of len(q) - 1 earlier positions is tried: their entries
    and the last must compare pairwise as the entries of q do.
    """
    cols = np.ascontiguousarray(rows.T)
    k = len(cols) - 1
    hit = np.zeros(len(rows), dtype=bool)
    for pos in itertools.combinations(range(k), len(q) - 1):
        pos += (k,)
        occ = np.ones(len(rows), dtype=bool)
        for a, b in itertools.combinations(range(len(q)), 2):
            lo, hi = (pos[a], pos[b]) if q[a] < q[b] else (pos[b], pos[a])
            occ &= cols[lo] < cols[hi]
        hit |= occ
    return hit


def pruned_levels(n, mask, ballot_req, rest=()):
    """Members of the class at each length k = 1..n, one unsorted (m, k)
    array per length, from one walk.  For length-3 patterns alone and
    n <= ``KEY_MAX_N`` the last length comes as the 1-D array of its
    members' packed keys instead (``_key_type``): entry j less one in bits
    4 (n - 2 - j) and up for j < n - 1, the first entry highest, so that key
    order is lex order; the last entry is the one value the others lack.

    The class avoids the length-3 patterns of ``mask`` and the patterns of
    other lengths in ``rest``.  The frontier is every member of length k,
    each with its blocked sites and height (its last rank is its row's last
    entry).  A length is built one open site s at a time: the members open
    at s write their children into the next rows, the entries above s moved
    up by one and s + 1 appended, beside their parents' blocked sites and
    heights, gathered by the same ``compress``.  A child whose new entry
    completes an occurrence of a pattern in ``rest`` is dropped.  Each
    child then takes the counter's own step for its site, read off its new
    entry, and its height moves by its last ascent or descent.  Prefixes of
    members are members, so the walk visits members only.  No length may
    build more than ``MAX_ROWS`` children; past that it raises
    ``CapExceededError``.
    """
    if n < 1:
        return
    dtype = np.min_scalar_type(n)
    # a length below n has at most n sites, a bit each, and past 63 sites
    # Python ints; no word narrower than 32 bits, whose numpy loops would be
    # paged in beside the keys' (0.2 MB more RSS for ``enumerate --n 9``)
    bits = np.uint32 if n <= 32 else np.uint64 if n < 64 else object
    heights = np.min_scalar_type(-n)  # 0..n - 1, signed for the step down
    roots = 0 if any(len(q) == 1 for q in rest) else 1  # every entry is an occurrence of 1
    rows = np.ones((roots, 1), dtype=dtype)
    blocked = np.zeros(roots, dtype=bits)
    height = np.zeros(roots, dtype=heights)
    keyed = not rest and n <= KEY_MAX_N
    yield np.zeros(roots, dtype=_key_type(n)) if keyed and n == 1 else rows  # (1,) packs nothing
    for k in range(1, n):
        # the sites some member leaves open (none if there is no member),
        # lowest first, one set bit at a time
        free = ~int(np.bitwise_and.reduce(blocked)) & ((2 << k) - 1)
        sites = []
        while free:
            sites.append((free & -free).bit_length() - 1)
            free &= free - 1
        open_ = np.zeros((k + 1, len(rows)), dtype=bool)
        last, up = rows[:, -1], height > 0
        for s in sites:
            np.equal(blocked & (1 << s), 0, out=open_[s])
            if ballot_req:
                open_[s] &= (last <= s) | up
        size = np.count_nonzero(open_)
        if size > MAX_ROWS:
            raise _too_many_rows(n, mask, ballot_req, rest, size, k + 1)
        prev, prev_blocked, prev_height = rows, blocked, height
        grow = k + 1 < n  # the last length needs no state to grow from
        if grow:
            rows = np.empty((size, k + 1), dtype=dtype)
            blocked = np.empty(size, dtype=bits)
            height = np.zeros(size, dtype=heights)
        else:
            del blocked, height, prev_blocked, prev_height, up
            rows = np.empty(size, dtype=_key_type(n)) if keyed else np.empty((size, n), dtype=dtype)
        stop = 0
        for s in sites:
            at = open_[s]  # the members open at s
            p = prev.compress(at, axis=0)
            start, stop = stop, stop + len(p)
            if grow:  # the parents' state, stepped below
                prev_blocked.compress(at, out=blocked[start:stop])
                if ballot_req:
                    prev_height.compress(at, out=height[start:stop])
            p += p > s  # the entries above s move up by one
            if rows.ndim == 2:
                rows[start:stop, :k], rows[start:stop, k] = p, s + 1
            else:  # the first k entries, 4 bits apiece; s + 1 is the last
                keys = rows[start:stop]
                np.left_shift(p[:, 0], 4 * (k - 1), out=keys, dtype=keys.dtype)
                for j in range(1, k):
                    keys += np.left_shift(p[:, j], 4 * (k - 1 - j), dtype=keys.dtype)
            del p  # freed before the next site's children are copied
        if rows.ndim == 1:
            rows -= (16 ** k - 1) // 15  # one from every entry, so that each fits its 4 bits
        if rest:
            # the parent avoids every q, so only an occurrence that ends at
            # the new entry can be new
            keep = ~np.logical_or.reduce([_completes(rows, q) for q in rest])
            rows = rows[keep]
            if grow:
                blocked, height = blocked[keep], height[keep]
        yield rows
        if not grow:
            return
        del prev, prev_blocked, prev_height, open_  # not to be held beside the next length
        # each child's step, from its site s: its new entry less one
        low, add = np.zeros((2, k + 1), dtype=bits)
        for s in sites:
            low[s], add[s] = _blocked_by(mask, k, s)
        s = rows[:, k] - 1
        blocked = (blocked & low[s]) | (blocked >> s << (s + 1)) | add[s]
        if ballot_req:  # up one for an ascent, down one for a descent
            height += (rows[:, k] > rows[:, k - 1]) * heights.type(2) - 1
        del s


def _key_type(n):
    """The unsigned type of the packed keys of length n: 4 bits for each
    entry but the last."""
    return np.uint32 if n <= 9 else np.uint64


def check_rows(n, mask, ballot_req, rest=()):
    """Refuse a listing to n as ``pruned_levels`` would, before any row is
    built: for length-3 patterns alone, read ``_counts`` up to the first
    length past ``MAX_ROWS``.  A pass that reaches ``MAX_STATES`` first
    refuses with the counter's error, which no class does here: each passes
    ``MAX_ROWS`` first or keeps at most 251 states a length to n = 1,000,
    while the counter's own reach ends sooner for some (ballot {321} passes
    ``MAX_STATES`` at length 367).  With a pattern in ``rest`` the walk's own
    bound decides."""
    if rest:  # the walk builds children that the completion test drops
        return
    for length, size in enumerate(_counts(n, mask, ballot_req), 1):
        if size > MAX_ROWS:
            raise _too_many_rows(n, mask, ballot_req, (), size, length)


def pruned_fill(n, mask, ballot_req, rest=()):
    """Members of the class at length n in lex order: the last level of
    ``pruned_levels``, sorted; at n = 0 the one empty row.  For length-3
    patterns alone and n <= ``KEY_MAX_N`` it is their packed keys, sorted in
    place, else an (m, n) array sorted by one lexsort; ``listing_rows``
    reads rows from either."""
    check_rows(n, mask, ballot_req, rest)
    if n == 0:  # the empty permutation has no level
        return np.empty((1, 0), dtype=np.uint8)
    for level in pruned_levels(n, mask, ballot_req, rest):
        pass
    if level.ndim == 1:
        level.sort()
        return level
    return level[np.lexsort(level.T[::-1])]


def listing_rows(listing, n, start=0, stop=None):
    """Members ``start`` to ``stop`` (all by default) of a length-n listing
    as an (m, n) array: its rows, or its packed keys decoded
    ``_DECODE_KEYS`` at a time by ``_decode``."""
    part = listing[start:stop]
    if part.ndim == 2:
        return part
    rows = np.empty((len(part), n), dtype=np.uint8)
    for i in range(0, len(part), _DECODE_KEYS):
        _decode(part[i:i + _DECODE_KEYS], rows[i:i + _DECODE_KEYS])
    return rows


def _decode(keys, rows):
    """Write the members of packed ``keys`` into ``rows``: the first entries
    one column at a time, and the last from the sum of the keys' nibbles,
    since every entry less one sums to n (n - 1) / 2."""
    n = rows.shape[1]
    t = keys.dtype.type
    for j in range(n - 1):
        rows[:, j] = keys >> t(4 * (n - 2 - j)) & t(15)
    # the nibbles are summed in each byte, then the bytes by one multiply
    # into the top byte (at most 120, so no partial sum carries)
    ones = np.iinfo(t).max // 255  # 0x0101...01
    nibbles = keys & t(15 * ones)
    nibbles += keys >> t(4) & t(15 * ones)
    nibbles *= t(ones)
    nibbles >>= t(8 * keys.itemsize - 8)
    rows[:, n - 1] = n * (n - 1) // 2 - nibbles
    rows += 1


def pruned_tally(n, mask, ballot_req, rest=()):
    """[|class at length m| for m = 1..n]: the counter's pass for length-3
    patterns alone, else the sizes of the walk's levels."""
    if rest:
        return list(map(len, pruned_levels(n, mask, ballot_req, rest)))
    return pruned_count(n, mask, ballot_req)


#: Most values a block of the oracle leaves free behind its fixed prefix, so
#: that no block holds more than 9! = 362,880 rows; also the longest length
#: whose rows are kept as tails (9! x 9 bytes).  The codes are kept one length
#: further, to the last length with one block per first value (10! bytes).
_FREE_MAX = 9
#: Most rows ``_classify`` takes at once (8!), so that its temporaries stay
#: small beside the codes; a block of more rows is classified in slices.
_CLASSIFY_ROWS = 40_320


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


def _block(prefix, tail, out=None):
    """``prefix`` followed by each row of ``tail`` stepped over the values
    the prefix holds, as an (len(tail), n) uint8 array, written into ``out``
    when given.  With ``tail`` every permutation of 1..k in lex order, the
    block is every permutation of 1..n that starts with ``prefix``, in lex
    order; row i of the block comes from row i of ``tail``."""
    fixed = len(prefix)
    if out is None:
        out = np.empty((len(tail), fixed + tail.shape[1]), dtype=np.uint8)
    out[:, :fixed] = prefix
    rest = out[:, fixed:]
    rest[...] = tail
    for v in sorted(prefix):
        rest += rest >= v  # step over the values the prefix holds
    return out


@functools.cache
def _lex_rows(n):
    """Every permutation of 1..n, n <= _FREE_MAX, as a read-only (n!, n)
    uint8 array in lex order: one block per first value, each built from
    the rows of length n - 1; computed once per n."""
    if n == 0:
        rows = np.empty((1, 0), dtype=np.uint8)
    else:
        tail = _lex_rows(n - 1)
        rows = np.empty((n * len(tail), n), dtype=np.uint8)
        for v, block in enumerate(np.split(rows, n), 1):
            _block((v,), tail, out=block)
    rows.flags.writeable = False
    return rows


def _blocks(n):
    """The oracle's blocks of the permutations of 1..n, in lex order, as
    (prefix, tail) pairs: each prefix of max(1, n - _FREE_MAX) values (the
    empty one at n = 0) with ``_lex_rows`` of the values left free, from
    which ``_block`` builds every permutation that starts with it."""
    fixed = min(n, max(1, n - _FREE_MAX))
    tail = _lex_rows(n - fixed)
    return ((prefix, tail) for prefix in itertools.permutations(range(1, n + 1), fixed))


#: Bit of a classification code that holds the ballot flag.
_BALLOT_BIT = 64


def _classify(block):
    """Each row's classification code: its 6-bit set of contained length-3
    patterns, plus ``_BALLOT_BIT`` when it is a ballot permutation.

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
    out = _PATTERNS_OF_CODES[codes]
    out[ballot] |= _BALLOT_BIT
    return out


def _codes_into(prefix, tail, codes):
    """Write the codes of the block of ``prefix`` and ``tail`` into
    ``codes``, built and classified ``_CLASSIFY_ROWS`` rows at a time;
    return ``codes``.

    A slice's codes, the last array its classification makes, are held
    until the next slice is classified.  Above the slice's freed temporaries
    on the heap, they keep the allocator from handing that memory back to
    the system only to fault it in again for the next slice: at n = 11 that
    took 936,000 page faults, and takes about 90,000.
    """
    for i in range(0, len(tail), _CLASSIFY_ROWS):
        part = _classify(_block(prefix, tail[i:i + _CLASSIFY_ROWS]))
        codes[i:i + len(part)] = part
    return codes


@functools.cache
def _oracle_codes(n):
    """The classification code of every permutation of 1..n,
    n <= _FREE_MAX + 1, as a read-only n!-byte uint8 array in lex order;
    computed once per n."""
    codes = np.empty(math.factorial(n), dtype=np.uint8)
    start = 0
    for prefix, tail in _blocks(n):
        _codes_into(prefix, tail, codes[start:start + len(tail)])
        start += len(tail)
    codes.flags.writeable = False
    return codes


def _block_codes(n):
    """The codes of each block of ``_blocks(n)``, in block order: rows of the
    memo up to n = _FREE_MAX + 1 (one block per first value, one at n = 0),
    and classified afresh, kept nowhere, above it."""
    if n <= _FREE_MAX + 1:
        return _oracle_codes(n).reshape(max(n, 1), -1)
    return (_codes_into(prefix, tail, np.empty(len(tail), dtype=np.uint8))
            for prefix, tail in _blocks(n))


def _contains_any(rows, patterns):
    """For each row, whether it contains a pattern of ``patterns``: for some
    pattern q and some choice of len(q) positions, the entries there, read in
    the order of q's values, increase, so they compare pairwise as q's do."""
    cols = np.ascontiguousarray(rows.T)
    hit = np.zeros(len(rows), dtype=bool)
    for q in patterns:
        by_value = sorted(range(len(q)), key=q.__getitem__)
        for pos in itertools.combinations(range(len(cols)), len(q)):
            chain = [cols[pos[i]] for i in by_value]
            hit |= np.logical_and.reduce([lo < hi for lo, hi in zip(chain, chain[1:])])
    return hit


def _kept(codes, mask, ballot_req):
    """Whether each classification code is a member's: it holds no pattern
    of ``mask`` and, with ``ballot_req``, the ballot flag."""
    wanted = _BALLOT_BIT if ballot_req else 0
    return (codes & (mask | wanted)) == wanted


def oracle_fill(n, mask, ballot_req, first, rest=()):
    """Members of the class at length n as an (m, n) uint8 array, lex order.

    Keeps the permutations of 1..n whose codes ``_kept`` selects; then,
    block by block, those that also avoid every pattern of ``rest``
    (``_contains_any``).  ``first`` > 0 keeps the blocks whose prefix
    starts with that value.
    """
    blocks = [np.empty((0, n), dtype=np.uint8)]
    for (prefix, tail), codes in zip(_blocks(n), _block_codes(n)):
        # a block's codes are in the order of the tail rows it is built from,
        # so only the mask's members are built (``compress`` is several times
        # faster than a boolean index; about half the blocks select none)
        members = tail.compress(_kept(codes, mask, ballot_req), axis=0)
        if len(members) == 0 or first > 0 and prefix[0] != first:
            continue
        rows = _block(prefix, members)
        if rest:
            rows = rows.compress(~_contains_any(rows, rest), axis=0)
        blocks.append(rows)
    return np.concatenate(blocks)


@functools.cache
def oracle_census(n):
    """Every permutation of length n tallied by its classification code, as
    a flat, read-only table of 128 int64 entries, so one classification of
    length n gives the oracle count of every class; computed once per n."""
    table = np.zeros(2 * _BALLOT_BIT, dtype=np.int64)
    for codes in _block_codes(n):
        table += np.bincount(codes, minlength=2 * _BALLOT_BIT)
    table.flags.writeable = False
    return table


def oracle_tally(n, mask, ballot_req, rest=()):
    """[|class at length m| for m = 1..n] from the oracle: the census entries
    ``_kept`` selects for length-3 patterns alone, else its listings' sizes."""
    if rest:
        return [len(oracle_fill(m, mask, ballot_req, 0, rest)) for m in range(1, n + 1)]
    # every code, uint8 as ``_classify`` gives them: an int64 range runs
    # other numpy loops, 0.1 MB more peak RSS for ``verify --n-max 8``
    kept = _kept(np.arange(2 * _BALLOT_BIT, dtype=np.uint8), mask, ballot_req)
    return [int(oracle_census(m)[kept].sum()) for m in range(1, n + 1)]


def backend_name() -> str:
    """The backend every kernel runs on: the interpreter and numpy."""
    return "python"
