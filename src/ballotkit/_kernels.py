"""Hot enumeration and counting kernels.

The two listing kernels are written once as loops over numpy int64 arrays.
When numba is importable and the environment variable BALLOTKIT_NUMBA is not
set to 0/false/off, their public names are the ``@njit``-compiled versions;
otherwise they are the same functions run by the interpreter.  Both variants
stay importable (``*_py`` / ``*_jit``) so the benchmark can compare them.

Kernels only understand pattern sets in which every pattern has length 3,
encoded as a 6-bit mask over the lexicographic pattern order
123, 132, 213, 231, 312, 321.  Callers route other sets to the generic
pure-Python paths in ``enumeration``.

There are three kernels:

- ``pruned_fill``: depth-first search over value choices, emitting complete
  permutations in lexicographic order.  A prefix is abandoned as soon as it
  has more descents than ascents (when the ballot flag is set) or a new
  element completes a forbidden triple; both conditions are monotone, so no
  valid permutation is lost.
- ``pruned_count``: a transfer-state counter (a generating tree in the sense
  of West 1995).  It grows standardized prefixes one rank at a time, but
  keeps only what decides their future: which value sites an earlier pair
  already blocks, the rank of the last entry, and the ascent-minus-descent
  height.  A ``{state: multiplicity}`` table is carried forward one length
  at a time, so one pass yields the counts of every length up to n.  Counts
  outgrow int64, so it works on Python ints, always runs interpreted and
  does not use numba.  At most ``MAX_STATES`` states are kept per length;
  past that it raises ``CapExceededError``.
- ``oracle_fill``: filter every permutation of 1..n in lexicographic order.
  Deliberately free of pruning; this is the independent reference the pruned
  paths are validated against.
"""
from __future__ import annotations

import os

import numpy as np

from .errors import CapExceededError
from .patterns import LENGTH3_PATTERNS, format_pattern_set

#: Most states ``pruned_count`` keeps for one length (under 20 MB of tables).
MAX_STATES = 100_000


def _pruned_fill_impl(n, mask, ballot_req, first):
    """Members of the class at length n as an (m, n) int64 array, lex order.

    ``first`` > 0 restricts position 0 to that value (search-tree partition).
    """
    cap = 256
    out = np.empty((cap, n), dtype=np.int64)
    total = 0
    perm = np.zeros(n, dtype=np.int64)
    used = np.zeros(n + 1, dtype=np.bool_)
    asc = np.zeros(n + 1, dtype=np.int64)
    desc = np.zeros(n + 1, dtype=np.int64)
    cand = np.zeros(n, dtype=np.int64)
    depth = 0
    cand[0] = first if first > 0 else 1
    hi0 = first if first > 0 else n
    while depth >= 0:
        v = cand[depth]
        cand[depth] += 1
        if v > n or (depth == 0 and v > hi0):
            depth -= 1
            if depth >= 0:
                used[perm[depth]] = False
            continue
        if used[v]:
            continue
        a = asc[depth]
        d = desc[depth]
        if depth > 0:
            if perm[depth - 1] < v:
                a += 1
            else:
                d += 1
            if ballot_req and d > a:
                continue
        if mask != 0 and depth >= 2:
            bad = False
            for j in range(depth - 1, 0, -1):
                y = perm[j]
                for i in range(j - 1, -1, -1):
                    x = perm[i]
                    if x < y:
                        if y < v:
                            idx = 0  # 123
                        elif v < x:
                            idx = 3  # 231
                        else:
                            idx = 1  # 132
                    else:
                        if v > x:
                            idx = 2  # 213
                        elif v < y:
                            idx = 5  # 321
                        else:
                            idx = 4  # 312
                    if (mask >> idx) & 1:
                        bad = True
                        break
                if bad:
                    break
            if bad:
                continue
        perm[depth] = v
        if depth == n - 1:
            if total == cap:
                newcap = cap * 2
                grown = np.empty((newcap, n), dtype=np.int64)
                grown[:cap] = out
                out = grown
                cap = newcap
            out[total, :] = perm
            total += 1
            continue
        used[v] = True
        asc[depth + 1] = a
        desc[depth + 1] = d
        depth += 1
        cand[depth] = 1
    return out[:total]


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
                    name = format_pattern_set(
                        tuple(q for i, q in enumerate(LENGTH3_PATTERNS) if mask >> i & 1))
                    kind = "ballot" if ballot_req else "plain"
                    raise CapExceededError(
                        f"counting {kind} {{{name}}} to n={n} needs more than {MAX_STATES:,} "
                        f"states at n={k + 1}; lower n"
                    )
        counts.append(sum(sum(sub.values()) for sub in nxt.values()))
        table = nxt
    return counts


def _oracle_fill_impl(n, mask, ballot_req, first):
    """Filter all n! permutations (or the (n-1)! block starting with ``first``)."""
    cap = 256
    out = np.empty((cap, n), dtype=np.int64)
    total = 0
    perm = np.empty(n, dtype=np.int64)
    if first > 0:
        perm[0] = first
        k = 1
        for v in range(1, n + 1):
            if v != first:
                perm[k] = v
                k += 1
        lo = 1
    else:
        for i in range(n):
            perm[i] = i + 1
        lo = 0
    while True:
        ok = True
        if ballot_req:
            a = 0
            d = 0
            for i in range(n - 1):
                if perm[i] < perm[i + 1]:
                    a += 1
                else:
                    d += 1
                if d > a:
                    ok = False
                    break
        if ok and mask != 0:
            for k in range(2, n):
                v = perm[k]
                for j in range(k - 1, 0, -1):
                    y = perm[j]
                    for i in range(j - 1, -1, -1):
                        x = perm[i]
                        if x < y:
                            if y < v:
                                idx = 0
                            elif v < x:
                                idx = 3
                            else:
                                idx = 1
                        else:
                            if v > x:
                                idx = 2
                            elif v < y:
                                idx = 5
                            else:
                                idx = 4
                        if (mask >> idx) & 1:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
        if ok:
            if total == cap:
                newcap = cap * 2
                grown = np.empty((newcap, n), dtype=np.int64)
                grown[:cap] = out
                out = grown
                cap = newcap
            out[total, :] = perm
            total += 1
        # next permutation of perm[lo:], in place
        i = n - 2
        while i >= lo and perm[i] >= perm[i + 1]:
            i -= 1
        if i < lo:
            break
        j = n - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        left = i + 1
        right = n - 1
        while left < right:
            perm[left], perm[right] = perm[right], perm[left]
            left += 1
            right -= 1
    return out[:total]


pruned_fill_py = _pruned_fill_impl
oracle_fill_py = _oracle_fill_impl

_env = os.environ.get("BALLOTKIT_NUMBA", "").strip().lower()
_disabled = _env in ("0", "false", "off", "no")

try:
    if _disabled:
        raise ImportError("numba disabled via BALLOTKIT_NUMBA")
    from numba import njit

    pruned_fill_jit = njit(cache=True, nogil=True)(_pruned_fill_impl)
    oracle_fill_jit = njit(cache=True, nogil=True)(_oracle_fill_impl)
    NUMBA_ENABLED = True
except ImportError:
    pruned_fill_jit = None
    oracle_fill_jit = None
    NUMBA_ENABLED = False

if NUMBA_ENABLED:
    pruned_fill = pruned_fill_jit
    oracle_fill = oracle_fill_jit
else:
    pruned_fill = pruned_fill_py
    oracle_fill = oracle_fill_py


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "python"
