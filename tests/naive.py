"""Independent brute-force reference used by the tests.

Deliberately built from nothing but itertools so that it shares no code with
the package under test: containment checks every subsequence, membership
filters every permutation.
"""
from collections import Counter
from itertools import combinations, permutations


def naive_standardize(word):
    order = sorted(word)
    return tuple(order.index(v) + 1 for v in word)


def naive_contains(p, q):
    return any(naive_standardize(sub) == q for sub in combinations(p, len(q)))


def naive_is_ballot(p):
    asc = desc = 0
    for i in range(len(p) - 1):
        if p[i] < p[i + 1]:
            asc += 1
        else:
            desc += 1
        if desc > asc:
            return False
    return True


def naive_members(n, pats=(), ballot=True):
    """All (ballot) avoiders of length n, in lexicographic order."""
    out = []
    for p in permutations(range(1, n + 1)):
        if ballot and not naive_is_ballot(p):
            continue
        if any(naive_contains(p, q) for q in pats):
            continue
        out.append(p)
    return out


def naive_census(n_max):
    """Counter of (n, length-3 patterns contained, is ballot) over every
    permutation of length 1..n_max, so one pass gives every class's counts."""
    census = Counter()
    for n in range(1, n_max + 1):
        for p in permutations(range(1, n + 1)):
            found = frozenset(naive_standardize(sub) for sub in combinations(p, 3))
            census[n, found, naive_is_ballot(p)] += 1
    return census
