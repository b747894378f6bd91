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


def naive_occurrence(p, q):
    """The first index tuple (1-indexed, in combinations order) whose values
    standardize to q, or None."""
    for idx in combinations(range(len(p)), len(q)):
        if naive_standardize(tuple(p[i] for i in idx)) == q:
            return tuple(i + 1 for i in idx)
    return None


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


def naive_classify(n):
    """(p, set of length-3 patterns p contains, is p ballot) for every
    permutation p of length n, in lexicographic order."""
    for p in permutations(range(1, n + 1)):
        found = frozenset(naive_standardize(sub) for sub in combinations(p, 3))
        yield p, found, naive_is_ballot(p)


def naive_census(n_max):
    """Counter of (n, length-3 patterns contained, is ballot) over every
    permutation of length 1..n_max, so one pass gives every class's counts."""
    census = Counter()
    for n in range(1, n_max + 1):
        for _, found, is_ballot in naive_classify(n):
            census[n, found, is_ballot] += 1
    return census


def naive_listings(n_max, classes):
    """{(key, ballot, n): naive_members(n, classes[key], ballot)} for
    n = 1..n_max, ballot and plain, where each class forbids only length-3
    patterns; one classification of each permutation serves every class."""
    out = {(key, ballot, n): [] for key in classes for ballot in (True, False)
           for n in range(1, n_max + 1)}
    for n in range(1, n_max + 1):
        for p, found, is_ballot in naive_classify(n):
            for key, pats in classes.items():
                if found.isdisjoint(pats):
                    out[key, False, n].append(p)
                    if is_ballot:
                        out[key, True, n].append(p)
    return out
