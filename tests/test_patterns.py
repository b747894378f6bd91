from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive import naive_contains, naive_occurrence
from ballotkit.errors import InvalidInputError
from ballotkit.patterns import (
    ALL_CLASSES,
    LENGTH3_PATTERNS,
    PAIR_CLASSES,
    SINGLE_CLASSES,
    TRIPLE_CLASSES,
    avoids_all,
    canonical_pattern_set,
    contains,
    find_occurrence,
    format_pattern_set,
    parse_pattern_set,
)
from ballotkit.perms import identity, parse_perm, standardize


def test_contains_examples():
    assert contains(parse_perm("465123"), parse_perm("132"))
    assert not contains(identity(7), parse_perm("132"))
    assert not contains(parse_perm("456312"), parse_perm("213"))


def test_find_occurrence_examples():
    assert find_occurrence(parse_perm("465123"), parse_perm("132")) == (1, 2, 3)
    assert find_occurrence(parse_perm("123"), parse_perm("321")) is None
    assert find_occurrence(parse_perm("465123"), parse_perm("123")) == (4, 5, 6)


def test_avoids_all_examples():
    assert avoids_all(parse_perm("456312"), parse_pattern_set("132,213"))
    assert avoids_all(parse_perm("31452"), ())
    assert not avoids_all(parse_perm("132456"), parse_pattern_set("123"))


def test_contains_matches_naive_exhaustively():
    for n in range(0, 7):
        for p in permutations(range(1, n + 1)):
            for q in LENGTH3_PATTERNS:
                assert contains(p, q) == naive_contains(p, q), (p, q)


@given(
    st.permutations(list(range(1, 9))),
    st.sampled_from(LENGTH3_PATTERNS + ((1, 2, 3, 4), (2, 4, 1, 3), (1, 2), (2, 1))),
)
def test_contains_matches_naive_random(values, q):
    p = tuple(values)
    assert contains(p, q) == naive_contains(p, q)


def test_prefix_containment_monotone():
    for n in range(1, 8):
        for p in permutations(range(1, n + 1)):
            for q in LENGTH3_PATTERNS:
                if contains(standardize(p[:-1]), q):
                    assert contains(p, q)


@given(st.permutations(list(range(1, 8))))
def test_self_and_singleton_containment(values):
    p = tuple(values)
    assert contains(p, p)
    assert contains(p, (1,))


@given(
    st.permutations(list(range(1, 9))),
    st.sampled_from(LENGTH3_PATTERNS),
)
def test_witness_agrees_with_contains(values, q):
    p = tuple(values)
    witness = find_occurrence(p, q)
    assert (witness is not None) == contains(p, q)
    if witness is not None:
        assert standardize(tuple(p[i - 1] for i in witness)) == q


#: Every pattern of length 1 to 4.
SHORT_PATTERNS = tuple(q for k in range(1, 5) for q in permutations(range(1, k + 1)))


def test_witness_is_least_exhaustively():
    for n in range(0, 7):
        for p in permutations(range(1, n + 1)):
            for q in SHORT_PATTERNS:
                assert find_occurrence(p, q) == naive_occurrence(p, q), (p, q)


@given(
    st.integers(8, 12).flatmap(lambda n: st.permutations(list(range(1, n + 1)))),
    st.sampled_from(SHORT_PATTERNS),
)
def test_witness_is_least_random(values, q):
    p = tuple(values)
    assert find_occurrence(p, q) == naive_occurrence(p, q)


def test_canonical_ordering_and_parse():
    assert format_pattern_set(parse_pattern_set("213,132")) == "132,213"
    assert parse_pattern_set("213,132") == parse_pattern_set("132,213")
    assert parse_pattern_set("132,132") == parse_pattern_set("132")
    assert parse_pattern_set("") == ()
    assert format_pattern_set(()) == ""


def test_pattern_validation():
    with pytest.raises(InvalidInputError):
        parse_pattern_set("142")
    with pytest.raises(InvalidInputError):
        canonical_pattern_set(((1, 2, 3, 4, 5, 6, 7, 8, 9, 10),))


def test_catalogue_shape():
    assert len(SINGLE_CLASSES) == 6
    assert len(PAIR_CLASSES) == 15
    assert len(TRIPLE_CLASSES) == 20
    assert len(ALL_CLASSES) == 41
    assert all(pset == canonical_pattern_set(pset) for pset in ALL_CLASSES)
