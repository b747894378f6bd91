from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from naive import naive_is_ballot
from ballotkit.errors import InvalidInputError
from ballotkit.perms import (
    ascent_set,
    check_perm,
    descent_set,
    descent_word,
    direct_sum,
    format_perm,
    format_rows,
    identity,
    is_ballot,
    parse_perm,
    reverse,
    skew_sum,
    standardize,
)

perm_lists = st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def test_standardize_examples():
    assert standardize((4.5, 2, 7)) == (2, 1, 3)
    assert standardize((1, 2, 3)) == (1, 2, 3)
    assert standardize((6, 5, 1, 2, 3)) == (5, 4, 1, 2, 3)


def test_standardize_rejects_repeats():
    with pytest.raises(InvalidInputError):
        standardize((1, 1, 2))


@given(perm_lists)
def test_standardize_idempotent_on_perms(values):
    p = tuple(values)
    assert standardize(p) == p


def test_reverse_examples():
    assert reverse((1, 2, 3)) == (3, 2, 1)
    assert reverse((1,)) == (1,)
    assert reverse(parse_perm("465123")) == parse_perm("321564")


@given(perm_lists)
def test_reverse_involution(values):
    p = tuple(values)
    assert reverse(reverse(p)) == p


def test_sum_examples():
    assert skew_sum(parse_perm("132"), parse_perm("123")) == parse_perm("465123")
    assert skew_sum((), (2, 1)) == (2, 1)
    assert skew_sum((1, 2), (1, 2)) == (3, 4, 1, 2)
    assert direct_sum(parse_perm("132"), parse_perm("123")) == parse_perm("132456")
    assert direct_sum((2, 1), ()) == (2, 1)
    assert direct_sum((2, 1), (2, 1)) == (2, 1, 4, 3)


@given(perm_lists, perm_lists, perm_lists)
def test_sums_associative_and_sized(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)
    assert skew_sum(skew_sum(a, b), c) == skew_sum(a, skew_sum(b, c))
    assert direct_sum(direct_sum(a, b), c) == direct_sum(a, direct_sum(b, c))
    assert len(direct_sum(a, b)) == len(a) + len(b)
    assert check_perm(skew_sum(a, b)) == skew_sum(a, b)


def test_descent_sets():
    assert descent_set(parse_perm("456312")) == frozenset({3, 4})
    assert descent_set(identity(6)) == frozenset()
    assert descent_set((3, 2, 1)) == frozenset({1, 2})


@given(perm_lists)
def test_descents_and_ascents_partition(values):
    p = tuple(values)
    d, a = descent_set(p), ascent_set(p)
    assert d | a == frozenset(range(1, len(p)))
    assert not d & a


def test_is_ballot_examples():
    assert is_ballot(parse_perm("456312"))
    assert not is_ballot((2, 1))
    assert not is_ballot(parse_perm("465123"))
    assert is_ballot(())
    assert is_ballot((1,))


def test_descent_word_examples():
    assert descent_word(parse_perm("456312")) == "UUDDU"
    assert descent_word((1,)) == ""
    assert descent_word(parse_perm("132456")) == "UDUUU"


def test_ballot_iff_word_never_dips():
    for n in range(0, 8):
        for p in permutations(range(1, n + 1)):
            assert is_ballot(p) == naive_is_ballot(p)


def test_ballot_starts_with_ascent():
    for n in range(2, 9):
        for p in permutations(range(1, n + 1)):
            if is_ballot(p):
                assert p[0] < p[1]


def test_parse_and_format_roundtrip():
    assert parse_perm("4,5,6,3,1,2") == parse_perm("456312")
    assert parse_perm("") == ()
    long = tuple(range(1, 15)) + ()
    assert parse_perm(format_perm(long)) == long
    assert format_perm((4, 5, 6, 3, 1, 2)) == "456312"


def test_format_rows_matches_format_perm():
    rng = np.random.default_rng(0)
    for n in (0, 1, 9, 10, 12, 100):
        rows = np.array([rng.permutation(n) + 1 for _ in range(5)], dtype=np.uint8)
        rows = rows.reshape(5, n)
        assert format_rows(rows) == "".join(format_perm(r) + "\n" for r in rows.tolist())
        assert format_rows(rows.astype(np.int64)) == format_rows(rows)
        assert format_rows(np.empty((0, n), dtype=np.uint8)) == ""


def test_parse_rejects_bad_input():
    for bad in ["103", "4,5,x", "122", "21 3", "0"]:
        with pytest.raises(InvalidInputError):
            parse_perm(bad)
    with pytest.raises(InvalidInputError):
        parse_perm("1234567891011")  # compact form cannot spell values past 9
    with pytest.raises(InvalidInputError):
        check_perm((1, 3))
