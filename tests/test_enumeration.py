import pytest

from naive import naive_census, naive_members
from ballotkit import _kernels
from ballotkit.enumeration import (
    SequenceRecord,
    _count_generic,
    _mask3,
    _pruned_generic,
    count_pruned,
    count_sequence,
    enumerate_oracle,
    enumerate_pruned,
)
from ballotkit.errors import CapExceededError, InvalidInputError
from ballotkit.patterns import (
    ALL_CLASSES,
    LENGTH3_PATTERNS,
    avoids_all,
    format_pattern_set,
    parse_pattern_set,
)
from ballotkit.perms import is_ballot


def test_oracle_examples():
    assert enumerate_oracle(3, parse_pattern_set("132,213")) == [(1, 2, 3), (2, 3, 1)]
    assert enumerate_oracle(1, parse_pattern_set("321")) == [(1,)]
    assert enumerate_oracle(4, parse_pattern_set("123,231")) == []


def test_pruned_examples():
    assert len(enumerate_pruned(7, parse_pattern_set("213,312"))) == 42
    assert len(enumerate_pruned(6, parse_pattern_set("231,312,321"))) == 8
    assert enumerate_pruned(5, parse_pattern_set("123,321")) == []


def test_both_match_naive_reference():
    for text in ("", "321", "132,213", "123,231", "231,312,321"):
        pset = parse_pattern_set(text)
        for n in range(0, 6):
            expected = naive_members(n, pset) if n else [()]
            assert enumerate_oracle(n, pset) == expected
            assert enumerate_pruned(n, pset) == expected


def test_oracle_equals_pruned_all_classes():
    for pset in ALL_CLASSES + ((),):
        for n in range(0, 7):
            oracle = enumerate_oracle(n, pset)
            pruned = enumerate_pruned(n, pset)
            assert oracle == pruned, (pset, n)
            assert len(oracle) == count_pruned(n, pset)


def test_plain_avoiders_mode():
    pset = parse_pattern_set("132,321")
    for n in range(0, 7):
        expected = naive_members(n, pset, ballot=False) if n else [()]
        assert enumerate_oracle(n, pset, ballot=False) == expected
        assert enumerate_pruned(n, pset, ballot=False) == expected
        assert count_pruned(n, pset, ballot=False) == len(expected)


def test_output_is_lexicographic_and_valid():
    pset = parse_pattern_set("321")
    listing = enumerate_pruned(7, pset)
    assert listing == sorted(listing)
    for p in listing:
        assert is_ballot(p) and avoids_all(p, pset)


def test_generic_paths_match_kernels():
    # untypical pattern lengths take the pure-Python route; force the
    # length-3 classes through it as well and compare
    for text in ("132,213", "321"):
        pset = parse_pattern_set(text)
        for n in range(0, 7):
            assert _pruned_generic(n, pset, True) == enumerate_pruned(n, pset)
            assert _count_generic(n, pset, True) == count_pruned(n, pset)


def test_non_length3_patterns():
    for text, n_top in (("12", 6), ("21", 6), ("1", 4), ("1234", 7), ("3142,2413", 7)):
        pset = parse_pattern_set(text)
        assert _mask3(pset) is None
        for n in range(0, n_top):
            expected = naive_members(n, pset) if n else [()]
            assert enumerate_pruned(n, pset) == expected
            assert enumerate_oracle(n, pset) == expected
            assert count_pruned(n, pset) == len(expected)


def test_backends_agree():
    for text in ("132,213", "231,312,321", ""):
        mask = _mask3(parse_pattern_set(text))
        for n in range(1, 7):
            fill_py = _kernels.pruned_fill_py(n, mask, True, 0)
            fill_sel = _kernels.pruned_fill(n, mask, True, 0)
            assert fill_py.tolist() == fill_sel.tolist()
            assert _kernels.oracle_fill_py(n, mask, True, 0).tolist() == \
                _kernels.oracle_fill(n, mask, True, 0).tolist()


def test_counter_matches_brute_force_all_masks():
    census = naive_census(8)
    for mask in range(64):
        forbidden = {q for i, q in enumerate(LENGTH3_PATTERNS) if mask >> i & 1}
        for ballot in (True, False):
            expected = [0] * 8
            for (n, found, is_ballot_perm), size in census.items():
                if (is_ballot_perm or not ballot) and not found & forbidden:
                    expected[n - 1] += size
            assert _kernels.pruned_count(8, mask, ballot) == expected, (mask, ballot)


def test_every_class_counts_to_16_under_state_bound():
    # ballot avoiders are a subset of the plain ones at every length
    for pset in ALL_CLASSES + ((),):
        ballot = count_sequence(pset, 16).counts
        plain = count_sequence(pset, 16, ballot=False).counts
        assert len(ballot) == len(plain) == 16
        assert all(b <= p for b, p in zip(ballot, plain)), format_pattern_set(pset)


def test_partitioned_search_matches_direct(monkeypatch):
    pset = parse_pattern_set("132")
    direct = enumerate_pruned(10, pset)
    monkeypatch.setenv("BALLOTKIT_THREADS", "3")
    assert enumerate_pruned(10, pset) == direct
    assert enumerate_oracle(10, pset) == direct


def test_oracle_cap():
    with pytest.raises(CapExceededError):
        enumerate_oracle(11, parse_pattern_set("321"))
    with pytest.raises(CapExceededError):
        enumerate_oracle(6, parse_pattern_set("321"), max_n=5)
    monkey_env_cap = enumerate_oracle(6, parse_pattern_set("321"), max_n=6)
    assert len(monkey_env_cap) == 90


def test_pruned_cap_and_env(monkeypatch):
    with pytest.raises(CapExceededError):
        enumerate_pruned(17, parse_pattern_set("123,132"))
    monkeypatch.setenv("BALLOTKIT_PRUNED_MAX_N", "18")
    assert len(enumerate_pruned(18, parse_pattern_set("123,132"))) == 1
    monkeypatch.setenv("BALLOTKIT_PRUNED_MAX_N", "zzz")
    with pytest.raises(InvalidInputError):
        enumerate_pruned(3, parse_pattern_set("123,132"))


def test_count_sequence_records():
    record = count_sequence(parse_pattern_set("132,321"), 7)
    assert isinstance(record, SequenceRecord)
    assert record.counts == (1, 1, 2, 4, 7, 11, 16)
    assert record.provenance == "pruned"
    assert record.value_at(5) == 7
    with pytest.raises(InvalidInputError):
        record.value_at(8)
    oracle_record = count_sequence(parse_pattern_set("132,321"), 7, "oracle")
    assert oracle_record.counts == record.counts
    assert oracle_record.provenance == "oracle"
    with pytest.raises(InvalidInputError):
        count_sequence(parse_pattern_set("321"), 0)
    with pytest.raises(InvalidInputError):
        count_sequence(parse_pattern_set("321"), 3, "guess")


def test_counts_start_at_one_for_nontrivial_classes():
    for pset in ALL_CLASSES:
        assert count_pruned(1, pset) == 1


def test_last_or_third_last_entry_is_minimal_in_odd_123_avoiders():
    pset = parse_pattern_set("123")
    for n in (1, 3, 5, 7, 9):
        for p in enumerate_pruned(n, pset):
            assert p[-1] == 1 or p[-3] == 1
