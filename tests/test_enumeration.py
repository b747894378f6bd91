import tracemalloc

import numpy as np
import pytest

from naive import naive_census, naive_listings, naive_members
from ballotkit import _kernels
from ballotkit.cli import main
from ballotkit.enumeration import (
    Caps,
    SequenceRecord,
    _mask3,
    _generic_members,
    count_pruned,
    count_sequence,
    enumerate_oracle,
    enumerate_pruned,
    enumerate_rows,
)
from ballotkit.errors import CapExceededError, ConfigError, InvalidInputError
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
        members = list(_generic_members(6, pset, True))
        assert len(members) == len(set(members))
        for n in range(1, 7):
            of_length_n = sorted(p for p in members if len(p) == n)
            assert of_length_n == enumerate_pruned(n, pset)
            assert len(of_length_n) == count_pruned(n, pset)


def test_non_length3_patterns():
    for text, n_top in (("12", 6), ("21", 6), ("1", 4), ("1234", 7), ("3142,2413", 7),
                        ("123,1234", 7)):
        pset = parse_pattern_set(text)
        assert _mask3(pset) is None
        naive_counts = []
        for n in range(0, n_top):
            expected = naive_members(n, pset) if n else [()]
            assert enumerate_pruned(n, pset) == expected
            assert enumerate_oracle(n, pset) == expected
            assert count_pruned(n, pset) == len(expected)
            naive_counts.append(len(expected))
        assert count_sequence(pset, n_top - 1).counts == tuple(naive_counts[1:])


@pytest.fixture(scope="module")
def census():
    return naive_census(8)


def _forbidden(mask):
    return [q for i, q in enumerate(LENGTH3_PATTERNS) if mask >> i & 1]


@pytest.fixture(scope="module")
def members():
    """naive_members of every length-3 class, ballot and plain, n = 1..7."""
    return naive_listings(7, {mask: _forbidden(mask) for mask in range(64)})


def test_pruned_rows_match_naive_all_masks(members):
    for (mask, ballot, n), expected in members.items():
        rows = _kernels.pruned_fill(n, mask, ballot, 0).tolist()
        assert [tuple(r) for r in rows] == expected, (mask, ballot, n)
        by_first = [_kernels.pruned_fill(n, mask, ballot, v).tolist() for v in range(1, n + 1)]
        assert [tuple(r) for chunk in by_first for r in chunk] == expected, (mask, ballot, n)


def _strictly_lex_increasing(rows):
    steps = np.diff(rows.astype(np.int16), axis=0)
    first = (steps != 0).argmax(axis=1)
    return bool((steps[np.arange(len(steps)), first] > 0).all())


def test_pruned_rows_match_counter_past_the_brute_force_range():
    for mask in range(64):
        for ballot in (True, False):
            counts = _kernels.pruned_count(12, mask, ballot)
            for n in range(8, 13):
                if counts[n - 1] > 200_000:
                    continue
                rows = _kernels.pruned_fill(n, mask, ballot, 0)
                assert rows.shape == (counts[n - 1], n), (mask, ballot, n)
                assert _strictly_lex_increasing(rows), (mask, ballot, n)


def test_pruned_rows_past_64_sites():
    # sites no longer fit 64 bits, so the blocked sites are Python ints
    pset = parse_pattern_set("123,132")
    rows = _kernels.pruned_fill(100, _mask3(pset), True, 0)
    assert rows.shape == (1, 100) and rows.dtype == np.uint8
    member = tuple(rows[0].tolist())
    assert sorted(member) == list(range(1, 101))
    assert is_ballot(member) and avoids_all(member, pset)


def test_pruned_rows_bound(monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_ROWS", 100)
    assert len(_kernels.pruned_fill(6, 32, True, 0)) == 90
    with pytest.raises(CapExceededError, match=r"ballot \{321\} at n=7 needs 297 rows"):
        _kernels.pruned_fill(7, 32, True, 0)


def test_enumerate_rows_shapes():
    for method in ("oracle", "pruned"):
        assert enumerate_rows(0, (), method=method).shape == (1, 0)
        assert enumerate_rows(5, parse_pattern_set("123,231"), method=method).shape == (0, 5)
        assert enumerate_rows(4, parse_pattern_set("1234"), method=method).shape == (8, 4)
    with pytest.raises(InvalidInputError):
        enumerate_rows(3, (), method="guess")


def test_oracle_rows_match_naive_all_masks(members):
    for (mask, ballot, n), expected in members.items():
        rows = _kernels.oracle_fill(n, mask, ballot, 0).tolist()
        assert [tuple(r) for r in rows] == expected, (mask, ballot, n)


def test_oracle_blocks_by_longer_prefixes(monkeypatch):
    # lengths past 9 fix more than the first value per block; shrink the
    # free part so that small lengths take that path, and restrict the
    # first value the way a caller may
    expected = {(n, mask): _kernels.oracle_fill(n, mask, True, 0).tolist()
                for n in range(1, 7) for mask in (0, 6, 40)}
    monkeypatch.setattr(_kernels, "_FREE_MAX", 3)
    for (n, mask), rows in expected.items():
        assert _kernels.oracle_fill(n, mask, True, 0).tolist() == rows, (n, mask)
        by_first = [_kernels.oracle_fill(n, mask, True, v).tolist() for v in range(1, n + 1)]
        assert [r for chunk in by_first for r in chunk] == rows, (n, mask)
        assert all(r[0] == v for v, chunk in enumerate(by_first, 1) for r in chunk)


def test_oracle_census_matches_naive_census(census):
    for n in range(1, 9):
        expected = [[0, 0] for _ in range(64)]
        for (length, found, is_ballot_perm), size in census.items():
            if length == n:
                contained = sum(1 << i for i, q in enumerate(LENGTH3_PATTERNS) if q in found)
                expected[contained][is_ballot_perm] += size
        assert _kernels.oracle_census(n).tolist() == expected, n
    for mask in range(64):
        pset = tuple(_forbidden(mask))
        for ballot in (True, False):
            assert count_sequence(pset, 8, "oracle", ballot=ballot).counts == \
                count_sequence(pset, 8, ballot=ballot).counts, (mask, ballot)


def test_oracle_memory_is_bounded():
    # numpy reports its buffers to tracemalloc; blocks of at most 9! rows
    # keep a scan of all 10! permutations well inside the budget
    budget = 64 * 2**20
    _kernels.oracle_census.cache_clear()
    tracemalloc.start()
    try:
        assert count_sequence(parse_pattern_set("123,132"), 10, "oracle").counts[-1] == 1
        counting_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        assert len(enumerate_oracle(10, parse_pattern_set("132,213"))) == 126
        listing_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counting_peak < budget, counting_peak
    assert listing_peak < budget, listing_peak


def test_counter_matches_brute_force_all_masks(census):
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


def test_pruned_listing_matches_oracle_at_n10():
    pset = parse_pattern_set("132")
    assert enumerate_pruned(10, pset) == enumerate_oracle(10, pset)


def test_oracle_cap():
    with pytest.raises(CapExceededError):
        enumerate_oracle(11, parse_pattern_set("321"))
    with pytest.raises(CapExceededError):
        enumerate_oracle(6, parse_pattern_set("321"), max_n=5)
    raised_cap = enumerate_oracle(6, parse_pattern_set("321"), max_n=6)
    assert len(raised_cap) == 90
    with pytest.raises(ConfigError):
        Caps(oracle=0)
    with pytest.raises(ConfigError):
        Caps(pruned=-1)


def test_pruned_cap_and_env(monkeypatch, capsys):
    # the library reads no environment variable; the CLI passes the cap down
    with pytest.raises(CapExceededError):
        enumerate_pruned(17, parse_pattern_set("123,132"))
    monkeypatch.setenv("BALLOTKIT_PRUNED_MAX_N", "18")
    with pytest.raises(CapExceededError):
        enumerate_pruned(17, parse_pattern_set("123,132"))
    assert main(["enumerate", "--patterns", "123,132", "--n", "18"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    monkeypatch.setenv("BALLOTKIT_PRUNED_MAX_N", "zzz")
    assert main(["enumerate", "--patterns", "123,132", "--n", "3"]) == 2
    assert "BALLOTKIT_PRUNED_MAX_N" in capsys.readouterr().err


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
