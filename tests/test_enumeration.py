import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from naive import naive_census, naive_listings, naive_members
import ballotkit
from ballotkit import _kernels
from ballotkit.bijections import UNIQUE_MEMBER_CLASSES, unique_members
from ballotkit.cli import main
from ballotkit.enumeration import (
    Caps,
    SequenceRecord,
    count_pruned,
    count_sequence,
    enumerate_oracle,
    enumerate_pruned,
    enumerate_rows,
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
    # patterns not of length 3 are dropped by the completion test, not by
    # blocked sites; force every length-3 class through it and compare
    for mask in range(64):
        pats = tuple(_forbidden(mask))
        for ballot in (True, False):
            for n in range(1, 8):
                expected = _rows(n, mask, ballot)
                rows = _rows(n, 0, ballot, pats)
                assert rows.dtype == expected.dtype, (mask, ballot, n)
                assert np.array_equal(rows, expected), (mask, ballot, n)
                assert len(rows) == count_pruned(n, pats, ballot=ballot), (mask, ballot, n)


def test_non_length3_patterns():
    for text, n_top in (("12", 6), ("21", 6), ("1", 4), ("1234", 7), ("3142,2413", 7),
                        ("123,1234", 7), ("132,1234", 7), ("321,2143", 7)):
        pset = parse_pattern_set(text)
        assert _kernels.split(pset)[1]
        naive_counts = []
        for n in range(0, n_top):
            expected = naive_members(n, pset) if n else [()]
            assert enumerate_pruned(n, pset) == expected
            assert enumerate_oracle(n, pset) == expected
            assert count_pruned(n, pset) == len(expected)
            naive_counts.append(len(expected))
        assert count_sequence(pset, n_top - 1).counts == tuple(naive_counts[1:])


def test_walk_matches_generic_oracle():
    for text in ("1234", "2143", "3142,2413", "123,1234"):
        pset = parse_pattern_set(text)
        for ballot in (True, False):
            oracle_counts = []
            for n in range(1, 9):
                rows = enumerate_rows(n, pset, ballot=ballot)
                expected = enumerate_rows(n, pset, ballot=ballot, method="oracle")
                assert rows.dtype == expected.dtype, (text, ballot, n)
                assert np.array_equal(rows, expected), (text, ballot, n)
                oracle_counts.append(len(expected))
            # the oracle counts these sets by listing them, as above
            assert count_sequence(pset, 8, ballot=ballot).counts == tuple(oracle_counts)


def test_oracle_counts_sets_with_longer_patterns():
    # the oracle counts such a set by the sizes of its listings
    for text in ("1234", "132,1234", "2413,3142"):
        pset = parse_pattern_set(text)
        for ballot in (True, False):
            assert count_sequence(pset, 8, "oracle", ballot=ballot).counts == \
                count_sequence(pset, 8, ballot=ballot).counts, (text, ballot)


def test_check_rows_leaves_longer_patterns_to_the_walk(monkeypatch):
    # the counts of the length-3 patterns would refuse, but the walk drops
    # children that they count, so only its own bound decides
    monkeypatch.setattr(_kernels, "MAX_ROWS", 100)
    with pytest.raises(CapExceededError):
        _kernels.check_rows(8, 0, True)
    assert _kernels.check_rows(8, 0, True, parse_pattern_set("1234")) is None


def test_generic_counting_is_bounded(monkeypatch, capsys):
    # a set with a pattern not of length 3 is counted by listing each
    # length, so the bound on the children of a length applies to it too
    monkeypatch.setattr(_kernels, "MAX_ROWS", 100)
    with pytest.raises(CapExceededError, match=r"ballot \{1234\} at n=\d+ needs [\d,]+ rows "
                                               r"at length \d+"):
        count_sequence(parse_pattern_set("1234"), 8)
    assert main(["enumerate", "--patterns", "1234", "--n", "8"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "ballot {1234}" in err


@pytest.fixture(scope="module")
def census():
    return naive_census(8)


def _forbidden(mask):
    return [q for i, q in enumerate(LENGTH3_PATTERNS) if mask >> i & 1]


def _rows(n, mask, ballot, rest=()):
    """The rows of the pruned listing, decoded from keys where it has them."""
    return _kernels.listing_rows(_kernels.pruned_fill(n, mask, ballot, rest), n)


@pytest.fixture(scope="module")
def members():
    """naive_members of every length-3 class, ballot and plain, n = 1..7."""
    return naive_listings(7, {mask: _forbidden(mask) for mask in range(64)})


def test_pruned_rows_match_naive_all_masks(members):
    for (mask, ballot, n), expected in members.items():
        rows = _rows(n, mask, ballot).tolist()
        assert [tuple(r) for r in rows] == expected, (mask, ballot, n)


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
                rows = _rows(n, mask, ballot)
                assert rows.shape == (counts[n - 1], n), (mask, ballot, n)
                assert _strictly_lex_increasing(rows), (mask, ballot, n)


def test_pruned_rows_past_64_sites():
    # sites no longer fit 64 bits, so the blocked sites are Python ints
    pset = parse_pattern_set("123,132")
    rows = _rows(100, _kernels.split(pset)[0], True)
    assert rows.shape == (1, 100) and rows.dtype == np.uint8
    member = tuple(rows[0].tolist())
    assert sorted(member) == list(range(1, 101))
    assert is_ballot(member) and avoids_all(member, pset)
    # lengths of one and two rows on both sides of 64 sites, where the
    # blocked sites turn from uint64 to Python ints
    for name in UNIQUE_MEMBER_CLASSES:
        pset = parse_pattern_set(name)
        mask = _kernels.split(pset)[0]
        for n in range(60, 71):
            rows = _rows(n, mask, True).tolist()
            assert [tuple(r) for r in rows] == unique_members(pset, n), (name, n)


def test_pruned_rows_bound(monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_ROWS", 100)
    assert len(_kernels.pruned_fill(6, 32, True)) == 90
    with pytest.raises(CapExceededError, match=r"ballot \{321\} at n=7 needs 297 rows"):
        _kernels.pruned_fill(7, 32, True)


def test_walk_memory_is_a_small_multiple_of_its_output():
    # a length is built one site at a time, so beside its output (the last
    # length's keys) the walk holds the length before, its open-site table
    # and one site's children, and no (rows, sites) temporaries
    for ballot in (True, False):
        tracemalloc.start()
        try:
            for rows in _kernels.pruned_levels(9, 0, ballot):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * rows.nbytes, (ballot, f"{peak / rows.nbytes:.1f} x its output")


def test_walk_state_is_narrow_beside_its_output():
    # the 23,283 members of ballot {312} of length 11 hold their blocked
    # sites and heights in 32 and 8 bits, gathered one site at a time, so
    # the walk to length 12 peaks below 3.2 times its keys; eight bytes a
    # child for each of its site, parent, blocked sites and height take it
    # to 3.8 times
    mask = _kernels.split(parse_pattern_set("312"))[0]
    tracemalloc.start()
    try:
        for keys in _kernels.pruned_levels(12, mask, True):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) == 71_610 and keys.dtype == np.uint64
    assert peak < 3.2 * keys.nbytes, f"{peak / keys.nbytes:.2f} x its output"


def _walk(n, mask, ballot):
    """Run the walk of ``pruned_levels`` to length n under its own bound,
    without ``check_rows``."""
    for _ in _kernels.pruned_levels(n, mask, ballot):
        pass


def test_refused_listing_memory_is_bounded():
    # the walk refuses length 11 from the size of its open-site table, one
    # bool per (member, site) of length 10, before any row of length 11 is
    # built
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="9,823,275 rows at length 11"):
            _walk(11, 0, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, f"{peak / 2**20:.1f} MB"


def test_check_rows_refuses_as_the_walk_does(monkeypatch):
    # for length-3 patterns the walk's level sizes are the class counts, so
    # the refusal read off the counts names the same length and row count
    monkeypatch.setattr(_kernels, "MAX_ROWS", 100)
    refused = 0
    for mask in range(64):
        for ballot in (True, False):
            messages = []
            for refuse in (_walk, _kernels.check_rows):
                try:
                    refuse(7, mask, ballot)
                    messages.append(None)
                except CapExceededError as exc:
                    messages.append(str(exc))
            assert messages[0] == messages[1], (mask, ballot)
            refused += messages[0] is not None
    assert 0 < refused < 128


def test_enumerate_refuses_before_listing(monkeypatch, capsys):
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(_kernels, "pruned_levels", walk)
    assert main(["enumerate", "--n", "11"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ballot {} at n=11 needs 9,823,275 rows at length 11, "
                   "more than 4,000,000; lower n\n")


def test_check_rows_stops_at_the_first_length_past_the_bound(monkeypatch):
    # ballot {} passes the row bound at length 11: the counter's pass stops
    # there, and never steps a prefix of length 11 or more
    seen = []
    blocked_by = _kernels._blocked_by
    monkeypatch.setattr(_kernels, "_blocked_by", lambda mask, k, s: seen.append(k) or
                        blocked_by(mask, k, s))
    with pytest.raises(CapExceededError, match=r"^ballot \{\} at n=40 needs 9,823,275 rows "
                                               r"at length 11, more than 4,000,000; lower n$"):
        _kernels.check_rows(40, 0, True)
    assert seen and max(seen) <= 10


def test_enumerate_refuses_below_the_state_bound(monkeypatch, capsys):
    # the counts of ballot {132} pass the row bound at length 17, so no row
    # is built
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(_kernels, "pruned_levels", walk)
    assert main(["enumerate", "--patterns", "132", "--n", "21", "--pruned-max-n", "21"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "6,952,660 rows at length 17" in err


def test_row_refusal_past_the_state_bound_is_the_counter_s(monkeypatch):
    # a counter that passes its state bound refuses the listing itself,
    # before the walk builds any row; the oracle still lists
    def walk(*args):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(_kernels, "MAX_STATES", 5)
    monkeypatch.setattr(_kernels, "pruned_levels", walk)
    pset = parse_pattern_set("132")
    with pytest.raises(CapExceededError, match=r"^counting ballot \{132\} to n=8 needs more "
                                               r"than 5 states at n=7; lower n$"):
        enumerate_pruned(8, pset)
    assert len(enumerate_oracle(8, pset)) == 196


def test_every_length3_count_passes_the_row_bound_before_the_state_bound():
    # so check_rows decides every listing of length-3 patterns alone from
    # the counts: no class reaches MAX_STATES before a length passes
    # MAX_ROWS, and the walk's own bound never has to judge one
    for mask in range(64):
        for ballot in (True, False):
            try:
                for size in _kernels._counts(40, mask, ballot):
                    if size > _kernels.MAX_ROWS:
                        break
            except CapExceededError as exc:
                pytest.fail(f"mask {mask}, ballot {ballot}: {exc}")


def test_enumerate_rows_shapes():
    for method in ("oracle", "pruned"):
        assert enumerate_rows(0, (), method=method).shape == (1, 0)
        assert enumerate_rows(5, parse_pattern_set("123,231"), method=method).shape == (0, 5)
        assert enumerate_rows(4, parse_pattern_set("1234"), method=method).shape == (8, 4)
    with pytest.raises(InvalidInputError, match="^unknown enumeration method: 'guess'$"):
        enumerate_rows(3, (), method="guess")
    # an invalid pattern set is refused at n = 0 as at every other length
    for n in (0, 3):
        with pytest.raises(InvalidInputError):
            enumerate_rows(n, [(1, 1)])
        with pytest.raises(InvalidInputError):
            enumerate_oracle(n, [(2, 2, 2)])
        with pytest.raises(InvalidInputError):
            count_pruned(n, [(5,)])


def test_oracle_rows_match_naive_all_masks(members):
    for (mask, ballot, n), expected in members.items():
        rows = _kernels.oracle_fill(n, mask, ballot, 0).tolist()
        assert [tuple(r) for r in rows] == expected, (mask, ballot, n)


def test_oracle_blocks_by_longer_prefixes(monkeypatch):
    # lengths past 9 build their blocks behind a prefix (of more than the
    # first value from n = 11 on) on the kept rows of length 9; shrink the
    # free part so that small lengths take that path, and restrict the
    # first value the way a caller may; every mask up to n = 5, and at n = 6,
    # whose 120 blocks make each call slow, the masks of the first-value checks
    cases = [(n, mask) for n in range(1, 6) for mask in range(64)] + [(6, 0), (6, 6), (6, 40)]
    expected = {(n, mask, ballot): _kernels.oracle_fill(n, mask, ballot, 0).tolist()
                for n, mask in cases for ballot in (True, False)}
    monkeypatch.setattr(_kernels, "_FREE_MAX", 3)
    # then n = 4 classifies its blocks behind the first value once and keeps
    # the codes, and n = 5, 6 classify theirs afresh on every call
    _kernels._oracle_codes.cache_clear()
    for (n, mask, ballot), rows in expected.items():
        assert _kernels.oracle_fill(n, mask, ballot, 0).tolist() == rows, (n, mask, ballot)
        if mask not in (0, 6, 40) or not ballot:
            continue
        by_first = [_kernels.oracle_fill(n, mask, True, v).tolist() for v in range(1, n + 1)]
        assert [r for chunk in by_first for r in chunk] == rows, (n, mask)
        assert all(r[0] == v for v, chunk in enumerate(by_first, 1) for r in chunk)


def test_oracle_rows_are_kept_read_only():
    for n in range(0, _kernels._FREE_MAX + 1):
        rows = _kernels._lex_rows(n)
        assert rows.shape == (math.factorial(n), n) and not rows.flags.writeable, n
    assert _kernels._lex_rows(3).tolist() == [list(p) for p in itertools.permutations((1, 2, 3))]
    # the blocks of a length, in order, are every permutation in lex order
    blocks = [_kernels._block(prefix, tail) for prefix, tail in _kernels._blocks(8)]
    assert len(blocks) == 8 and np.array_equal(np.concatenate(blocks), _kernels._lex_rows(8))


def test_kernels_answer_length_0():
    # the empty permutation is ballot and contains nothing, whatever the class
    for mask in range(64):
        for ballot in (True, False):
            for rest in ((), ((1, 2),)):
                for rows in (_kernels.oracle_fill(0, mask, ballot, 0, rest),
                             _rows(0, mask, ballot, rest)):
                    assert rows.shape == (1, 0), (mask, ballot, rest)
    census = _kernels.oracle_census(0)
    assert census[_kernels._BALLOT_BIT] == census.sum() == 1


def test_oracle_tests_longer_patterns_on_mask_members_only(monkeypatch):
    # the oracle drops rows with a longer pattern after the length-3 mask,
    # so {132,1234} tests 1234 on the plain {132} avoiders of length 8 alone
    tested = []
    contains_any = _kernels._contains_any

    def counted(rows, rest):
        tested.append(len(rows))
        return contains_any(rows, rest)

    monkeypatch.setattr(_kernels, "_contains_any", counted)
    rows = enumerate_rows(8, parse_pattern_set("132,1234"), ballot=False, method="oracle")
    assert len(rows) == 610
    assert sum(tested) == 1430


def test_oracle_classifies_each_length_once(monkeypatch):
    classified = []
    classify = _kernels._classify

    def counted(block):
        classified.append(len(block))
        return classify(block)

    monkeypatch.setattr(_kernels, "_classify", counted)
    _kernels._oracle_codes.cache_clear()
    _kernels.oracle_census.cache_clear()
    for mask in (0, 6, 40, 63):
        for ballot in (True, False):
            _kernels.oracle_fill(8, mask, ballot, 0)
    _kernels.oracle_census(8)
    assert classified == [5040] * 8  # one block per first value
    assert not _kernels._oracle_codes(8).flags.writeable
    # past _FREE_MAX + 1 every call classifies afresh and keeps nothing;
    # move the bound down so that this takes 8! permutations, not 11!
    expected = _kernels.oracle_fill(8, 6, True, 0).tolist()
    monkeypatch.setattr(_kernels, "_FREE_MAX", 6)
    kept = _kernels._oracle_codes.cache_info().currsize
    for calls in (1, 2):
        assert _kernels.oracle_fill(8, 6, True, 0).tolist() == expected
        assert classified == [5040] * 8 + [720] * 56 * calls  # one block per first 2 values
    assert _kernels._oracle_codes.cache_info().currsize == kept


def test_oracle_classifies_at_most_classify_rows_at_once(monkeypatch):
    codes = _kernels._oracle_codes(7).tobytes()
    rows = _kernels.oracle_fill(7, 6, True, 0).tolist()
    census = _kernels.oracle_census(7).tolist()
    classified = []
    classify = _kernels._classify

    def counted(block):
        classified.append(len(block))
        return classify(block)

    monkeypatch.setattr(_kernels, "_classify", counted)
    monkeypatch.setattr(_kernels, "_CLASSIFY_ROWS", 100)
    _kernels._oracle_codes.cache_clear()
    assert _kernels._oracle_codes(7).tobytes() == codes
    assert classified == ([100] * 7 + [20]) * 7  # each block of 720 rows in slices
    # past _FREE_MAX + 1, where each call classifies afresh: 42 blocks of 5!
    monkeypatch.setattr(_kernels, "_FREE_MAX", 5)
    monkeypatch.setattr(_kernels, "_CLASSIFY_ROWS", 50)
    classified.clear()
    assert _kernels.oracle_fill(7, 6, True, 0).tolist() == rows
    assert _kernels.oracle_census.__wrapped__(7).tolist() == census
    assert classified == [50, 50, 20] * 42 * 2


def test_oracle_census_matches_naive_census(census):
    # one entry per classification code: the set of contained length-3
    # patterns, plus the ballot bit for ballot permutations
    for n in range(1, 9):
        expected = [0] * 128
        for (length, found, is_ballot_perm), size in census.items():
            if length == n:
                contained = sum(1 << i for i, q in enumerate(LENGTH3_PATTERNS) if q in found)
                expected[contained | is_ballot_perm * _kernels._BALLOT_BIT] += size
        table = _kernels.oracle_census(n)
        assert table.dtype == np.int64 and not table.flags.writeable, n
        assert table.tolist() == expected, n
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


_RESIDENT_PEAK = """
from ballotkit.enumeration import count_sequence, enumerate_oracle
from ballotkit.patterns import parse_pattern_set
assert count_sequence(parse_pattern_set("123,132"), 10, "oracle").counts[-1] == 1
assert len(enumerate_oracle(10, parse_pattern_set("132,213"))) == 126
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_oracle_resident_memory_is_bounded():
    # tracemalloc cannot see memory the allocator keeps resident; a fresh
    # interpreter reads its own high-water mark of resident memory
    # (ru_maxrss would carry this process's peak across exec)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ballotkit.__file__))}
    out = subprocess.run([sys.executable, "-c", _RESIDENT_PEAK], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert int(out) < 80 * 1024, f"{int(out) / 1024:.1f} MB"  # VmHWM is in kB


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


def test_keyed_listing_matches_oracle_all_masks():
    # every length-3 listing to n = 10 is packed keys: decoded whole or from
    # any range, they are the oracle's rows
    for mask in range(64):
        for ballot in (True, False):
            for n in range(1, 11):
                listing = _kernels.pruned_fill(n, mask, ballot)
                expected = _kernels.oracle_fill(n, mask, ballot, 0)
                assert listing.shape == (len(expected),)
                assert listing.dtype == (np.uint32 if n <= 9 else np.uint64), (mask, ballot, n)
                rows = _kernels.listing_rows(listing, n)
                assert rows.dtype == expected.dtype, (mask, ballot, n)
                assert np.array_equal(rows, expected), (mask, ballot, n)
                third = len(expected) // 3
                assert np.array_equal(_kernels.listing_rows(listing, n, third, 2 * third + 1),
                                      expected[third:2 * third + 1]), (mask, ballot, n)


def test_keyed_listing_ends_at_n16():
    # n = 16 packs its first 15 entries into 60 bits of a key, and an entry
    # of 17 no longer fits 4 bits; n = 17 and sets with a pattern in rest
    # take the row path, which lists the same members
    for text in ("123,132", "132,213", "231,312,321"):
        pset = parse_pattern_set(text)
        mask = _kernels.split(pset)[0]
        as_rest = tuple(_forbidden(mask))
        for n, keyed in ((16, True), (17, False)):
            listing = _kernels.pruned_fill(n, mask, True)
            walked = _kernels.pruned_fill(n, 0, True, as_rest)
            assert (listing.ndim == 1) is keyed and walked.ndim == 2, (text, n)
            assert np.array_equal(_kernels.listing_rows(listing, n), walked), (text, n)
            assert len(listing) == _kernels.pruned_count(n, mask, True)[-1], (text, n)
    top = _rows(16, _kernels.split(parse_pattern_set("123,132"))[0], True)
    assert top.tolist() == [[15, 16, 13, 14, 11, 12, 9, 10, 7, 8, 5, 6, 3, 4, 1, 2]]


def test_row_path_prints_what_the_keyed_path_prints(monkeypatch, capsys):
    # with keys cut to n <= 8, the same listings take the row path and the
    # command's output does not change
    argvs = [["enumerate", "--n", "9"], ["enumerate", "--patterns", "132", "--n", "11",
                                         "--format", "json"]]
    outputs = []
    for key_max_n in (_kernels.KEY_MAX_N, 8):
        monkeypatch.setattr(_kernels, "KEY_MAX_N", key_max_n)
        for argv in argvs:
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
    assert outputs[:2] == outputs[2:] and outputs[0].out.count("\n") == 99_225


def test_oracle_cap():
    with pytest.raises(CapExceededError):
        enumerate_oracle(11, parse_pattern_set("321"))
    with pytest.raises(CapExceededError):
        enumerate_oracle(6, parse_pattern_set("321"), caps=Caps(oracle=5))
    raised_cap = enumerate_oracle(6, parse_pattern_set("321"), caps=Caps(oracle=6))
    assert len(raised_cap) == 90
    with pytest.raises(InvalidInputError):
        Caps(oracle=0)
    with pytest.raises(InvalidInputError):
        Caps(pruned=-1)


def test_caps_apply_the_cap_of_the_method_run():
    pset = parse_pattern_set("321")
    caps = Caps(oracle=3)
    with pytest.raises(CapExceededError, match="--oracle-max-n"):
        count_sequence(pset, 4, "oracle", caps=caps)
    assert count_sequence(pset, 12, caps=caps).counts == count_sequence(pset, 12).counts


def test_pruned_cap_and_env(monkeypatch, capsys):
    # only the flag sets a cap: neither the library nor the CLI reads the
    # environment, so variables that once set the caps change nothing
    with pytest.raises(CapExceededError, match="--pruned-max-n"):
        enumerate_pruned(17, parse_pattern_set("123,132"))
    assert main(["enumerate", "--patterns", "123,132", "--n", "18",
                 "--pruned-max-n", "18"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    commands = (["enumerate", "--patterns", "321", "--n", "3"],
                ["count", "--patterns", "321", "--n-max", "5", "--method", "oracle"])
    expected = []
    for argv in commands:
        assert main(argv) == 0
        expected.append(capsys.readouterr().out)
    monkeypatch.setenv("BALLOTKIT_PRUNED_MAX_N", "zzz")
    monkeypatch.setenv("BALLOTKIT_ORACLE_MAX_N", "0")
    with pytest.raises(CapExceededError):
        enumerate_pruned(17, parse_pattern_set("123,132"))
    for argv, out in zip(commands, expected):
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == out, argv


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
    with pytest.raises(InvalidInputError, match="^unknown counting method: 'guess'$"):
        count_sequence(parse_pattern_set("321"), 3, "guess")


def test_counts_start_at_one_for_nontrivial_classes():
    for pset in ALL_CLASSES:
        assert count_pruned(1, pset) == 1


def test_last_or_third_last_entry_is_minimal_in_odd_123_avoiders():
    pset = parse_pattern_set("123")
    for n in (1, 3, 5, 7, 9):
        for p in enumerate_pruned(n, pset):
            assert p[-1] == 1 or p[-3] == 1
