from math import comb

import pytest

from ballotkit import _kernels
from ballotkit.enumeration import Caps, count_sequence, enumerate_oracle
from ballotkit.errors import CapExceededError, InvalidInputError, UnsupportedClassError
from ballotkit.formulas import (
    REGISTRY,
    UNRESTRICTED,
    catalan,
    formula_count,
    formula_sequence,
    get_spec,
    recurrence_step,
    reference_prefix,
    shifted_rule,
)
from ballotkit.patterns import ALL_CLASSES, format_pattern_set, parse_pattern_set


def test_catalan_convention():
    assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_formula_count_examples():
    assert formula_count(parse_pattern_set("312,321"), 6) == 24
    assert formula_count(parse_pattern_set("231,312,321"), 6) == 8
    assert formula_count(parse_pattern_set("123,231"), 4) == 0
    assert formula_count(parse_pattern_set("132,213"), 5) == 6 == comb(4, 2)


def test_no_formula_classes():
    assert formula_count(parse_pattern_set("213"), 5) is None
    assert formula_count(parse_pattern_set("312"), 9) is None
    assert formula_count(parse_pattern_set("4321"), 3) is None
    assert formula_sequence(parse_pattern_set("213"), 5) is None
    assert get_spec(parse_pattern_set("213")).kind == "reference-prefix-only"


def test_registry_covers_catalogue():
    assert set(REGISTRY) == {format_pattern_set(pset) for pset in ALL_CLASSES}
    # every rule is bounded by its printed prefix where one exists
    for pset in ALL_CLASSES:
        spec = get_spec(pset)
        record = reference_prefix(pset)
        assert record.counts == spec.prefix
        assert record.provenance == "paper-table"


def test_unrestricted_class_has_the_odd_order_rule():
    spec = get_spec(())
    assert spec is UNRESTRICTED and spec.class_name not in REGISTRY
    assert formula_count((), 9) == 99225
    assert formula_sequence((), 10).counts == spec.prefix == \
        count_sequence((), 10, "oracle").counts
    assert formula_sequence((), 16).counts == count_sequence((), 16).counts


def test_reference_prefix_examples():
    assert reference_prefix(parse_pattern_set("213")).counts == (1, 1, 3, 6, 21, 52, 193)
    assert reference_prefix(parse_pattern_set("123,213,321")).counts == (1, 1, 2, 1, 0, 0)
    assert reference_prefix(parse_pattern_set("132,231")).counts == (1, 1, 1, 1, 1, 1, 1)
    assert reference_prefix(parse_pattern_set("4321")) is None


def test_formula_matches_oracle():
    for pset in ALL_CLASSES:
        for n in range(1, 8):
            rule = formula_count(pset, n)
            if rule is not None:
                assert rule == len(enumerate_oracle(n, pset)), (pset, n)


def test_prefix_matches_formula_over_printed_range():
    # single documented exception: the printed 123,132,321 row ends a term
    # early (its true counts are 1,1,1,1,0,...), so the registered rule
    # deliberately diverges from the prefix digits there
    for pset in ALL_CLASSES:
        spec = get_spec(pset)
        if spec.evaluator is None:
            continue
        computed = tuple(spec.evaluator(n) for n in range(1, len(spec.prefix) + 1))
        if spec.class_name == "123,132,321":
            assert computed == (1, 1, 1, 1, 0, 0)
            assert spec.prefix == (1, 1, 1, 0, 0, 0)
            assert spec.corrected
        else:
            assert computed == spec.prefix, spec.class_name


def test_wilf_equivalent_classes_match_to_30():
    families = [
        ("132,213", "213,231", "231,312", "132,312"),
        ("132,213,312", "213,231,312"),
        ("132,213,321", "132,312,321", "213,231,321"),
        ("132", "231"),
    ]
    for family in families:
        for n in range(1, 31):
            values = {formula_count(parse_pattern_set(name), n) for name in family}
            assert len(values) == 1, (family, n)


def test_classes_share_a_rule_exactly_when_their_counts_are_equal():
    # grouped by their counts to n = 16 or by their rule, the classes with a
    # rule fall into the same groups; rules compare by kind and text, since a
    # tracer may wrap the evaluator of each entry apart
    by_counts, by_rule = {}, {}
    for pset in ALL_CLASSES:
        spec = get_spec(pset)
        if spec.evaluator is None:
            continue
        by_counts.setdefault(count_sequence(pset, 16).counts, []).append(spec.class_name)
        by_rule.setdefault((spec.kind, spec.rule_text), []).append(spec.class_name)
    assert sorted(by_counts.values()) == sorted(by_rule.values())
    assert sum(len(group) > 1 for group in by_rule.values()) == 7


def test_recurrence_step_examples():
    fib = parse_pattern_set("231,312,321")
    assert recurrence_step(fib, (1, 1, 2, 3, 5, 8)) == 13
    assert recurrence_step(fib, (1, 1)) == 2
    doubling = parse_pattern_set("312,321")
    assert recurrence_step(doubling, (1, 1, 3, 6, 12, 24)) == 48
    with pytest.raises(InvalidInputError):
        recurrence_step(fib, (1,))
    with pytest.raises(InvalidInputError):
        recurrence_step(doubling, (1, 1))
    with pytest.raises(UnsupportedClassError):
        recurrence_step(parse_pattern_set("321"), (1, 1, 3))


def test_recurrences_reproduce_closed_forms():
    doubling = parse_pattern_set("312,321")
    history = [1, 1, 3]
    for n in range(4, 40):
        history.append(recurrence_step(doubling, history))
        assert history[-1] == formula_count(doubling, n) == 3 * 2 ** (n - 3)
    fib = parse_pattern_set("231,312,321")
    history = [1, 1]
    for n in range(3, 40):
        history.append(recurrence_step(fib, history))
        assert history[-1] == formula_count(fib, n)


def test_shifted_rules_are_one_offset():
    for name in ("132", "213,312"):
        pset = parse_pattern_set(name)
        assert get_spec(pset).corrected
        for n in range(1, 20):
            assert shifted_rule(pset, n) == formula_count(pset, n + 1), (name, n)
    with pytest.raises(UnsupportedClassError):
        shifted_rule(parse_pattern_set("321"), 4)


def test_exact_arithmetic_at_large_n():
    # values around C(128, 64) must be exact integers, no floats anywhere
    big = formula_count(parse_pattern_set("132"), 64)
    assert big == catalan(32) * catalan(32)
    assert isinstance(big, int)
    assert formula_count(parse_pattern_set("132,213"), 64) == comb(63, 31)
    assert formula_count(parse_pattern_set("321"), 64) == 3 * comb(126, 62) // 65
    assert shifted_rule(parse_pattern_set("213,312"), 64) == sum(
        comb(64, k) for k in range(33)
    )
    # and stay consistent with the enumeration where it can still reach
    assert formula_count(parse_pattern_set("231,312,321"), 20) == 6765


def test_validity_bounds():
    with pytest.raises(InvalidInputError):
        formula_count(parse_pattern_set("321"), 0)
    with pytest.raises(InvalidInputError):
        shifted_rule(parse_pattern_set("132"), 0)
    with pytest.raises(InvalidInputError):
        formula_sequence(parse_pattern_set("321"), 0)


def test_rules_match_counter_far_out(monkeypatch):
    # the counter keeps at most 1,324 states a length to n = 100, so every
    # registered rule, {132}'s included, is checked to n = 60
    for pset in ALL_CLASSES:
        spec = get_spec(pset)
        if spec.evaluator is None:
            continue
        counts = count_sequence(pset, 60, caps=Caps(pruned=60)).counts
        assert counts == tuple(spec.evaluator(n) for n in range(1, 61)), spec.class_name
    # a class that needs more states than the bound is refused
    monkeypatch.setattr(_kernels, "MAX_STATES", 10)
    with pytest.raises(CapExceededError):
        count_sequence(parse_pattern_set("132"), 21, caps=Caps(pruned=21))


def test_counter_far_out_against_independent_counts():
    # plain {132} is counted by the Catalan numbers
    counts = count_sequence(parse_pattern_set("132"), 60, ballot=False,
                            caps=Caps(pruned=60)).counts
    assert counts == tuple(catalan(n) for n in range(1, 61))
    # ballot {} by the permutations of odd order
    counts = count_sequence((), 60, caps=Caps(pruned=60)).counts
    assert counts == tuple(UNRESTRICTED.evaluator(n) for n in range(1, 61))
    # ballot {213} and {312} are Wilf-equivalent, with no rule registered
    pair = [count_sequence(parse_pattern_set(p), 100, caps=Caps(pruned=100)).counts
            for p in ("213", "312")]
    prefix = reference_prefix(parse_pattern_set("213")).counts
    assert pair[0] == pair[1] and pair[0][:len(prefix)] == prefix
