"""Acceptance suite: one test per release criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict each criterion prints.

Criterion 1 (sequence-table reproduction) carries a documented exception:
the published row for class 123,132,321 reads 1,1,1,0,0,0 but exhaustive
enumeration finds the length-4 member 3412 (its triples realize only the
patterns 231 and 312, and it is ballot), so the true counts are
1,1,1,1,0,0.  The faithful as-printed comparison is kept as a strict
expected failure; the companion test pins the remaining 40 rows byte-exact
and the corrected row against the enumeration.

Criteria 4, 5, 6 and 9 read the rows of ``verify --suite bijections`` at
n = 12, the one implementation of the bijection checks.
"""
from math import comb

import pytest

from ballotkit.bijections import DESCENT_WORD_FAMILIES, from_dyck_prefix, to_dyck_prefix
from ballotkit.enumeration import Caps, count_pruned, enumerate_oracle, enumerate_pruned
from ballotkit.formulas import (
    formula_count,
    get_spec,
    recurrence_step,
    reference_prefix,
    shifted_rule,
)
from ballotkit.patterns import (
    ALL_CLASSES,
    PAIR_CLASSES,
    SINGLE_CLASSES,
    TRIPLE_CLASSES,
    format_pattern_set,
    parse_pattern_set,
)
from ballotkit.perms import parse_perm
from ballotkit.verification import suite_bijections

MISPRINTED_CLASS = "123,132,321"
BIJECTION_N = 12


def _verdict(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num}: {label}: PASS")


@pytest.fixture(scope="module")
def bijection_rows():
    return {row["check"]: row for row in suite_bijections(BIJECTION_N)}


def _assert_checked(rows, *checks):
    """Each named row passed and ran to n = BIJECTION_N, not stopping early."""
    for check in checks:
        row = rows[check]
        assert row["status"] == "pass", row
        assert row["detail"].endswith(f" to n={BIJECTION_N}"), row


def _table_rows():
    for pset in SINGLE_CLASSES + PAIR_CLASSES:
        yield pset, 7
    for pset in TRIPLE_CLASSES:
        yield pset, 6


@pytest.mark.xfail(
    strict=True,
    reason="published row for 123,132,321 misses the length-4 member 3412; "
    "enumeration is pinned against the corrected sequence in the companion test",
)
def test_acceptance_1_tables_as_printed():
    for pset, depth in _table_rows():
        printed = reference_prefix(pset).counts[:depth]
        computed = tuple(count_pruned(n, pset) for n in range(1, len(printed) + 1))
        assert computed == printed, format_pattern_set(pset)


def test_acceptance_1_tables_reproduced():
    mismatches = []
    for pset, depth in _table_rows():
        printed = reference_prefix(pset).counts[:depth]
        computed = tuple(count_pruned(n, pset) for n in range(1, len(printed) + 1))
        if computed != printed:
            mismatches.append((format_pattern_set(pset), printed, computed))
    # exactly the one documented misprint, corrected and pinned by enumeration
    assert mismatches == [
        (MISPRINTED_CLASS, (1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 0, 0))
    ]
    assert get_spec(parse_pattern_set(MISPRINTED_CLASS)).corrected
    assert enumerate_oracle(4, parse_pattern_set(MISPRINTED_CLASS)) == [(3, 4, 1, 2)]
    _verdict(1, "table reproduction (40/41 rows as printed; one misprinted row "
                "pinned by oracle)")


def test_acceptance_2_oracle_equivalence():
    for pset in ALL_CLASSES + ((),):
        for n in range(1, 9):
            assert enumerate_pruned(n, pset) == enumerate_oracle(n, pset), (
                format_pattern_set(pset), n,
            )
    _verdict(2, "pruned enumeration equals the oracle for all 42 classes, n <= 8")


def test_acceptance_3_formula_agreement():
    for pset in ALL_CLASSES:
        spec = get_spec(pset)
        if spec.evaluator is None:
            continue
        for n in range(1, 13):
            assert spec.evaluator(n) == count_pruned(n, pset), (spec.class_name, n)
    for n in range(2, 13):
        assert formula_count(parse_pattern_set("321"), n) == \
            3 * comb(2 * n - 2, n - 2) // (n + 1)
    for n in range(3, 13):
        assert formula_count(parse_pattern_set("312,321"), n) == 3 * 2 ** (n - 3)
    fib = parse_pattern_set("231,312,321")
    history = [1, 1]
    for n in range(3, 21):
        history.append(recurrence_step(fib, history))
        assert history[-1] == count_pruned(n, fib, caps=Caps(pruned=20)), n
    assert history[-1] == 6765
    _verdict(3, "formulas equal pruned counts to n = 12; fibonacci class exact to "
                "n = 20 (a_20 = 6765)")


def test_acceptance_4_dyck_bijection(bijection_rows):
    assert to_dyck_prefix(parse_perm("456312")) == "UUDDU"
    assert from_dyck_prefix("UUDDU") == parse_perm("456312")
    _assert_checked(bijection_rows, "dyck-roundtrip")
    _verdict(4, "lattice-word bijection round-trips and middle-binomial counts "
                "to n = 12")


def test_acceptance_5_wilf_transports(bijection_rows):
    _assert_checked(bijection_rows, *(f"transport-{family.canonical_member}"
                                      for family in DESCENT_WORD_FAMILIES))
    _verdict(5, "descent-preserving transports biject all three families, n <= 12")


def test_acceptance_6_insertion_maps(bijection_rows):
    _assert_checked(bijection_rows, "insertion-maps")
    _verdict(6, "insertion maps biject plain avoiders of length n onto ballot "
                "avoiders of length n + 1, n <= 11")


def test_acceptance_7_odd_length_minimum_position():
    pset = parse_pattern_set("123")
    for n in (1, 3, 5, 7, 9, 11):
        members = enumerate_pruned(n, pset)
        assert members, n
        for p in members:
            assert p[-1] == 1 or p[-3] == 1, p
    _verdict(7, "odd-length 123-avoiders end in 1 or carry 1 third from last, "
                "n <= 11")


def test_acceptance_8_offset_correction_pins():
    for name in ("132", "213,312"):
        pset = parse_pattern_set(name)
        assert get_spec(pset).corrected
        for n in range(1, 10):
            oracle_count = len(enumerate_oracle(n, pset))
            assert formula_count(pset, n) == oracle_count, (name, n)
            if n >= 2:
                assert shifted_rule(pset, n - 1) == oracle_count, (name, n)
            assert shifted_rule(pset, n) == formula_count(pset, n + 1), (name, n)
    _verdict(8, "corrected rules match the oracle; superseded readings sit one "
                "step ahead, n <= 9")


def test_acceptance_9_unique_member_constructions(bijection_rows):
    _assert_checked(bijection_rows, "unique-members")
    _verdict(9, "explicit constructions equal the enumeration for all 7 "
                "singleton-style classes, n <= 12")
