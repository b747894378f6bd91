"""Cross-checks between the enumerators, the registered rules, and the
published reference prefixes, packaged as machine-readable reports.

A report is a plain dict ready for ``json.dumps``: a ``rows`` list with one
entry per class or named check, each carrying the compared count vectors, a
pass/fail status, and its wall-clock cost.  A row passes only when every
pair of available sources agrees exactly over the range both cover.
"""
from __future__ import annotations

import time
from math import comb

from . import bijections, formulas
from .enumeration import (
    count_sequence,
    enumerate_oracle,
    enumerate_pruned,
    oracle_max_n,
)
from .errors import InvalidInputError
from .patterns import (
    ALL_CLASSES,
    PatternSet,
    canonical_pattern_set,
    format_pattern_set,
)
from .perms import descent_word

SCHEMA_VERSION = 1


def _pairwise_equal(row: dict) -> list[str]:
    """Names of source pairs that disagree over their common range."""
    bad = []
    sources = {
        k: row[k] for k in ("oracle", "pruned", "formula", "table") if row.get(k) is not None
    }
    names = sorted(sources)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            va, vb = sources[a], sources[b]
            m = min(len(va), len(vb))
            if va[:m] != vb[:m]:
                bad.append(f"{a}/{b}")
    return bad


def check_class(pset: PatternSet, n_max: int, *, with_oracle: bool = True) -> dict:
    """Compare every available count source for one class up to ``n_max``."""
    started = time.perf_counter()
    pset = canonical_pattern_set(pset)
    name = format_pattern_set(pset)
    pruned = list(count_sequence(pset, n_max).counts)
    oracle = None
    if with_oracle:
        top = min(n_max, oracle_max_n())
        oracle = list(count_sequence(pset, top, "oracle").counts) if top >= 1 else []
    spec = formulas.get_spec(pset)
    formula = None
    if spec is not None and spec.evaluator is not None:
        formula = [spec.evaluator(n) for n in range(1, n_max + 1)]
    table = list(spec.prefix) if spec is not None else None
    row = {
        "class": name,
        "n_max": n_max,
        "pruned": pruned,
        "oracle": oracle,
        "formula": formula,
        "table": table,
    }
    disagreements = _pairwise_equal(row)
    if not disagreements:
        row["status"] = "pass"
    elif (
        spec is not None
        and spec.corrected
        and all("table" in pair for pair in disagreements)
    ):
        # the registered rule deliberately diverges from the published digits;
        # the live sources still have to agree with each other
        row["status"] = "corrected"
    else:
        row["status"] = "fail"
    row["disagreements"] = disagreements
    row["seconds"] = round(time.perf_counter() - started, 6)
    return row


def _named_check(name: str, fn) -> dict:
    started = time.perf_counter()
    try:
        detail = fn()
        status, failure = "pass", None
    except AssertionError as exc:
        detail, status, failure = None, "fail", str(exc)
    row = {"check": name, "status": status, "seconds": round(time.perf_counter() - started, 6)}
    if detail:
        row["detail"] = detail
    if failure:
        row["failure"] = failure
    return row


def suite_tables(n_max: int = 7) -> list[dict]:
    return [check_class(pset, n_max) for pset in ALL_CLASSES]


def suite_formulas(n_max: int = 12) -> list[dict]:
    rows = [
        check_class(pset, n_max, with_oracle=False)
        for pset in ALL_CLASSES
        if formulas.get_spec(pset) is not None
        and formulas.get_spec(pset).evaluator is not None
    ]

    def recurrence_consistency():
        fib_class = canonical_pattern_set(((2, 3, 1), (3, 1, 2), (3, 2, 1)))
        history = [1, 1]
        for n in range(3, n_max + 1):
            history.append(formulas.recurrence_step(fib_class, history))
            assert history[-1] == formulas.formula_count(fib_class, n), f"fib at n={n}"
        doubling_class = canonical_pattern_set(((3, 1, 2), (3, 2, 1)))
        history = [1, 1, 3]
        for n in range(4, n_max + 1):
            history.append(formulas.recurrence_step(doubling_class, history))
            assert history[-1] == formulas.formula_count(doubling_class, n), f"2x at n={n}"
        return f"recurrences iterated to n={n_max}"

    rows.append(_named_check("recurrence-consistency", recurrence_consistency))
    return rows


def suite_bijections(n_max: int = 8) -> list[dict]:
    rows = []
    oracle_top = min(n_max, oracle_max_n())

    def members(pset: PatternSet, n: int, ballot: bool = True):
        if n <= oracle_top:
            return enumerate_oracle(n, pset, ballot=ballot)
        return enumerate_pruned(n, pset, ballot=ballot)

    def dyck_roundtrip():
        pset = canonical_pattern_set(((1, 3, 2), (2, 1, 3)))
        for n in range(1, n_max + 1):
            listing = enumerate_pruned(n, pset)
            assert len(listing) == comb(n - 1, (n - 1) // 2), f"count at n={n}"
            words = set()
            for p in listing:
                w = bijections.to_dyck_prefix(p)
                assert bijections.from_dyck_prefix(w) == p, f"roundtrip of {p}"
                words.add(w)
            assert len(words) == len(listing), f"words not distinct at n={n}"
        return f"roundtrips checked to n={n_max}"

    rows.append(_named_check("dyck-roundtrip", dyck_roundtrip))

    for family in bijections.DESCENT_WORD_FAMILIES:
        def transport_family(family=family):
            classes = {
                name: canonical_pattern_set(
                    tuple(tuple(int(c) for c in part) for part in name.split(","))
                )
                for name in family.members
            }
            for n in range(1, n_max + 1):
                listings = {name: members(pset, n) for name, pset in classes.items()}
                sizes = {len(v) for v in listings.values()}
                assert len(sizes) == 1, f"sizes differ at n={n}"
                for src_name, src_pset in classes.items():
                    for dst_name, dst_pset in classes.items():
                        image = [
                            bijections.wilf_transport(p, src_pset, dst_pset)
                            for p in listings[src_name]
                        ]
                        assert sorted(image) == sorted(listings[dst_name]), (
                            f"{src_name}->{dst_name} at n={n}"
                        )
                        for p, q in zip(listings[src_name], image):
                            assert descent_word(p) == descent_word(q), f"word of {p}"
            return f"{len(family.members)} classes matched to n={n_max}"

        rows.append(_named_check(f"transport-{family.canonical_member}", transport_family))

    def insertion_maps():
        for n in range(0, n_max):
            plain = members(canonical_pattern_set(((1, 3, 2), (3, 2, 1))), n, ballot=False)
            image = sorted(bijections.insert_132_321(s) for s in plain)
            target = sorted(members(canonical_pattern_set(((1, 3, 2), (3, 2, 1))), n + 1))
            assert image == target, f"132/321 image at n={n}"
            for s in plain:
                assert bijections.remove_132_321(bijections.insert_132_321(s)) == s
            plain = members(canonical_pattern_set(((2, 3, 1), (3, 2, 1))), n, ballot=False)
            image = sorted(bijections.prepend_231_321(s) for s in plain)
            target = sorted(members(canonical_pattern_set(((2, 3, 1), (3, 2, 1))), n + 1))
            assert image == target, f"231/321 image at n={n}"
            for s in plain:
                assert bijections.behead_231_321(bijections.prepend_231_321(s)) == s
        return f"both insertion maps inverted to n={n_max}"

    rows.append(_named_check("insertion-maps", insertion_maps))

    def excluded_element():
        pset = canonical_pattern_set(((2, 1, 3), (3, 2, 1)))
        for n in range(2, oracle_top + 1):
            everyone = set(enumerate_oracle(n, pset, ballot=False))
            ballots = set(enumerate_oracle(n, pset))
            assert everyone - ballots == {bijections.excluded_element_213_321(n)}, f"n={n}"
        return f"checked to n={oracle_top}"

    rows.append(_named_check("excluded-213-321", excluded_element))

    def generators():
        for n in range(1, n_max + 1):
            built = sorted(bijections.generate_312_321(n))
            listed = sorted(enumerate_pruned(n, canonical_pattern_set(((3, 1, 2), (3, 2, 1)))))
            assert built == listed, f"312/321 generation at n={n}"
            built = sorted(bijections.generate_fib(n))
            listed = sorted(
                enumerate_pruned(n, canonical_pattern_set(((2, 3, 1), (3, 1, 2), (3, 2, 1))))
            )
            assert built == listed, f"fib generation at n={n}"
        return f"generators matched to n={n_max}"

    rows.append(_named_check("generators", generators))

    def unique_member_classes():
        for name in ("123,132", "123,213", "132,231", "123,132,213",
                     "132,213,231", "132,231,312", "132,231,321"):
            pset = canonical_pattern_set(
                tuple(tuple(int(c) for c in part) for part in name.split(","))
            )
            for n in range(1, n_max + 1):
                assert bijections.unique_members(pset, n) == members(pset, n), (
                    f"{name} at n={n}"
                )
        return f"7 classes matched to n={n_max}"

    rows.append(_named_check("unique-members", unique_member_classes))
    return rows


_SUITES = {
    "tables": suite_tables,
    "formulas": suite_formulas,
    "bijections": suite_bijections,
}


def run_suite(suite: str, n_max: int) -> dict:
    """Build the full verification report for one suite (or ``all``)."""
    if n_max < 1:
        raise InvalidInputError(f"n_max must be at least 1, got {n_max}")
    started = time.perf_counter()
    if suite == "all":
        rows = []
        for fn in _SUITES.values():
            rows.extend(fn(n_max))
    elif suite in _SUITES:
        rows = _SUITES[suite](n_max)
    else:
        raise ValueError(f"unknown suite: {suite!r}")
    report = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "suite": suite,
        "n_max": n_max,
        "rows": rows,
        "checked": len(rows),
        "pass": all(row["status"] != "fail" for row in rows),
        "seconds": round(time.perf_counter() - started, 6),
    }
    return report


def first_failure(report: dict) -> str | None:
    """A short pointer to the first failing row, for diagnostics."""
    for row in report["rows"]:
        if row["status"] == "fail":
            label = row.get("class") or row.get("check")
            extra = ", ".join(row.get("disagreements", [])) or row.get("failure", "")
            return f"{label}: {extra}" if extra else str(label)
    return None
