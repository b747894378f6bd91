"""Cross-checks between the enumerators, the registered rules, and the
published reference prefixes, packaged as machine-readable reports.

A report is a plain dict ready for ``json.dumps``: a ``rows`` list with one
entry per class or named check, each carrying the compared count vectors, a
pass/fail status, and its wall-clock cost.  A row passes only when every
pair of available sources agrees exactly over the range both cover; an
AssertionError or a library error in its check fails it alone, while a cap
error refuses the whole run.
"""
from __future__ import annotations

import time

from . import formulas
from .enumeration import Caps, count_sequence, enumerate_oracle, enumerate_pruned
from .errors import BallotkitError, CapExceededError, InvalidInputError
from .patterns import (
    ALL_CLASSES,
    PatternSet,
    canonical_pattern_set,
    format_pattern_set,
    parse_pattern_set,
)
from .perms import descent_word
from .reports import SCHEMA_VERSION, SUITES


def _disagreements(row: dict) -> dict[str, int]:
    """Each pair of sources that disagree over their common range, with the
    first n at which they differ."""
    bad = {}
    sources = {
        k: row[k] for k in ("oracle", "pruned", "formula", "table") if row.get(k) is not None
    }
    names = sorted(sources)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for n, (x, y) in enumerate(zip(sources[a], sources[b]), 1):
                if x != y:
                    bad[f"{a}/{b}"] = n
                    break
    return bad


def check_class(
    pset: PatternSet, n_max: int, *, with_oracle: bool = True, caps: Caps = Caps()
) -> dict:
    """Compare every available count source for one class up to ``n_max``.

    A failing row also records ``first_mismatch``, the least n at which two
    of its sources differ.
    """
    pset = canonical_pattern_set(pset)
    name = format_pattern_set(pset)
    pruned = list(count_sequence(pset, n_max, caps=caps).counts)
    oracle = None
    if with_oracle:
        top = min(n_max, caps.oracle)
        oracle = list(count_sequence(pset, top, "oracle", caps=caps).counts)
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
    disagreements = _disagreements(row)
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
        row["first_mismatch"] = min(disagreements.values())
    row["disagreements"] = list(disagreements)
    return row


def _require(ok: bool, label: str) -> None:
    """Fail a named check with ``label``; unlike ``assert``, this also runs
    under ``python -O``."""
    if not ok:
        raise AssertionError(label)


def _row(fn, head: dict) -> dict:
    """The row ``fn()`` makes, timed, or on its failure ``head`` with it."""
    started = time.perf_counter()
    try:
        row = fn()
    except CapExceededError:
        raise
    except (AssertionError, BallotkitError) as exc:
        row = {**head, "status": "fail", "failure": str(exc)}
    row["seconds"] = round(time.perf_counter() - started, 6)
    return row


def _named_check(name: str, fn) -> dict:
    """A named check's row; ``fn`` returns the detail of a pass."""
    return _row(lambda: {"check": name, "status": "pass", "detail": fn()}, {"check": name})


def suite_tables(n_max: int = 7, caps: Caps = Caps()) -> list[dict]:
    return [_row(lambda: check_class(pset, n_max, caps=caps), {"class": format_pattern_set(pset)})
            for pset in ALL_CLASSES]


def suite_formulas(n_max: int = 12, caps: Caps = Caps()) -> list[dict]:
    rows = [
        _row(lambda: check_class(pset, n_max, with_oracle=False, caps=caps),
             {"class": format_pattern_set(pset)})
        for pset in ALL_CLASSES
        if formulas.get_spec(pset) is not None
        and formulas.get_spec(pset).evaluator is not None
    ]

    def recurrence_consistency():
        # seeded from the published prefix, not the rule, and the seed terms are
        # checked too, so that a range too short to iterate checks something
        for spec in formulas.REGISTRY.values():
            if spec.recurrence is None:
                continue
            pset = parse_pattern_set(spec.class_name)
            history = list(spec.prefix[:spec.recurrence[0]])
            while len(history) < n_max:
                history.append(formulas.recurrence_step(pset, history))
            for n, term in enumerate(history, 1):
                _require(term == formulas.formula_count(pset, n), f"{spec.class_name} at n={n}")
        return f"recurrences iterated to n={n_max}"

    rows.append(_named_check("recurrence-consistency", recurrence_consistency))
    return rows


def suite_bijections(n_max: int = 8, caps: Caps = Caps()) -> list[dict]:
    from . import bijections

    rows = []
    oracle_top = min(n_max, caps.oracle)

    def members(pset: PatternSet, n: int, ballot: bool = True):
        if n <= oracle_top:
            return enumerate_oracle(n, pset, ballot=ballot, caps=caps)
        return enumerate_pruned(n, pset, ballot=ballot, caps=caps)

    def dyck_roundtrip():
        pset = parse_pattern_set("132,213")
        for n in range(1, n_max + 1):
            listing = members(pset, n)
            _require(len(listing) == formulas.formula_count(pset, n), f"count at n={n}")
            words = set()
            for p in listing:
                w = bijections.to_dyck_prefix(p)
                _require(bijections.from_dyck_prefix(w) == p, f"roundtrip of {p}")
                words.add(w)
            _require(len(words) == len(listing), f"words not distinct at n={n}")
        return f"roundtrips checked to n={n_max}"

    rows.append(_named_check("dyck-roundtrip", dyck_roundtrip))

    for family in bijections.DESCENT_WORD_FAMILIES:
        def transport_family(family=family):
            # The same-word transport between every ordered pair of classes
            # is a word-preserving bijection exactly when each class's
            # members have distinct words, its builder maps those words back
            # to its listing, and all classes share one word list: the
            # transport from A to B reads A's words, a bijection onto that
            # list, then builds with B's builder, a bijection from it onto
            # B's listing.  So one pass per class covers every ordered pair.
            classes = {name: parse_pattern_set(name) for name in family.members}
            for n in range(1, n_max + 1):
                expected = None
                for name, pset in classes.items():
                    listing = members(pset, n)
                    words = [descent_word(p) for p in listing]
                    _require(len(set(words)) == len(words), f"{name} words not distinct at n={n}")
                    built = [bijections.perm_from_word(pset, w) for w in words]
                    _require(built == listing, f"{name} builder at n={n}")
                    words.sort()
                    if expected is None:
                        expected = words
                    _require(words == expected, f"{name} words differ at n={n}")
            return f"{len(family.members)} classes matched to n={n_max}"

        rows.append(_named_check(f"transport-{family.canonical_member}", transport_family))

    def insertion_maps():
        for name, insert, remove in (
            ("132,321", bijections.insert_132_321, bijections.remove_132_321),
            ("231,321", bijections.prepend_231_321, bijections.behead_231_321),
        ):
            pset = parse_pattern_set(name)
            for n in range(0, n_max):
                plain = members(pset, n, ballot=False)
                image = [insert(s) for s in plain]
                _require(sorted(image) == members(pset, n + 1), f"{name} image at n={n}")
                _require([remove(t) for t in image] == plain, f"{name} inverse at n={n}")
        return f"both insertion maps inverted to n={n_max}"

    rows.append(_named_check("insertion-maps", insertion_maps))

    def excluded_element():
        # the one avoider of length 1 is ballot, so none is excluded there
        pset = parse_pattern_set("213,321")
        for n in range(1, oracle_top + 1):
            excluded = set(members(pset, n, ballot=False)) - set(members(pset, n))
            expected = {bijections.excluded_element_213_321(n)} if n > 1 else set()
            _require(excluded == expected, f"213,321 excluded element at n={n}")
        return f"checked to n={oracle_top}"

    rows.append(_named_check("excluded-213-321", excluded_element))

    def generators():
        for name, generate in (
            ("312,321", bijections.generate_312_321),
            ("231,312,321", bijections.generate_fib),
        ):
            pset = parse_pattern_set(name)
            for n in range(1, n_max + 1):
                _require(sorted(generate(n)) == members(pset, n), f"{name} generation at n={n}")
        return f"generators matched to n={n_max}"

    rows.append(_named_check("generators", generators))

    def unique_member_classes():
        for name in bijections.UNIQUE_MEMBER_CLASSES:
            pset = parse_pattern_set(name)
            for n in range(1, n_max + 1):
                _require(bijections.unique_members(pset, n) == members(pset, n),
                         f"{name} at n={n}")
        return f"{len(bijections.UNIQUE_MEMBER_CLASSES)} classes matched to n={n_max}"

    rows.append(_named_check("unique-members", unique_member_classes))
    return rows


#: Each suite's function, ``suite_<name>``.
_SUITES = {name: globals()[f"suite_{name}"] for name in SUITES}


def run_suite(suite: str, n_max: int, caps: Caps = Caps()) -> dict:
    """Build the full verification report for one suite (or ``all``)."""
    if n_max < 1:
        raise InvalidInputError(f"n_max must be at least 1, got {n_max}")
    if suite == "all":
        names = list(_SUITES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise InvalidInputError(f"unknown suite: {suite!r}")
    if "bijections" in names:
        # the module suite_bijections imports, compiled before the first
        # suite's kernel call loads numpy, whose import then reuses the
        # memory the compiling freed
        from . import bijections  # noqa: F401
    started = time.perf_counter()
    rows = [row for name in names for row in _SUITES[name](n_max, caps)]
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
