"""Counting rules for every catalogued avoidance class, in exact integers.

Each of the 41 length-3 classes (6 singles, 15 pairs, 20 triples) carries a
registered rule: a closed form, a recurrence, or a finite list padded with
zeros for the classes whose counts terminate.  Two classes ({213} and {312},
the walk-enumerated ones) have no usable rule and are recorded with their
reference prefix only.

Every class also stores its published reference prefix verbatim, so counts
can be diffed against the literature without network access.  The
unrestricted class (no pattern) is outside that catalogue; its rule, the
odd-order formula, is kept apart as ``UNRESTRICTED``.

Two registered rules deliberately differ from a published expression that is
off by one in n; those carry ``corrected=True`` and the superseded reading
stays available through ``shifted_rule`` so the discrepancy itself is
testable.  Both corrections are pinned by exhaustive enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, Sequence

from .enumeration import SequenceRecord
from .errors import InvalidInputError, UnsupportedClassError
from .patterns import PatternSet, canonical_pattern_set, format_pattern_set


def catalan(m: int) -> int:
    """The m-th Catalan number, with catalan(0) = 1."""
    if m < 0:
        raise InvalidInputError("catalan is defined for m >= 0")
    return comb(2 * m, m) // (m + 1)


@dataclass(frozen=True)
class FormulaSpec:
    """One registered counting rule and its reference prefix."""

    class_name: str
    kind: str                          # closed-form | recurrence | finite-list | reference-prefix-only
    rule_text: str
    prefix: tuple[int, ...]            # published terms, starting at n = 1
    evaluator: Callable[[int], int] | None = None
    corrected: bool = False


def _finite(values: Sequence[int]) -> Callable[[int], int]:
    frozen = tuple(values)

    def rule(n: int) -> int:
        return frozen[n - 1] if n <= len(frozen) else 0

    return rule


def _fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _middle_binomial(n: int) -> int:
    return comb(n - 1, (n - 1) // 2)


def _half_row_sum(n: int) -> int:
    return sum(comb(n - 1, k) for k in range((n - 1) // 2 + 1))


_SPECS = [
    FormulaSpec("123", "closed-form", "catalan(ceil(n/2))",
                (1, 1, 2, 2, 5, 5, 14, 14),
                lambda n: catalan((n + 1) // 2)),
    FormulaSpec("132", "closed-form", "catalan(floor(n/2)) * catalan(ceil(n/2))",
                (1, 1, 2, 4, 10, 25, 70),
                lambda n: catalan(n // 2) * catalan((n + 1) // 2),
                corrected=True),
    FormulaSpec("213", "reference-prefix-only", "no closed form registered",
                (1, 1, 3, 6, 21, 52, 193)),
    FormulaSpec("231", "closed-form", "catalan(floor(n/2)) * catalan(ceil(n/2))",
                (1, 1, 2, 4, 10, 25, 70),
                lambda n: catalan(n // 2) * catalan((n + 1) // 2)),
    FormulaSpec("312", "reference-prefix-only", "no closed form registered",
                (1, 1, 3, 6, 21, 52, 193)),
    FormulaSpec("321", "closed-form", "3/(n+1) * C(2n-2, n-2) for n >= 2; 1 at n = 1",
                (1, 1, 3, 9, 28, 90, 297),
                lambda n: 1 if n == 1 else 3 * comb(2 * n - 2, n - 2) // (n + 1)),

    FormulaSpec("123,132", "closed-form", "1 for all n",
                (1, 1, 1, 1, 1, 1, 1), lambda n: 1),
    FormulaSpec("123,213", "closed-form", "2 for odd n >= 3; 1 otherwise",
                (1, 1, 2, 1, 2, 1, 2),
                lambda n: 2 if n >= 3 and n % 2 == 1 else 1),
    FormulaSpec("123,231", "finite-list", "1,1,1 then 0",
                (1, 1, 1, 0, 0, 0, 0), _finite((1, 1, 1))),
    FormulaSpec("123,312", "finite-list", "1,1,2 then 0",
                (1, 1, 2, 0, 0, 0, 0), _finite((1, 1, 2))),
    FormulaSpec("123,321", "finite-list", "1,1,2,2 then 0",
                (1, 1, 2, 2, 0, 0, 0), _finite((1, 1, 2, 2))),
    FormulaSpec("132,213", "closed-form", "C(n-1, floor((n-1)/2))",
                (1, 1, 2, 3, 6, 10, 20), _middle_binomial),
    FormulaSpec("132,231", "closed-form", "1 for all n",
                (1, 1, 1, 1, 1, 1, 1), lambda n: 1),
    FormulaSpec("132,312", "closed-form", "C(n-1, floor((n-1)/2))",
                (1, 1, 2, 3, 6, 10, 20), _middle_binomial),
    FormulaSpec("132,321", "closed-form", "C(n-1, 2) + 1",
                (1, 1, 2, 4, 7, 11, 16), lambda n: comb(n - 1, 2) + 1),
    FormulaSpec("213,231", "closed-form", "C(n-1, floor((n-1)/2))",
                (1, 1, 2, 3, 6, 10, 20), _middle_binomial),
    FormulaSpec("213,312", "closed-form", "sum of C(n-1, k) for k = 0..floor((n-1)/2)",
                (1, 1, 3, 4, 11, 16, 42), _half_row_sum,
                corrected=True),
    FormulaSpec("213,321", "closed-form", "C(n, 2) for n >= 2; 1 at n = 1",
                (1, 1, 3, 6, 10, 15, 21),
                lambda n: 1 if n == 1 else comb(n, 2)),
    FormulaSpec("231,312", "closed-form", "C(n-1, floor((n-1)/2))",
                (1, 1, 2, 3, 6, 10, 20), _middle_binomial),
    FormulaSpec("231,321", "closed-form", "2^(n-2) for n >= 2; 1 at n = 1",
                (1, 1, 2, 4, 8, 16, 32),
                lambda n: 1 if n == 1 else 2 ** (n - 2)),
    FormulaSpec("312,321", "closed-form", "3 * 2^(n-3) for n >= 3; 1 at n <= 2",
                (1, 1, 3, 6, 12, 24, 48),
                lambda n: 1 if n <= 2 else 3 * 2 ** (n - 3)),

    FormulaSpec("123,132,213", "closed-form", "1 for all n",
                (1, 1, 1, 1, 1, 1), lambda n: 1),
    FormulaSpec("123,132,231", "finite-list", "1,1 then 0",
                (1, 1, 0, 0, 0, 0), _finite((1, 1))),
    FormulaSpec("123,132,312", "finite-list", "1,1,1 then 0",
                (1, 1, 1, 0, 0, 0), _finite((1, 1, 1))),
    # The published row for this class stops a term early: 3412 is a ballot
    # avoider of all three patterns, so the counts are 1,1,1,1 then 0.  The
    # registered rule follows the enumeration; the prefix stays as printed.
    FormulaSpec("123,132,321", "finite-list", "1,1,1,1 then 0",
                (1, 1, 1, 0, 0, 0), _finite((1, 1, 1, 1)),
                corrected=True),
    FormulaSpec("123,213,231", "finite-list", "1,1,1 then 0",
                (1, 1, 1, 0, 0, 0), _finite((1, 1, 1))),
    FormulaSpec("123,213,312", "finite-list", "1,1,2 then 0",
                (1, 1, 2, 0, 0, 0), _finite((1, 1, 2))),
    FormulaSpec("123,213,321", "finite-list", "1,1,2,1 then 0",
                (1, 1, 2, 1, 0, 0), _finite((1, 1, 2, 1))),
    FormulaSpec("123,231,312", "finite-list", "1,1,1 then 0",
                (1, 1, 1, 0, 0, 0), _finite((1, 1, 1))),
    FormulaSpec("123,231,321", "finite-list", "1,1,1 then 0",
                (1, 1, 1, 0, 0, 0), _finite((1, 1, 1))),
    FormulaSpec("123,312,321", "finite-list", "1,1,2 then 0",
                (1, 1, 2, 0, 0, 0), _finite((1, 1, 2))),
    FormulaSpec("132,213,231", "closed-form", "1 for all n",
                (1, 1, 1, 1, 1, 1), lambda n: 1),
    FormulaSpec("132,213,312", "closed-form", "floor((n+1)/2)",
                (1, 1, 2, 2, 3, 3), lambda n: (n + 1) // 2),
    FormulaSpec("132,213,321", "closed-form", "n - 1 for n >= 2; 1 at n = 1",
                (1, 1, 2, 3, 4, 5), lambda n: 1 if n == 1 else n - 1),
    FormulaSpec("132,231,312", "closed-form", "1 for all n",
                (1, 1, 1, 1, 1, 1), lambda n: 1),
    FormulaSpec("132,231,321", "closed-form", "1 for all n",
                (1, 1, 1, 1, 1, 1), lambda n: 1),
    FormulaSpec("132,312,321", "closed-form", "n - 1 for n >= 2; 1 at n = 1",
                (1, 1, 2, 3, 4, 5), lambda n: 1 if n == 1 else n - 1),
    FormulaSpec("213,231,312", "closed-form", "floor((n+1)/2)",
                (1, 1, 2, 2, 3, 3), lambda n: (n + 1) // 2),
    FormulaSpec("213,231,321", "closed-form", "n - 1 for n >= 2; 1 at n = 1",
                (1, 1, 2, 3, 4, 5), lambda n: 1 if n == 1 else n - 1),
    FormulaSpec("213,312,321", "closed-form", "n for n >= 3; 1 at n <= 2",
                (1, 1, 3, 4, 5, 6), lambda n: 1 if n <= 2 else n),
    FormulaSpec("231,312,321", "recurrence", "a(n) = a(n-1) + a(n-2), a(1) = a(2) = 1",
                (1, 1, 2, 3, 5, 8), _fib),
]

REGISTRY: dict[str, FormulaSpec] = {spec.class_name: spec for spec in _SPECS}


def _double_factorial(k: int) -> int:
    out = 1
    for f in range(k, 1, -2):
        out *= f
    return out


def _odd_order(n: int) -> int:
    """The number of permutations of 1..n whose order is odd."""
    if n % 2 == 0:
        return _double_factorial(n - 1) ** 2
    return n * _double_factorial(n - 2) ** 2


#: The unrestricted class, outside the catalogue above: ballot permutations
#: are equinumerous with permutations of odd order (Bernardi, Duplantier,
#: Nadeau 2010).  Its prefix is that sequence, OEIS A000246, from n = 1.
UNRESTRICTED = FormulaSpec(
    "", "closed-form", "((n-1)!!)^2 for even n; n * ((n-2)!!)^2 for odd n",
    (1, 1, 3, 9, 45, 225, 1575, 11025, 99225, 893025),
    _odd_order,
)

#: Step rules usable once enough history exists: class -> (min history, step).
_RECURRENCES: dict[str, tuple[int, Callable[[Sequence[int]], int]]] = {
    "231,312,321": (2, lambda h: h[-1] + h[-2]),
    "312,321": (3, lambda h: 2 * h[-1]),
}

#: Superseded published expressions for the two corrected classes; each gives
#: the registered sequence shifted by one (value at n equals the true count
#: at n + 1).
_SHIFTED_RULES: dict[str, Callable[[int], int]] = {
    "132": lambda n: catalan((n + 1) // 2) * catalan((n + 2) // 2),
    "213,312": lambda n: sum(comb(n, k) for k in range(n // 2 + 1)),
}


def get_spec(patterns: PatternSet) -> FormulaSpec | None:
    """The registered rule for a class, or None when it has none."""
    name = format_pattern_set(canonical_pattern_set(patterns))
    return UNRESTRICTED if name == UNRESTRICTED.class_name else REGISTRY.get(name)


def formula_count(patterns: PatternSet, n: int) -> int | None:
    """Exact count at length ``n``, or None when no rule is registered."""
    if n < 1:
        raise InvalidInputError("formula_count is defined for n >= 1")
    spec = get_spec(patterns)
    if spec is None or spec.evaluator is None:
        return None
    return spec.evaluator(n)


def formula_sequence(patterns: PatternSet, n_max: int) -> SequenceRecord | None:
    """Counts for n = 1..n_max by registered rule, or None without one."""
    if n_max < 1:
        raise InvalidInputError("n_max must be at least 1")
    pset = canonical_pattern_set(patterns)
    spec = get_spec(pset)
    if spec is None or spec.evaluator is None:
        return None
    return SequenceRecord(
        patterns=pset,
        counts=tuple(spec.evaluator(n) for n in range(1, n_max + 1)),
        provenance="formula",
    )


def reference_prefix(patterns: PatternSet) -> SequenceRecord | None:
    """The published sequence prefix for a class, or None when uncatalogued."""
    pset = canonical_pattern_set(patterns)
    spec = get_spec(pset)
    if spec is None:
        return None
    return SequenceRecord(patterns=pset, counts=spec.prefix, provenance="paper-table")


def recurrence_step(patterns: PatternSet, history: Sequence[int]) -> int:
    """The next term after ``history`` (counts from n = 1) by registered recurrence."""
    name = format_pattern_set(canonical_pattern_set(patterns))
    if name not in _RECURRENCES:
        raise UnsupportedClassError(f"no recurrence registered for {{{name}}}")
    min_history, step = _RECURRENCES[name]
    if len(history) < min_history:
        raise InvalidInputError(
            f"recurrence for {{{name}}} needs at least {min_history} terms of history"
        )
    return step(tuple(history))


def shifted_rule(patterns: PatternSet, n: int) -> int:
    """Evaluate the superseded off-by-one reading for a corrected class."""
    name = format_pattern_set(canonical_pattern_set(patterns))
    if name not in _SHIFTED_RULES:
        raise UnsupportedClassError(f"{{{name}}} has no recorded superseded rule")
    if n < 1:
        raise InvalidInputError("shifted_rule is defined for n >= 1")
    return _SHIFTED_RULES[name](n)
