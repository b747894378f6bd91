"""Counting rules for every catalogued avoidance class, in exact integers.

Each of the 41 length-3 classes (6 singles, 15 pairs, 20 triples) carries a
registered rule: a closed form, a recurrence, or a finite list padded with
zeros for the classes whose counts terminate.  Two classes ({213} and {312})
have no usable rule and are recorded with their reference prefix only.

Each rule is stated once, with its kind, its text, its evaluator and, for a
recurrence, its step, and classes with equal counts share one rule: 39
classes share 21 rules, and a test pins that two classes have equal counts
exactly when they share a rule.  A finite list's text is derived from its
values.  Every class also stores its published reference prefix verbatim,
so counts can be diffed against the literature without network access.  The
unrestricted class (no pattern) is outside that catalogue; its rule, the
odd-order formula, is kept apart as ``UNRESTRICTED``.

A class's ``FormulaSpec`` holds every fact about it: its rule, recurrence
step included (``recurrence_step`` iterates it), its prefix and the
superseded reading of a corrected rule.  Two registered rules deliberately
differ from a published expression that is off by one in n; those classes
carry ``corrected=True`` and the superseded reading stays available through
``shifted_rule`` so the discrepancy itself is testable.  Both corrections
are pinned by exhaustive enumeration.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Callable, NamedTuple, Sequence

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
    recurrence: tuple[int, Callable[[Sequence[int]], int]] | None = None  # (history, step)
    superseded: Callable[[int], int] | None = None  # the published reading, one step ahead in n


class _Rule(NamedTuple):
    """One counting rule, stated once for every class that it counts."""

    text: str
    evaluator: Callable[[int], int] | None
    kind: str = "closed-form"
    recurrence: tuple[int, Callable[[Sequence[int]], int]] | None = None


def _finite(*values: int) -> _Rule:
    """The rule of counts that are ``values`` from n = 1 and 0 after them."""

    def rule(n: int) -> int:
        return values[n - 1] if n <= len(values) else 0

    return _Rule(",".join(map(str, values)) + " then 0", rule, "finite-list")


def _fib(n: int) -> int:
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def _spec(name: str, prefix: tuple[int, ...], rule: _Rule, *, corrected: bool = False,
          superseded: Callable[[int], int] | None = None) -> FormulaSpec:
    return FormulaSpec(name, rule.kind, rule.text, prefix, rule.evaluator, corrected,
                       rule.recurrence, superseded)


# The rules that several classes share; a rule of one class is stated in its row.
_NO_RULE = _Rule("no closed form registered", None, "reference-prefix-only")
_CATALAN_PRODUCT = _Rule("catalan(floor(n/2)) * catalan(ceil(n/2))",
                         lambda n: catalan(n // 2) * catalan((n + 1) // 2))
_ONE = _Rule("1 for all n", lambda n: 1)
_MIDDLE_BINOMIAL = _Rule("C(n-1, floor((n-1)/2))", lambda n: comb(n - 1, (n - 1) // 2))
_THREE_ONES = _finite(1, 1, 1)
_ONE_ONE_TWO = _finite(1, 1, 2)
_HALF_UP = _Rule("floor((n+1)/2)", lambda n: (n + 1) // 2)
_N_MINUS_ONE = _Rule("n - 1 for n >= 2; 1 at n = 1", lambda n: 1 if n == 1 else n - 1)

_SPECS = [
    _spec("123", (1, 1, 2, 2, 5, 5, 14, 14),
          _Rule("catalan(ceil(n/2))", lambda n: catalan((n + 1) // 2))),
    _spec("132", (1, 1, 2, 4, 10, 25, 70), _CATALAN_PRODUCT, corrected=True,
          superseded=lambda n: catalan((n + 1) // 2) * catalan((n + 2) // 2)),
    _spec("213", (1, 1, 3, 6, 21, 52, 193), _NO_RULE),
    _spec("231", (1, 1, 2, 4, 10, 25, 70), _CATALAN_PRODUCT),
    _spec("312", (1, 1, 3, 6, 21, 52, 193), _NO_RULE),
    _spec("321", (1, 1, 3, 9, 28, 90, 297),
          _Rule("3/(n+1) * C(2n-2, n-2) for n >= 2; 1 at n = 1",
                lambda n: 1 if n == 1 else 3 * comb(2 * n - 2, n - 2) // (n + 1))),

    _spec("123,132", (1, 1, 1, 1, 1, 1, 1), _ONE),
    _spec("123,213", (1, 1, 2, 1, 2, 1, 2),
          _Rule("2 for odd n >= 3; 1 otherwise", lambda n: 2 if n >= 3 and n % 2 == 1 else 1)),
    _spec("123,231", (1, 1, 1, 0, 0, 0, 0), _THREE_ONES),
    _spec("123,312", (1, 1, 2, 0, 0, 0, 0), _ONE_ONE_TWO),
    _spec("123,321", (1, 1, 2, 2, 0, 0, 0), _finite(1, 1, 2, 2)),
    _spec("132,213", (1, 1, 2, 3, 6, 10, 20), _MIDDLE_BINOMIAL),
    _spec("132,231", (1, 1, 1, 1, 1, 1, 1), _ONE),
    _spec("132,312", (1, 1, 2, 3, 6, 10, 20), _MIDDLE_BINOMIAL),
    _spec("132,321", (1, 1, 2, 4, 7, 11, 16),
          _Rule("C(n-1, 2) + 1", lambda n: comb(n - 1, 2) + 1)),
    _spec("213,231", (1, 1, 2, 3, 6, 10, 20), _MIDDLE_BINOMIAL),
    _spec("213,312", (1, 1, 3, 4, 11, 16, 42),
          _Rule("sum of C(n-1, k) for k = 0..floor((n-1)/2)",
                lambda n: sum(comb(n - 1, k) for k in range((n - 1) // 2 + 1))),
          corrected=True, superseded=lambda n: sum(comb(n, k) for k in range(n // 2 + 1))),
    _spec("213,321", (1, 1, 3, 6, 10, 15, 21),
          _Rule("C(n, 2) for n >= 2; 1 at n = 1", lambda n: 1 if n == 1 else comb(n, 2))),
    _spec("231,312", (1, 1, 2, 3, 6, 10, 20), _MIDDLE_BINOMIAL),
    _spec("231,321", (1, 1, 2, 4, 8, 16, 32),
          _Rule("2^(n-2) for n >= 2; 1 at n = 1", lambda n: 1 if n == 1 else 2 ** (n - 2))),
    _spec("312,321", (1, 1, 3, 6, 12, 24, 48),
          _Rule("3 * 2^(n-3) for n >= 3; 1 at n <= 2", lambda n: 1 if n <= 2 else 3 * 2 ** (n - 3),
                recurrence=(3, lambda h: 2 * h[-1]))),

    _spec("123,132,213", (1, 1, 1, 1, 1, 1), _ONE),
    _spec("123,132,231", (1, 1, 0, 0, 0, 0), _finite(1, 1)),
    _spec("123,132,312", (1, 1, 1, 0, 0, 0), _THREE_ONES),
    # The published row for this class stops a term early: 3412 is a ballot
    # avoider of all three patterns, so the counts are 1,1,1,1 then 0.  The
    # registered rule follows the enumeration; the prefix stays as printed.
    _spec("123,132,321", (1, 1, 1, 0, 0, 0), _finite(1, 1, 1, 1), corrected=True),
    _spec("123,213,231", (1, 1, 1, 0, 0, 0), _THREE_ONES),
    _spec("123,213,312", (1, 1, 2, 0, 0, 0), _ONE_ONE_TWO),
    _spec("123,213,321", (1, 1, 2, 1, 0, 0), _finite(1, 1, 2, 1)),
    _spec("123,231,312", (1, 1, 1, 0, 0, 0), _THREE_ONES),
    _spec("123,231,321", (1, 1, 1, 0, 0, 0), _THREE_ONES),
    _spec("123,312,321", (1, 1, 2, 0, 0, 0), _ONE_ONE_TWO),
    _spec("132,213,231", (1, 1, 1, 1, 1, 1), _ONE),
    _spec("132,213,312", (1, 1, 2, 2, 3, 3), _HALF_UP),
    _spec("132,213,321", (1, 1, 2, 3, 4, 5), _N_MINUS_ONE),
    _spec("132,231,312", (1, 1, 1, 1, 1, 1), _ONE),
    _spec("132,231,321", (1, 1, 1, 1, 1, 1), _ONE),
    _spec("132,312,321", (1, 1, 2, 3, 4, 5), _N_MINUS_ONE),
    _spec("213,231,312", (1, 1, 2, 2, 3, 3), _HALF_UP),
    _spec("213,231,321", (1, 1, 2, 3, 4, 5), _N_MINUS_ONE),
    _spec("213,312,321", (1, 1, 3, 4, 5, 6),
          _Rule("n for n >= 3; 1 at n <= 2", lambda n: 1 if n <= 2 else n)),
    _spec("231,312,321", (1, 1, 2, 3, 5, 8),
          _Rule("a(n) = a(n-1) + a(n-2), a(1) = a(2) = 1", _fib, "recurrence",
                (2, lambda h: h[-1] + h[-2]))),
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
UNRESTRICTED = _spec(
    "", (1, 1, 3, 9, 45, 225, 1575, 11025, 99225, 893025),
    _Rule("((n-1)!!)^2 for even n; n * ((n-2)!!)^2 for odd n", _odd_order),
)


def get_spec(patterns: PatternSet) -> FormulaSpec | None:
    """The registered rule for a class, or None when it has none."""
    name = format_pattern_set(patterns)
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
    """The next term after ``history`` (counts from n = 1) by registered recurrence.

    >>> recurrence_step(((2, 3, 1), (3, 1, 2), (3, 2, 1)), (1, 1, 2))
    3
    """
    spec = get_spec(patterns)
    if spec is None or spec.recurrence is None:
        raise UnsupportedClassError(
            f"no recurrence registered for {{{format_pattern_set(patterns)}}}")
    min_history, step = spec.recurrence
    if len(history) < min_history:
        raise InvalidInputError(
            f"recurrence for {{{spec.class_name}}} needs at least {min_history} terms of history"
        )
    return step(tuple(history))


def shifted_rule(patterns: PatternSet, n: int) -> int:
    """Evaluate the superseded off-by-one reading for a corrected class.

    >>> shifted_rule(((1, 3, 2),), 5) == formula_count(((1, 3, 2),), 6)
    True
    """
    spec = get_spec(patterns)
    if spec is None or spec.superseded is None:
        raise UnsupportedClassError(
            f"{{{format_pattern_set(patterns)}}} has no recorded superseded rule")
    if n < 1:
        raise InvalidInputError("shifted_rule is defined for n >= 1")
    return spec.superseded(n)
