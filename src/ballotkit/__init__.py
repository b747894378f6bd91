"""Pattern-avoiding ballot permutations: enumeration, counting rules, bijections.

The package is organized as:

- :mod:`ballotkit.perms` — permutation algebra and textual formats;
- :mod:`ballotkit.patterns` — containment testing and class names;
- :mod:`ballotkit.enumeration` — the policy layer: it checks n and the
  pattern set, applies the length caps, and lists or counts through one
  kernel call;
- :mod:`ballotkit._kernels` — the kernels behind it: the brute-force oracle
  (vectorized with numpy, with a per-length census that counts every class
  at once), the pruned enumerator, which lists a class level by level, and
  the transfer-state counter; the last two share one rule for the values
  each entry blocks;
- :mod:`ballotkit.formulas` — registered counting rules and reference
  sequence prefixes;
- :mod:`ballotkit.bijections` — descent-word reconstructions, insertion
  maps, and recursive generators;
- :mod:`ballotkit.verification` — the cross-check suites and their reports;
- :mod:`ballotkit.reports` — the schema marker and suite names they share;
- :mod:`ballotkit.cli` — the ``ballotkit`` command.

Importing the package loads none of them.  Each name below, and each module
that holds one, is imported on first access (a module ``__getattr__``, PEP
562), so a command compiles and runs only the modules it uses.
"""
import importlib

__version__ = "0.1.0"

#: The package's names, by the module that defines them.
_EXPORTS = {
    "_kernels": ("backend_name",),
    "bijections": (
        "DESCENT_WORD_FAMILIES",
        "UNIQUE_MEMBER_CLASSES",
        "WilfFamily",
        "behead_231_321",
        "excluded_element_213_321",
        "from_dyck_prefix",
        "generate_312_321",
        "generate_fib",
        "insert_132_321",
        "perm_from_word",
        "prepend_231_321",
        "remove_132_321",
        "to_dyck_prefix",
        "unique_members",
        "wilf_transport",
    ),
    "enumeration": (
        "SequenceRecord",
        "count_pruned",
        "count_sequence",
        "enumerate_oracle",
        "enumerate_pruned",
        "enumerate_rows",
    ),
    "errors": (
        "BallotkitError",
        "CapExceededError",
        "InvalidInputError",
        "UnrealizableWordError",
        "UnsupportedClassError",
    ),
    "formulas": (
        "FormulaSpec",
        "catalan",
        "formula_count",
        "formula_sequence",
        "get_spec",
        "recurrence_step",
        "reference_prefix",
        "shifted_rule",
    ),
    "patterns": (
        "ALL_CLASSES",
        "LENGTH3_PATTERNS",
        "PAIR_CLASSES",
        "SINGLE_CLASSES",
        "TRIPLE_CLASSES",
        "avoids_all",
        "canonical_pattern_set",
        "contains",
        "find_occurrence",
        "format_pattern_set",
        "parse_pattern_set",
    ),
    "perms": (
        "Perm",
        "ascent_set",
        "descent_set",
        "descent_word",
        "direct_sum",
        "format_perm",
        "format_rows",
        "identity",
        "is_ballot",
        "is_ballot_word",
        "parse_perm",
        "reverse",
        "skew_sum",
        "standardize",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOMES)


def __getattr__(name):
    if name in _EXPORTS:  # binds the module here too
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES})
