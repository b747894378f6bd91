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
- :mod:`ballotkit.cli` — the ``ballotkit`` command.
"""
from ._kernels import backend_name
from .bijections import (
    DESCENT_WORD_FAMILIES,
    UNIQUE_MEMBER_CLASSES,
    WilfFamily,
    behead_231_321,
    excluded_element_213_321,
    from_dyck_prefix,
    generate_312_321,
    generate_fib,
    insert_132_321,
    perm_from_word,
    prepend_231_321,
    remove_132_321,
    to_dyck_prefix,
    unique_members,
    wilf_transport,
)
from .enumeration import (
    SequenceRecord,
    count_pruned,
    count_sequence,
    enumerate_oracle,
    enumerate_pruned,
    enumerate_rows,
)
from .errors import (
    BallotkitError,
    CapExceededError,
    InvalidInputError,
    UnrealizableWordError,
    UnsupportedClassError,
)
from .formulas import (
    FormulaSpec,
    catalan,
    formula_count,
    formula_sequence,
    get_spec,
    recurrence_step,
    reference_prefix,
    shifted_rule,
)
from .patterns import (
    ALL_CLASSES,
    LENGTH3_PATTERNS,
    PAIR_CLASSES,
    SINGLE_CLASSES,
    TRIPLE_CLASSES,
    avoids_all,
    canonical_pattern_set,
    contains,
    find_occurrence,
    format_pattern_set,
    parse_pattern_set,
)
from .perms import (
    Perm,
    ascent_set,
    descent_set,
    descent_word,
    direct_sum,
    format_perm,
    format_rows,
    identity,
    is_ballot,
    is_ballot_word,
    parse_perm,
    reverse,
    skew_sum,
    standardize,
)

__version__ = "0.1.0"
