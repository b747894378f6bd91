"""Command-line surface: enumerate, count, formula, biject, verify.

Results go to stdout; progress and error messages go to stderr.  Exit codes
are stable: 0 success, 1 verification or membership mismatch, 2 usage or
parse error.  The two length caps are set by flags alone, ``--oracle-max-n``
and ``--pruned-max-n``, whose defaults are those of ``enumeration.Caps``;
the library applies them.

Each command imports only the modules it runs: ``formulas``,
``verification`` and ``bijections`` are imported inside the handlers and
branches that use them, so ``enumerate`` and ``count`` by the counter or the
oracle compile none of them.  numpy comes last: it loads with ``_kernels``,
which ``enumeration`` and ``_slices`` import at the first kernel call.  So a
command parses its arguments and compiles every module it runs before numpy
loads, and ``formula``, ``biject`` and ``count --method formula`` never load
it.

``enumerate`` decodes, formats and writes its sorted listing in slices of
about ``LISTING_SLICE_BYTES`` each, plain and JSON alike, so that a listing
never holds its whole text, one string per row, a whole JSON document or
all of its rows.  The JSON
is written as its head up to ``"perms": [``, each slice's quoted lines, and
its tail, byte for byte what ``json.dumps(payload, sort_keys=True)`` gives.
Every other JSON document (``count``, ``formula``, ``verify``) is encoded by
``_emit_json`` straight to stdout, never held whole as one string, to the
same bytes.  Counts print at any length: Python's 4,300-digit limit on
turning an int into text is lifted while counts are written, and stays for
reading integers from the command line.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .enumeration import (
    Caps,
    SequenceRecord,
    count_sequence,
    enumerate_listing,
)
from .errors import (
    BallotkitError,
    CapExceededError,
    InvalidInputError,
)
from .patterns import format_pattern_set, parse_pattern_set
from .perms import check_step_word, format_perm, format_rows, parse_perm
from .reports import SCHEMA_VERSION, SUITES

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2

#: The longest length the counting rules are evaluated at.  Every registered
#: rule stays under Python's 4,300-digit limit for printing an int there.
FORMULA_MAX_N = 1000
#: The longest ``biject`` input: entries of ``--perm``, letters of ``--word``.
#: The membership check is cubic in the length (0.25 s for the identity here).
BIJECT_MAX_LEN = 300
#: Bytes of character cells ``perms.format_rows`` spells per slice of a
#: listing, so that a slice's text and temporaries stay this small.
LISTING_SLICE_BYTES = 64 * 1024


class _UsageError(Exception):
    """Bad command-line input (as opposed to a semantic mismatch)."""


def _parsed(parse, text: str):
    """``parse(text)``, reporting invalid input as a usage error."""
    try:
        return parse(text)
    except InvalidInputError as exc:
        raise _UsageError(str(exc)) from None


def _int_from(low: int):
    """argparse type: an integer of at least ``low``, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _biject_input(flag: str, parse, text: str):
    """``parse(text)`` for a ``biject`` flag, within ``BIJECT_MAX_LEN``."""
    value = _parsed(parse, text)
    if len(value) > BIJECT_MAX_LEN:
        raise _UsageError(f"{flag} has length {len(value)}, more than the limit of "
                          f"{BIJECT_MAX_LEN}")
    return value


def _check_formula_n(n: int) -> None:
    if n > FORMULA_MAX_N:
        raise CapExceededError(f"formula evaluation at n={n} exceeds the limit of "
                               f"{FORMULA_MAX_N}")


@contextlib.contextmanager
def _any_length_ints():
    """Let ints of any length be printed within the block: counts outgrow
    Python's 4,300-digit limit, which stays for ``int()`` on the input."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _emit_json(payload: dict) -> None:
    """Write ``payload`` with its schema marker to stdout as one line of
    JSON, encoded straight to the stream rather than to one string."""
    payload.setdefault("schema", SCHEMA_VERSION)
    with _any_length_ints():
        json.dump(payload, sys.stdout, sort_keys=True)
    sys.stdout.write("\n")


def parse_json_output(text: str) -> dict:
    """Parse a command's JSON output, checking the schema marker."""
    payload = json.loads(text)
    if payload.get("schema") != SCHEMA_VERSION:
        raise InvalidInputError(f"unsupported schema: {payload.get('schema')!r}")
    return payload


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    for method, cap in vars(Caps()).items():
        sub.add_argument(f"--{method}-max-n", type=_int_from(1), default=cap,
                         help=f"refuse {method} enumeration and counting above this length "
                              "(default %(default)s)")


def _slices(listing, n):
    """The rows of a length-n ``listing`` in consecutive slices of at least
    one row, each decoded in turn and spelled by ``format_rows`` in at most
    ``LISTING_SLICE_BYTES`` of cells."""
    from . import _kernels

    step = max(1, LISTING_SLICE_BYTES // max(1, n * (len(str(n)) + 1)))
    return (_kernels.listing_rows(listing, n, start, start + step)
            for start in range(0, len(listing), step))


def _cmd_enumerate(args: argparse.Namespace) -> int:
    pset = _parsed(parse_pattern_set, args.patterns)
    ballot = not args.no_ballot
    listing = enumerate_listing(args.n, pset, ballot=ballot, method=args.method,
                                caps=Caps(args.oracle_max_n, args.pruned_max_n))
    if args.format == "plain":
        for part in _slices(listing, args.n):
            sys.stdout.write(format_rows(part))
        return EXIT_OK
    # "perms" holds the only list of the document, so its "[]" splits it
    head, _, tail = json.dumps({
        "command": "enumerate",
        "class": format_pattern_set(pset),
        "n": args.n,
        "ballot": ballot,
        "method": args.method,
        "count": len(listing),
        "perms": [],
        "schema": SCHEMA_VERSION,
    }, sort_keys=True).partition("[]")
    sys.stdout.write(head + "[")
    sep = ""
    for part in _slices(listing, args.n):
        # each line is digits and commas, so quoting it is all JSON asks
        text = format_rows(part)
        sys.stdout.write(sep + '"' + text[:-1].replace("\n", '", "') + '"')
        sep = ", "
    sys.stdout.write("]" + tail + "\n")
    return EXIT_OK


def _cmd_count(args: argparse.Namespace) -> int:
    caps = Caps(args.oracle_max_n, args.pruned_max_n)
    pset = _parsed(parse_pattern_set, args.patterns)
    name = format_pattern_set(pset)
    ballot = not args.no_ballot
    if args.method in ("formula", "both") and not ballot:
        raise _UsageError(f"--method {args.method} uses the rules and tables of ballot "
                          "avoiders; it cannot be combined with --no-ballot")
    if args.method == "formula":
        from . import formulas

        _check_formula_n(args.n_max)
        record = formulas.formula_sequence(pset, args.n_max)
        if record is None:
            raise _UsageError(f"no formula registered for {{{name}}}")
    elif args.method == "both":
        from . import formulas, verification

        if formulas.get_spec(pset) is None:
            raise _UsageError(f"--method both has nothing to compare: {{{name}}} has no "
                              "registered rule and no published prefix")
        row = verification.check_class(pset, args.n_max, with_oracle=False, caps=caps)
        pairs = ", ".join(row["disagreements"])
        if row["status"] == "fail":
            sys.stderr.write(f"count mismatch for {{{name}}} at n={row['first_mismatch']}: "
                             f"{pairs}\n")
            return EXIT_MISMATCH
        if row["status"] == "corrected":
            sys.stderr.write(f"note: {{{name}}} differs from the published table ({pairs}); "
                             "the registered rule corrects it\n")
        record = SequenceRecord(pset, tuple(row["pruned"]), "pruned")
    else:
        record = count_sequence(pset, args.n_max, args.method, ballot=ballot, caps=caps)
    if args.format == "json":
        _emit_json({
            "command": "count",
            "class": name,
            "n_max": args.n_max,
            "ballot": ballot,
            "provenance": record.provenance,
            "counts": list(record.counts),
        })
    else:
        with _any_length_ints():
            if args.format == "plain":
                sys.stdout.write(",".join(str(c) for c in record.counts) + "\n")
            else:
                for i, c in enumerate(record.counts):
                    sys.stdout.write(f"{i + 1} {c}\n")
    return EXIT_OK


def _cmd_formula(args: argparse.Namespace) -> int:
    from . import formulas

    _check_formula_n(args.n)
    pset = _parsed(parse_pattern_set, args.patterns)
    spec = formulas.get_spec(pset)
    count = formulas.formula_count(pset, args.n)
    payload = {
        "command": "formula",
        "class": format_pattern_set(pset),
        "n": args.n,
        "count": count,
        "rule_kind": spec.kind if spec is not None else "none",
        "rule_text": spec.rule_text if spec is not None else "uncatalogued class",
        "corrected": spec.corrected if spec is not None else False,
    }
    if args.format == "plain":
        sys.stdout.write(("no formula" if count is None else str(count)) + "\n")
    else:
        _emit_json(payload)
    return EXIT_OK


def _cmd_biject(args: argparse.Namespace) -> int:
    if args.map == "transport":
        takes = ("--perm", "--from", "--to")
    elif args.map == "dyck" and args.inverse:
        takes = ("--inverse", "--word")
    else:
        takes = ("--inverse", "--perm")
    given = {"--inverse": args.inverse or None, "--perm": args.perm, "--word": args.word,
             "--from": args.source, "--to": args.target}
    usage = f"--map {args.map}" + (" --inverse" if args.inverse else "")
    extra = [flag for flag, value in given.items() if value is not None and flag not in takes]
    if extra:
        raise _UsageError(f"{usage} does not take {', '.join(extra)}")
    missing = [flag for flag in takes if given[flag] is None and flag != "--inverse"]
    if missing:
        raise _UsageError(f"{usage} needs {', '.join(missing)}")
    from . import bijections

    # each map of one input: its forward and its inverse function
    maps = {
        "dyck": (bijections.to_dyck_prefix, bijections.from_dyck_prefix),
        "insert-132-321": (bijections.insert_132_321, bijections.remove_132_321),
        "prepend-231-321": (bijections.prepend_231_321, bijections.behead_231_321),
    }
    if args.map == "transport":
        image = bijections.wilf_transport(
            _biject_input("--perm", parse_perm, args.perm),
            _parsed(parse_pattern_set, args.source),
            _parsed(parse_pattern_set, args.target),
        )
    elif args.word is not None:
        image = maps[args.map][1](_biject_input("--word", check_step_word, args.word))
    else:
        p = _biject_input("--perm", parse_perm, args.perm)
        image = maps[args.map][args.inverse](p)
    sys.stdout.write((image if isinstance(image, str) else format_perm(image)) + "\n")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verification

    report = verification.run_suite(args.suite, args.n_max,
                                     Caps(args.oracle_max_n, args.pruned_max_n))
    _emit_json(report)
    corrected = sum(1 for row in report["rows"] if row["status"] == "corrected")
    note = f" ({corrected} corrected row{'s' if corrected != 1 else ''})" if corrected else ""
    if report["pass"]:
        sys.stderr.write(f"verify: {report['checked']} rows checked, all pass{note}\n")
        return EXIT_OK
    sys.stderr.write(f"verify: FAIL at {verification.first_failure(report)}\n")
    return EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballotkit",
        description="Enumerate, count, and map pattern-avoiding ballot permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list every avoider of one length")
    p.add_argument("--patterns", default="", help='avoidance class, e.g. "132,213"')
    p.add_argument("--n", type=_int_from(0), required=True)
    p.add_argument("--no-ballot", action="store_true",
                   help="drop the ballot restriction (plain avoiders)")
    p.add_argument("--method", choices=("oracle", "pruned"), default="pruned")
    p.add_argument("--format", choices=("plain", "json"), default="plain")
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("count", help="count avoiders for n = 1..n_max")
    p.add_argument("--patterns", default="")
    p.add_argument("--n-max", type=_int_from(1), required=True)
    p.add_argument("--no-ballot", action="store_true")
    p.add_argument("--method", choices=("oracle", "pruned", "formula", "both"),
                   default="pruned")
    p.add_argument("--format", choices=("bfile", "plain", "json"), default="bfile")
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_count)

    p = sub.add_parser("formula", help="evaluate the registered counting rule")
    p.add_argument("--patterns", required=True)
    p.add_argument("--n", type=_int_from(1), required=True)
    p.add_argument("--format", choices=("json", "plain"), default="json")
    p.set_defaults(fn=_cmd_formula)

    p = sub.add_parser("biject", help="apply a constructive map")
    p.add_argument("--map", required=True,
                   choices=("dyck", "transport", "insert-132-321", "prepend-231-321"))
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--perm", default=None)
    p.add_argument("--word", default=None)
    p.add_argument("--from", dest="source", default=None)
    p.add_argument("--to", dest="target", default=None)
    p.set_defaults(fn=_cmd_biject)

    p = sub.add_parser("verify", help="run the cross-check suites")
    p.add_argument("--suite", choices=(*SUITES, "all"), default="all")
    p.add_argument("--n-max", type=_int_from(1), default=7)
    _add_common_flags(p)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (_UsageError, BallotkitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, InvalidInputError):
            return EXIT_MISMATCH
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
