import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import ballotkit
from ballotkit import _kernels, bijections, cli, formulas, verification
from ballotkit.cli import BIJECT_MAX_LEN, FORMULA_MAX_N, main, parse_json_output
from ballotkit.enumeration import Caps, enumerate_rows
from ballotkit.errors import InvalidInputError
from ballotkit.patterns import format_pattern_set, parse_pattern_set
from ballotkit.perms import format_rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_plain(capsys):
    code, out, _ = run(capsys, "enumerate", "--patterns", "132,213", "--n", "4")
    assert code == 0
    assert out.splitlines() == ["1234", "2341", "3412"]


def test_enumerate_empty_class_is_success(capsys):
    code, out, _ = run(capsys, "enumerate", "--patterns", "123,231", "--n", "5")
    assert code == 0
    assert out == ""


def test_enumerate_single(capsys):
    code, out, _ = run(capsys, "enumerate", "--patterns", "321", "--n", "1")
    assert code == 0
    assert out == "1\n"


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run(capsys, "enumerate", "--patterns", "213,132", "--n", "4",
                       "--format", "json")
    assert code == 0
    payload = parse_json_output(out)
    assert payload["class"] == "132,213"
    assert payload["perms"] == ["1234", "2341", "3412"]
    assert payload["count"] == 3


def test_enumerate_no_ballot_and_method(capsys):
    code_a, out_a, _ = run(capsys, "enumerate", "--patterns", "132,321", "--n", "5",
                           "--no-ballot", "--method", "oracle")
    code_b, out_b, _ = run(capsys, "enumerate", "--patterns", "132,321", "--n", "5",
                           "--no-ballot", "--method", "pruned")
    assert code_a == code_b == 0
    assert out_a == out_b
    assert len(out_a.splitlines()) == 11


# (patterns, n, ballot, method): one empty row, an empty class, the ballot
# listing of the benchmark, a comma-format listing and an oracle listing
_LISTINGS = [("", 0, True, "pruned"), ("123,231", 5, True, "pruned"),
             ("", 9, True, "pruned"), ("231", 10, False, "pruned"),
             ("132", 8, True, "oracle")]


def test_sliced_listing_is_byte_identical(capsys, monkeypatch):
    sizes = []

    def counted(part):
        sizes.append(len(part))
        return format_rows(part)

    monkeypatch.setattr(cli, "format_rows", counted)
    default = cli.LISTING_SLICE_BYTES
    uneven = False
    for patterns, n, ballot, method in _LISTINGS:
        pset = parse_pattern_set(patterns)
        rows = enumerate_rows(n, pset, ballot=ballot, method=method)
        # what the writer printed before it wrote in slices: the whole text,
        # and for JSON one document holding one string per row
        text = format_rows(rows)
        document = json.dumps({
            "command": "enumerate", "class": format_pattern_set(pset), "n": n,
            "ballot": ballot, "method": method, "count": len(rows),
            "perms": text.split("\n")[:-1], "schema": cli.SCHEMA_VERSION,
        }, sort_keys=True) + "\n"
        argv = ["enumerate", "--patterns", patterns, "--n", str(n), "--method", method]
        argv += [] if ballot else ["--no-ballot"]
        for budget in (1, 1000, default):  # one row a slice; 55 rows a slice at n = 9
            monkeypatch.setattr(cli, "LISTING_SLICE_BYTES", budget)
            for fmt, expected in (("plain", text), ("json", document)):
                sizes.clear()
                assert run(capsys, *argv, "--format", fmt) == (0, expected, ""), (argv, budget)
                assert sum(sizes) == len(rows)
                assert budget > 1 or set(sizes) <= {1}
                uneven |= len(set(sizes)) > 1
    assert uneven  # some listing ended in a shorter slice


def test_enumerate_output_holds_no_more_than_a_slice():
    # tracemalloc sees numpy's buffers: writing the JSON listing must add no
    # more than a slice's text and temporaries to the kernel's own peak
    class Sink:
        def write(self, text):
            return len(text)

    saved = sys.stdout
    tracemalloc.start()
    try:
        _kernels.pruned_fill(9, 0, True)
        kernel_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sys.stdout = Sink()
        assert main(["enumerate", "--n", "9", "--format", "json"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        sys.stdout = saved
        tracemalloc.stop()
    assert peak < kernel_peak + 2**20, f"{peak / 2**20:.2f} MB, kernel {kernel_peak / 2**20:.2f} MB"


_LISTING_PEAK = """
import os, sys
from ballotkit.cli import main
sys.stdout = open(os.devnull, "w")
assert main(["enumerate", "--n", "10", "--no-ballot"]) == 0
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")),
          file=sys.stderr)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
def test_largest_listing_resident_memory_is_bounded():
    # the 3,628,800 plain permutations of length 10 are listed as packed
    # keys (27.7 MB) and decoded a slice at a time; a fresh interpreter reads
    # its own high-water mark of resident memory (75 MB on 2 cores with
    # Python 3.11 and numpy 2.4, 151 MB when the kernel sorted rows)
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ballotkit.__file__))}
    err = subprocess.run([sys.executable, "-c", _LISTING_PEAK], env=env, check=True,
                         capture_output=True, text=True).stderr
    assert int(err) < 90 * 1024, f"{int(err) / 1024:.1f} MB"  # VmHWM is in kB


def test_count_bfile_golden(capsys):
    code, out, _ = run(capsys, "count", "--patterns", "213,312", "--n-max", "7")
    assert code == 0
    assert out == "1 1\n2 1\n3 3\n4 4\n5 11\n6 16\n7 42\n"


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "--patterns", "132,213,321", "--n-max", "6",
                       "--format", "plain")
    assert code == 0
    assert out == "1,1,2,3,4,5\n"


def test_count_trivial(capsys):
    code, out, _ = run(capsys, "count", "--patterns", "231", "--n-max", "1")
    assert code == 0
    assert out == "1 1\n"


def test_count_methods_agree(capsys):
    for method in ("oracle", "pruned", "formula", "both"):
        code, out, _ = run(capsys, "count", "--patterns", "312,321", "--n-max", "7",
                           "--method", method)
        assert code == 0
        assert out == "1 1\n2 1\n3 3\n4 6\n5 12\n6 24\n7 48\n"


def test_count_formula_unavailable(capsys):
    code, _, err = run(capsys, "count", "--patterns", "213", "--n-max", "5",
                       "--method", "formula")
    assert code == 2
    assert "no formula" in err
    assert err == "error: no formula registered for {213}\n"


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--patterns", "231,312,321", "--n-max", "10",
                       "--format", "json")
    assert code == 0
    payload = parse_json_output(out)
    assert payload["counts"] == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    assert payload["provenance"] == "pruned"


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "--patterns", "312,321", "--n", "6")
    assert code == 0
    payload = parse_json_output(out)
    assert payload["count"] == 24
    assert payload["rule_kind"] == "closed-form"
    assert payload["corrected"] is False
    code, out, _ = run(capsys, "formula", "--patterns", "213", "--n", "6")
    payload = parse_json_output(out)
    assert code == 0 and payload["count"] is None
    assert payload["rule_kind"] == "reference-prefix-only"


def test_formula_plain(capsys):
    assert run(capsys, "formula", "--patterns", "321", "--n", "6",
               "--format", "plain") == (0, "90\n", "")
    assert run(capsys, "formula", "--patterns", "213", "--n", "6",
               "--format", "plain") == (0, "no formula\n", "")


def test_biject_dyck_examples(capsys):
    code, out, _ = run(capsys, "biject", "--map", "dyck", "--perm", "456312")
    assert code == 0 and out == "UUDDU\n"
    code, out, _ = run(capsys, "biject", "--map", "dyck", "--inverse",
                       "--word", "UUDDU")
    assert code == 0 and out == "456312\n"


def test_biject_transport(capsys):
    code, out, _ = run(capsys, "biject", "--map", "transport",
                       "--from", "132,213", "--to", "231,312", "--perm", "12")
    assert code == 0 and out == "12\n"


def test_biject_transport_of_the_empty_permutation(capsys):
    code, out, _ = run(capsys, "biject", "--map", "transport",
                       "--from", "132,213", "--to", "231,312", "--perm", "")
    assert (code, out) == (0, "\n")


def test_biject_dyck_refuses_the_empty_permutation(capsys):
    code, out, err = run(capsys, "biject", "--map", "dyck", "--perm", "")
    assert (code, out) == (1, "")
    assert "empty permutation has no lattice word" in err


def test_biject_insertion_maps(capsys):
    code, out, _ = run(capsys, "biject", "--map", "insert-132-321", "--perm", "312")
    assert code == 0 and out == "3412\n"
    code, out, _ = run(capsys, "biject", "--map", "insert-132-321", "--inverse",
                       "--perm", "3412")
    assert code == 0 and out == "312\n"
    code, out, _ = run(capsys, "biject", "--map", "prepend-231-321", "--perm", "213")
    assert code == 0 and out == "1324\n"
    code, out, _ = run(capsys, "biject", "--map", "prepend-231-321", "--inverse",
                       "--perm", "1324")
    assert code == 0 and out == "213\n"


@pytest.mark.parametrize("argv", [
    ["--map", "transport", "--from", "132,213", "--to", "231,312", "--perm", "12", "--inverse"],
    ["--map", "transport", "--from", "132,213", "--to", "231,312", "--perm", "12",
     "--word", "U"],
    ["--map", "dyck", "--perm", "12", "--word", "U"],
    ["--map", "insert-132-321", "--perm", "312", "--word", "UD"],
    ["--map", "prepend-231-321", "--inverse", "--perm", "1324", "--word", "UD"],
    ["--map", "dyck", "--inverse", "--word", "U", "--perm", "12"],
    ["--map", "dyck", "--perm", "12", "--from", "132,213"],
    ["--map", "dyck", "--inverse", "--word", "U", "--to", "132,213"],
    ["--map", "insert-132-321", "--perm", "312", "--to", "132,321"],
    ["--map", "prepend-231-321", "--perm", "213", "--from", "231,321"],
], ids=["transport-inverse", "transport-word", "dyck-word", "insert-word",
        "prepend-inverse-word", "dyck-inverse-perm", "dyck-from", "dyck-inverse-to",
        "insert-to", "prepend-from"])
def test_biject_rejects_flags_the_map_does_not_take(capsys, argv):
    code, out, err = run(capsys, "biject", *argv)
    assert (code, out) == (2, "")
    assert "does not take" in err


def test_biject_non_membership_names_witness(capsys):
    code, out, err = run(capsys, "biject", "--map", "dyck", "--perm", "132")
    assert code == 1
    assert out == ""
    assert "contains 132 at positions (1, 2, 3)" in err


def test_biject_inputs_are_bounded(capsys):
    assert BIJECT_MAX_LEN == 300

    def identity(n):
        return ",".join(map(str, range(1, n + 1)))

    for n in (301, 300):
        code, out, err = run(capsys, "biject", "--map", "dyck", "--perm", identity(n))
        if n > BIJECT_MAX_LEN:
            assert (code, out) == (2, "") and "limit of 300" in err
        else:
            assert (code, out, err) == (0, "U" * (n - 1) + "\n", "")
        code, out, err = run(capsys, "biject", "--map", "dyck", "--inverse", "--word", "U" * n)
        if n > BIJECT_MAX_LEN:
            assert (code, out) == (2, "") and "limit of 300" in err
        else:
            assert (code, out, err) == (0, identity(n + 1) + "\n", "")


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "enumerate", "--patterns", "149", "--n", "4")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "biject", "--map", "dyck", "--perm", "10,2")
    assert code == 2
    code, _, err = run(capsys, "count", "--patterns", "321", "--n-max", "3",
                       "--method", "oracle", "--oracle-max-n", "2")
    assert code == 2 and "cap" in err


def run_exit(capsys, *argv):
    """Like ``run``, but an argparse rejection counts as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_out_of_range_sizes_and_caps_exit_2(capsys):
    for argv in (
        ["enumerate", "--n", "-1"],
        ["count", "--n-max", "0"],
        ["formula", "--patterns", "321", "--n", "0"],
        ["enumerate", "--patterns", "321", "--n", "3", "--pruned-max-n", "0"],
        ["verify", "--suite", "tables", "--n-max", "4", "--oracle-max-n", "0"],
    ):
        code, out, err = run_exit(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "at least" in err


def test_enumerate_past_the_row_bound_exits_2(capsys):
    # ballot avoiders of length 11: 9,823,275 rows, more than a listing may hold
    code, out, err = run_exit(capsys, "enumerate", "--n", "11")
    assert (code, out) == (2, "")
    assert "9,823,275 rows" in err


def test_missing_and_malformed_arguments_exit_2(capsys):
    code, out, err = run_exit(capsys, "biject", "--map", "dyck")
    assert (code, out) == (2, "") and "needs --perm" in err
    code, out, err = run_exit(capsys, "count", "--n-max", "x")
    assert (code, out) == (2, "") and "--n-max" in err


def test_verify_n_max_0_is_usage_error(capsys):
    code, out, _ = run_exit(capsys, "verify", "--n-max", "0")
    assert (code, out) == (2, "")
    with pytest.raises(InvalidInputError):
        verification.run_suite("tables", 0)


def test_count_past_state_bound_exits_2(capsys):
    code, out, err = run_exit(capsys, "count", "--patterns", "132", "--n-max", "21",
                              "--pruned-max-n", "21")
    assert (code, out) == (2, "")
    assert "{132}" in err and "states" in err


def test_count_formula_needs_ballot(capsys):
    code, out, err = run_exit(capsys, "count", "--patterns", "321", "--n-max", "4",
                              "--no-ballot", "--method", "formula", "--format", "json")
    assert (code, out) == (2, "")
    assert "--no-ballot" in err


def test_formula_lengths_are_bounded(capsys):
    # past the bound the values no longer print as decimals
    assert FORMULA_MAX_N == 1000
    for argv in (["formula", "--patterns", "", "--n"],
                 ["count", "--patterns", "", "--method", "formula", "--n-max"]):
        code, out, err = run_exit(capsys, *argv, "1001")
        assert (code, out) == (2, ""), argv
        assert "n=1001" in err and "Traceback" not in err
        code, out, err = run_exit(capsys, *argv, "1000")
        assert code == 0 and out and err == "", argv


def test_count_both_needs_ballot_and_something_to_compare(capsys):
    code, out, err = run_exit(capsys, "count", "--patterns", "321", "--n-max", "4",
                              "--no-ballot", "--method", "both")
    assert (code, out) == (2, "")
    assert "--no-ballot" in err
    code, out, err = run_exit(capsys, "count", "--patterns", "1234", "--n-max", "4",
                              "--method", "both")
    assert (code, out) == (2, "")
    assert "nothing to compare" in err
    # the unrestricted class is checked against the odd-order rule
    code, out, _ = run(capsys, "count", "--n-max", "9", "--method", "both")
    assert code == 0
    assert out.splitlines()[-1] == "9 99225"


def test_count_both_passes_corrected_row_and_fails_a_wrong_rule(capsys, monkeypatch):
    # the published row for {123,132,321} is a known misprint
    code, out, err = run(capsys, "count", "--patterns", "123,132,321", "--n-max", "6",
                         "--method", "both")
    assert code == 0
    assert out == "1 1\n2 1\n3 1\n4 1\n5 0\n6 0\n"
    assert "published table" in err
    spec = formulas.REGISTRY["321"]
    monkeypatch.setitem(formulas.REGISTRY, "321", dataclasses.replace(
        spec, evaluator=lambda n: spec.evaluator(n) + (n >= 5)))
    code, out, err = run(capsys, "count", "--patterns", "321", "--n-max", "6",
                         "--method", "both")
    assert (code, out) == (1, "")
    assert "{321} at n=5" in err and "formula/pruned" in err


def test_cap_flag_allows_large_oracle(capsys):
    code, out, _ = run(capsys, "count", "--patterns", "123,132", "--n-max", "11",
                       "--method", "oracle", "--oracle-max-n", "11")
    assert code == 0
    assert out.splitlines()[-1] == "11 1"


def test_verify_tables(capsys):
    code, out, err = run(capsys, "verify", "--suite", "tables", "--n-max", "6")
    assert code == 0
    payload = parse_json_output(out)
    assert payload["pass"] is True
    assert payload["checked"] == 41
    statuses = {row["class"]: row["status"] for row in payload["rows"]}
    assert statuses["123,132,321"] == "corrected"
    assert sum(1 for s in statuses.values() if s == "pass") == 40
    assert "all pass" in err


def test_verify_passes_caps_down():
    report = verification.run_suite("bijections", 4, Caps(oracle=3))
    details = {row["check"]: row.get("detail") for row in report["rows"]}
    assert report["pass"] is True
    assert details["excluded-213-321"] == "checked to n=3"


def test_verify_bijections(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bijections", "--n-max", "6")
    assert code == 0
    payload = parse_json_output(out)
    assert payload["pass"] is True


def test_verify_trivial_n1(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "tables", "--n-max", "1")
    assert code == 0
    payload = parse_json_output(out)
    assert payload["pass"] is True
    assert all(row["pruned"] == [1] for row in payload["rows"])


def test_excluded_row_checks_length_1(monkeypatch):
    # an oracle that loses the ballot avoider of length 1 leaves it excluded
    real = verification.enumerate_oracle
    monkeypatch.setattr(verification, "enumerate_oracle",
                        lambda n, pset, ballot=True, caps=Caps():
                        [] if ballot and n == 1 else real(n, pset, ballot=ballot, caps=caps))
    for caps in (Caps(), Caps(oracle=1)):
        rows = {r["check"]: r for r in verification.run_suite("bijections", 1, caps)["rows"]}
        assert rows["excluded-213-321"].get("failure") == "213,321 excluded element at n=1"


def test_recurrence_row_checks_its_seed_terms(monkeypatch):
    # a rule that disagrees with a seed term fails even where nothing is iterated
    for name, n in (("231,312,321", 2), ("312,321", 3)):
        spec = formulas.REGISTRY[name]
        monkeypatch.setitem(formulas.REGISTRY, name, dataclasses.replace(
            spec, evaluator=lambda m, spec=spec, n=n: spec.evaluator(m) + (m == n)))
        for n_max in (1, 2):
            rows = {r.get("check"): r for r in verification.run_suite("formulas", n_max)["rows"]}
            assert rows["recurrence-consistency"].get("failure") == f"{name} at n={n}"
        monkeypatch.undo()


def test_recurrence_row_catches_a_wrong_step(monkeypatch):
    # the row iterates every registered recurrence; each step here is off at n = 5
    for name in ("231,312,321", "312,321"):
        spec = formulas.REGISTRY[name]
        seed, step = spec.recurrence
        monkeypatch.setitem(formulas.REGISTRY, name, dataclasses.replace(
            spec, recurrence=(seed, lambda h, step=step: step(h) + (len(h) == 4))))
        rows = {r.get("check"): r for r in verification.run_suite("formulas", 8)["rows"]}
        assert rows["recurrence-consistency"].get("failure") == f"{name} at n=5"
        rows = {r.get("check"): r for r in verification.run_suite("formulas", 4)["rows"]}
        assert rows["recurrence-consistency"]["status"] == "pass"
        monkeypatch.undo()


def test_verify_fails_with_the_first_failing_class(capsys, monkeypatch):
    spec = formulas.REGISTRY["321"]
    monkeypatch.setitem(formulas.REGISTRY, "321", dataclasses.replace(
        spec, evaluator=lambda n: spec.evaluator(n) + (n == 4)))
    code, out, err = run(capsys, "verify", "--suite", "formulas", "--n-max", "6")
    assert code == 1
    assert parse_json_output(out)["pass"] is False
    assert err == "verify: FAIL at 321: formula/pruned, formula/table\n"


def test_verify_fails_with_the_first_failing_named_row(capsys, monkeypatch):
    members = bijections.DESCENT_WORD_FAMILIES[0].members
    build = members["231,312"]
    monkeypatch.setitem(members, "231,312", lambda w: build(w)[::-1])
    code, out, err = run(capsys, "verify", "--suite", "bijections", "--n-max", "6")
    assert code == 1
    assert parse_json_output(out)["pass"] is False
    assert err == "verify: FAIL at transport-132,213: 231,312 builder at n=2\n"


def test_verify_reports_a_library_error_as_the_row_s_failure(capsys, monkeypatch):
    # a map under check that raises a library error fails its own row; the
    # report is still written, and the other rows still run
    first, *others = bijections.DESCENT_WORD_FAMILIES
    monkeypatch.setattr(bijections, "DESCENT_WORD_FAMILIES",
                        (dataclasses.replace(first, admits=lambda w: "DD" not in w), *others))
    code, out, err = run(capsys, "verify", "--suite", "bijections", "--n-max", "6")
    assert code == 1
    payload = parse_json_output(out)
    failures = {row["check"]: row.get("failure") for row in payload["rows"]}
    assert payload["pass"] is False and len(failures) == 8
    assert {check for check, failure in failures.items() if failure} == {
        "dyck-roundtrip", "transport-132,213"}  # both build {132,213} members from words
    assert err == ("verify: FAIL at dyck-roundtrip: no member of {132,213} has descent "
                   "word 'UUDD'\n")


def test_verify_reports_a_class_row_s_library_error(capsys, monkeypatch):
    # a registered rule that raises fails its class's row alone; the report
    # is still written and the other classes still run
    def boom(n):
        raise InvalidInputError("boom")

    monkeypatch.setitem(formulas.REGISTRY, "321",
                        dataclasses.replace(formulas.REGISTRY["321"], evaluator=boom))
    code, out, err = run(capsys, "verify", "--suite", "formulas", "--n-max", "5")
    assert code == 1
    payload = parse_json_output(out)
    failed = [row for row in payload["rows"] if row["status"] == "fail"]
    assert payload["pass"] is False and len(payload["rows"]) > 2
    assert [(row.get("class"), row["failure"]) for row in failed] == [("321", "boom")]
    assert err == "verify: FAIL at 321: boom\n"


_BROKEN_CHECKS = """
import dataclasses, json
from ballotkit import bijections, formulas, verification
members = bijections.DESCENT_WORD_FAMILIES[0].members
build = members["231,312"]
members["231,312"] = lambda w: build(w)[::-1]
spec = formulas.REGISTRY["312,321"]
seed, step = spec.recurrence
formulas.REGISTRY["312,321"] = dataclasses.replace(
    spec, recurrence=(seed, lambda h: step(h) + (len(h) == 4)))
reports = [verification.run_suite(suite, 6) for suite in ("bijections", "formulas")]
print(json.dumps([[r["pass"], verification.first_failure(r)] for r in reports]))
"""


def test_verify_checks_under_python_optimize():
    # -O strips assert statements; the named checks must still decide, so
    # the child reports its verdicts on stdout rather than asserting them
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ballotkit.__file__))}
    out = subprocess.run([sys.executable, "-O", "-c", _BROKEN_CHECKS], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [
        [False, "transport-132,213: 231,312 builder at n=2"],
        [False, "recurrence-consistency: 312,321 at n=5"],
    ]


def test_suite_all_is_the_three_suites_in_turn():
    def rows(suite):
        report = verification.run_suite(suite, 6)
        return [{k: v for k, v in row.items() if k != "seconds"} for row in report["rows"]]

    assert rows("all") == rows("tables") + rows("formulas") + rows("bijections")


def test_unknown_suite_is_invalid_input():
    with pytest.raises(InvalidInputError, match="unknown suite: 'nonsense'"):
        verification.run_suite("nonsense", 6)


def test_json_outputs_carry_schema(capsys):
    for argv in (
        ["enumerate", "--patterns", "321", "--n", "3", "--format", "json"],
        ["count", "--patterns", "321", "--n-max", "3", "--format", "json"],
        ["formula", "--patterns", "321", "--n", "3"],
        ["verify", "--suite", "tables", "--n-max", "2"],
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["schema"] == 1


def test_bfile_output_is_byte_stable(capsys):
    runs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "count", "--patterns", "132", "--n-max", "8")
        runs.add(out)
    assert len(runs) == 1


def test_usage_error_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nonsense"])
    assert err.value.code == 2
