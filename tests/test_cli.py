import dataclasses
import json

import pytest

from ballotkit import formulas, verification
from ballotkit.cli import FORMULA_MAX_N, main, parse_json_output
from ballotkit.enumeration import Caps
from ballotkit.errors import InvalidInputError


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


def test_biject_non_membership_names_witness(capsys):
    code, out, err = run(capsys, "biject", "--map", "dyck", "--perm", "132")
    assert code == 1
    assert out == ""
    assert "contains 132 at positions (1, 2, 3)" in err


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


def test_out_of_range_sizes_and_caps_exit_2(capsys, monkeypatch):
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
    for value, message in (("abc", "integer"), ("0", "at least 1")):
        monkeypatch.setenv("BALLOTKIT_PRUNED_MAX_N", value)
        code, out, err = run_exit(capsys, "enumerate", "--patterns", "321", "--n", "3")
        assert (code, out) == (2, "")
        assert "BALLOTKIT_PRUNED_MAX_N" in err and message in err
    monkeypatch.delenv("BALLOTKIT_PRUNED_MAX_N")
    monkeypatch.setenv("BALLOTKIT_ORACLE_MAX_N", "0")
    code, out, err = run_exit(capsys, "verify", "--suite", "tables", "--n-max", "4")
    assert (code, out) == (2, "")
    assert "BALLOTKIT_ORACLE_MAX_N" in err
    # both caps are resolved up front, so a malformed unused one is an error too
    monkeypatch.setenv("BALLOTKIT_ORACLE_MAX_N", "abc")
    code, out, err = run_exit(capsys, "enumerate", "--patterns", "321", "--n", "3",
                              "--method", "pruned")
    assert (code, out) == (2, "")
    assert "BALLOTKIT_ORACLE_MAX_N" in err and "integer" in err


def test_enumerate_past_the_row_bound_exits_2(capsys):
    # ballot avoiders of length 11: 9,823,275 rows, more than a listing may hold
    code, out, err = run_exit(capsys, "enumerate", "--n", "11")
    assert (code, out) == (2, "")
    assert "9,823,275 rows" in err


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
