"""Output checks for the benchmark, built without importing ballotkit.

Every expected value comes from a computation made here with numpy or from a
published fact:

- ``BruteForce``: one pass over all permutations of length n <= 8 records
  each permutation's set of contained length-3 patterns and whether it is
  ballot, which gives every class's count at once.
- ``generated_counts``: avoiders built level by level, appending one value
  rank at a time and discarding rows that lose the ballot property or gain
  a forbidden triple.  Both properties are inherited by prefixes, so no
  member is lost.  This reaches the n > 8 sizes the workloads use.
- Closed forms: ballot permutations are equinumerous with odd-order
  permutations (Bernardi, Duplantier, Nadeau 2010), giving ((n-1)!!)^2 for
  even n and n((n-2)!!)^2 for odd n; plain avoiders of one length-3 pattern
  are counted by Catalan(n), and of two by Simion and Schmidt (1985).

A wrong output raises ``WrongOutput`` whose message starts with the name of
the property that failed, so the self-test can tell which check fired.
"""
from __future__ import annotations

import json
from itertools import combinations, permutations
from math import comb

import numpy as np

from workloads import Command

#: Length-3 patterns in lexicographic order; bit i of a class mask is PATTERNS[i].
PATTERNS = ("123", "132", "213", "231", "312", "321")

#: Every class of one to three length-3 patterns, named as ballotkit names them.
ALL_CLASSES = [",".join(c) for size in (1, 2, 3) for c in combinations(PATTERNS, size)]

BRUTE_MAX_N = 8

# (a < b) * 4 + (a < c) * 2 + (b < c) -> bit of the pattern formed by the
# values a, b, c read left to right; codes 2 and 5 cannot occur.
_BIT_OF_CODE = np.array([1 << 5, 1 << 4, 0, 1 << 2, 1 << 3, 0, 1 << 1, 1 << 0], dtype=np.uint8)


class WrongOutput(Exception):
    """A command's output broke a checked property."""


def class_mask(patterns: str) -> int:
    mask = 0
    for name in filter(None, patterns.split(",")):
        mask |= 1 << PATTERNS.index(name)
    return mask


def _code(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (a < b).astype(np.uint8) * 4 + (a < c) * 2 + (b < c)


def contained_bits(rows: np.ndarray) -> np.ndarray:
    """Per row, the bitmask of length-3 patterns it contains."""
    found = np.zeros(len(rows), dtype=np.uint8)
    for i, j, k in combinations(range(rows.shape[1]), 3):
        found |= _BIT_OF_CODE[_code(rows[:, i], rows[:, j], rows[:, k])]
    return found


def ballot_rows(rows: np.ndarray) -> np.ndarray:
    """Per row, whether every prefix has at least as many ascents as descents."""
    if rows.shape[1] < 2:
        return np.ones(len(rows), dtype=bool)
    steps = np.where(rows[:, 1:] > rows[:, :-1], 1, -1)
    return (np.cumsum(steps, axis=1) >= 0).all(axis=1)


class BruteForce:
    """Counts of every class at n <= BRUTE_MAX_N from all n! permutations."""

    def __init__(self) -> None:
        self._tables = {}
        for n in range(1, BRUTE_MAX_N + 1):
            rows = np.array(list(permutations(range(1, n + 1))), dtype=np.int8)
            self._tables[n] = (contained_bits(rows), ballot_rows(rows))

    def count(self, mask: int, ballot: bool, n: int) -> int:
        found, is_ballot = self._tables[n]
        keep = (found & mask) == 0
        if ballot:
            keep &= is_ballot
        return int(np.count_nonzero(keep))


def generated_counts(mask: int, ballot: bool, n_max: int) -> list[int]:
    """Class counts for n = 1..n_max, growing standardized prefixes in numpy."""
    forbidden = (_BIT_OF_CODE & mask) != 0
    level = np.zeros((1, 0), dtype=np.int8)
    height = np.zeros(1, dtype=np.int16)  # ascents minus descents
    counts = []
    for n in range(1, n_max + 1):
        rows = np.repeat(level, n, axis=0)
        last = np.tile(np.arange(1, n + 1, dtype=np.int8), len(level))
        rows += rows >= last[:, None]
        h = np.repeat(height, n)
        keep = np.ones(len(rows), dtype=bool)
        if n > 1:
            h = h + np.where(rows[:, -1] < last, 1, -1).astype(np.int16)
            if ballot:
                keep &= h >= 0
        if mask:
            for i, j in combinations(range(n - 1), 2):
                keep &= ~forbidden[_code(rows[:, i], rows[:, j], last)]
        level = np.concatenate([rows, last[:, None]], axis=1)[keep]
        height = h[keep]
        counts.append(len(level))
    return counts


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def closed_form(mask: int, ballot: bool, n: int) -> int | None:
    """The published count of a class at length n, where one is known."""
    size = bin(mask).count("1")
    if ballot:
        if size:
            return None
        if n % 2 == 0:
            return _double_factorial(n - 1) ** 2
        return n * _double_factorial(n - 2) ** 2
    if size == 1:
        return comb(2 * n, n) // (n + 1)
    if size != 2:
        return None
    pair = {PATTERNS[i] for i in range(6) if mask >> i & 1}
    if pair == {"123", "321"}:
        return (1, 2, 4, 4)[n - 1] if n <= 4 else 0
    if pair in ({"132", "321"}, {"123", "231"}, {"123", "312"}, {"213", "321"}):
        return comb(n, 2) + 1
    return 2 ** (n - 1)


class Expected:
    """Independent counts for the classes a workload uses."""

    def __init__(self) -> None:
        self.brute = BruteForce()
        self._generated: dict[tuple[int, bool], list[int]] = {}

    def counts(self, mask: int, ballot: bool, n_max: int) -> list[int]:
        """Counts for n = 1..n_max; every available source must agree."""
        key = (mask, ballot)
        if len(self._generated.get(key, ())) < n_max:
            self._generated[key] = generated_counts(mask, ballot, n_max)
        out = self._generated[key][:n_max]
        for n, value in enumerate(out, start=1):
            others = [closed_form(mask, ballot, n)]
            if n <= BRUTE_MAX_N:
                others.append(self.brute.count(mask, ballot, n))
            if any(o is not None and o != value for o in others):
                raise RuntimeError(f"independent sources disagree on mask {mask} at n={n}")
        return out

    def prepare(self, cmd: Command) -> None:
        """Compute the counts ``check`` will need for ``cmd`` ahead of time."""
        if cmd.kind == "verify":
            for name in ALL_CLASSES:
                self.counts(class_mask(name), True, cmd.n)
        else:
            self.counts(class_mask(cmd.patterns), cmd.ballot, cmd.n)


def check(cmd: Command, code: int, stdout: str, expected: Expected) -> None:
    """Raise WrongOutput unless the command exited 0 with a correct output."""
    if code != 0:
        raise WrongOutput(f"exit: code {code}")
    if cmd.kind == "count":
        _check_count(cmd, stdout, expected)
    elif cmd.kind == "enumerate":
        _check_enumerate(cmd, stdout, expected)
    else:
        _check_verify(cmd, stdout, expected)


def _check_count(cmd: Command, stdout: str, expected: Expected) -> None:
    want = expected.counts(class_mask(cmd.patterns), cmd.ballot, cmd.n)
    got = [line.split() for line in stdout.splitlines()]
    if [g[0] for g in got] != [str(n) for n in range(1, cmd.n + 1)]:
        raise WrongOutput(f"format: expected lines for n = 1..{cmd.n}")
    for n, (_, value) in enumerate(got, start=1):
        if int(value) != want[n - 1]:
            raise WrongOutput(f"count: n={n} printed {value}, expected {want[n - 1]}")


def _check_enumerate(cmd: Command, stdout: str, expected: Expected) -> None:
    if cmd.fmt == "json":
        payload = json.loads(stdout)
        lines = payload["perms"]
        if (payload["n"], payload["ballot"], payload["count"]) != (cmd.n, cmd.ballot, len(lines)):
            raise WrongOutput("format: JSON n, ballot or count field is wrong")
    else:
        lines = stdout.splitlines()
    check_listing(lines, cmd.n, class_mask(cmd.patterns), cmd.ballot,
                  expected.counts(class_mask(cmd.patterns), cmd.ballot, cmd.n)[-1])


def check_listing(lines: list[str], n: int, mask: int, ballot: bool, count: int) -> None:
    """Every line a member of the class, in strictly increasing lex order."""
    try:
        rows = np.array([line.split(",") if "," in line else list(line) for line in lines],
                        dtype=np.int8).reshape(len(lines), n)
    except ValueError:
        raise WrongOutput(f"permutation: a line is not {n} integers") from None
    if len(rows) and not (np.sort(rows, axis=1) == np.arange(1, n + 1)).all():
        raise WrongOutput(f"permutation: a line is not a permutation of 1..{n}")
    if ballot and not ballot_rows(rows).all():
        bad = int(np.argmin(ballot_rows(rows)))
        raise WrongOutput(f"ballot: line {bad + 1} {lines[bad]!r} is not ballot")
    if mask and (contained_bits(rows) & mask).any():
        raise WrongOutput("avoidance: a line contains a forbidden pattern")
    differ = rows[1:] != rows[:-1]
    first = differ.argmax(axis=1)
    at = np.arange(len(first))
    if not (differ.any(axis=1) & (rows[1:][at, first] > rows[:-1][at, first])).all():
        raise WrongOutput("order: lines are not in strictly increasing lex order")
    if len(rows) != count:
        raise WrongOutput(f"count: {len(rows)} lines, expected {count}")


def _check_verify(cmd: Command, stdout: str, expected: Expected) -> None:
    report = json.loads(stdout)
    if report["pass"] is not True:
        raise WrongOutput("pass: the report does not pass")
    rows = report["rows"]
    if report["checked"] != len(rows):
        raise WrongOutput("format: checked differs from the number of rows")
    for row in rows:
        if row["status"] not in ("pass", "corrected"):
            raise WrongOutput(f"status: row {row.get('class') or row.get('check')} failed")
    exhaustive = {row["class"] for row in rows if row.get("oracle") is not None}
    if exhaustive != set(ALL_CLASSES):
        raise WrongOutput(f"format: rows with an oracle cover {len(exhaustive)} of 41 classes")
    for row in rows:
        if "class" not in row:
            continue
        want = expected.counts(class_mask(row["class"]), True, cmd.n)
        for source in ("pruned", "oracle", "formula"):
            if row.get(source) is not None and row[source] != want:
                raise WrongOutput(f"count: {source} counts of {{{row['class']}}} are wrong")


def mutations(cmd: Command, stdout: str) -> list[tuple[str, str]]:
    """Deliberately wrong versions of a correct output, each with the name of
    the check that must reject it."""
    if cmd.kind == "count":
        lines = stdout.splitlines()
        n, value = lines[-1].split()
        return [("count", "\n".join(lines[:-1] + [f"{n} {int(value) + 1}"]) + "\n")]
    if cmd.kind == "verify":
        report = json.loads(stdout)
        report["pass"] = False
        return [("pass", json.dumps(report))]

    def render(lines: list[str]) -> str:
        if cmd.fmt == "json":
            payload = json.loads(stdout)
            payload.update(perms=lines, count=len(lines))
            return json.dumps(payload)
        return "".join(line + "\n" for line in lines)

    lines = json.loads(stdout)["perms"] if cmd.fmt == "json" else stdout.splitlines()
    sep = "," if cmd.n > 9 else ""
    out = [("order", render(lines[:1] + lines))]
    if cmd.ballot:
        descending = sep.join(str(v) for v in range(cmd.n, 0, -1))
        out.append(("ballot", render(lines[:-1] + [descending])))
    return out


def self_test(cmd: Command, stdout: str, expected: Expected) -> list[str]:
    """Failures of the checks on deliberately wrong versions of ``stdout``:
    a mutation that is accepted, or rejected by the wrong check."""
    failures = []
    for name, wrong in mutations(cmd, stdout):
        try:
            check(cmd, 0, wrong, expected)
        except WrongOutput as exc:
            if not str(exc).startswith(name + ":"):
                failures.append(f"{name} mutation of {cmd.argv()} was caught as {exc}")
        else:
            failures.append(f"{name} mutation of {cmd.argv()} was accepted")
    return failures
