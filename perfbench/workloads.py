"""The benchmark's workloads: fixed lists of ``ballotkit`` commands.

Inputs are fixed, so a run's seed only shuffles the order of each round's
commands.  Every command uses the defaults: no cap or thread flags, and the
benchmark removes BALLOTKIT_* variables from the environment.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One ``ballotkit`` invocation of a workload and what its output must be."""

    kind: str                 # count | enumerate | verify
    patterns: str = ""
    n: int = 0                # length for enumerate, n_max for count and verify
    ballot: bool = True
    fmt: str = ""             # enumerate: "" (plain) or "json"
    method_both: bool = False

    def argv(self) -> list[str]:
        if self.kind == "verify":
            return ["verify", "--suite", "all", "--n-max", str(self.n)]
        args = [self.kind]
        if self.patterns:
            args += ["--patterns", self.patterns]
        args += ["--n" if self.kind == "enumerate" else "--n-max", str(self.n)]
        if not self.ballot:
            args.append("--no-ballot")
        if self.method_both:
            args += ["--method", "both"]
        if self.fmt:
            args += ["--format", self.fmt]
        return args


WORKLOADS = {
    # Counting only: the work is in the pruned counting kernel.  Ballot
    # classes use --method both; --no-ballot runs use the default method,
    # since both compares plain counts with the ballot rules.
    "count": [
        Command("count", "321", 11, method_both=True),
        Command("count", "213", 11, method_both=True),
        Command("count", "231,321", 16, method_both=True),
        Command("count", "231,312,321", 16, method_both=True),
        Command("count", "", 9, method_both=True),
        Command("count", "321", 10, ballot=False),
        Command("count", "132,213", 13, ballot=False),
        Command("count", "132,321", 16, ballot=False),
    ],
    # Listing only: pruned listing, rows to tuples and output formatting.
    # The n >= 10 runs take the thread-partition path.
    "enumerate": [
        Command("enumerate", "", 9),
        Command("enumerate", "", 9, fmt="json"),
        Command("enumerate", "132", 11, fmt="json"),
        Command("enumerate", "231", 10, ballot=False),
    ],
    # Cross-checks: exhaustive oracle filtering, bijections and rules.
    "verify": [
        Command("verify", n=8),
    ],
}

#: A command that imports the package and parses its arguments but does no work.
SETUP = Command("count", n=1)
