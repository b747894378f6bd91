#!/usr/bin/env python3
"""Benchmark of the ``ballotkit`` command line, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload count --seed 1 --seconds 35 --trace 0

A run repeats whole rounds of the workload's commands (``workloads.py``)
while another round fits in ``--seconds`` (at least one), and checks every
output against the computations in ``checks.py``.  With ``--trace 0`` each
command runs as a fresh process, as a user runs it, and the run reports
``wall_s``, ``setup_s`` and ``peak_rss_mb``.  With ``--trace 1`` the commands run in
this process under ``tracer.py``, and the run reports per-layer seconds and
counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment.  The full record of the run goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import SETUP, WORKLOADS

# checks.py and tracer.py import numpy.  An untraced run imports them only
# after its last command: a child's max RSS starts from the memory of the
# process that spawned it, which must stay below any command's own peak.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

SETUP_SPAWNS = 9
IMPORT_SPAWNS = 9

PROBE = """\
import importlib.util, json, platform
import numpy
import ballotkit, ballotkit._kernels as kernels
print(json.dumps({
    "backend": kernels.backend_name(),
    "python": platform.python_version(),
    "numpy": numpy.__version__,
    "numba_present": importlib.util.find_spec("numba") is not None,
    "ballotkit_file": ballotkit.__file__,
}))
"""
IMPORT_TIMER = """\
import time
t0 = time.perf_counter()
import ballotkit.cli
print(time.perf_counter() - t0)
"""


class Spawned:
    """One finished child process: its wall seconds, max RSS, exit code and
    output, kept in unnamed files until the run checks it."""

    def __init__(self, args: list[str]) -> None:
        env = {k: v for k, v in os.environ.items() if not k.startswith("BALLOTKIT_")}
        env["PYTHONPATH"] = str(SRC)
        self._out = tempfile.TemporaryFile(dir=OUT)
        self._err = tempfile.TemporaryFile(dir=OUT)
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=self._out, stderr=self._err,
                                env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        self.seconds = time.perf_counter() - t0
        self.rss_mb = usage.ru_maxrss / 1024
        self.code = proc.returncode = os.waitstatus_to_exitcode(status)

    def read(self) -> tuple[str, str]:
        """Stdout and stderr; closes the files."""
        with self._out, self._err:
            self._out.seek(0)
            self._err.seek(0)
            return self._out.read().decode(), self._err.read().decode()


def _cli(cmd) -> list[str]:
    return ["-m", "ballotkit.cli", *cmd.argv()]


def probe_environment() -> dict:
    child = Spawned(["-c", PROBE])
    stdout, stderr = child.read()
    if child.code != 0:
        raise SystemExit(f"perfbench: cannot import ballotkit from {SRC}:\n{stderr}")
    env = json.loads(stdout)
    if not Path(env["ballotkit_file"]).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: ballotkit was imported from {env['ballotkit_file']}")
    env["nproc"] = len(os.sched_getaffinity(0))
    return env


def _own_peak_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


class Tally:
    """Attempted and failed operations of one run, and the checks' self-test."""

    def __init__(self, commands) -> None:
        import checks

        self.checks = checks
        self.expected = checks.Expected()
        for cmd in [SETUP, *commands]:
            self.expected.prepare(cmd)
        self.attempted = 0
        self.failed = 0
        self.self_test_failures: list[str] = []
        self._tested: set = set()

    def record(self, cmd, code: int, stdout: str, stderr: str) -> None:
        """Check one command's output; the first correct output of each
        command is also mutated, and each mutation must be rejected."""
        self.attempted += 1
        try:
            self.checks.check(cmd, code, stdout, self.expected)
        except (self.checks.WrongOutput, ValueError, KeyError, TypeError, IndexError) as exc:
            self.failed += 1
            sys.stderr.write(f"perfbench: ballotkit {' '.join(cmd.argv())}: {exc}\n{stderr}")
            return
        if cmd not in self._tested:
            self._tested.add(cmd)
            self.self_test_failures += self.checks.self_test(cmd, stdout, self.expected)


def run_untraced(commands, seconds: float, rng: random.Random) -> tuple[Tally, dict]:
    setup = [Spawned(_cli(SETUP)) for _ in range(SETUP_SPAWNS)]
    rounds = []
    order = list(commands)
    started = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        rng.shuffle(order)
        rounds.append([(cmd, Spawned(_cli(cmd))) for cmd in order])
        last = time.perf_counter() - t0
    own_peak = _own_peak_mb()

    tally = Tally(commands)
    for cmd, child in [(SETUP, s) for s in setup] + [pair for r in rounds for pair in r]:
        tally.record(cmd, child.code, *child.read())
    smallest = min(child.rss_mb for child in setup)
    if own_peak >= smallest:
        raise SystemExit(f"perfbench: this process peaked at {own_peak:.1f} MB, above a "
                         f"command's {smallest:.1f} MB, so max RSS cannot be measured")
    metrics = {
        "wall_s": (statistics.median(sum(c.seconds for _, c in r) for r in rounds), "s"),
        "setup_s": (statistics.median(c.seconds for c in setup), "s"),
        "peak_rss_mb": (statistics.median(max(c.rss_mb for _, c in r) for r in rounds), "MB"),
    }
    detail = {
        "setup_s": [c.seconds for c in setup],
        "rounds": [[[cmd.argv(), c.seconds, c.rss_mb] for cmd, c in r] for r in rounds],
        "own_peak_mb": own_peak,
    }
    return tally, {"metrics": metrics, **detail}


def run_traced(commands, seconds: float, rng: random.Random) -> tuple[Tally, dict]:
    imports = []
    for _ in range(IMPORT_SPAWNS):
        child = Spawned(["-c", IMPORT_TIMER])
        stdout, stderr = child.read()
        if child.code != 0:
            raise SystemExit(f"perfbench: import failed:\n{stderr}")
        imports.append(float(stdout))
    for key in [k for k in os.environ if k.startswith("BALLOTKIT_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import tracer  # imports ballotkit from ./src

    tally = Tally(commands)
    detail = tracer.run(commands, seconds, rng, tally.record)
    detail["metrics"]["import.s"] = (statistics.median(imports), "s")
    detail["import_s"] = imports
    return tally, detail


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ballotkit" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no ballotkit source at {SRC}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    env = probe_environment()
    run = run_traced if args.trace else run_untraced
    tally, detail = run(WORKLOADS[args.workload], args.seconds, random.Random(args.seed))
    for failure in tally.self_test_failures:
        sys.stderr.write(f"perfbench: self-test: {failure}\n")

    result = {
        "correct": not tally.self_test_failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in detail.pop("metrics").items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "result": result, **detail}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
