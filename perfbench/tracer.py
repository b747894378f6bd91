"""In-process traced run: seconds and counts for each ballotkit layer.

The program carries no tracing code.  ``Tracer.install`` replaces the public
functions of each module, wherever a ballotkit module holds a reference to
them, with wrappers defined here, and ``uninstall`` puts the originals back.
Calls are aggregated in memory into a call tree (one node per call path,
with calls, seconds and self seconds) that is written out at the end.

A layer's self time is its calls' duration minus the part covered by traced
calls they make on the same thread.  Kernel calls that ``_partition_firsts``
runs on worker threads hang below its node and are not subtracted from it:
they overlap each other, so their summed span can exceed the wall time the
partition covers, and the gap between the two is time spent waiting on the
interpreter lock.
"""
from __future__ import annotations

import dataclasses
import inspect
import io
import statistics
import sys
import threading
import time
import traceback
from collections import Counter
from math import factorial

import ballotkit._kernels as kernels
from ballotkit import bijections, cli, enumeration, formulas, perms, verification

PARTITION = "enumeration.partition.wall_s"

#: Per-layer metrics and their units, in the order they are reported.
UNITS = {
    "kernels.pruned_count.s": "s",
    "kernels.pruned_count.calls": "count",
    "kernels.pruned_fill.s": "s",
    "kernels.pruned_fill.rows": "count",
    "kernels.oracle_fill.s": "s",
    "kernels.oracle_fill.candidates": "count",
    "kernels.oracle_fill.rows": "count",
    "kernels.oracle_fill.yield": "ratio",
    "kernels.out_bytes": "B",
    "enumeration.rows_to_tuples.s": "s",
    "enumeration.self.s": "s",
    "enumeration.partition.span_sum_s": "s",
    "enumeration.partition.wall_s": "s",
    "formulas.s": "s",
    "formulas.terms": "count",
    "bijections.s": "s",
    "bijections.calls": "count",
    "verification.self.s": "s",
    "verification.rows": "count",
    "cli.output.s": "s",
    "cli.output_bytes": "B",
    "perms.format_perm.calls": "count",
    "unattributed.s": "s",
    "trace.overhead_s": "s",
}


class Node:
    """All calls of one layer reached along one call path."""

    __slots__ = ("layer", "worker", "calls", "seconds", "self_seconds", "children")

    def __init__(self, layer: str, worker: bool = False) -> None:
        self.layer = layer
        self.worker = worker
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.children: dict[tuple[str, bool], Node] = {}

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()

    def as_dict(self) -> dict:
        return {"layer": self.layer, "worker": self.worker, "calls": self.calls,
                "s": self.seconds, "self_s": self.self_seconds,
                "children": [c.as_dict() for c in self.children.values()]}


def _kernel_rows(counts: Counter, name: str, args: tuple, rows) -> None:
    counts[f"kernels.{name}.rows"] += len(rows)
    counts["kernels.out_bytes"] += rows.nbytes
    if name == "oracle_fill":
        n, first = args[0], args[3]
        counts["kernels.oracle_fill.candidates"] += factorial(n - 1 if first > 0 else n)


class Tracer:
    def __init__(self) -> None:
        self.root = Node("command")
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._partition: Node | None = None
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, on_return=None):
        """``fn`` timed as one call of ``layer``; ``on_return(args, result)``
        updates the counts."""

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                if stack:
                    parent = stack[-1][0]
                    worker = parent.worker
                else:
                    parent = self._partition or self.root
                    worker = self._partition is not None
                key = (layer, worker)
                node = parent.children.get(key)
                if node is None:
                    node = parent.children[key] = Node(layer, worker)
            frame = [node, 0.0]  # node, seconds of traced calls made below it
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += seconds
                with self._lock:
                    node.calls += 1
                    node.seconds += seconds
                    node.self_seconds += seconds - frame[1]
            if on_return is not None:
                with self._lock:
                    on_return(args, result)
            return result

        return traced

    def _partitioned(self, fn):
        """``fn`` with its node made the parent of calls on worker threads."""

        def partition(*args, **kwargs):
            self._partition = self._local.stack[-1][0]
            try:
                return fn(*args, **kwargs)
            finally:
                self._partition = None

        return partition

    def install(self) -> None:
        counts = self.counts

        def count(key):
            return lambda args, result: counts.update((key,))

        def kernel_rows(name):
            return lambda args, rows: _kernel_rows(counts, name, args, rows)

        layers = {
            kernels.pruned_count: ("kernels.pruned_count.s", count("kernels.pruned_count.calls")),
            kernels.pruned_fill: ("kernels.pruned_fill.s", kernel_rows("pruned_fill")),
            kernels.oracle_fill: ("kernels.oracle_fill.s", kernel_rows("oracle_fill")),
            enumeration._rows_to_perms: ("enumeration.rows_to_tuples.s", None),
        }
        for module, layer, on_return in (
            (enumeration, "enumeration.self.s", None),
            (formulas, "formulas.s", None),
            (bijections, "bijections.s", count("bijections.calls")),
            (verification, "verification.self.s", None),
        ):
            for fn in _public_functions(module):
                layers[fn] = (layer, on_return)
        layers[verification.run_suite] = (
            "verification.self.s",
            lambda args, report: counts.update({"verification.rows": len(report["rows"])}))
        layers[perms.format_perm] = ("cli.output.s", count("perms.format_perm.calls"))
        layers[cli._emit_json] = ("cli.output.s", None)
        layers[cli.main] = ("unattributed.s", None)

        traced = {id(fn): self.wrap(layer, fn, on_return)
                  for fn, (layer, on_return) in layers.items()}
        partition = enumeration._partition_firsts
        traced[id(partition)] = self.wrap(PARTITION, self._partitioned(partition))
        for module in [m for name, m in sys.modules.items() if name.startswith("ballotkit")]:
            for name, value in list(vars(module).items()):
                if id(value) in traced:
                    self._patch(module, name, traced[id(value)])
        for name, spec in list(formulas.REGISTRY.items()):
            if spec.evaluator is not None:
                rule = self.wrap("formulas.s", spec.evaluator, count("formulas.terms"))
                self._patch(formulas.REGISTRY, name, dataclasses.replace(spec, evaluator=rule))
        self._patch(_Capture, "write", self.wrap("cli.output.s", io.StringIO.write))

    def _patch(self, target, key: str, value) -> None:
        if isinstance(target, dict):
            self._patched.append((target, key, target[key]))
            target[key] = value
        else:
            self._patched.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, value in reversed(self._patched):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._patched.clear()

    def metrics(self) -> dict[str, float]:
        """Per-layer seconds and counts of everything traced so far."""
        out = {name: 0.0 for name in UNITS if name != "trace.overhead_s"}
        out.update(self.counts)
        for node in self.root.walk():
            if node.layer == PARTITION:
                out[PARTITION] += node.seconds
            elif node is not self.root:
                out[node.layer] += node.self_seconds
            if node.worker:
                out["enumeration.partition.span_sum_s"] += node.seconds
        candidates = out["kernels.oracle_fill.candidates"]
        out["kernels.oracle_fill.yield"] = (
            out["kernels.oracle_fill.rows"] / candidates if candidates else 0.0)
        return out


def _public_functions(module) -> list:
    return [fn for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__]


class _Capture(io.StringIO):
    """Stands in for sys.stdout; ``write`` may be replaced by a traced wrapper."""


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    stdout, stderr = _Capture(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = stdout, stderr
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash counts as a failed command; keep running
        code = -1
        stderr.write(traceback.format_exc())
    finally:
        sys.stdout, sys.stderr = saved
    return code, stdout.getvalue(), stderr.getvalue()


def _round(commands, tracer: Tracer | None, record) -> float:
    """Run each command once in this process, traced if ``tracer`` is given;
    check the outputs and return the commands' wall seconds."""
    outputs = []
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        for cmd in commands:
            outputs.append(_call_cli(cmd.argv()))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    for cmd, (code, stdout, stderr) in zip(commands, outputs):
        if tracer is not None:
            tracer.counts["cli.output_bytes"] += len(stdout.encode())
        record(cmd, code, stdout, stderr)
    return wall


def run(commands, seconds: float, rng, record) -> dict:
    """Run pairs of an untraced and a traced round of ``commands`` while
    another pair fits in ``seconds`` (at least one); report medians over the
    traced rounds, and the tracing overhead as the median over pairs of
    traced minus untraced wall time."""
    pairs = []
    per_round = []
    trees = []
    order = list(commands)
    started = time.perf_counter()
    last = 0.0
    while not pairs or time.perf_counter() - started + last <= seconds:
        pair_started = time.perf_counter()
        rng.shuffle(order)
        untraced = _round(order, None, record)
        tracer = Tracer()
        pairs.append((untraced, _round(order, tracer, record)))
        per_round.append(tracer.metrics())
        trees.append(tracer.root.as_dict())
        last = time.perf_counter() - pair_started
    metrics = {name: (statistics.median(r[name] for r in per_round), UNITS[name])
               for name in per_round[0]}
    metrics["trace.overhead_s"] = (statistics.median(t - u for u, t in pairs), "s")
    return {"metrics": metrics, "pairs_wall_s": pairs, "call_trees": trees}
