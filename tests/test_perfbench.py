"""The per-layer benchmark (``perfbench/run.py --trace 1``) wraps kernel and
enumeration functions by name; these tests fail when one it reads is gone."""
import pathlib
import random

from ballotkit import _kernels

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_reads_every_layer_on_small_commands(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    from workloads import Command

    commands = [Command("count", "321", 5), Command("enumerate", "", 5), Command("verify", n=3)]
    runs = []
    detail = tracer.run(commands, 0, random.Random(0),
                        lambda cmd, code, out, err: runs.append((" ".join(cmd.argv()), code)))
    # one pair: an untraced and a traced round of every command
    assert len(detail["pairs_wall_s"]) == 1 and len(runs) == 6
    assert {code for _, code in runs} == {0}, runs
    assert {argv for argv, _ in runs} == {"count --patterns 321 --n-max 5", "enumerate --n 5",
                                          "verify --suite all --n-max 3"}
    metrics = detail["metrics"]
    for name in ("kernels.pruned_fill.rows", "kernels.oracle_fill.candidates",
                 "enumeration.partition.wall_s"):
        assert metrics[name][0] > 0, name
    assert _kernels.backend_name() == "python"
