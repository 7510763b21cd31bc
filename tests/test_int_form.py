"""Snapshot duals and certificates stay ints on the command paths.

`solve --verify --snapshots`, `verify --run` and `reduce --auxiliary` work
on the int form of `DualState` and `CardinalityCertificate`: the Fraction
views are for library callers and stay unbuilt. The writer renders each
(value, scale) pair once per call, however many snapshots repeat it.
"""

import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from matchcert import certificates, jsonio, reductions
from matchcert.cli import main
from matchcert.graph import Instance, format_instance

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

VIEWS = {"singleton_pi", "blossoms", "gamma", "y", "z"}


def unbuilt(obj) -> bool:
    """No Fraction view of `obj` has been built."""
    return not VIEWS & vars(obj).keys()


@pytest.mark.parametrize("graph", [
    pytest.param(lambda: (64, corpus.sparse_edges(random.Random(64), n=64)),
                 id="sparse-n-64"),
    pytest.param(lambda: corpus.ladder_edges(random.Random(0)), id="ladder-depth-40"),
])
def test_commands_build_no_views_and_render_each_value_once(graph, tmp_path,
                                                            monkeypatch, capsys):
    path = tmp_path / "graph.dimacs"
    path.write_text(format_instance(Instance.from_edges(*graph())))
    run_path = tmp_path / "run.json"

    runs, completions, renders = [], [], []
    verify_run = certificates.verify_run
    monkeypatch.setattr(certificates, "verify_run",
                        lambda inst, run: runs.append(run) or verify_run(inst, run))
    complete = reductions.build_auxiliary_completion
    monkeypatch.setattr(reductions, "build_auxiliary_completion",
                        lambda inst, snap: completions.append(complete(inst, snap))
                        or completions[-1])
    text = jsonio._rational_text
    monkeypatch.setattr(jsonio, "_rational_text",
                        lambda units, scale: renders[-1].update([(units, scale)])
                        or text(units, scale))

    def call(*argv):
        renders.append(Counter())
        assert main([*argv]) == 0
        capsys.readouterr()

    call("solve", str(path), "--verify", "--snapshots", str(run_path))
    k = runs[0].final.cardinality
    call("verify", str(path), "--run", str(run_path))
    call("reduce", str(path), "--auxiliary", f"{run_path}:{k // 2}")

    assert len(runs) == 2 and len(completions) == 1
    for run in runs:
        assert len(run.snapshots) == k + 1
        for snap in run.snapshots:
            assert unbuilt(snap.dual_state)
            assert "certificate" in vars(snap) and unbuilt(snap.certificate)
    assert unbuilt(completions[0].lifted_duals)
    solve_renders, _, reduce_renders = renders
    assert solve_renders and reduce_renders
    assert all(count == 1 for counts in renders for count in counts.values())
