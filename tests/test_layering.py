"""The checker's trusted base: a certificate's record, formula and check
live in `certificates`, which imports no package module but `graph`, so
checking a stored run needs no solver code.

`import matchcert.certificates` in a fresh interpreter still loads the
engine, through the package's `__init__`; the layering is pinned on the
modules' own import statements instead, and at run time by a CLI whose
solver raises on every call."""

import ast
import json
import random
from pathlib import Path

import pytest

from matchcert import certificates, cli, engine
from matchcert.graph import format_instance
from util import random_instance

SRC = Path(certificates.__file__).parent


def package_imports(module: str) -> set[str]:
    """The package modules `module` imports outside `if TYPE_CHECKING:`."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    typing_only = {id(node) for block in ast.walk(tree)
                   if isinstance(block, ast.If)
                   and ast.unparse(block.test) in ("TYPE_CHECKING", "typing.TYPE_CHECKING")
                   for stmt in block.body for node in ast.walk(stmt)}
    found = set()
    for node in ast.walk(tree):
        if id(node) in typing_only:
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[2] or "__init__"
                         for alias in node.names if alias.name.split(".")[0] == "matchcert")
        elif isinstance(node, ast.ImportFrom):
            root, _, sub = (node.module or "").partition(".")
            if node.level and node.module:
                found.add(root)
            elif node.level or (root == "matchcert" and not sub):
                found.update(alias.name for alias in node.names)
            elif root == "matchcert":
                found.add(sub.split(".")[0])
    return found


@pytest.mark.parametrize("module, allowed", [("certificates", {"graph"}), ("graph", set())])
def test_the_checker_imports_no_solver_code(module, allowed):
    assert package_imports(module) == allowed


def test_the_certificate_names_are_defined_by_the_checker():
    # The benchmark imports the first four from `certificates`.
    for name in ("Verdict", "Violation", "check_cardinality_certificate", "transform_duals",
                 "CardinalityCertificate", "accumulated_pi"):
        assert getattr(certificates, name).__module__ == "matchcert.certificates"
    assert engine.transform_duals is certificates.transform_duals


def test_stored_runs_check_without_the_solver(tmp_path, capsys, monkeypatch):
    rng = random.Random(5)
    calls = []
    for i in range(20):
        inst_path, run_path = tmp_path / f"g{i}.txt", tmp_path / f"g{i}.json"
        inst_path.write_text(format_instance(random_instance(rng, max_nodes=10)))
        assert cli.main(["solve", str(inst_path), "--snapshots", str(run_path)]) == 0
        snapshots = len(json.loads(run_path.read_text())["snapshots"])
        calls.append(["verify", str(inst_path), "--run", str(run_path)])
        calls += [["reduce", str(inst_path), "--auxiliary", f"{run_path}:{k}"]
                  for k in range(snapshots)]
    capsys.readouterr()

    def outputs():
        results = []
        for argv in calls:
            code = cli.main(argv)
            results.append((code, capsys.readouterr().out))
        return results

    unpatched = outputs()

    def solver_called(*args, **kwargs):
        raise AssertionError("solver code ran")

    for owner, name in [(engine, "solve"), (cli, "solve"),
                        (engine.EngineState, "grow_forest"), (engine, "compute_alpha"),
                        (engine, "apply_dual_update"), (engine, "shrink_blossom")]:
        monkeypatch.setattr(owner, name, solver_called)
    assert outputs() == unpatched
    assert {code for code, _ in unpatched} == {0}
