"""The four workloads: one pass of operations each, how to check an
operation's output, and the traced replica of each operation.

An operation is what a user types: one or two `matchcert` command lines,
run in-process through `matchcert.cli.main`. Its traced replica performs
the same calls through the public module functions, wrapped in spans,
and must print byte-identical output.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from matchcert import cli, jsonio, oracle, reductions
from matchcert.certificates import verify_run
from matchcert.engine import solve
from matchcert.graph import format_instance, normalize_weights, parse_instance

import corpus
from tracing import Tracer, max_nesting, stepping_solve, traced_verify

# Instances per pass. Many instances keep the seed from moving the median;
# a traced run completes at least one pass, in which every instance also
# runs untraced and through the reference solve().
PASS_SIZE = {"sparse-certify": 40, "nested-ladder": 3, "audit-replay": 20,
             "small-batch": 84}

COUNTEREXAMPLE_AMOUNTS = "1,1,3"
# The counterexample's documented outcome: scripted amounts (1, 1, 3)
# diverge at k=4 with weight 4 where the optimum is 3.
COUNTEREXAMPLE_EXPECTED = (4, "4", "3")


@dataclass
class CliResult:
    code: int | None
    stdout: str
    seconds: float
    error: str | None = None


def call_cli(argv: list[str]) -> CliResult:
    """Run one command in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # any exception fails the operation
        return CliResult(None, out.getvalue(), time.perf_counter() - start,
                         f"{type(exc).__name__}: {exc}")
    return CliResult(code, out.getvalue(), time.perf_counter() - start)


@dataclass
class Outcome:
    """What checking one operation's output found."""

    reasons: list[str] = field(default_factory=list)
    final: tuple[int, Fraction] | None = None  # (cardinality, original weight)
    snapshots: int = 0  # snapshots whose certificate passed
    json_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.reasons


def _load(result: CliResult, outcome: Outcome, label: str):
    """The command's JSON output; every workload command should exit 0."""
    if result.error is not None:
        outcome.reasons.append(f"{label}: {result.error}")
        return None
    if result.code != 0:
        outcome.reasons.append(f"{label}: exit {result.code}, expected 0")
    try:
        return json.loads(result.stdout)
    except ValueError as exc:
        outcome.reasons.append(f"{label}: stdout is not JSON ({exc})")
        return None


def check_outcome(op, results: list[CliResult]) -> Outcome:
    """op.check(results), with an exception in the check as a failure."""
    try:
        return op.check(results)
    except Exception as exc:
        return Outcome(reasons=[f"checking the output raised "
                                f"{type(exc).__name__}: {exc}"])


def _bytes(text: str) -> int:
    return len(text.encode("utf-8"))


class SolveOp:
    """`solve <f> --verify` plus `--snapshots <out>` or `--oracle-check`."""

    def __init__(self, instance: corpus.GeneratedInstance, snapshots: Path | None,
                 oracle_check: bool, blossoms: int | None = None):
        self.instance = instance
        self.name = instance.name
        self.snapshots = snapshots
        self.oracle_check = oracle_check
        self.blossoms = blossoms  # required depth of the final snapshot's nest
        argv = ["solve", str(instance.path), "--verify"]
        if snapshots is not None:
            argv += ["--snapshots", str(snapshots)]
        if oracle_check:
            argv.append("--oracle-check")
        self.argvs = [argv]

    def check(self, results: list[CliResult]) -> Outcome:
        outcome = Outcome()
        (result,) = results
        payload = _load(result, outcome, "solve")
        if payload is None:
            return outcome
        outcome.json_bytes = _bytes(result.stdout)
        if not payload["verification"]["pass"]:
            outcome.reasons.append("solve: --verify failed")
        if self.oracle_check and not payload["oracle_check"]["pass"]:
            outcome.reasons.append("solve: --oracle-check failed")
        if self.snapshots is not None and \
                self.snapshots.read_text(encoding="utf-8") != result.stdout:
            outcome.reasons.append("solve: snapshots file differs from stdout")
        final = payload["snapshots"][-1]
        if self.blossoms is not None:
            nest = sorted((set(b["nodes"]) for b in final["duals"]["blossoms"]), key=len)
            chain = all(inner < outer for inner, outer in zip(nest, nest[1:]))
            if len(nest) != self.blossoms or not chain:
                outcome.reasons.append(
                    f"solve: final snapshot has {len(nest)} blossoms, nested: "
                    f"{chain}; expected a chain of {self.blossoms}")
        shift = Fraction(payload.get("normalization", {}).get("shift", "0"))
        k = final["k"]
        outcome.final = (k, Fraction(final["weight"]) - k * shift)
        if outcome.ok:
            outcome.snapshots = len(payload["snapshots"])
        return outcome

    def traced(self, tr: Tracer) -> tuple[list[str], list[str]]:
        """Replica of the command; returns (stdout texts, equivalence faults)."""
        tr.begin_op()
        with tr.span("op"):
            with tr.span("graph.parse"):
                with open(self.instance.path, encoding="utf-8") as handle:
                    inst = parse_instance(handle)
            with tr.span("graph.normalize"):
                normalized, record = normalize_weights(inst)
            run = stepping_solve(normalized, tr)
            with tr.span("jsonio.encode"):
                payload = jsonio.run_result_to_dict(run)
                if record.shift != 0:
                    payload["normalization"] = {
                        "shift": jsonio.rational_to_str(record.shift)}
            verdict = traced_verify(normalized, run, tr)
            with tr.span("jsonio.encode"):
                payload["verification"] = jsonio.verdict_to_dict(verdict)
            if self.oracle_check:
                with tr.span("oracle.table"):
                    table = oracle.min_weight_by_cardinality(normalized)
                tr.count("oracle.calls")
                mismatches = [
                    {"k": s.cardinality,
                     "weight": jsonio.rational_to_str(s.weight),
                     "oracle_min": jsonio.rational_to_str(table.min_weight(s.cardinality))}
                    for s in run.snapshots
                    if s.weight != table.min_weight(s.cardinality)]
                payload["oracle_check"] = {"pass": not mismatches,
                                           "mismatches": mismatches}
            with tr.span("jsonio.encode"):
                text = jsonio.dumps(payload)
            if self.snapshots is not None:
                with open(self.snapshots, "w", encoding="utf-8") as handle:
                    handle.write(text)
        tr.count("jsonio.bytes", _bytes(text))
        tr.count("engine.snapshots", len(run.snapshots))
        tr.maximum("engine.max_nesting", max_nesting(run))

        faults = []
        reference = solve(normalized)
        if run.status != reference.status or run.snapshots != reference.snapshots:
            faults.append("stepped snapshots differ from solve()")
        if verdict != verify_run(normalized, reference):
            faults.append("traced verdict differs from verify_run()")
        return [text], faults


class CounterexampleOp:
    """`counterexample --amounts 1,1,3` on the built-in 9-node instance."""

    instance = None
    name = "counterexample"

    def __init__(self) -> None:
        self.argvs = [["counterexample", "--amounts", COUNTEREXAMPLE_AMOUNTS]]

    def check(self, results: list[CliResult]) -> Outcome:
        outcome = Outcome()
        (result,) = results
        payload = _load(result, outcome, "counterexample")
        if payload is None:
            return outcome
        k = payload["divergence"]
        scripted = {entry["k"]: entry["weight"] for entry in payload["scripted"] or ()}
        minima = payload["oracle_minima"]
        found = (k, scripted.get(k), minima[k] if k is not None and k < len(minima) else None)
        if found != COUNTEREXAMPLE_EXPECTED:
            outcome.reasons.append(
                f"counterexample: (k, scripted, optimum) = {found}, "
                f"expected {COUNTEREXAMPLE_EXPECTED}")
        return outcome

    def traced(self, tr: Tracer) -> tuple[list[str], list[str]]:
        tr.begin_op()
        with tr.span("op"):
            amounts = tuple(Fraction(a) for a in COUNTEREXAMPLE_AMOUNTS.split(","))
            with tr.span("cli.counterexample"):
                report = cli.compare_dual_policies(cli.figure2_instance(), amounts)
            with tr.span("jsonio.encode"):
                text = jsonio.dumps(cli.scenario_report_to_dict(report))
        tr.count("jsonio.bytes", _bytes(text))
        return [text], []


class AuditOp:
    """`verify <f> --run <snap>` then `reduce <f> --auxiliary <snap>:<K/2>`."""

    def __init__(self, instance: corpus.GeneratedInstance, snapshots: Path,
                 final: tuple[int, Fraction], count: int):
        self.instance = instance
        self.name = instance.name
        self.snapshots = snapshots
        self.k = final[0] // 2
        self.count = count  # snapshots in the file
        self.prep_final = final
        self.argvs = [["verify", str(instance.path), "--run", str(snapshots)],
                      ["reduce", str(instance.path), "--auxiliary",
                       f"{snapshots}:{self.k}"]]

    def check(self, results: list[CliResult]) -> Outcome:
        outcome = Outcome(final=self.prep_final)
        verify, reduce = results
        verdict = _load(verify, outcome, "verify")
        if verdict is not None and not verdict["pass"]:
            outcome.reasons.append("verify: certificate check failed")
        completion = _load(reduce, outcome, "reduce")
        if completion is not None and not completion["check"]["pass"]:
            outcome.reasons.append("reduce: auxiliary certificate check failed")
        outcome.json_bytes = self.snapshots.stat().st_size
        if outcome.ok:
            outcome.snapshots = self.count
        return outcome

    def _load_run(self, tr: Tracer):
        with tr.span("graph.parse"):
            with open(self.instance.path, encoding="utf-8") as handle:
                inst = parse_instance(handle)
        with tr.span("jsonio.decode"):
            with open(self.snapshots, encoding="utf-8") as handle:
                data = json.load(handle)
            run = jsonio.run_result_from_dict(data)
        # The audit corpus has nonnegative weights, so the snapshots carry
        # no normalization shift for the command to re-check.
        return inst, run

    def traced(self, tr: Tracer) -> tuple[list[str], list[str]]:
        tr.begin_op()
        with tr.span("op"):
            inst, run = self._load_run(tr)
            verdict = traced_verify(inst, run, tr)
            with tr.span("jsonio.encode"):
                verify_text = jsonio.dumps(jsonio.verdict_to_dict(verdict))

            inst, run = self._load_run(tr)
            snap = next(s for s in run.snapshots if s.cardinality == self.k)
            with tr.span("reductions.completion"):
                comp = reductions.build_auxiliary_completion(inst, snap)
            with tr.span("reductions.perfect_check"):
                check = reductions.check_perfect_certificate(comp)
            with tr.span("jsonio.encode"):
                duals = comp.lifted_duals
                payload = {
                    "instance": format_instance(comp.aux_instance),
                    "matching": [[u + 1, v + 1]
                                 for u, v in comp.extended_matching.sorted_edges()],
                    "duals": {
                        "singletons": {str(v + 1): jsonio.rational_to_str(p)
                                       for v, p in enumerate(duals.singleton_pi)},
                        "blossoms": [{"nodes": [v + 1 for v in sorted(b.nodes)],
                                      "pi": jsonio.rational_to_str(b.pi)}
                                     for b in duals.blossoms],
                    },
                    "exposed": [v + 1 for v in comp.exposed_nodes],
                    "check": jsonio.verdict_to_dict(check),
                }
                reduce_text = jsonio.dumps(payload)
        tr.count("reductions.aux_edges", len(comp.aux_instance.edges))
        tr.count("jsonio.bytes", _bytes(verify_text) + _bytes(reduce_text))

        faults = []
        if verdict != verify_run(inst, run):
            faults.append("traced verdict differs from verify_run()")
        return [verify_text, reduce_text], faults


# Solves each (instance, snapshots file) pair of argv in one interpreter
# and prints, per pair, the final (k, weight) and the snapshot count.
_PREP_CODE = """
import io, json, sys
from contextlib import redirect_stdout
from matchcert.cli import main
paths = sys.argv[1:]
for i in range(0, len(paths), 2):
    with redirect_stdout(io.StringIO()) as out:
        code = main(["solve", paths[i], "--snapshots", paths[i + 1]])
    if code != 0:
        sys.exit(code)
    snapshots = json.loads(out.getvalue())["snapshots"]
    print(json.dumps([snapshots[-1]["k"], snapshots[-1]["weight"], len(snapshots)]))
"""


def _write_snapshot_files(pairs: list[tuple[Path, Path]],
                          src: Path) -> list[tuple[int, str, int]]:
    """Benchmark prep: write snapshots files from a separate process, so
    that neither the solves nor reading their output raise this process's
    peak RSS. Returns each run's final (k, weight) and snapshot count."""
    argv = [str(path) for pair in pairs for path in pair]
    done = subprocess.run([sys.executable, "-c", _PREP_CODE, *argv],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"prep solve exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    return [tuple(json.loads(line)) for line in done.stdout.splitlines()]


def prepare(workload: str, seed: int, out_dir: Path, src: Path) -> list:
    """Generate the corpus and build one pass of operations."""
    instances = corpus.generate(workload, seed, PASS_SIZE[workload], out_dir)
    if workload == "sparse-certify":
        return [SolveOp(i, out_dir / f"{i.name}.json", False) for i in instances]
    if workload == "nested-ladder":
        return [SolveOp(i, out_dir / f"{i.name}.json", False,
                        blossoms=corpus.LADDER_DEPTH + 1) for i in instances]
    if workload == "small-batch":
        return [SolveOp(i, None, True) for i in instances] + [CounterexampleOp()]
    snaps = [out_dir / f"{instance.name}.json" for instance in instances]
    finals = _write_snapshot_files(
        [(i.path, snap) for i, snap in zip(instances, snaps)], src)
    return [AuditOp(instance, snap, (k, Fraction(weight)), count)
            for instance, snap, (k, weight, count) in zip(instances, snaps, finals)]


def networkx_reference(instance: corpus.GeneratedInstance) -> tuple[tuple[int, Fraction], float]:
    """Maximum-cardinality minimum-weight matching by networkx, and its time.

    Negating the weights turns networkx's maximum-weight search among
    maximum-cardinality matchings into the minimum-weight one.
    """
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(instance.node_count))
    graph.add_weighted_edges_from((u, v, -w) for u, v, w in instance.edges)
    start = time.perf_counter()
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    seconds = time.perf_counter() - start
    weight = sum(-graph[u][v]["weight"] for u, v in matching)
    return (len(matching), Fraction(weight)), seconds
