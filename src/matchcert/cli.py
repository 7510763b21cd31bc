"""Command-line interface.

Subcommands: solve, oracle, verify, counterexample, reduce. Machine
output is JSON on stdout; human summaries go to stderr. Exit codes:
0 success, 1 perfect matching requested but none exists, 2 verification
failure, 3 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cache
from typing import Any, Sequence

from . import certificates, jsonio, oracle, reductions
from .engine import RunResult, Snapshot, solve
from .graph import (Instance, ParseError, as_rational, format_instance,
                    normalize_weights, parse_instance, parse_natural,
                    parse_rational)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_VERIFICATION = 2
EXIT_INPUT = 3


def figure2_instance() -> Instance:
    """Three 3-node paths whose tips are joined by a weighted triangle.

    Nodes (1-based): a1 a2 a3 = 1 2 3, b1 b2 b3 = 4 5 6, c1 c2 c3 = 7 8 9.
    Edges {a_i, b_i} and {b_i, c_i} have weight 0; the tip edges are
    {a1, a2} at 3, {a2, a3} at 5, and {a1, a3} at 4. Uniform dual updates
    reach the optimal cardinality-4 matching of weight 3; per-tree amounts
    (1, 1, 3) steer the run into the weight-4 edge instead, showing why
    equal amounts matter.
    """
    edges = [
        (0, 3, 0), (1, 4, 0), (2, 5, 0),   # a_i -- b_i
        (3, 6, 0), (4, 7, 0), (5, 8, 0),   # b_i -- c_i
        (0, 1, 3), (1, 2, 5), (0, 2, 4),   # a1-a2, a2-a3, a1-a3
    ]
    return Instance.from_edges(9, edges)


class ScenarioReport(namedtuple("ScenarioReport", "uniform scripted scripted_error "
                                                   "oracle_minima divergence scripted_verdict")):
    """Uniform run vs scripted run vs ground truth, per cardinality.

    divergence is the first cardinality where the scripted run's weight
    exceeds the oracle minimum, or None when the scripted run stayed
    optimal (or could not run at all). scripted_verdict is `verify_run`'s
    verdict on the scripted run, None when it could not run.
    """

    __slots__ = ()

    uniform: tuple[tuple[int, Fraction], ...]
    scripted: tuple[tuple[int, Fraction], ...] | None
    scripted_error: str | None
    oracle_minima: tuple[Fraction, ...]
    divergence: int | None
    scripted_verdict: certificates.Verdict | None


def compare_dual_policies(inst: Instance,
                          amounts: Sequence[Fraction | int | str],
                          ) -> ScenarioReport:
    """Run uniform and scripted policies side by side against the oracle.

    The amounts form a single scripted dual-update phase, bound to trees
    in ascending root order. An infeasible script is reported in the
    result rather than raised; the uniform half always runs.
    """
    table = oracle.min_weight_by_cardinality(inst)
    minima = tuple(table.min_weight(k) for k in range(table.nu + 1))

    uniform_run = solve(inst, mode="maximum")
    uniform = tuple((s.cardinality, s.weight) for s in uniform_run.snapshots)

    scripted: tuple[tuple[int, Fraction], ...] | None
    scripted_error: str | None = None
    divergence: int | None = None
    verdict: certificates.Verdict | None = None
    try:
        phase = tuple(as_rational(a) for a in amounts)
        scripted_run = solve(inst, mode="maximum", phases=(phase,))
    except ValueError as exc:
        scripted = None
        scripted_error = str(exc)
    else:
        scripted = tuple((s.cardinality, s.weight) for s in scripted_run.snapshots)
        for k, weight in scripted:
            if k <= table.nu and weight > minima[k]:
                divergence = k
                break
        verdict = certificates.verify_run(inst, scripted_run)

    return ScenarioReport(uniform, scripted, scripted_error, minima, divergence, verdict)


def scenario_report_to_dict(report: ScenarioReport) -> dict[str, Any]:
    def run_json(run):
        return [{"k": k, "weight": jsonio.rational_to_str(w)} for k, w in run]

    return {
        "uniform": run_json(report.uniform),
        "scripted": run_json(report.scripted) if report.scripted is not None else None,
        "scripted_error": report.scripted_error,
        "oracle_minima": [jsonio.rational_to_str(w) for w in report.oracle_minima],
        "divergence": report.divergence,
        "scripted_verdict": (jsonio.verdict_to_dict(report.scripted_verdict)
                             if report.scripted_verdict is not None else None),
    }


# ---------------------------------------------------------------------------
# Command implementations


def _read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle)


def _write_text(path: str, text: str) -> None:
    """Write text to path, overwriting an existing file in place.

    The file is opened without O_TRUNC and, when it is a regular file,
    cut to the written length afterwards. Truncating a file to zero bytes
    on open makes ext4 (auto_da_alloc) flush it on close, and the next
    truncation of the same file then waits tens of milliseconds on the
    disk. Symlinks, the creation mode and the resulting bytes are those of
    open(path, "w"); devices and FIFOs are written without the cut. Skipping
    that flush gives up ext4's implicit crash safety for this pattern:
    after a crash the file may hold the previous text or a mix of old and
    new blocks.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as handle:
        handle.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def _parse_amounts_file(path: str) -> tuple[tuple[Fraction, ...], ...]:
    """One dual-update phase per line; amounts separated by spaces or commas."""
    phases = []
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            phases.append(_parse_amounts_option(line))
    if not phases:
        raise ValueError(f"no dual-update phases found in {path}")
    return tuple(phases)


def _parse_amounts_option(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(tok) for tok in text.replace(",", " ").split())


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file)
    normalized, record = normalize_weights(inst)

    if args.policy == "uniform":
        phases = ()
    elif args.policy.startswith("scripted="):
        phases = _parse_amounts_file(args.policy[len("scripted="):])
    else:
        raise ValueError(f"unknown policy {args.policy!r}; "
                         "use 'uniform' or 'scripted=<amounts-file>'")

    run = solve(normalized, mode=args.mode, phases=phases, beta=parse_rational(args.beta))
    payload = jsonio.run_result_to_dict(run)
    if record.shift != 0:
        payload["normalization"] = {"shift": jsonio.rational_to_str(record.shift)}

    exit_code = EXIT_OK
    if args.verify:
        verdict = certificates.verify_run(normalized, run)
        payload["verification"] = jsonio.verdict_to_dict(verdict)
        if not verdict.passed:
            exit_code = EXIT_VERIFICATION

    if args.oracle_check:
        table = oracle.min_weight_by_cardinality(normalized)
        mismatches = [
            {"k": s.cardinality,
             "weight": jsonio.rational_to_str(s.weight),
             "oracle_min": jsonio.rational_to_str(table.min_weight(s.cardinality))}
            for s in run.snapshots
            if s.weight != table.min_weight(s.cardinality)]
        payload["oracle_check"] = {"pass": not mismatches, "mismatches": mismatches}
        if mismatches:
            exit_code = EXIT_VERIFICATION

    # The file first, so a path that cannot be written leaves stdout empty.
    text = jsonio.dumps(payload)
    if args.snapshots:
        _write_text(args.snapshots, text)
    sys.stdout.write(text)

    final = run.final  # the JSON keeps shifted weights; the summary undoes the shift
    print(f"status {run.status}; {len(run.snapshots)} snapshots; "
          f"final |M| = {final.cardinality}, "
          f"weight {final.weight - final.cardinality * record.shift}",
          file=sys.stderr)
    if args.verify and not verdict.passed:
        sys.stderr.write(_failure_summary(payload["verification"]))

    if exit_code == EXIT_OK and run.infeasible:
        exit_code = EXIT_INFEASIBLE
    return exit_code


def _cmd_oracle(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file)
    table = oracle.min_weight_by_cardinality(inst, limit=args.limit)
    sys.stdout.write(jsonio.dumps(jsonio.oracle_table_to_dict(table)))
    print(f"nu = {table.nu}", file=sys.stderr)
    return EXIT_OK


def _load_run(path: str, inst: Instance,
              k: int | None = None) -> tuple[RunResult | Snapshot, Instance]:
    """Load a snapshots file, check it was made for this instance, and
    renormalize the instance to match it. Returns the whole run, or with
    `k` only its first snapshot of cardinality k, the one snapshot decoded.
    A file without `normalization` was made with weight shift 0."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read")
    if k is None:
        run = jsonio.run_result_from_dict(data)
        snapshots = run.snapshots
    else:
        run = jsonio.snapshot_from_dict(data, k)
        snapshots = (run,)
    for snap in snapshots:
        if len(snap.dual_state.pi_units) != inst.node_count:
            raise ValueError(
                f"snapshot k={snap.cardinality} has duals for "
                f"{len(snap.dual_state.pi_units)} nodes, but the instance "
                f"has {inst.node_count}")
    normalization = jsonio.field(data, "normalization", dict, {"shift": "0"})
    recorded = jsonio.field(normalization, "shift", str)
    normalized, record = normalize_weights(inst)
    if jsonio.str_to_rational(recorded) != record.shift:
        raise ValueError(
            f"snapshots were produced with weight shift {recorded}, but the "
            f"instance normalizes with shift {record.shift}")
    return run, normalized


def _cmd_verify(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file)
    run, inst = _load_run(args.run, inst)
    verdict = jsonio.verdict_to_dict(certificates.verify_run(inst, run))
    sys.stdout.write(jsonio.dumps(verdict))
    if verdict["pass"]:
        print(f"all {len(run.snapshots)} snapshots verified", file=sys.stderr)
        return EXIT_OK
    sys.stderr.write(_failure_summary(verdict))
    return EXIT_VERIFICATION


def _failure_summary(verdict: dict[str, Any]) -> str:
    """The stderr lines of a failing run verdict, read from its JSON form
    so that ids are 1-based as there: the number of violations; the first
    failure, the first violation tagged with the smallest k (the first of
    all when none names a snapshot); and the count per constraint id."""
    violations = verdict["violations"]
    parts = [viol["constraint"].partition(":k=") for viol in violations]
    tagged = [(int(k), i) for i, (_, _, k) in enumerate(parts) if k]
    i = min(tagged)[1] if tagged else 0
    constraint, _, k = parts[i]
    first, where = violations[i], f" at k={k}" if k else ""
    counts = sorted(Counter(c for c, _, _ in parts).items())
    return (f"{len(violations)} violations\n"
            f"first failure{where}: {constraint} witness={json.dumps(first['witness'])} "
            f"lhs={first['lhs']} rhs={first['rhs']}\n"
            f"per constraint: {', '.join(f'{c} {n}' for c, n in counts)}\n")


def _cmd_counterexample(args: argparse.Namespace) -> int:
    amounts = _parse_amounts_option(args.amounts)
    report = compare_dual_policies(figure2_instance(), amounts)
    data = scenario_report_to_dict(report)
    sys.stdout.write(jsonio.dumps(data))
    if report.scripted_error is not None:
        print(f"scripted run refused: {report.scripted_error}", file=sys.stderr)
    elif report.divergence is None:
        print("no divergence: the scripted run stayed cardinality-optimal",
              file=sys.stderr)
    else:
        k = report.divergence
        scripted_weight = dict(report.scripted)[k]
        print(f"divergence at k={k}: scripted weight {scripted_weight} "
              f"vs optimum {report.oracle_minima[k]}", file=sys.stderr)
    if report.scripted_verdict is not None and not report.scripted_verdict.passed:
        sys.stderr.write("scripted run: " + _failure_summary(data["scripted_verdict"]))
    return EXIT_OK


def _cmd_reduce(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file)
    if args.doubled:
        sys.stdout.write(format_instance(reductions.build_doubled_graph(inst)))
        return EXIT_OK

    path, _, k_text = args.auxiliary.rpartition(":")
    if not path:
        raise ValueError("--auxiliary expects <snapshots.json>:<k>")
    k = parse_natural(k_text)
    snap, inst = _load_run(path, inst, k)

    comp = reductions.build_auxiliary_completion(inst, snap)
    verdict = reductions.check_perfect_certificate(comp)
    payload = {
        "instance": format_instance(comp.aux_instance),
        "matching": jsonio.matching_to_json(comp.extended_matching),
        "duals": jsonio.dual_state_to_dict(comp.lifted_duals),
        "exposed": [v + 1 for v in comp.exposed_nodes],
        "check": jsonio.verdict_to_dict(verdict),
    }
    sys.stdout.write(jsonio.dumps(payload))
    if not verdict.passed:
        print(f"{len(verdict.violations)} violations", file=sys.stderr)
        return EXIT_VERIFICATION
    print(f"completion at k={k} certified perfect-optimal", file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_INPUT on a malformed command line, which is bad
    input: argparse's own code, 2, here means a verification failure."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it."""
    parser = _Parser(
        prog="matchcert",
        description="Weighted matching solver whose every intermediate "
                    "matching carries a checked optimality certificate.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance, recording snapshots")
    p_solve.add_argument("file")
    p_solve.add_argument("--mode", choices=["perfect", "maximum"], default="maximum")
    p_solve.add_argument("--policy", default="uniform",
                         help="'uniform' or 'scripted=<amounts-file>'")
    p_solve.add_argument("--beta", default="0",
                         help="initial singleton dual value (exact rational)")
    p_solve.add_argument("--snapshots", metavar="OUT",
                         help="also write the JSON output to this file")
    p_solve.add_argument("--verify", action="store_true",
                         help="check every snapshot's certificate; exit 2 on failure")
    p_solve.add_argument("--oracle-check", action="store_true",
                         help="compare snapshot weights against brute force; "
                              "exit 2 on mismatch")
    p_solve.set_defaults(func=_cmd_solve)

    p_oracle = sub.add_parser("oracle", help="brute-force minima per cardinality")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--limit", type=int, default=oracle.DEFAULT_NODE_LIMIT,
                          help="node budget for enumeration")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="verify a snapshots file")
    p_verify.add_argument("file")
    p_verify.add_argument("--run", required=True, metavar="SNAPSHOTS")
    p_verify.set_defaults(func=_cmd_verify)

    p_counter = sub.add_parser(
        "counterexample",
        help="show how unequal per-tree dual amounts lose optimality")
    p_counter.add_argument("--amounts", default="1,1,3",
                           help="per-tree amounts for the scripted phase")
    p_counter.set_defaults(func=_cmd_counterexample)

    p_reduce = sub.add_parser("reduce", help="graph reductions")
    p_reduce.add_argument("file")
    group = p_reduce.add_mutually_exclusive_group(required=True)
    group.add_argument("--doubled", action="store_true",
                       help="emit the doubled graph in instance format")
    group.add_argument("--auxiliary", metavar="SNAPSHOTS:K",
                       help="emit the certified perfect completion of snapshot k")
    p_reduce.set_defaults(func=_cmd_reduce)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:  # a node count the header allows but the process cannot hold
        print("error: out of memory; the instance is too large for this process",
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
