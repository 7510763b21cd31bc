"""Seeded benchmark of the matchcert certify pipeline.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload as a closed loop from one process and one thread: each
operation is the command line a user would type, run in-process through
`matchcert.cli.main` with stdout and stderr captured, and the next one
starts when it returns. Interpreter start-up and import are measured once
per run, in fresh child interpreters, as `setup_s`. Every operation's
output is checked; a failing check or an exception counts the operation
as failed and the run goes on.

Operation times are gated in reference units: each operation's wall time
divided by the wall time of a fixed pure-Python loop (calibrate.py) run
just before it. On a shared machine the speed of the whole CPU swings by
up to 2x over tens of seconds, which moves raw medians by 30% from one
run to the next; the ratio cancels most of that swing. Raw seconds are
printed beside them, but not gated. `setup_s` is scaled the same way:
each child interpreter times the program's import between two runs of
an import-free reference loop, and the ratio is given in seconds of a
nominal machine on which that loop takes SETUP_REFERENCE_S.

With --trace 0 the last stdout line holds the end-to-end metrics. With
--trace 1 each operation also runs as a traced replica through the
public module functions, and the last line holds per-layer metrics.

The program is imported from `src/` next to this directory and nowhere
else; without it the benchmark exits with code 2 and prints no result.
Corpus files, snapshot files, the report and the spans go to
`perfbench/out/<workload>-seed<n>/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_STARTS = 21
SETUP_REFERENCE_S = 0.015
# Prints the import time over the mean of the reference loops around it.
SETUP_CODE = """
import time
from calibrate import plain_reference_seconds
before = plain_reference_seconds()
start = time.perf_counter()
import matchcert.cli
matchcert.cli.build_parser()
seconds = time.perf_counter() - start
print(seconds / ((before + plain_reference_seconds()) / 2))
"""

# Per-layer count metrics, totals over one pass, and their units.
PASS_COUNTS = {
    "engine.steps": "count", "engine.view_rebuilds": "count",
    "engine.augmentations": "count", "engine.shrinks": "count",
    "engine.expansions": "count", "engine.dual_updates": "count",
    "engine.zero_dual_updates": "count", "engine.max_nesting": "count",
    "engine.bound.edge_t_t": "count", "engine.bound.edge_t_free": "count",
    "engine.bound.blossom_nonneg": "count",
    "certificates.edge_checks": "count", "certificates.edge_blossom_tests": "count",
    "certificates.violations": "count", "jsonio.bytes": "bytes",
    "reductions.aux_edges": "count", "oracle.calls": "count",
}
# Per-layer times: the span name; the metric is the name plus "_s".
LAYER_SPANS = (
    "engine.solve", "engine.view_rebuild", "engine.grow_forest", "engine.augment",
    "engine.shrink", "engine.compute_alpha", "engine.dual_update", "engine.snapshot",
    "certificates.verify_run", "certificates.transform", "certificates.check",
    "graph.parse", "graph.normalize", "graph.path_diff",
    "jsonio.encode", "jsonio.decode",
    "reductions.completion", "reductions.perfect_check",
    "oracle.table", "cli.counterexample",
)


def import_program():
    """Import matchcert from this checkout's src/, or stop with exit code 2."""
    if not (SRC / "matchcert" / "__init__.py").is_file():
        print(f"benchmark: no program at {SRC / 'matchcert'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import matchcert

    if Path(matchcert.__file__).resolve().parent != (SRC / "matchcert").resolve():
        print(f"benchmark: matchcert imported from {matchcert.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def measure_setup() -> float:
    """Median time, over fresh interpreters, to import the program until it
    could parse a first command line, in nominal seconds."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(BENCH)))}
    ratios = []
    for _ in range(SETUP_STARTS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              check=True, stdout=subprocess.PIPE, text=True)
        ratios.append(float(done.stdout))
    return statistics.median(ratios) * SETUP_REFERENCE_S


def closed_loop(ops, seconds: float, step):
    """Call step(op) over passes of ops until `seconds` have elapsed and at
    least one whole pass is done; returns the results in order."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            gc.collect()
            results.append(step(op))
            if len(results) >= len(ops) and time.perf_counter() >= deadline:
                return results


def p90(values) -> float | None:
    """Nearest-rank 90th percentile, when at least ten samples lie beyond it."""
    if len(values) < 100:
        return None
    return sorted(values)[math.ceil(0.9 * len(values)) - 1]


def check_against_networkx(ops, outcomes, report):
    """Compare each operation's final matching with networkx, in place.

    outcomes are (op, outcome) pairs. networkx is imported here, after the
    peak RSS was read, so it never counts toward the program's memory.
    """
    from workloads import networkx_reference

    references = {}
    for op in ops:
        if op.instance is not None:
            references[op.name], report["networkx_s"][op.name] = \
                networkx_reference(op.instance)
    for op, outcome in outcomes:
        if op.instance is None or outcome.final is None:
            continue
        want = references[op.name]
        if outcome.final != want:
            outcome.reasons.append(
                f"final (k, weight) = ({outcome.final[0]}, {outcome.final[1]}), "
                f"networkx gives ({want[0]}, {want[1]})")


def finish_outcomes(ops, outcomes, report) -> int:
    """Check against networkx, record failures; returns the failed count."""
    check_against_networkx(ops, outcomes, report)
    failed = 0
    for op, outcome in outcomes:
        if not outcome.ok:
            failed += 1
            report["failures"].append({op.name: outcome.reasons})
    return failed


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(ops, seconds: float, report):
    from calibrate import reference_seconds
    from workloads import call_cli, check_outcome

    setup_s = measure_setup()
    gc.collect()
    rss_baseline = max_rss_mb()
    first_pass_rss: list[float] = []

    def step(op):
        ref = reference_seconds()
        results = [call_cli(argv) for argv in op.argvs]
        outcome = check_outcome(op, results)
        digest = hashlib.sha256(
            "".join(r.stdout for r in results).encode("utf-8")).hexdigest()
        # A user's process runs one command; later passes would only add
        # the allocator's fragmentation from hundreds of commands in a row.
        if op is ops[-1] and not first_pass_rss:
            first_pass_rss.append(max_rss_mb())
        return op, ref, sum(r.seconds for r in results), digest, outcome

    runs = closed_loop(ops, seconds, step)
    refs = [ref for _, ref, _, _, _ in runs] + [reference_seconds()]
    outcomes = [(op, outcome) for op, _, _, _, outcome in runs]
    failed = finish_outcomes(ops, outcomes, report)

    times = [t for _, _, t, _, _ in runs]
    # Each operation against the mean of the reference runs around it.
    rel = [t / ((before + after) / 2)
           for t, before, after in zip(times, refs, refs[1:])]
    by_op: dict[str, list[float]] = {}
    for (op, _, _, _, _), r in zip(runs, rel):
        by_op.setdefault(op.name, []).append(r)
    # Throughput of one pass with every operation at its median speed.
    pass_snapshots = sum(outcome.snapshots for _, outcome in outcomes[:len(ops)])
    pass_rel = sum(statistics.median(v) for v in by_op.values())
    snapshots = sum(outcome.snapshots for _, outcome in outcomes)
    digests: dict[str, set[str]] = {}
    for op, _, _, digest, _ in runs:
        digests.setdefault(op.name, set()).add(digest)
    report["stdout_sha256"] = {name: sorted(d) for name, d in digests.items()}
    report["reference_seconds"] = refs
    report["rss_baseline_mb"] = rss_baseline
    report["not_gated"] = {
        "call_p50_s": (statistics.median(times), "s"),
        "call_p90_s": (p90(times), "s"),
        "snapshots_per_s": (snapshots / sum(times), "1/s"),
        "failed_ratio": (failed / len(runs), "ratio"),
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "call_p50_rel": (statistics.median(rel), "ref"),
        "snapshots_per_ref": (pass_snapshots / pass_rel, "1/ref"),
        # Growth over the process's peak before the first operation, so
        # the interpreter and the benchmark's own data do not dilute it.
        "peak_rss_mb": (first_pass_rss[0] - rss_baseline, "MB"),
        "snapshot_bytes": (sum(o.json_bytes for _, o in outcomes[:len(ops)]), "bytes"),
    }
    report["samples"] = {"setup_s": SETUP_STARTS, "call_p50_rel": len(runs),
                         "snapshots_per_ref": len(runs), "peak_rss_mb": 1,
                         "snapshot_bytes": 1}
    return metrics, len(runs), failed


def run_traced(ops, seconds: float, out_dir: Path, report):
    from tracing import Tracer
    from workloads import call_cli, check_outcome

    tr = Tracer()
    pass_counts: dict[str, int] = {}

    def step(op):
        results = [call_cli(argv) for argv in op.argvs]
        outcome = check_outcome(op, results)
        gc.collect()
        try:
            texts, faults = op.traced(tr)
        except Exception as exc:  # any exception fails the operation
            outcome.reasons.append(
                f"traced replica raised {type(exc).__name__}: {exc}")
        else:
            if texts != [r.stdout for r in results]:
                faults.append("traced replica printed other output than the command")
            outcome.reasons += faults
        if tr.op == len(ops):
            pass_counts.update(tr.counts)
        return op, sum(r.seconds for r in results), tr.op, outcome

    runs = closed_loop(ops, seconds, step)
    tr.write(out_dir / "spans.jsonl")
    outcomes = [(op, outcome) for op, _, _, outcome in runs]
    failed = finish_outcomes(ops, outcomes, report)

    totals = tr.op_totals()
    per_op = [totals[op_id] for _, _, op_id, _ in runs]
    metrics = {}
    for name in LAYER_SPANS:
        used = [op_totals[name] for op_totals in per_op if name in op_totals]
        metrics[name + "_s"] = (statistics.median(used) if used else 0.0, "s")
    for name, unit in PASS_COUNTS.items():
        metrics[name] = (pass_counts.get(name, 0), unit)
    rebuilds = pass_counts.get("engine.view_rebuilds", 0)
    metrics["engine.snapshots_per_rebuild"] = (
        pass_counts.get("engine.snapshots", 0) / rebuilds if rebuilds else 0.0, "ratio")
    untraced = statistics.median(t for _, t, _, _ in runs)
    traced = statistics.median(op_totals["op"] for op_totals in per_op)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    report["not_gated"] = {"traced_call_p50_s": (traced, "s"),
                           "untraced_call_p50_s": (untraced, "s"),
                           "failed_ratio": (failed / len(runs), "ratio")}
    return metrics, len(runs), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or 'all' to run each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)

    import_program()
    from workloads import prepare

    out_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    ops = prepare(args.workload, args.seed, out_dir, SRC)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "instances": sum(1 for op in ops if op.instance is not None),
              "networkx_s": {}, "failures": []}
    if args.trace:
        metrics, attempted, failed = run_traced(ops, args.seconds, out_dir, report)
    else:
        metrics, attempted, failed = run_untraced(ops, args.seconds, report)

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {attempted} "
          f"operations (n={attempted} samples) over {report['instances']} "
          f"instances, {failed} failed")
    for name, (value, unit) in metrics.items():
        samples = report.get("samples", {}).get(name)
        print(f"  {name:34s} {value:>14.6g} {unit}"
              + (f" (n={samples})" if samples else ""))
    for name, (value, unit) in report["not_gated"].items():
        if value is not None:
            print(f"  {name:34s} {value:>14.6g} {unit} (not gated)")
    if report["networkx_s"]:
        print(f"  {'networkx_s median of instances':34s} "
              f"{statistics.median(report['networkx_s'].values()):>14.6g} s "
              f"(reference, not gated)")
    for failure in report["failures"][:5]:
        print(f"  FAILED {failure}")

    report["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                         encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
