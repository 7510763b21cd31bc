"""Acceptance suite.

Runs the solver over a seeded random instance corpus (205 instances with
integer weights in [0, 20], plus 55 with weights in [-10, 10] that are
normalized first) and checks every claim exactly, in rational arithmetic:

  1. every snapshot weight equals the brute-force minimum at its
     cardinality;
  2. every run's certificates verify, and tampering (gamma + 1, or a
     dropped matched edge) flips sampled snapshots to fail;
  3. when no perfect matching exists, the run says so and stops exactly
     at the matching number;
  4. consecutive snapshots differ by a single alternating path;
  5. at every dual update, all exposed nodes carry the maximum
     accumulated dual value;
  6. the built-in counterexample reproduces: uniform updates reach the
     optimal weight-3 matching at cardinality 4, scripted amounts
     (1, 1, 3) get steered into weight 4;
  7. the auxiliary perfect-matching completion certifies every snapshot;
  8. half the doubled graph's minimum perfect-matching weight equals the
     instance's minimum matching weight over all cardinalities;
  9. with integer weights, every dual value is a multiple of 1/2.

A golden digest of all snapshot JSON guards the output byte for byte, and
another guards `reduce --auxiliary` on every snapshot of every run.

Each test prints one PASS line with its coverage counts (visible with
pytest -s; the -v test line carries the same verdict).
"""

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import pytest

from matchcert import jsonio
from matchcert.certificates import check_cardinality_certificate, verify_run
from matchcert.cli import compare_dual_policies, figure2_instance, main
from matchcert.engine import (RunResult, accumulated_pi, lift_matching, solve,
                              transform_duals)
from matchcert.graph import (Instance, Matching, alternating_path_difference,
                             format_instance, matching_weight, normalize_weights)
from matchcert.oracle import OracleTable, min_weight_by_cardinality
from matchcert.reductions import (build_auxiliary_completion,
                                  build_doubled_graph,
                                  check_perfect_certificate)
from util import (assert_round_trip, checked_steps, minimum_perfect_weight,
                  random_instance, reference_check_certificate,
                  reference_run_dict, reference_verify_run, replaced)

SEED = 20260809
NONNEGATIVE_COUNT = 205
NEGATIVE_COUNT = 55
# sha256 over the snapshot JSON of every corpus run, in corpus order.
GOLDEN_DIGEST = "4ac8ab7c2f7ed562c3175b0b1253cf55303a7c1dc8dbe7f8ff9138c253d478a3"
# sha256 over `reduce --auxiliary` stdout for every snapshot of every
# corpus run, in corpus and cardinality order.
GOLDEN_AUXILIARY_DIGEST = "a982d460061f950e4108b498c4f9f84aef97fd455dbf31449a1d17f16594576d"


@dataclass
class SuiteRecord:
    raw: Instance
    shift: Fraction
    normalized: Instance
    table: OracleTable  # per-cardinality minima of the normalized instance
    run: RunResult  # uniform maximum-mode run on the normalized instance
    phases: list  # (frozen duals, lifted matching) after each dual update


def _build_record(raw: Instance) -> SuiteRecord:
    normalized, norm = normalize_weights(raw)
    phases = []
    checked_steps(normalized, observer=lambda s: phases.append(
        (s.frozen_duals(), lift_matching(s))))
    run = solve(normalized, mode="maximum")
    table = min_weight_by_cardinality(normalized)
    return SuiteRecord(raw, norm.shift, normalized, table, run, phases)


@pytest.fixture(scope="module")
def suite() -> list[SuiteRecord]:
    rng = random.Random(SEED)
    records = []
    start = time.perf_counter()
    for _ in range(NONNEGATIVE_COUNT):
        records.append(_build_record(random_instance(rng, low=0, high=20)))
    for _ in range(NEGATIVE_COUNT):
        records.append(_build_record(random_instance(rng, low=-10, high=10)))
    elapsed = time.perf_counter() - start
    snapshots = sum(len(r.run.snapshots) for r in records)
    print(f"\nsuite: {len(records)} instances, {snapshots} snapshots, "
          f"built in {elapsed:.1f}s")
    return records


def report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_snapshots_are_cardinality_optimal(suite):
    start = time.perf_counter()
    snapshots = 0
    for rec in suite:
        for snap in rec.run.snapshots:
            assert snap.weight == rec.table.min_weight(snap.cardinality), (
                f"instance {rec.raw}: snapshot k={snap.cardinality} has weight "
                f"{snap.weight}, oracle minimum {rec.table.min_weight(snap.cardinality)}")
            snapshots += 1
    report("criterion 1 (every snapshot cardinality-optimal)",
           f"{len(suite)} instances, {snapshots} snapshots, "
           f"{time.perf_counter() - start:.1f}s")


def test_criterion_2_certificates_sound_and_mutation_sensitive(suite):
    start = time.perf_counter()
    for rec in suite:
        assert verify_run(rec.normalized, rec.run).passed

    candidates = [(rec, snap) for rec in suite for snap in rec.run.snapshots
                  if snap.cardinality >= 1]
    rng = random.Random(SEED + 1)
    sampled = rng.sample(candidates, 100)
    for rec, snap in sampled:
        cert = transform_duals(snap.dual_state, snap.cardinality)

        bumped = replaced(cert, gamma=cert.gamma + 1)
        assert not check_cardinality_certificate(
            rec.normalized, snap.matching, bumped).passed, \
            "gamma perturbation went undetected"

        dropped = Matching(frozenset(list(snap.matching.edges)[1:]))
        assert not check_cardinality_certificate(
            rec.normalized, dropped, cert).passed, \
            "removed matched edge went undetected"
    report("criterion 2 (certificate soundness and mutation sensitivity)",
           f"{len(suite)} runs verified, {len(sampled)} snapshots mutated, "
           f"{time.perf_counter() - start:.1f}s")


def test_verdicts_match_the_reference_checker(suite):
    """The run checker, which rechecks only what changed between
    snapshots, equals the per-snapshot reference on every run, and on
    each snapshot alone with a gamma bump or a dropped matched edge."""
    rng = random.Random(SEED + 2)
    for rec in suite:
        assert verify_run(rec.normalized, rec.run) == \
            reference_verify_run(rec.normalized, rec.run)
        snap = rng.choice(rec.run.snapshots)
        cert = snap.certificate
        for m, c in ((snap.matching, replaced(cert, gamma=cert.gamma + 1)),
                     (Matching(frozenset(list(snap.matching.edges)[1:])), cert)):
            assert check_cardinality_certificate(rec.normalized, m, c) == \
                reference_check_certificate(rec.normalized, m, c)


def test_criterion_3_termination_at_matching_number(suite):
    without_perfect = 0
    for rec in suite:
        nu = rec.table.nu
        if 2 * nu < rec.normalized.node_count:
            assert rec.run.status == "no-perfect-matching"
            assert rec.run.final.cardinality == nu
            without_perfect += 1
        else:
            assert rec.run.status == "perfect-found"
            assert rec.run.final.cardinality == nu
    assert without_perfect > 0
    report("criterion 3 (termination exactly at the matching number)",
           f"{without_perfect} instances without a perfect matching")


def test_criterion_4_consecutive_snapshots_single_path(suite):
    pairs = 0
    for rec in suite:
        for prev, nxt in zip(rec.run.snapshots, rec.run.snapshots[1:]):
            diff = alternating_path_difference(prev.matching, nxt.matching)
            assert diff.kind == "single-path"
            pairs += 1
    report("criterion 4 (consecutive snapshots differ by one path)",
           f"{pairs} snapshot pairs")


def test_criterion_5_exposed_nodes_at_maximum_dual(suite):
    phases = 0
    for rec in suite:
        for duals, lifted in rec.phases:
            pi_star = accumulated_pi(duals.singleton_pi, duals.blossoms)
            for v in lifted.exposed(rec.normalized):
                assert pi_star[v] == max(pi_star)
            phases += 1
    assert phases > 0
    report("criterion 5 (exposed nodes at maximum accumulated dual)",
           f"{phases} dual updates")


def test_criterion_6_counterexample_golden():
    start = time.perf_counter()
    scenario = compare_dual_policies(figure2_instance(), [1, 1, 3])
    assert dict(scenario.uniform)[4] == 3
    assert dict(scenario.scripted)[4] == 4
    assert scenario.oracle_minima[4] == 3
    assert scenario.divergence == 4
    report("criterion 6 (scripted counterexample golden values)",
           f"uniform 3 vs scripted 4 at k=4, {time.perf_counter() - start:.2f}s")


def test_criterion_7_auxiliary_completion_agrees(suite):
    start = time.perf_counter()
    snapshots = 0
    for rec in suite:
        for snap in rec.run.snapshots:
            comp = build_auxiliary_completion(rec.normalized, snap)
            assert check_perfect_certificate(comp).passed
            assert matching_weight(comp.aux_instance,
                                   comp.extended_matching) == snap.weight
            snapshots += 1
    report("criterion 7 (perfect-completion certificate agrees)",
           f"{snapshots} completions, {time.perf_counter() - start:.1f}s")


def test_criterion_8_doubled_graph_equivalence(suite):
    start = time.perf_counter()
    for rec in suite:
        raw_minima = [rec.table.min_weight(k) - k * rec.shift
                      for k in range(rec.table.nu + 1)]
        doubled = build_doubled_graph(rec.raw)
        weight = minimum_perfect_weight(doubled)
        assert weight is not None
        assert weight == 2 * min(raw_minima)
    report("criterion 8 (doubled-graph reduction equivalence)",
           f"{len(suite)} doubled instances, {time.perf_counter() - start:.1f}s")


def test_criterion_9_half_integral_duals(suite):
    values = 0
    for rec in suite:
        dual_states = [s.dual_state for s in rec.run.snapshots]
        dual_states.extend(duals for duals, _ in rec.phases)
        for duals in dual_states:
            for pi in duals.singleton_pi:
                assert pi.denominator in (1, 2)
                values += 1
            for b in duals.blossoms:
                assert b.pi.denominator in (1, 2)
                values += 1
    report("criterion 9 (dual values are multiples of 1/2)",
           f"{values} dual values")


def test_snapshot_json_matches_golden_digest(suite):
    digest = hashlib.sha256()
    for rec in suite:
        digest.update(jsonio.dumps(jsonio.run_result_to_dict(rec.run)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST, \
        "snapshot JSON of the acceptance corpus changed"
    report("golden output", f"{len(suite)} runs byte-identical")


def test_auxiliary_output_matches_golden_digest(suite, tmp_path):
    """`reduce --auxiliary` on each snapshot, reading the raw instance and
    the snapshots file `solve --snapshots` writes for it."""
    digest = hashlib.sha256()
    inst_path, run_path = tmp_path / "instance.dimacs", tmp_path / "run.json"
    calls = 0
    for rec in suite:
        payload = jsonio.run_result_to_dict(rec.run)
        if rec.shift:
            payload["normalization"] = {"shift": jsonio.rational_to_str(rec.shift)}
        inst_path.write_text(format_instance(rec.raw))
        run_path.write_text(jsonio.dumps(payload))
        for snap in rec.run.snapshots:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main(["reduce", str(inst_path),
                             "--auxiliary", f"{run_path}:{snap.cardinality}"])
            assert code == 0
            digest.update(out.getvalue().encode())
            calls += 1
    assert digest.hexdigest() == GOLDEN_AUXILIARY_DIGEST, \
        "reduce --auxiliary output of the acceptance corpus changed"
    report("golden auxiliary output", f"{calls} completions byte-identical")


def test_snapshot_json_matches_reference_builder(suite):
    for rec in suite:
        assert (jsonio.dumps(jsonio.run_result_to_dict(rec.run))
                == json.dumps(reference_run_dict(rec.run), indent=2) + "\n")


def test_runs_round_trip_through_json(suite):
    for rec in suite:
        assert_round_trip(rec.normalized, rec.run)
    report("int-form round trip", f"{len(suite)} runs read back equal")
