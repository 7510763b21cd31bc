"""Fractional weights, beta and scripted amounts.

The engine works in integer units of 1/D and grows D when an amount from
outside is not a whole number of units. These tests pin the snapshot JSON
of a corpus that takes that path, and check that every value crossing the
API boundary is an exact Fraction in original units.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from matchcert import jsonio
from matchcert.certificates import verify_run
from matchcert.engine import (EngineState, InfeasibleUpdateError,
                              accumulated_pi, apply_dual_update, compute_alpha,
                              solve)
from matchcert.graph import Instance, format_instance
from matchcert.oracle import min_weight_by_cardinality
from matchcert.reductions import build_auxiliary_completion

from util import (assert_round_trip, checked_steps, fresh_scaled_weights,
                  reference_format_instance, reference_run_dict,
                  reference_verify_run)

SEED = 20261018
COUNT = 120
BETA = Fraction(1, 7)
# The first tree moves by 1/5, which no weight or beta denominator divides.
FIFTH = ((Fraction(1, 5),),)
# sha256 over the snapshot JSON of every corpus run, in corpus order.
GOLDEN_DIGEST = "2a629faa47782e6bb4a7115c97a6c97be40d0dc18555ee05fa0e8a7e995a4828"


def corpus():
    """(index, instance): weights with denominators 1, 2, 3 and 7, all at
    least 4/7, so 2 * beta + 1/5 fits under every edge."""
    rng = random.Random(SEED)
    for i in range(COUNT):
        n = rng.randint(4, 12)
        edges = [(u, v, Fraction(rng.randint(4, 40), rng.choice((1, 2, 3, 7))))
                 for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        yield i, Instance.from_edges(n, edges)


def corpus_run(i: int, inst: Instance):
    phases = () if i % 3 == 0 else FIFTH
    return solve(inst, mode=("maximum", "perfect")[i % 2], phases=phases, beta=BETA)


def test_snapshot_json_matches_golden_digest():
    digest = hashlib.sha256()
    for i, inst in corpus():
        digest.update(jsonio.dumps(jsonio.run_result_to_dict(corpus_run(i, inst))).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST, \
        "snapshot JSON of the fractional-weight corpus changed"


def test_snapshot_json_matches_reference_builder():
    """The runs with the 1/5 script rescale mid-run, so later snapshots
    can hold new Fraction objects for values the writer has already seen."""
    for i, inst in corpus():
        run = corpus_run(i, inst)
        assert (jsonio.dumps(jsonio.run_result_to_dict(run))
                == json.dumps(reference_run_dict(run), indent=2) + "\n")


def test_runs_round_trip_through_json():
    """Two in three runs take the 1/5 script, which grows the engine's
    scale mid-run; their snapshots still read back equal."""
    rescaled = 0
    for i, inst in corpus():
        run = corpus_run(i, inst)
        assert_round_trip(inst, run)
        rescaled += any(s.dual_state.scale % 5 == 0 for s in run.snapshots)
    assert rescaled > 0


def test_verdicts_match_the_reference_checker():
    """Runs that rescale mid-run, and scripted runs that fail their
    certificates: the run checker equals the per-snapshot reference."""
    failed = 0
    for i, inst in corpus():
        run = corpus_run(i, inst)
        verdict = verify_run(inst, run)
        assert verdict == reference_verify_run(inst, run)
        failed += not verdict.passed
    assert failed > 0


def test_completion_weights_match_a_fresh_instance():
    """Each completion carries the instance's cached ints over, plus a 0
    per helper edge; with weight denominators 1, 2, 3 and 7 they must equal
    what a fresh instance computes, and print as the Fractions do."""
    for i, inst in corpus():
        for snap in corpus_run(i, inst).snapshots:
            aux = build_auxiliary_completion(inst, snap).aux_instance
            assert aux.scaled_weights == fresh_scaled_weights(aux)
            assert format_instance(aux) == reference_format_instance(aux)


def test_uniform_runs_verify_and_match_oracle():
    checked = 0
    for i, inst in corpus():
        if i % 3 or inst.node_count > 10:
            continue
        run = corpus_run(i, inst)
        assert verify_run(inst, run).passed
        table = min_weight_by_cardinality(inst)
        assert [s.weight for s in run.snapshots] == \
            [table.min_weight(k) for k in range(len(run.snapshots))]
        checked += 1
    assert checked > 10


def test_accumulated_duals_kept_current():
    def check(state):
        duals = state.frozen_duals()
        expected = accumulated_pi(duals.singleton_pi, duals.blossoms)
        assert [Fraction(p, state._scale) for p in state._pi_star] == expected

    for i, inst in corpus():
        checked_steps(inst, phases=() if i % 3 == 0 else FIFTH, beta=BETA,
                      observer=check)


class TestBoundaryValues:
    # Path 1-2-3-4 with weights 1/2, 2/3, 5/7: the engine starts at
    # D = 2 * lcm(2, 3, 7, 7) = 84, where 1/10 is not a whole unit.
    @pytest.fixture
    def state(self):
        inst = Instance.from_edges(4, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(2, 3)),
                                       (2, 3, Fraction(5, 7))])
        state = EngineState(inst, BETA)
        assert state.grow_forest() is None
        return state

    def test_pi_node(self, state):
        assert state.pi_node == [BETA] * 4
        assert all(type(p) is Fraction for p in state.pi_node)

    def test_alpha_is_half_slack(self, state):
        result = compute_alpha(state)
        # (1/2 - 2/7) / 2
        assert type(result.alpha) is Fraction
        assert result.alpha == Fraction(3, 28)
        assert result.binding == ("edge-t-t", 0)

    def test_rejected_amount_reports_original_units(self, state):
        before = state.frozen_duals()
        with pytest.raises(InfeasibleUpdateError) as err:
            apply_dual_update(state, Fraction(1, 5))
        assert err.value.constraint == "edge-slack"
        assert type(err.value.lhs) is Fraction
        assert (err.value.lhs, err.value.rhs) == (Fraction(24, 35), Fraction(1, 2))
        assert state.frozen_duals() == before

    def test_amount_off_the_grid_is_applied_exactly(self, state):
        apply_dual_update(state, Fraction(1, 10))
        assert state.pi_node == [Fraction(17, 70)] * 4
        state.grow_forest()
        # (1/2 - 2 * 17/70) / 2
        assert compute_alpha(state).alpha == Fraction(1, 140)
        assert state.frozen_duals().singleton_pi == (Fraction(17, 70),) * 4
