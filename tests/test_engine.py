import copy
import inspect
import random
import sys
from fractions import Fraction

import pytest

from matchcert import engine
from matchcert.engine import (AlphaResult, AlternatingWalk, EngineState,
                              EngineStateError, InfeasibleUpdateError, _Blossom,
                              _completion, apply_dual_update, compute_alpha,
                              lift_matching, shrink_blossom, solve)
from matchcert.graph import Instance, Matching, alternating_path_difference
from matchcert.oracle import min_weight_by_cardinality
from util import (advance_to_dual_phase, assert_view_form, checked_steps,
                  edge_load, random_instance, reference_view)

HALF = Fraction(1, 2)


def observable(state: EngineState) -> tuple:
    """The stored matching, node duals and view: what a rejected call must
    leave as it was."""
    return dict(state.mates), state.pi_node, state.shrunken_view()


def rejected_unchanged(state: EngineState, call, message: str) -> ValueError:
    """`call()` raises ValueError with `message` and changes no observable;
    returns the error."""
    before = observable(state)
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
    assert observable(state) == before
    assert state.shrunken_view() is before[2]
    return err.value


def edge_slack(state: EngineState, edge_index: int) -> Fraction:
    """w_e minus the cut-form dual load of edge e."""
    e = state.inst.edges[edge_index]
    return e.weight - edge_load(state.frozen_duals(), e.u, e.v)


class TestSolveRuns:
    def test_p4_maximum(self, p4):
        run = solve(p4)
        assert run.status == "perfect-found"
        assert [(s.cardinality, s.weight) for s in run.snapshots] == \
            [(0, 0), (1, 1), (2, 10)]
        assert run.snapshots[1].matching == Matching.from_pairs([(1, 2)])
        assert run.snapshots[2].matching == Matching.from_pairs([(0, 1), (2, 3)])

    def test_triangle_perfect_mode(self, triangle):
        run = solve(triangle, mode="perfect")
        assert run.status == "no-perfect-matching"
        assert run.infeasible
        assert [(s.cardinality, s.weight) for s in run.snapshots] == [(0, 0), (1, 1)]
        assert run.snapshots[1].matching == Matching.from_pairs([(0, 1)])

    def test_triangle_maximum_mode(self, triangle):
        run = solve(triangle, mode="maximum")
        assert run.status == "no-perfect-matching"
        assert not run.infeasible
        assert run.final.cardinality == 1

    def test_figure2_uniform(self, fig2):
        run = solve(fig2)
        assert run.status == "no-perfect-matching"
        assert [(s.cardinality, s.weight) for s in run.snapshots] == \
            [(0, 0), (1, 0), (2, 0), (3, 0), (4, 3)]

    def test_figure2_scripted(self, fig2):
        run = solve(fig2, phases=[[1, 1, 3]])
        assert run.final.cardinality == 4
        assert run.final.weight == 4
        # The mis-steered augmentation uses the weight-4 tip edge.
        assert (0, 2) in run.final.matching

    def test_edgeless_instance(self):
        run = solve(Instance.from_edges(3, []))
        assert run.status == "no-perfect-matching"
        assert run.final.cardinality == 0

    def test_single_edge_perfect(self):
        run = solve(Instance.from_edges(2, [(0, 1, 4)]), mode="perfect")
        assert run.status == "perfect-found"
        assert run.final.weight == 4

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            solve(Instance.from_edges(2, [(0, 1, -1)]))

    def test_bad_mode(self, p4):
        with pytest.raises(ValueError):
            solve(p4, mode="fastest")

    def test_determinism(self, fig2):
        assert solve(fig2) == solve(fig2)
        phases = [[1, 1, 3]]
        assert solve(fig2, phases=phases) == solve(fig2, phases=phases)

    def test_signature_holds_only_the_run_inputs(self, p4):
        assert list(inspect.signature(solve).parameters) == \
            ["inst", "mode", "phases", "beta"]
        # beta is still the fourth positional argument.
        assert solve(p4, "maximum", (), HALF) == solve(p4, beta=HALF)


class TestBeta:
    def test_negative_beta_rejected(self, p4):
        with pytest.raises(ValueError):
            solve(p4, beta=-1)

    def test_infeasible_beta_rejected(self, p4):
        # 2 * beta may not exceed the minimum edge weight (here 1).
        with pytest.raises(ValueError):
            solve(p4, beta=1)

    def test_feasible_beta_runs(self, p4):
        run = solve(p4, beta=HALF)
        assert run.beta == HALF
        assert run.status == "perfect-found"
        assert [s.weight for s in run.snapshots] == [0, 1, 10]
        assert all(p == HALF for p in run.snapshots[0].dual_state.singleton_pi)


class TestComputeAlpha:
    def test_p4_initial_phase(self, p4):
        state = EngineState(p4)
        assert state.grow_forest() is None
        result = compute_alpha(state)
        assert result.alpha == HALF
        assert result.binding == ("edge-t-t", 1)

    def test_figure2_first_dual_phase(self, fig2):
        state = EngineState(fig2)
        advance_to_dual_phase(state)
        assert lift_matching(state) == Matching.from_pairs([(0, 3), (1, 4), (2, 5)])
        result = compute_alpha(state)
        assert result.alpha == Fraction(3, 2)
        assert result.binding == ("edge-t-t", 6)

    def test_equal_bounds_bind_the_first_edge(self):
        inst = Instance.from_edges(4, [(0, 1, 2), (1, 2, 2), (2, 3, 2)])
        state = EngineState(inst)
        assert state.grow_forest() is None
        assert compute_alpha(state) == AlphaResult(Fraction(1), ("edge-t-t", 0))

    def test_zero_alpha_from_blossom(self, c5_two_tails):
        # Step the run until an S-labeled blossom with dual 0 binds.
        state = EngineState(c5_two_tails)
        saw_zero = False
        while True:
            advance_to_dual_phase(state)
            result = compute_alpha(state)
            if result.alpha is None:
                break
            if result.alpha == 0:
                saw_zero = True
                assert result.binding == ("blossom-nonneg", frozenset(range(5)))
                before = lift_matching(state)
                apply_dual_update(state, result.alpha)
                # The binding blossom was deshrunken; the matching is intact.
                assert state.blossoms == []
                assert lift_matching(state) == before
            else:
                apply_dual_update(state, result.alpha)
        assert saw_zero

    def test_state_error_when_walk_pending(self, p4):
        state = EngineState(p4)
        advance_to_dual_phase(state)
        apply_dual_update(state, compute_alpha(state).alpha)
        assert state.grow_forest() is not None
        with pytest.raises(EngineStateError):
            compute_alpha(state)
        with pytest.raises(EngineStateError):
            apply_dual_update(state, 1)


class TestApplyDualUpdate:
    def test_p4_uniform_half(self, p4):
        state = EngineState(p4)
        state.grow_forest()
        apply_dual_update(state, HALF)
        assert state.pi_node == [HALF] * 4
        assert edge_slack(state, 1) == 0  # edge {2, 3} became tight

    def test_figure2_scripted_amounts(self, fig2):
        state = EngineState(fig2)
        advance_to_dual_phase(state)
        roots = sorted(state.forest_labels().roots)
        assert roots == [6, 7, 8]  # the three exposed tail nodes c1, c2, c3
        apply_dual_update(state, dict(zip(roots, map(Fraction, (1, 1, 3)))))
        assert state.pi_node == [1, 1, 3, -1, -1, -3, 1, 1, 3]
        assert edge_slack(state, 8) == 0      # {a1, a3}, weight 4: 1 + 3 tight
        assert edge_slack(state, 6) == 1      # {a1, a2}, weight 3
        assert edge_slack(state, 7) == 1      # {a2, a3}, weight 5

    def test_infeasible_amounts_rejected_state_unchanged(self, fig2):
        state = EngineState(fig2)
        advance_to_dual_phase(state)
        before = state.frozen_duals()
        roots = sorted(state.forest_labels().roots)
        with pytest.raises(InfeasibleUpdateError) as err:
            apply_dual_update(state, dict(zip(roots, map(Fraction, (10, 0, 0)))))
        assert err.value.constraint == "edge-slack"
        assert state.frozen_duals() == before

    def test_uniform_larger_than_alpha_rejected(self, p4):
        state = EngineState(p4)
        state.grow_forest()
        with pytest.raises(InfeasibleUpdateError):
            apply_dual_update(state, 1)  # alpha is only 1/2

    def test_step_past_a_blossom_dual_rejected(self, c5_two_tails):
        # The second dual phase has the S-labeled blossom {1..5} at dual 0,
        # so any positive step would make its dual negative.
        state = EngineState(c5_two_tails)
        advance_to_dual_phase(state)
        apply_dual_update(state, compute_alpha(state).alpha)
        advance_to_dual_phase(state)
        before = state.frozen_duals()
        with pytest.raises(InfeasibleUpdateError) as err:
            apply_dual_update(state, 1)
        assert (err.value.constraint, err.value.witness, err.value.lhs, err.value.rhs) \
            == ("blossom-nonneg", frozenset(range(5)), -1, 0)
        assert str(err.value) == "blossom-nonneg: witness=[1, 2, 3, 4, 5] lhs=-1 rhs=0"
        assert state.frozen_duals() == before

    def test_edge_slack_message_names_the_ends(self, p4):
        state = EngineState(p4)
        state.grow_forest()
        with pytest.raises(InfeasibleUpdateError) as err:
            apply_dual_update(state, 100)
        # Edge index 0 is {1, 2} in 1-based ids; the attribute stays 0-based.
        assert err.value.witness == 0
        assert str(err.value) == "edge-slack: witness=[1, 2] lhs=200 rhs=5"

    def test_amounts_for_a_non_root_rejected_state_unchanged(self, fig2):
        state = EngineState(fig2)
        advance_to_dual_phase(state)
        assert sorted(state.forest_labels().roots) == [6, 7, 8]
        rejected_unchanged(state, lambda: apply_dual_update(state, {0: 1, 6: 1}),
                           "amounts given for non-root view nodes [0]")

    def test_too_many_scripted_amounts(self, fig2):
        with pytest.raises(ValueError):
            solve(fig2, phases=[[1, 1, 1, 1]])

    def test_missing_trees_get_zero(self, p4):
        # One amount for four trees: the other three duals stay put.
        run = solve(p4, phases=[[1]])
        assert run.status == "perfect-found"
        assert [s.weight for s in run.snapshots] == [0, 1, 10]


class TestShrinkAndLift:
    def test_lift_identity_without_blossoms(self, p4):
        state = EngineState(p4)
        assert lift_matching(state) == Matching.empty()

    def test_shrink_rejects_path(self, p4):
        state = EngineState(p4)
        advance_to_dual_phase(state)
        apply_dual_update(state, compute_alpha(state).alpha)
        walk = state.grow_forest()
        assert walk is not None and walk.is_path()
        with pytest.raises(ValueError):
            shrink_blossom(state, walk)

    def test_augment_rejects_non_path(self, c5_two_tails):
        state = EngineState(c5_two_tails)
        while True:
            walk = state.grow_forest()
            if walk is not None and not walk.is_path():
                break
            if walk is not None:
                state.augment(walk)
            else:
                apply_dual_update(state, compute_alpha(state).alpha)
        with pytest.raises(ValueError):
            state.augment(walk)

    def test_augment_rejects_a_matched_end(self, fig2):
        state = EngineState(fig2)
        walk = state.grow_forest()
        assert walk is not None and walk.is_path()
        state.augment(walk)
        rejected_unchanged(state, lambda: state.augment(walk),
                           "augmenting path must join two exposed nodes")

    def test_shrink_rejects_an_open_walk(self, fig2):
        # Node 0 repeats, so the walk is no path, but it ends at node 1.
        state = EngineState(fig2)
        walk = AlternatingWalk((0, 3, 0, 1), (0, 0, 6))
        assert not walk.is_path()
        rejected_unchanged(state, lambda: shrink_blossom(state, walk),
                           "non-path walk must start and end at the same exposed node")

    def test_shrink_preserves_lifted_matching(self, c5_two_tails):
        state = EngineState(c5_two_tails)
        shrinks = 0
        while True:
            walk = state.grow_forest()
            if walk is None:
                result = compute_alpha(state)
                if result.alpha is None:
                    break
                apply_dual_update(state, result.alpha)
                continue
            if walk.is_path():
                state.augment(walk)
                continue
            before = lift_matching(state)
            shrink_blossom(state, walk)
            shrinks += 1
            assert lift_matching(state) == before
            assert state.blossoms[-1].pi == 0
        assert shrinks > 0

    def test_triangle_blossom_shrinks_to_one_node(self, c5_two_tails):
        # Any shrink collapses the cycle to a single view node.
        state = EngineState(c5_two_tails)
        while True:
            walk = state.grow_forest()
            if walk is not None and not walk.is_path():
                nodes_before = len(state.shrunken_view().incident)
                cycle_len = len(set(walk.nodes))
                shrink_blossom(state, walk)
                assert len(state.shrunken_view().incident) == nodes_before - cycle_len + 1
                break
            if walk is not None:
                state.augment(walk)
            else:
                apply_dual_update(state, compute_alpha(state).alpha)

    def test_nested_blossoms_form_and_lift(self, nested_blossom_instance):
        state = EngineState(nested_blossom_instance)
        while True:
            walk = state.grow_forest()
            if walk is None:
                result = compute_alpha(state)
                if result.alpha is None:
                    break
                apply_dual_update(state, result.alpha)
                continue
            if walk.is_path():
                state.augment(walk)
            else:
                shrink_blossom(state, walk)
        duals = state.frozen_duals()
        families = sorted((sorted(b.nodes) for b in duals.blossoms), key=len)
        assert families == [[0, 1, 2], [0, 1, 2, 3, 4]]
        lifted = lift_matching(state)
        assert len(lifted) == 2
        # Near-perfect interiors at both nesting levels.
        assert lifted.count_inside({0, 1, 2}) == 1
        assert lifted.count_inside({0, 1, 2, 3, 4}) == 2


class TestCompletionRule:
    @staticmethod
    def lifted(rec, entry, pairs):
        """The completion's edge indices read back as node pairs."""
        return {pairs[i] for i in _completion(rec, entry, pairs)}

    def test_triangle_interior(self):
        pairs = [(0, 1), (1, 2), (0, 2)]
        rec = _Blossom(frozenset({0, 1, 2}), [0, 1, 2], [0, 1, 2])
        # External matched edge at node 0: the opposite edge is matched.
        assert self.lifted(rec, 0, pairs) == {(1, 2)}
        assert self.lifted(rec, 1, pairs) == {(0, 2)}
        assert self.lifted(rec, 2, pairs) == {(0, 1)}
        # Exposed blossom: the base (cycle[0]) stays uncovered.
        assert self.lifted(rec, None, pairs) == {(1, 2)}

    def test_two_level_interior_counts(self):
        pairs = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 4)]
        inner = _Blossom(frozenset({0, 1, 2}), [0, 1, 2], [0, 1, 2])
        outer = _Blossom(frozenset(range(5)), [inner, 3, 4], [3, 4, 5])
        interior = self.lifted(outer, 3, pairs)
        assert interior == {(0, 4), (1, 2)}
        inside_inner = {e for e in interior if set(e) <= {0, 1, 2}}
        assert len(inside_inner) == (3 - 1) // 2
        assert len(interior) == (5 - 1) // 2

    def test_five_cycle_entry_points(self):
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
        rec = _Blossom(frozenset(range(5)), [0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
        assert self.lifted(rec, 0, pairs) == {(1, 2), (3, 4)}
        assert self.lifted(rec, 2, pairs) == {(3, 4), (0, 1)}
        assert self.lifted(rec, 4, pairs) == {(0, 1), (2, 3)}


class TestEngineInvariantsOnRandomRuns:
    def test_invariants(self):
        rng = random.Random(23)
        for _ in range(25):
            inst = random_instance(rng, max_nodes=9, low=0, high=8)
            states = []
            checked_steps(inst, observer=lambda s: states.append(
                (s.frozen_duals(), lift_matching(s))))
            run = solve(inst)
            # Matched nodes stay matched from snapshot to snapshot.
            for prev, nxt in zip(run.snapshots, run.snapshots[1:]):
                assert prev.matching.covered <= nxt.matching.covered
                assert nxt.cardinality == prev.cardinality + 1
                diff = alternating_path_difference(prev.matching, nxt.matching)
                assert diff.kind == "single-path"
            # Dual feasibility and matched-edge tightness at every phase.
            for duals, lifted in states:
                for b in duals.blossoms:
                    assert b.pi >= 0
                    if b.pi > 0:
                        assert lifted.count_inside(b.nodes) == (len(b.nodes) - 1) // 2
                for e in inst.edges:
                    load = edge_load(duals, e.u, e.v)
                    assert load <= e.weight
                    if (e.u, e.v) in lifted:
                        assert load == e.weight

    def test_no_perfect_matching_reaches_matching_number(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(25):
            inst = random_instance(rng, max_nodes=9, low=0, high=8)
            run = solve(inst)
            table = min_weight_by_cardinality(inst)
            if run.status == "no-perfect-matching":
                assert run.final.cardinality == table.nu
                checked += 1
            else:
                assert 2 * run.final.cardinality == inst.node_count
        assert checked > 0

    def test_observer_called_after_each_dual_update(self, p4):
        calls = []
        checked_steps(p4, observer=lambda s: calls.append(s.frozen_duals()))
        assert calls
        assert calls[0].singleton_pi == (HALF,) * 4


def nested_ladder(depth: int) -> Instance:
    """A weight-0 triangle; each level adds a weight-0 pair joined to the
    previous level's two newest nodes by weight-2 rungs, closing an odd
    cycle around the previous blossom; a pendant edge heavier than all
    rungs together forces one last augmentation through the whole nest."""
    edges = [(0, 1, 0), (1, 2, 0), (0, 2, 0)]
    left, right, n = 2, 0, 3
    for _ in range(depth):
        a, b = n, n + 1
        edges += [(left, a, 2), (a, b, 0), (b, right, 2)]
        left, right, n = a, b, n + 2
    edges.append((left, n, 2 * (depth + 1)))
    return Instance.from_edges(n + 1, edges)


class TestDeepNesting:
    def test_blossom_walks_do_not_recurse(self):
        inst = nested_ladder(40)
        limit = sys.getrecursionlimit()
        # Leave far fewer free frames than the nesting depth.
        sys.setrecursionlimit(len(inspect.stack()) + 30)
        try:
            run = solve(inst)
        finally:
            sys.setrecursionlimit(limit)
        assert run.final.cardinality == inst.node_count // 2
        depth = max(sum(v in b.nodes for b in snap.dual_state.blossoms)
                    for snap in run.snapshots for v in range(inst.node_count))
        assert depth == 41


def sparse_instance(seed: int, n: int = 64, degree: int = 8) -> Instance:
    """n nodes, n * degree / 2 distinct random pairs, weights 0..100."""
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < n * degree // 2:
        pairs.add(tuple(sorted(rng.sample(range(n), 2))))
    return Instance.from_edges(n, [(u, v, rng.randint(0, 100)) for u, v in sorted(pairs)])


class TestCarriedView:
    """The view is kept, remapped or rebuilt from the dual update's scan,
    never from scratch except at the start and after an expansion; after
    every step it must equal the view built from its definition."""

    @pytest.mark.parametrize("seed", range(5))
    def test_sparse_graphs(self, seed):
        counts, _ = checked_steps(sparse_instance(seed))
        assert counts["augment"] == 32 and counts["dual_update"] > 0

    def test_ladder(self):
        counts, _ = checked_steps(nested_ladder(12))
        assert counts["shrink"] >= 12

    def test_run_with_expansions(self, c5_two_tails):
        assert checked_steps(c5_two_tails)[0]["expansion"] == 1
        assert checked_steps(sparse_instance(7))[0]["expansion"] == 4

    def test_scripted_fifth_rescales(self):
        # 1/5 is a multiple of no weight or beta denominator, so the first
        # update grows the engine's scale.
        inst = Instance.from_edges(5, [
            (0, 1, Fraction(9, 2)), (1, 2, Fraction(10, 3)), (2, 3, Fraction(30, 7)),
            (3, 4, 4), (0, 4, Fraction(13, 3)), (1, 3, Fraction(11, 2))])
        counts, _ = checked_steps(inst, phases=[[Fraction(1, 5)]],
                                  beta=Fraction(1, 7))
        assert counts["rescale"] == 1

    def test_rescale_after_a_shrink(self, nested_blossom_instance):
        # The triangle {1, 2, 3} is shrunk before the first dual update, so
        # the fifths phase rescales a blossom dual of 0 and the sevenths
        # phase one of 1/5.
        counts, _ = checked_steps(nested_blossom_instance,
                                  phases=[[Fraction(1, 5)], [Fraction(1, 7)]])
        assert counts["shrink"] >= 1 and counts["rescale"] == 2

    def test_augment_keeps_the_view_object(self, fig2):
        state = EngineState(fig2)
        walk = state.grow_forest()
        assert walk is not None and walk.is_path()
        view = state.shrunken_view()
        state.augment(walk)
        assert state.shrunken_view() is view
        assert view == reference_view(state)

    def test_rejected_update_keeps_a_valid_view(self, fig2):
        state = EngineState(fig2)
        advance_to_dual_phase(state)
        with pytest.raises(InfeasibleUpdateError):
            apply_dual_update(state, 1000)
        assert state.shrunken_view() == reference_view(state)


@pytest.fixture
def scans(monkeypatch) -> list:
    """The calls of the full edge scan, `engine._tight_view`, as they come."""
    calls = []
    scan = engine._tight_view
    monkeypatch.setattr(engine, "_tight_view",
                        lambda *args: calls.append(args) or scan(*args))
    return calls


def step_checked(state: EngineState, amounts) -> bool:
    """Apply one dual update and check the view it leaves against
    `reference_view`, in `assert_view_form`'s order, with the previous view
    unchanged. True when the update expanded a blossom."""
    before, blossoms = state.shrunken_view(), set(state.blossoms)
    frozen = copy.deepcopy(before)
    apply_dual_update(state, amounts)
    assert state.shrunken_view() == reference_view(state)
    assert_view_form(state.shrunken_view())
    assert before == frozen
    return set(state.blossoms) != blossoms


class TestPatchedDualStep:
    """A uniform step of at most alpha, proved by `compute_alpha` on the
    current forest, patches the view; every other update scans all edges."""

    @pytest.mark.parametrize("seed", [1, 7])
    def test_alpha_and_half_alpha_steps(self, scans, seed):
        # Every other dual phase steps alpha / 2 before the alpha after it.
        state, steps, expansions = EngineState(sparse_instance(seed)), [], 0
        while True:
            advance_to_dual_phase(state)
            alpha = compute_alpha(state).alpha
            if alpha is None:
                break
            amount = alpha / 2 if len(steps) % 2 == 0 else alpha
            expansions += step_checked(state, amount)
            steps.append(amount == alpha)
        assert len(scans) == 1 + expansions
        assert steps.count(True) > 20 and steps.count(False) > 20
        assert expansions > 0 or seed == 1

    def test_odd_bound_doubles_the_scale(self, scans):
        inst = Instance.from_edges(4, [(0, 1, 1), (1, 2, 5), (2, 3, 5)])
        state = EngineState(inst)
        state.grow_forest()
        step_checked(state, {0: HALF})  # a per-tree map scans all edges
        result = compute_alpha(state)
        # Edge 0's slack 1/2 bounds alpha by 1 in units of 1/(2 * scale).
        assert result == AlphaResult(Fraction(1, 4), ("edge-t-t", 0))
        scale = state._scale
        step_checked(state, result.alpha)
        assert state._scale == 2 * scale
        assert len(scans) == 2
        assert state.shrunken_view().incident[0] == [(0, 1)]

    def test_amount_above_alpha_still_names_the_first_overloaded_edge(self, p4, scans):
        state = EngineState(p4)
        assert compute_alpha(state).alpha == HALF
        err = rejected_unchanged(state, lambda: apply_dual_update(state, 1),
                                 "edge-slack: witness=[2, 3] lhs=2 rhs=1")
        assert isinstance(err, InfeasibleUpdateError)
        assert (err.constraint, err.witness, err.lhs, err.rhs) == ("edge-slack", 1, 2, 1)
        assert len(scans) == 2

    def test_overloading_map_still_names_the_first_overloaded_edge(self, fig2, scans):
        state = EngineState(fig2)
        advance_to_dual_phase(state)
        assert compute_alpha(state).alpha == Fraction(3, 2)
        for amounts in ({6: 10}, {6: 10, 7: 0, 8: Fraction(1, 3)}):
            err = rejected_unchanged(state, lambda: apply_dual_update(state, amounts),
                                     "edge-slack: witness=[1, 2] lhs=10 rhs=3")
            assert isinstance(err, InfeasibleUpdateError)
            assert (err.constraint, err.witness, err.lhs, err.rhs) == ("edge-slack", 6, 10, 3)
        assert len(scans) == 3

    def test_refused_update_keeps_the_proof(self, fig2, scans):
        state = EngineState(fig2)
        advance_to_dual_phase(state)
        alpha = compute_alpha(state).alpha
        scale = state._scale
        # Refused after the scale grew for the fifths: the proof's bound
        # is still compared at the scale it was found in.
        with pytest.raises(InfeasibleUpdateError):
            apply_dual_update(state, alpha + Fraction(1, 5))
        assert state._scale == 5 * scale
        with pytest.raises(InfeasibleUpdateError):
            apply_dual_update(state, {6: 10})
        assert len(scans) == 3
        step_checked(state, alpha)
        assert len(scans) == 3

    def test_proof_ends_at_the_next_mutation(self, p4, scans):
        state = EngineState(p4)
        assert compute_alpha(state).alpha == HALF
        step_checked(state, HALF / 2)
        # alpha is now 1/4; the first proof would have covered 1/2.
        rejected_unchanged(state, lambda: apply_dual_update(state, HALF),
                           "edge-slack: witness=[2, 3] lhs=3/2 rhs=1")
        assert len(scans) == 2

    def test_expanding_step_scans_all_edges(self, c5_two_tails, scans):
        state, expansions = EngineState(c5_two_tails), 0
        while True:
            advance_to_dual_phase(state)
            result = compute_alpha(state)
            if result.alpha is None:
                break
            expanded = step_checked(state, result.alpha)
            assert expanded == (result.binding[0] == "blossom-nonneg")
            expansions += expanded
        assert expansions == 1 and len(scans) == 2

    @pytest.mark.parametrize("phases", [(), ((0,), (1, 0))])
    def test_solve_scans_all_edges_only_when_it_must(self, scans, monkeypatch, phases):
        # No output shows which path an update took; a proof that went
        # stale would cost the gain and pass every other test.
        full = []
        apply = engine.apply_dual_update

        def counted(state, amounts):
            blossoms = set(state.blossoms)
            apply(state, amounts)
            full.append(isinstance(amounts, dict) or set(state.blossoms) != blossoms)
            return state

        monkeypatch.setattr(engine, "apply_dual_update", counted)
        solve(sparse_instance(7), phases=phases)
        assert len(scans) == 1 + sum(full)
        assert sum(full) == 4 + len(phases) and len(full) > 60
