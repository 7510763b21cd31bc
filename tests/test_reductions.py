import random
from fractions import Fraction

import pytest

from matchcert.certificates import accumulated_pi
from matchcert.engine import BlossomDual, DualState, solve
from matchcert.graph import Instance, Matching, matching_weight
from matchcert.oracle import min_weight_by_cardinality
from matchcert.reductions import (build_auxiliary_completion,
                                  build_doubled_graph,
                                  check_perfect_certificate)
from util import (edge_load, minimum_perfect_weight, random_instance,
                  reference_perfect_check)

HALF = Fraction(1, 2)


class TestAuxiliaryCompletion:
    def test_p4_k1(self, p4):
        run = solve(p4)
        comp = build_auxiliary_completion(p4, run.snapshots[1])
        assert comp.aux_instance.node_count == 6
        assert len(comp.aux_instance.edges) == len(p4.edges) + 8
        assert comp.exposed_nodes == (0, 3)
        # Helper i is node 4 + i, matched to the i-th exposed node.
        assert comp.extended_matching == Matching.from_pairs(
            [(1, 2), (0, 4), (3, 5)])
        assert matching_weight(comp.aux_instance, comp.extended_matching) == 1
        assert comp.lifted_duals.singleton_pi[4:] == (-HALF, -HALF)
        assert check_perfect_certificate(comp).passed

    def test_helper_edges_cover_all_original_nodes(self, p4):
        run = solve(p4)
        comp = build_auxiliary_completion(p4, run.snapshots[1])
        helper_pairs = {(e.u, e.v) for e in comp.aux_instance.edges[len(p4.edges):]}
        assert helper_pairs == {(v, h) for h in (4, 5) for v in range(4)}
        assert all(e.weight == 0 for e in comp.aux_instance.edges[len(p4.edges):])

    def test_completion_reuses_the_instance_weights(self, fig2):
        """A guard on the completion's cost, not its output: its scaled ints
        are carried over from the instance, never recomputed from the helper
        edges' Fractions, its one edge lookup comes with it, and checking it
        builds nothing more."""
        for snap in solve(fig2, phases=[[1, 1, 3]]).snapshots:
            comp = build_auxiliary_completion(fig2, snap)
            assert set(vars(comp.aux_instance)) == {"scaled_weights", "_incident"}
            check_perfect_certificate(comp)
            assert set(vars(comp.aux_instance)) == {"scaled_weights", "_incident"}

    def test_edge_index_follows_the_layout(self):
        """The completion, built without `Instance`'s checks, equals the
        instance its node count and edges build through them, and its
        `_incident`, derived from where its helper edges sit, equals the
        one a scan of its edges builds; helper i's edge to node v has index
        m + i*n + v. Snapshots with 0, 1 and several exposed nodes are each
        met."""
        rng = random.Random(26)
        exposed_counts = set()
        for _ in range(30):
            inst = random_instance(rng, max_nodes=11)
            n, m = inst.node_count, len(inst.edges)
            for snap in solve(inst).snapshots:
                comp = build_auxiliary_completion(inst, snap)
                aux = comp.aux_instance
                checked = Instance(aux.node_count, aux.edges)
                assert aux == checked and aux._incident == checked._incident
                for i, v in enumerate(comp.exposed_nodes):
                    assert aux.edge_index(v, n + i) == m + i * n + v
                exposed_counts.add(min(len(comp.exposed_nodes), 2))
        assert exposed_counts == {0, 1, 2}

    def test_perfect_snapshot_is_identity(self, p4):
        run = solve(p4)
        comp = build_auxiliary_completion(p4, run.snapshots[2])
        assert comp.aux_instance is p4
        assert comp.extended_matching == run.snapshots[2].matching
        assert check_perfect_certificate(comp).passed

    def test_figure2_k3(self, fig2):
        run = solve(fig2)
        comp = build_auxiliary_completion(fig2, run.snapshots[3])
        assert comp.aux_instance.node_count == 12
        assert matching_weight(comp.aux_instance, comp.extended_matching) == 0
        assert check_perfect_certificate(comp).passed

    def test_all_uniform_snapshots_certify(self, fig2):
        run = solve(fig2)
        for snap in run.snapshots:
            comp = build_auxiliary_completion(fig2, snap)
            assert check_perfect_certificate(comp).passed

    def test_perturbed_helper_dual_fails(self, p4):
        run = solve(p4)
        comp = build_auxiliary_completion(p4, run.snapshots[1])
        forged = comp._replace(lifted_duals=DualState.from_fractions(
            comp.lifted_duals.singleton_pi[:4] + (Fraction(0), -HALF),
            comp.lifted_duals.blossoms))
        verdict = check_perfect_certificate(forged)
        assert not verdict.passed
        # The matched edge {1, u1} is no longer tight; depending on the
        # perturbation direction that shows up as an overloaded edge or
        # as a slack matched edge.
        assert any(v.constraint in ("edge-feasibility", "cs-matched-edge-tight")
                   and v.witness == (0, 4)
                   for v in verdict.violations)

    def test_matched_edge_fault_reported_once(self, p4):
        run = solve(p4)
        comp = build_auxiliary_completion(p4, run.snapshots[1])
        # Raising helper u1's dual overloads the matched edge {1, u1};
        # lowering it leaves that edge slack. Each fault is named once.
        for shift, expected in ((HALF, "edge-feasibility"),
                                (-HALF, "cs-matched-edge-tight")):
            pi = list(comp.lifted_duals.singleton_pi)
            pi[4] += shift
            forged = comp._replace(lifted_duals=DualState.from_fractions(
                tuple(pi), comp.lifted_duals.blossoms))
            verdict = check_perfect_certificate(forged)
            assert [v.constraint for v in verdict.violations
                    if v.witness == (0, 4)] == [expected]

    def test_positive_blossom_left_thrice_fails(self):
        # Path 1-...-6 at its perfect snapshot, with a forged blossom
        # {1, 3, 5} at dual 1/2: each of the three matched edges leaves it,
        # so it holds none of the one matching edge its z < 0 requires.
        path = Instance.from_edges(6, [(v, v + 1, 2) for v in range(5)])
        comp = build_auxiliary_completion(path, solve(path).final)
        odd = frozenset({0, 2, 4})
        forged = comp._replace(lifted_duals=DualState.from_fractions(
            comp.lifted_duals.singleton_pi, (BlossomDual(odd, HALF),)))
        verdict = check_perfect_certificate(forged)
        assert [(v.constraint, v.witness, v.lhs, v.rhs) for v in verdict.violations
                if v.constraint == "cs-blossom-full"] == [("cs-blossom-full", odd, 0, 1)]

    def test_scripted_snapshot_refused(self, fig2):
        # At k=4 the exposed tail node c2 (node 7) sits at pi* 1, below
        # the maximum 3, so its helper edge {7, 9} is slack by 2.
        run = solve(fig2, phases=[[1, 1, 3]])
        for snap in run.snapshots[:4]:
            assert check_perfect_certificate(build_auxiliary_completion(fig2, snap)).passed
        comp = build_auxiliary_completion(fig2, run.snapshots[4])
        assert comp.exposed_nodes == (7,)
        verdict = check_perfect_certificate(comp)
        assert [(v.constraint, v.witness, v.lhs, v.rhs) for v in verdict.violations] == \
            [("cs-matched-edge-tight", (7, 9), -2, 0)]

    def test_checker_rejects_exposed_nodes_below_the_maximum(self):
        # Scripted runs with negative and fractional amounts and beta 0 or
        # 1/2: a completion fails iff an exposed node's pi* is below the
        # maximum, with one slack helper edge per such node, in helper order.
        rng = random.Random(2021)
        runs = 0
        outcomes: set[bool] = set()
        while runs < 120:
            inst = random_instance(rng, max_nodes=12, low=0, high=9)
            phases = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(rng.randint(1, 4))]
                      for _ in range(rng.randint(1, 3))]
            try:
                run = solve(inst, phases=phases, beta=rng.choice((0, HALF)))
            except ValueError:  # an infeasible amount, or more amounts than trees
                continue
            runs += 1
            n = inst.node_count
            for snap in run.snapshots:
                dual = snap.dual_state
                pi_star = accumulated_pi(dual.pi_units, dual.blossom_units)
                top = max(pi_star)
                comp = build_auxiliary_completion(inst, snap)
                expected = [("cs-matched-edge-tight", (v, n + i),
                             Fraction(pi_star[v] - top, dual.scale), 0)
                            for i, v in enumerate(comp.exposed_nodes) if pi_star[v] < top]
                verdict = check_perfect_certificate(comp)
                assert [(v.constraint, v.witness, v.lhs, v.rhs)
                        for v in verdict.violations] == expected
                outcomes.add(verdict.passed)
        assert outcomes == {True, False}

    def test_non_edge_in_matching_reported(self):
        # Path 1-2-3 with snapshot k=1 forged to match the non-edge {1, 3}.
        path = Instance.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        snap = solve(path).snapshots[1]
        forged = snap._replace(matching=Matching.from_pairs([(0, 2)]))
        verdict = check_perfect_certificate(build_auxiliary_completion(path, forged))
        assert [(v.constraint, v.witness) for v in verdict.violations] == \
            [("matching-edge", (0, 2))]

    def test_forged_fractional_completion_matches_fractions(self):
        # Weights and duals in halves, thirds and sevenths, a forged helper
        # dual and blossom dual: the int left-hand sides give the verdict
        # that the Fraction loads give, in edge order.
        rng = random.Random(17)
        forged_count = 0
        for _ in range(6):
            inst = Instance.from_edges(9, [
                (u, v, Fraction(rng.randint(2, 30), rng.choice((2, 3, 7))))
                for u in range(9) for v in range(u + 1, 9) if rng.random() < 0.5])
            run = solve(inst)
            for snap in run.snapshots:
                comp = build_auxiliary_completion(inst, snap)
                dual = comp.lifted_duals
                pi = list(dual.singleton_pi)
                pi[-1] += rng.choice((Fraction(1, 3), Fraction(-1, 7)))
                blossoms = tuple(b._replace(pi=b.pi + Fraction(1, 2))
                                 for b in dual.blossoms)
                forged = comp._replace(lifted_duals=DualState.from_fractions(tuple(pi), blossoms))
                aux, m = forged.aux_instance, forged.extended_matching
                loads = [edge_load(forged.lifted_duals, e.u, e.v) for e in aux.edges]
                expected = [("edge-feasibility", (e.u, e.v), load, e.weight)
                            if load > e.weight else
                            ("cs-matched-edge-tight", (e.u, e.v), load, e.weight)
                            for e, load in zip(aux.edges, loads)
                            if load > e.weight or (e.u, e.v) in m and load < e.weight]
                verdict = check_perfect_certificate(forged)
                assert [(v.constraint, v.witness, v.lhs, v.rhs)
                        for v in verdict.violations
                        if v.constraint != "cs-blossom-full"] == expected
                assert check_perfect_certificate(comp).passed
                forged_count += not verdict.passed
        assert forged_count > 0

    def test_matches_the_cut_form_reference(self):
        # Completions as built and with one mutation each: a singleton
        # dual, a blossom dual, an added odd set, an added even set. The
        # run checker's verdict must be the cut-form reference's, id for
        # id: edge-load is edge-feasibility with the same lhs; a negative
        # blossom dual pi is z-nonpositive at -2 pi; and, for odd sets, a
        # blossom left by `leaving` edges holds (|U| - leaving) / 2.
        rng = random.Random(41)
        steps = (Fraction(-1), -HALF, Fraction(-1, 3), Fraction(1, 3), HALF, Fraction(1))
        kinds: dict[str, list[bool]] = {}
        seen: set[str] = set()
        for _ in range(40):
            inst = random_instance(rng, max_nodes=12, low=0, high=9)
            for snap in solve(inst).snapshots:
                comp = build_auxiliary_completion(inst, snap)
                aux, m, dual = comp.aux_instance, comp.extended_matching, comp.lifted_duals
                n = aux.node_count
                pi, blossoms = list(dual.singleton_pi), list(dual.blossoms)
                variants = {"built": dual}
                pi[rng.randrange(n)] += rng.choice(steps)
                variants["singleton"] = DualState.from_fractions(tuple(pi), dual.blossoms)
                if blossoms:
                    i = rng.randrange(len(blossoms))
                    blossoms[i] = blossoms[i]._replace(pi=blossoms[i].pi + rng.choice(steps))
                    variants["blossom"] = DualState.from_fractions(dual.singleton_pi,
                                                                   tuple(blossoms))
                for kind, size in (("odd set", rng.randrange(3, n + 1, 2) if n > 2 else 1),
                                   ("even set", rng.randrange(2, n + 1, 2))):
                    added = BlossomDual(frozenset(rng.sample(range(n), size)),
                                        rng.choice(steps + (Fraction(0),)))
                    variants[kind] = DualState.from_fractions(
                        dual.singleton_pi, dual.blossoms + (added,))
                for kind, lifted in variants.items():
                    verdict = check_perfect_certificate(comp._replace(lifted_duals=lifted))
                    reference = reference_perfect_check(aux, m, lifted)
                    assert verdict.passed == reference.passed
                    assert by_constraint(verdict) == translated(reference)
                    kinds.setdefault(kind, []).append(verdict.passed)
                    seen.update(v.constraint for v in verdict.violations)
        assert all(kinds["built"])
        assert all(not all(results) for kind, results in kinds.items() if kind != "built")
        assert {"edge-feasibility", "cs-matched-edge-tight", "z-nonpositive",
                "cs-blossom-full", "odd-set", "laminar-family"} <= seen

    def test_non_perfect_matching_rejected(self, p4):
        run = solve(p4)
        comp = build_auxiliary_completion(p4, run.snapshots[2])
        broken = comp._replace(extended_matching=Matching.from_pairs([(0, 1)]))
        with pytest.raises(ValueError):
            check_perfect_certificate(broken)


def by_constraint(verdict) -> dict[str, list[tuple]]:
    """A verdict's (witness, lhs, rhs) triples by constraint, in order;
    cs-blossom-full only on odd sets, where it is the cut-form rule."""
    grouped: dict[str, list[tuple]] = {}
    for v in verdict.violations:
        if v.constraint != "cs-blossom-full" or len(v.witness) % 2:
            grouped.setdefault(v.constraint, []).append(tuple(v[1:]))
    return grouped


def translated(reference) -> dict[str, list[tuple]]:
    """`by_constraint` of the reference, under the run checker's ids and
    values."""
    names = {"edge-load": "edge-feasibility", "blossom-nonneg": "z-nonpositive",
             "cs-cut-tight": "cs-blossom-full"}
    grouped: dict[str, list[tuple]] = {}
    for constraint, witness, lhs, rhs in reference.violations:
        if constraint == "blossom-nonneg":
            lhs = -2 * lhs
        elif constraint == "cs-cut-tight":
            if not len(witness) % 2:
                continue
            lhs, rhs = (len(witness) - lhs) // 2, (len(witness) - 1) // 2
        grouped.setdefault(names.get(constraint, constraint), []).append(
            (witness, lhs, rhs))
    return grouped


class TestDoubledGraph:
    def test_single_positive_edge(self):
        inst = Instance.from_edges(2, [(0, 1, 3)])
        doubled = build_doubled_graph(inst)
        assert doubled.node_count == 4
        assert [(e.u, e.v, e.weight) for e in doubled.edges] == \
            [(0, 1, 3), (2, 3, 3), (0, 2, 0), (1, 3, 0)]
        # Both perfect matchings, by hand: the bridges beat the copies.
        bridges = matching_weight(doubled, Matching.from_pairs([(0, 2), (1, 3)]))
        copies = matching_weight(doubled, Matching.from_pairs([(0, 1), (2, 3)]))
        assert (bridges, copies) == (0, 6)
        assert minimum_perfect_weight(doubled) == 0

    def test_single_negative_edge(self):
        inst = Instance.from_edges(2, [(0, 1, -5)])
        doubled = build_doubled_graph(inst)
        copies = matching_weight(doubled, Matching.from_pairs([(0, 1), (2, 3)]))
        assert copies == -10
        assert minimum_perfect_weight(doubled) == -10

    def test_reuses_the_instance_weights(self, p4):
        doubled = build_doubled_graph(p4)
        assert "scaled_weights" in vars(doubled)
        assert doubled.scaled_weights == (1, (5, 1, 5) * 2 + (0,) * 4)

    def test_equals_the_checked_instance(self):
        """The doubled graph, built without `Instance`'s checks, equals the
        instance its node count and edges build through them."""
        rng = random.Random(28)
        for _ in range(30):
            doubled = build_doubled_graph(random_instance(rng, max_nodes=11, low=-6))
            assert doubled == Instance(doubled.node_count, doubled.edges)

    def test_p4_doubled_minimum_is_zero(self, p4):
        assert minimum_perfect_weight(build_doubled_graph(p4)) == 0

    def test_halved_optimum_matches_oracle(self):
        rng = random.Random(37)
        for _ in range(12):
            inst = random_instance(rng, max_nodes=7, low=-6, high=9)
            table = min_weight_by_cardinality(inst)
            best = min(table.min_weight(k) for k in range(table.nu + 1))
            doubled_weight = minimum_perfect_weight(build_doubled_graph(inst))
            assert doubled_weight == 2 * best
