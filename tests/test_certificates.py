import random
from fractions import Fraction

import pytest

from matchcert.certificates import check_cardinality_certificate, verify_run
from matchcert.engine import (STATUS_NO_PERFECT, STATUS_PERFECT, BlossomDual,
                              CardinalityCertificate, DualState, accumulated_pi,
                              lift_matching, solve, transform_duals)
from matchcert.graph import Instance, Matching
from matchcert.oracle import min_weight_by_cardinality
from matchcert.reductions import (AuxiliaryCompletion, build_auxiliary_completion,
                                  check_perfect_certificate)
from util import checked_steps, edge_load, random_instance, replaced

HALF = Fraction(1, 2)
ZERO = Fraction(0)


def duals(singles, blossoms=()) -> DualState:
    return DualState.from_fractions(tuple(Fraction(s) for s in singles),
                                    tuple(BlossomDual(frozenset(nodes), Fraction(pi))
                                          for nodes, pi in blossoms))


def random_laminar_duals(rng: random.Random, n: int,
                         nonnegative_blossoms: bool = True) -> DualState:
    """Random singleton duals plus a random laminar family of odd sets."""
    blossoms = []
    nodes = list(range(n))
    rng.shuffle(nodes)
    i = 0
    while i < len(nodes):
        size = rng.choice([3, 5])
        if rng.random() < 0.5 and len(nodes) - i >= size:
            group = nodes[i:i + size]
            blossoms.append(frozenset(group))
            if size == 5 and rng.random() < 0.5:
                blossoms.append(frozenset(group[:3]))  # nested member
            i += size
        else:
            i += 1
    low = 0 if nonnegative_blossoms else -4
    singles = [Fraction(rng.randint(-8, 8), rng.choice([1, 2])) for _ in range(n)]
    pis = [Fraction(rng.randint(low, 6), rng.choice([1, 2])) for _ in blossoms]
    return DualState.from_fractions(tuple(singles),
                                    tuple(BlossomDual(b, p) for b, p in zip(blossoms, pis)))


def perfect_check(inst: Instance, pairs, dual: DualState):
    """The cut-form check of a perfect matching: `check_perfect_certificate`
    on a completion with no helper nodes."""
    return check_perfect_certificate(
        AuxiliaryCompletion(inst, Matching.from_pairs(pairs), dual, ()))


def constraints(verdict) -> list[str]:
    return [v.constraint for v in verdict.violations]


def accumulate(dual: DualState) -> list[Fraction]:
    return accumulated_pi(dual.singleton_pi, dual.blossoms)


def fraction_transform(dual: DualState, k: int) -> CardinalityCertificate:
    """The certificate by its definition, in Fraction arithmetic."""
    pi_star = accumulate(dual)
    top = max(pi_star)
    return CardinalityCertificate.from_fractions(
        2 * top, tuple(p - top for p in pi_star),
        tuple((b.nodes, -2 * b.pi) for b in dual.blossoms), k)


class TestAccumulateDuals:
    def test_zero(self):
        assert accumulate(duals([0, 0, 0])) == [0, 0, 0]

    def test_singletons_only(self):
        assert accumulate(duals([HALF, HALF])) == [HALF, HALF]

    def test_blossom_contributes_to_all_members(self):
        assert accumulate(duals([0, 0, 0], [({0, 1, 2}, HALF)])) == [HALF] * 3

    def test_nested_blossoms_add_up(self):
        nested = duals([1, 0, 0, 0, 0], [({0, 1, 2}, HALF), ({0, 1, 2, 3, 4}, 1)])
        assert accumulate(nested) == [Fraction(5, 2), Fraction(3, 2),
                                      Fraction(3, 2), 1, 1]


class TestTransformDuals:
    def test_zero_map(self):
        cert = transform_duals(duals([0, 0, 0]), 0)
        assert cert.gamma == 0
        assert cert.y == (0, 0, 0)
        assert cert.z == ()
        assert cert.k == 0

    def test_singleton_values(self):
        cert = transform_duals(duals([1, 1, 0]), 1)
        assert cert.gamma == 2
        assert cert.y == (0, 0, -1)
        assert cert.z == ()

    def test_blossom_value(self):
        cert = transform_duals(duals([0, 0, 0], [({0, 1, 2}, HALF)]), 1)
        assert cert.gamma == 1
        assert cert.y == (0, 0, 0)
        assert cert.z == ((frozenset({0, 1, 2}), -1),)

    def test_matches_fraction_definition(self):
        third, seventh = Fraction(1, 3), Fraction(1, 7)
        cases = [
            duals([HALF, third, -2 * seventh, Fraction(5, 6), -3]),
            duals([-third, 0, 2 * seventh, -1, HALF],
                  [({0, 1, 2}, 0), ({0, 1, 2, 3, 4}, 3 * seventh)]),
            duals([0, Fraction(-5, 2), 1, third, 0],
                  [({0, 1, 2}, 2 * third), ({0, 1, 2, 3, 4}, 0)]),
            duals([-seventh, -HALF, -third, 0, 0, 1, 1],
                  [({0, 1, 2}, seventh), ({0, 1, 2, 3, 4}, third), ({4, 5, 6}, HALF)]),
        ]
        rng = random.Random(8)
        cases += [random_laminar_duals(rng, rng.randint(1, 12)) for _ in range(30)]
        for dual in cases:
            cert = transform_duals(dual, 2)
            assert cert == fraction_transform(dual, 2)
            values = (cert.gamma, *cert.y, *(zu for _, zu in cert.z))
            assert all(type(q) is Fraction for q in values)

    def test_always_nonpositive(self):
        rng = random.Random(5)
        for _ in range(30):
            dual = random_laminar_duals(rng, rng.randint(1, 12))
            cert = transform_duals(dual, 0)
            assert all(yv <= 0 for yv in cert.y)
            assert all(zu <= 0 for _, zu in cert.z)

    def test_edge_identity(self):
        # For every dual state and edge: y_u + y_v + z-sum + gamma equals
        # the summed dual load over sets cut by the edge. This holds for
        # arbitrary dual values, even infeasible ones.
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(2, 12)
            dual = random_laminar_duals(rng, n, nonnegative_blossoms=False)
            cert = transform_duals(dual, 0)
            for u in range(n):
                for v in range(u + 1, n):
                    z_inside = sum(zu for nodes, zu in cert.z if {u, v} <= nodes)
                    lhs = cert.y[u] + cert.y[v] + z_inside + cert.gamma
                    assert lhs == edge_load(dual, u, v)


class TestCutFeasibility:
    """The cut-form constraints on a perfect matching (load at most the
    weight, nonnegative blossom duals), checked by the one checker."""

    def test_zero_duals_pass(self, p4):
        # p4's k=0 snapshot has zero duals; its completion matches every
        # node to a helper at weight 0.
        comp = build_auxiliary_completion(p4, solve(p4).snapshots[0])
        assert comp.lifted_duals.singleton_pi == (0,) * 8
        assert check_perfect_certificate(comp).passed

    def test_overloaded_edge(self):
        inst = Instance.from_edges(2, [(0, 1, 1)])
        verdict = perfect_check(inst, [(0, 1)], duals([2, 0]))
        assert [(v.constraint, v.witness, v.lhs, v.rhs) for v in verdict.violations] \
            == [("edge-feasibility", (0, 1), 2, 1)]

    def test_negative_blossom_dual(self):
        # Both matched edges tight; the blossom's dual -1 is z = 2.
        inst = Instance.from_edges(4, [(0, 1, 0), (2, 3, 0)])
        verdict = perfect_check(inst, [(0, 1), (2, 3)],
                                duals([0, 0, 0, 1], [({0, 1, 2}, -1)]))
        assert [(v.constraint, v.witness, v.lhs, v.rhs) for v in verdict.violations] \
            == [("z-nonpositive", frozenset({0, 1, 2}), 2, 0)]

    def test_engine_states_always_feasible(self):
        # After every uniform dual update, the frozen duals certify the
        # lifted matching at its cardinality: F1 and complementary
        # slackness.
        rng = random.Random(9)
        checked = []

        def certified(inst, state):
            m = lift_matching(state)
            verdict = check_cardinality_certificate(
                inst, m, transform_duals(state.frozen_duals(), len(m)))
            assert verdict.passed, verdict.violations
            checked.append(m)

        for _ in range(15):
            inst = random_instance(rng, max_nodes=8, low=0, high=6)
            checked_steps(inst, observer=lambda s, inst=inst: certified(inst, s))
        assert checked


class TestCutLoadsOnInts:
    """The checker's int left-hand sides and verdict equal the cut-form
    loads of the Fraction definition."""

    DENOMINATORS = (1, 2, 3, 7)

    def random_case(self, rng: random.Random) -> tuple[Instance, DualState]:
        n = rng.randint(3, 12)
        family = random_laminar_duals(rng, n).blossoms
        d = self.DENOMINATORS
        dual = DualState.from_fractions(
            tuple(Fraction(rng.randint(-6, 8), rng.choice(d)) for _ in range(n)),
            # Nonnegative, and often 0: zero-pi blossoms add nothing.
            tuple(BlossomDual(b.nodes, Fraction(rng.randint(0, 3), rng.choice(d)))
                  for b in family))
        inst = Instance.from_edges(n, [
            (u, v, Fraction(rng.randint(0, 16), rng.choice(d)))
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6])
        return inst, dual

    def test_loads_and_verdicts_match_fractions(self):
        rng = random.Random(23)
        overloaded = zero_pi = 0
        for _ in range(60):
            inst, dual = self.random_case(rng)
            zero_pi += sum(b.pi == 0 for b in dual.blossoms)
            weight_scale, weights = inst.scaled_weights
            assert [Fraction(w, weight_scale) for w in weights] == \
                [e.weight for e in inst.edges]
            # Matched alone, an edge shows its left-hand side: as an F1 or
            # CS1 violation, or as its weight when tight.
            cert = transform_duals(dual, 1)
            for u, v, weight in inst.edges:
                verdict = check_cardinality_certificate(
                    inst, Matching.from_pairs([(u, v)]), cert)
                lhs = [x.lhs for x in verdict.violations if x.witness == (u, v)]
                assert (lhs or [weight]) == [edge_load(dual, u, v)]
            expected = [("edge-feasibility", (e.u, e.v), edge_load(dual, e.u, e.v), e.weight)
                        for e in inst.edges if edge_load(dual, e.u, e.v) > e.weight]
            verdict = check_cardinality_certificate(inst, Matching.empty(),
                                                    transform_duals(dual, 0))
            assert [(v.constraint, v.witness, v.lhs, v.rhs) for v in verdict.violations
                    if v.constraint == "edge-feasibility"] == expected
            overloaded += len(expected)
        assert overloaded > 0 and zero_pi > 0


class TestCardinalityCertificate:
    def test_p4_k1_pass(self, p4):
        m = Matching.from_pairs([(1, 2)])
        cert = transform_duals(duals([HALF] * 4), 1)
        assert cert.gamma == 1 and cert.y == (0, 0, 0, 0)
        assert check_cardinality_certificate(p4, m, cert).passed

    def test_reduced_to_the_smallest_scale(self):
        # Duals in halves, an integral certificate: it is kept at scale 1,
        # so it equals the certificate built from its values.
        cert = transform_duals(duals([HALF] * 4), 1)
        assert (cert.scale, cert.gamma_units, cert.y_units) == (1, 1, (0, 0, 0, 0))
        assert cert == CardinalityCertificate.from_fractions(Fraction(1), (ZERO,) * 4, (), 1)

    def test_cs2_violation_on_exposed_negative_y(self, p4):
        m = Matching.from_pairs([(1, 2)])
        cert = transform_duals(duals([HALF] * 4), 1)
        mutated = replaced(cert, y=(Fraction(-1),) + cert.y[1:])
        verdict = check_cardinality_certificate(p4, m, mutated)
        assert "cs-exposed-zero-y" in [v.constraint for v in verdict.violations]

    @pytest.mark.parametrize("pairs, values, expected", [
        # The matched edge {1, 2} carries load 1 against weight 5.
        ([(0, 1)], {}, ("cs-matched-edge-tight", (0, 1), 1, 5)),
        ([(1, 2)], {"y": (Fraction(1), ZERO, ZERO, ZERO)}, ("y-nonpositive", 0, 1, 0)),
        ([(1, 2)], {"z": ((frozenset({0, 1, 3}), Fraction(1)),)},
         ("z-nonpositive", frozenset({0, 1, 3}), 1, 0)),
    ])
    def test_single_fault_named(self, p4, pairs, values, expected):
        # p4's k=1 certificate, with one fault in the matching or the duals.
        cert = replaced(transform_duals(duals([HALF] * 4), 1), **values)
        verdict = check_cardinality_certificate(p4, Matching.from_pairs(pairs), cert)
        assert [(v.constraint, v.witness, v.lhs, v.rhs)
                for v in verdict.violations] == [expected]

    def test_empty_matching_zero_certificate(self, p4):
        cert = transform_duals(duals([0] * 4), 0)
        assert check_cardinality_certificate(p4, Matching.empty(), cert).passed

    def test_cardinality_mismatch_fails(self, p4):
        cert = transform_duals(duals([HALF] * 4), 1)
        verdict = check_cardinality_certificate(p4, Matching.empty(), cert)
        assert [v.constraint for v in verdict.violations] == ["cardinality"]

    def test_non_edge_in_matching_reported(self):
        # Path 1-2-3: the snapshot's k=1 certificate, checked against the
        # pair {1, 3}, which is not an edge.
        path = Instance.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        cert = solve(path).snapshots[1].certificate
        verdict = check_cardinality_certificate(
            path, Matching.from_pairs([(0, 2)]), cert)
        assert [(v.constraint, v.witness) for v in verdict.violations] == \
            [("matching-edge", (0, 2))]

    @pytest.mark.parametrize("pair", [(-1, 3), (-1, 0)])
    def test_negative_id_is_a_non_edge(self, pair):
        # One edge {0, 3} on 4 nodes: neither pair is that edge, though
        # index -1 of a per-node list would be node 3.
        inst = Instance.from_edges(4, [(0, 3, 5)])
        cert = CardinalityCertificate(1, 0, (0, 0, 0, 0), (), 1)
        verdict = check_cardinality_certificate(inst, Matching(frozenset({pair})), cert)
        assert [(v.constraint, v.witness) for v in verdict.violations] == \
            [("matching-edge", pair)]

    def test_gamma_bump_breaks_matched_edges(self, p4):
        run = solve(p4)
        snap = run.snapshots[2]
        cert = transform_duals(snap.dual_state, 2)
        bumped = replaced(cert, gamma=cert.gamma + 1)
        verdict = check_cardinality_certificate(p4, snap.matching, bumped)
        assert not verdict.passed
        assert any(v.constraint == "edge-feasibility" for v in verdict.violations)


class TestFamilyChecks:
    # The LP constraint x(E[U]) <= (|U|-1)/2 is valid only for odd U, and
    # the checker requires the family to be laminar, on both certificate
    # routes: a snapshot's certificate and a perfect completion's duals.
    def test_even_set_rejected_by_both_checkers(self):
        # The {1,2} "blossom" would certify the weight-10 edge {3,4} at
        # k=1, where the optimum is the weight-0 edge {1,2}. On the perfect
        # matching both edges are tight; the even set also holds one edge,
        # not (2-1)//2 = 0.
        inst = Instance.from_edges(4, [(0, 1, 0), (2, 3, 10)])
        dual = duals([0, 0, 5, 5], [({0, 1}, 5)])
        assert constraints(perfect_check(inst, [(0, 1), (2, 3)], dual)) \
            == ["odd-set", "cs-blossom-full"]
        cert = transform_duals(dual, 1)
        verdict = check_cardinality_certificate(
            inst, Matching.from_pairs([(2, 3)]), cert)
        assert [(v.constraint, v.witness) for v in verdict.violations] == \
            [("odd-set", frozenset({0, 1}))]

    @pytest.mark.parametrize("sets", [
        [{0, 1, 2}, {2, 3, 4}],                        # equal sizes
        [{2, 3, 4}, {0, 1, 2, 5, 6}],                  # smaller set first
        [set(range(7)), {0, 1, 2}, {2, 3, 4}],         # crossing inside a third
        [{0, 1, 2}, {0, 1, 2, 3, 4}, {3, 4, 5, 6, 7}],
    ])
    def test_crossing_sets_rejected(self, sets):
        pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
        inst = Instance.from_edges(8, [(u, v, 9) for u, v in pairs])
        dual = duals([0] * 8, [(nodes, 1) for nodes in sets])
        family = {"odd-set", "laminar-family"}
        verdict = perfect_check(inst, pairs, dual)
        assert [c for c in constraints(verdict) if c in family] == ["laminar-family"]
        cert = transform_duals(dual, 0)
        verdict = check_cardinality_certificate(inst, Matching.empty(), cert)
        assert [c for c in constraints(verdict) if c in family] == ["laminar-family"]

    def test_nested_and_disjoint_sets_pass(self):
        n = 41
        chain = [set(range(size)) for size in range(1, n + 1, 2)]
        disjoint = [{41, 42, 43}, {44, 45, 46}, {44, 45, 46, 47, 48}]
        pairs = [(v, v + 1) for v in range(0, 50, 2)]
        inst = Instance.from_edges(50, [(u, v, 0) for u, v in pairs])
        dual = duals([0] * 50, [(nodes, 0) for nodes in chain[::-1] + disjoint])
        assert perfect_check(inst, pairs, dual).passed
        cert = transform_duals(dual, 0)
        assert check_cardinality_certificate(inst, Matching.empty(), cert).passed

    def test_certificate_finer_than_weights(self):
        # Integer weights, a certificate in thirds: the cached int weights
        # must be brought to the certificate's scale.
        inst = Instance.from_edges(3, [(0, 1, 1), (1, 2, 1)])
        m = Matching.from_pairs([(0, 1)])
        third = Fraction(1, 3)
        cert = CardinalityCertificate.from_fractions(4 * third, (ZERO, -third, ZERO), (), 1)
        assert check_cardinality_certificate(inst, m, cert).passed
        verdict = check_cardinality_certificate(inst, m, replaced(cert, gamma=5 * third))
        assert [(v.constraint, v.witness, v.lhs, v.rhs) for v in verdict.violations] == [
            ("edge-feasibility", (0, 1), 4 * third, 1),
            ("edge-feasibility", (1, 2), 4 * third, 1)]
        assert all(type(v.lhs) is Fraction for v in verdict.violations)

    def test_violations_in_original_units(self):
        inst = Instance.from_edges(3, [(0, 1, Fraction(1, 3))])
        dual = duals([HALF, HALF, 0], [({0, 1, 2}, Fraction(1, 7))])
        cert = transform_duals(dual, 0)
        verdict = check_cardinality_certificate(inst, Matching.empty(), cert)
        edge = [v for v in verdict.violations if v.constraint == "edge-feasibility"]
        assert [(v.lhs, v.rhs) for v in edge] == [(Fraction(1), Fraction(1, 3))]
        assert type(edge[0].lhs) is Fraction


class TestVerifyRun:
    def test_p4(self, p4):
        assert verify_run(p4, solve(p4)).passed

    def test_figure2_uniform(self, fig2):
        assert verify_run(fig2, solve(fig2)).passed

    def test_figure2_scripted_fails_at_k4(self, fig2):
        run = solve(fig2, phases=[[1, 1, 3]])
        verdict = verify_run(fig2, run)
        assert not verdict.passed
        assert [v.constraint for v in verdict.violations] == \
            ["cs-exposed-zero-y:k=4"]

    def test_verdict_truth_is_passed(self, fig2):
        # A one-field named tuple is truthy even when its one field holds
        # violations; `if verdict:` must read as `if verdict.passed:`.
        for phases in ((), [[1, 1, 3]]):
            verdict = verify_run(fig2, solve(fig2, phases=phases))
            assert bool(verdict) == verdict.passed == (not phases)

    def test_tampered_weight_detected(self, p4):
        run = solve(p4)
        snap = run.snapshots[1]
        tampered = run._replace(snapshots=(
            run.snapshots[0], snap._replace(weight=snap.weight + 1),
            run.snapshots[2]))
        verdict = verify_run(p4, tampered)
        assert any(v.constraint.startswith("snapshot-weight")
                   for v in verdict.violations)

    def test_non_edge_is_dropped_when_it_leaves(self):
        # Path 1-2-3-4-5: k=1 matches the non-edge {1, 3}, and k=2's matching
        # no longer holds it. It is reported at k=1 only, and k=2's weight is
        # checked again, so a forged k=2 weight is caught.
        path5 = Instance.from_edges(5, [(0, 1, 3), (1, 2, 1), (2, 3, 5), (3, 4, 2)])
        run = solve(path5)
        zero, one, two = run.snapshots
        bad = run._replace(snapshots=(
            zero, one._replace(matching=Matching.from_pairs([(0, 2)])),
            two._replace(weight=two.weight + 1)))
        verdict = verify_run(path5, bad)
        assert [(v.constraint, v.witness, v.lhs, v.rhs) for v in verdict.violations
                if v.constraint.startswith(("matching-edge", "snapshot-weight"))] == [
            ("matching-edge:k=1", (0, 2), "not an edge", "edge"),
            ("snapshot-weight:k=2", None, two.weight + 1, two.weight)]

    def test_status_must_agree_with_final_matching(self, p4):
        run = solve(p4)
        assert run.status == STATUS_PERFECT
        verdict = verify_run(p4, run._replace(status=STATUS_NO_PERFECT))
        assert [(v.constraint, v.witness, v.lhs, v.rhs)
                for v in verdict.violations] == \
            [("run-status", STATUS_NO_PERFECT, 4, 4)]

        path5 = Instance.from_edges(5, [(0, 1, 3), (1, 2, 1), (2, 3, 5), (3, 4, 2)])
        run = solve(path5)
        assert run.status == STATUS_NO_PERFECT and verify_run(path5, run).passed
        verdict = verify_run(path5, run._replace(status=STATUS_PERFECT))
        assert [(v.constraint, v.witness, v.lhs, v.rhs)
                for v in verdict.violations] == \
            [("run-status", STATUS_PERFECT, 4, 5)]

    def test_soundness_against_oracle(self):
        # A passing certificate means the snapshot weight equals the
        # brute-force minimum at that cardinality.
        rng = random.Random(13)
        for _ in range(15):
            inst = random_instance(rng, max_nodes=8, low=0, high=9)
            run = solve(inst)
            assert verify_run(inst, run).passed
            table = min_weight_by_cardinality(inst)
            for snap in run.snapshots:
                assert snap.weight == table.min_weight(snap.cardinality)
