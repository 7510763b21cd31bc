"""The run checker against the reference loop.

`verify_run` keeps state from one snapshot to the next and rechecks only
the edges whose dual side changed. `util.reference_verify_run` checks
every edge of every snapshot afresh. On valid runs of small graphs with
one field mutated, the two verdicts must be equal, violation for
violation; unit tests pin the checker's own paths.

Hypothesis is test-only; without it the differential test is left out.
"""

import random
from fractions import Fraction

import pytest

from matchcert.certificates import (Verdict, Violation,
                                    check_cardinality_certificate, verify_run)
from matchcert.engine import (STATUS_NO_PERFECT, STATUS_PERFECT, BlossomDual,
                              DualState, solve)
from matchcert.graph import Instance, Matching
from util import reference_verify_run, replaced

# The first tree moves by 1/5, which no weight or beta denominator
# divides, so the run rescales after its first dual update.
FIFTH = ((Fraction(1, 5),),)


def with_snapshot(run, k, snap):
    return run._replace(snapshots=run.snapshots[:k] + (snap,) + run.snapshots[k + 1:])


def forged(snap, cert):
    """A copy of snap whose cached certificate is cert, not the one its
    duals transform into."""
    copy = snap._replace()
    copy.certificate = cert
    return copy


try:
    import hypothesis
except ImportError:
    hypothesis = None

if hypothesis is not None:
    st = hypothesis.strategies
    values = st.fractions(min_value=-3, max_value=3, max_denominator=6)

    @st.composite
    def small_runs(draw):
        """A run on up to 10 nodes: integer or fractional weights of at
        least 1, so that 2 * beta + 1/5 fits under every edge; both modes,
        beta 0 or 1/7, and uniform or 1/5-scripted duals."""
        n = draw(st.integers(2, 10))
        density = draw(st.sampled_from((0.3, 0.6, 1.0)))
        high = draw(st.sampled_from((2, 12)))
        denominators = draw(st.sampled_from(((1,), (1, 2, 3))))
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        inst = Instance.from_edges(n, [
            (u, v, 1 + Fraction(rng.randint(0, high), rng.choice(denominators)))
            for u in range(n) for v in range(u + 1, n) if rng.random() < density])
        run = solve(inst, mode=draw(st.sampled_from(("maximum", "perfect"))),
                    phases=draw(st.sampled_from(((), FIFTH))),
                    beta=draw(st.sampled_from((0, Fraction(1, 7)))))
        return inst, run

    def pick_snapshot(data, run, having=lambda snap: True):
        ks = [k for k, snap in enumerate(run.snapshots) if having(snap)]
        hypothesis.assume(ks)
        k = data.draw(st.sampled_from(ks))
        return k, run.snapshots[k]

    def set_duals(snap, pi=None, blossoms=None, beta=None):
        dual = snap.dual_state
        return snap._replace(dual_state=DualState.from_fractions(
            dual.singleton_pi if pi is None else pi,
            dual.blossoms if blossoms is None else blossoms,
            dual.beta if beta is None else beta))

    def mutate_singleton(data, inst, run):
        k, snap = pick_snapshot(data, run)
        pi = list(snap.dual_state.singleton_pi)
        pi[data.draw(st.integers(0, len(pi) - 1))] = data.draw(values)
        return with_snapshot(run, k, set_duals(snap, pi=pi))

    def mutate_blossom_dual(data, inst, run):
        k, snap = pick_snapshot(data, run, lambda s: s.dual_state.blossom_units)
        blossoms = list(snap.dual_state.blossoms)
        i = data.draw(st.integers(0, len(blossoms) - 1))
        blossoms[i] = BlossomDual(blossoms[i].nodes, data.draw(values))
        return with_snapshot(run, k, set_duals(snap, blossoms=blossoms))

    def mutate_blossom_set(data, inst, run):
        if data.draw(st.booleans()):
            k, snap = pick_snapshot(data, run, lambda s: s.dual_state.blossom_units)
            blossoms = list(snap.dual_state.blossoms)
            del blossoms[data.draw(st.integers(0, len(blossoms) - 1))]
        else:
            k, snap = pick_snapshot(data, run)
            blossoms = list(snap.dual_state.blossoms)
            nodes = data.draw(st.frozensets(st.integers(0, inst.node_count - 1),
                                            min_size=1))
            blossoms.insert(data.draw(st.integers(0, len(blossoms))),
                            BlossomDual(nodes, data.draw(values)))
        return with_snapshot(run, k, set_duals(snap, blossoms=blossoms))

    def mutate_certificate(data, inst, run):
        k, snap = pick_snapshot(data, run)
        cert = snap.certificate
        field = data.draw(st.sampled_from(("gamma", "y", "z", "duplicate", "k")))
        if field == "gamma":
            cert = replaced(cert, gamma=cert.gamma + data.draw(values))
        elif field == "y":
            y = list(cert.y)
            y[data.draw(st.integers(0, len(y) - 1))] = data.draw(values)
            cert = replaced(cert, y=y)
        elif field == "z":
            nodes = data.draw(st.frozensets(st.integers(0, inst.node_count - 1),
                                            min_size=1))
            cert = replaced(cert, z=cert.z + ((nodes, data.draw(values)),))
        elif field == "duplicate":
            hypothesis.assume(cert.z)
            entry = data.draw(st.sampled_from(cert.z))
            cert = replaced(cert, z=cert.z + ((entry[0], data.draw(values)),))
        else:
            cert = replaced(cert, k=cert.k + data.draw(st.sampled_from((-1, 1))))
        return with_snapshot(run, k, forged(snap, cert))

    def mutate_weight(data, inst, run):
        k, snap = pick_snapshot(data, run)
        delta = data.draw(values.filter(bool))
        return with_snapshot(run, k, snap._replace(weight=snap.weight + delta))

    def mutate_matching(data, inst, run):
        k, snap = pick_snapshot(data, run)
        pairs = set(snap.matching.edges)
        exposed = snap.matching.exposed(inst)
        how = data.draw(st.sampled_from(("drop", "add", "other")))
        if how == "drop":
            hypothesis.assume(pairs)
            pairs.discard(data.draw(st.sampled_from(sorted(pairs))))
        elif how == "add":  # a pair of exposed nodes, edge or not
            hypothesis.assume(len(exposed) >= 2)
            u, v = data.draw(st.lists(st.sampled_from(exposed), min_size=2, max_size=2,
                                      unique=True))
            pairs.add((min(u, v), max(u, v)))
        else:
            pairs = data.draw(st.sampled_from(run.snapshots)).matching.edges
        return with_snapshot(run, k, snap._replace(matching=Matching(frozenset(pairs))))

    def mutate_status(data, inst, run):
        flipped = {STATUS_PERFECT: STATUS_NO_PERFECT, STATUS_NO_PERFECT: STATUS_PERFECT}
        return run._replace(status=flipped[run.status])

    def mutate_mode(data, inst, run):
        return run._replace(mode={"maximum": "perfect", "perfect": "maximum"}[run.mode])

    def mutate_beta(data, inst, run):
        beta = data.draw(values.filter(lambda b: b != run.beta))
        if data.draw(st.booleans()):
            return run._replace(beta=beta)
        k, snap = pick_snapshot(data, run)
        return with_snapshot(run, k, set_duals(snap, beta=beta))

    def mutate_truncation(data, inst, run):
        return run._replace(snapshots=run.snapshots[:data.draw(
            st.integers(1, len(run.snapshots)))])

    MUTATIONS = {name[len("mutate_"):]: f for name, f in globals().items()
                 if name.startswith("mutate_")}

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True, database=None,
                         suppress_health_check=[hypothesis.HealthCheck.filter_too_much])
    @hypothesis.given(small_runs(), st.data())
    def test_mutated_runs_match_the_reference(mutation, inst_run, data):
        inst, run = inst_run
        mutated = MUTATIONS[mutation](data, inst, run)
        assert verify_run(inst, mutated) == reference_verify_run(inst, mutated)


def path5_run():
    """The 5-node path 1-2-3-4-5 with weights 3, 1, 5, 2 and its run."""
    inst = Instance.from_edges(5, [(0, 1, 3), (1, 2, 1), (2, 3, 5), (3, 4, 2)])
    return inst, solve(inst)


def test_scale_change_between_snapshots():
    # Fractional weights and beta 1/7: the certificates' scale changes at
    # every step, and each change rechecks every edge.
    inst = Instance.from_edges(6, [(0, 1, Fraction(3, 2)), (1, 2, Fraction(5, 3)),
                                   (2, 3, 2), (3, 4, Fraction(7, 2)), (4, 5, 1),
                                   (0, 5, Fraction(4, 3))])
    run = solve(inst, beta=Fraction(1, 7))
    assert [snap.certificate.scale for snap in run.snapshots] == [7, 1, 4, 6]
    assert verify_run(inst, run).passed
    # A gamma raised by 1/5 at every snapshot moves every certificate to
    # a new scale and overloads every matched edge, which was tight.
    bumped = run._replace(snapshots=tuple(
        forged(snap, replaced(snap.certificate, gamma=snap.certificate.gamma + Fraction(1, 5)))
        for snap in run.snapshots))
    verdict = verify_run(inst, bumped)
    assert verdict == reference_verify_run(inst, bumped)
    overloaded = {(v.constraint, v.witness) for v in verdict.violations}
    assert all((f"edge-feasibility:k={snap.cardinality}", pair) in overloaded
               for snap in run.snapshots for pair in snap.matching.edges)


def test_forged_y_reported_only_at_its_snapshot():
    inst, run = path5_run()
    assert len(run.snapshots) == 3
    middle = run.snapshots[1]
    y = list(middle.certificate.y)
    y[2] += 5  # y_3 = 5 overloads both edges at node 3
    bad = with_snapshot(run, 1, forged(middle, replaced(middle.certificate, y=y)))
    verdict = verify_run(inst, bad)
    assert verdict == reference_verify_run(inst, bad)
    assert verdict.violations and all(v.constraint.endswith(":k=1")
                                      for v in verdict.violations)
    assert {v.witness for v in verdict.violations
            if v.constraint == "edge-feasibility:k=1"} == {(1, 2), (2, 3)}


def test_duplicated_z_set_values_add_up():
    # Two copies of one set, -1 and +1: together they add nothing to any
    # edge, and only the +1 copy is reported, as a positive z. Either copy
    # alone would make the matched edge {2, 3} loose or overloaded.
    inst, run = path5_run()
    snap = run.snapshots[1]
    nodes = frozenset({0, 1, 2})
    cert = replaced(snap.certificate, z=((nodes, Fraction(-1)), (nodes, Fraction(1))))
    bad = with_snapshot(run, 1, forged(snap, cert))
    verdict = verify_run(inst, bad)
    assert verdict == reference_verify_run(inst, bad)
    assert [(v.constraint, v.witness) for v in verdict.violations] == [
        ("z-nonpositive:k=1", nodes)]


def test_matched_non_edge_then_valid_snapshots():
    # k=1 matches the non-edge {1, 3}; the weight check skips it, and the
    # weights carried from it to k=2 are still exact.
    inst, run = path5_run()
    snap = run.snapshots[1]
    bad = with_snapshot(run, 1, snap._replace(matching=Matching.from_pairs([(0, 2)])))
    verdict = verify_run(inst, bad)
    assert verdict == reference_verify_run(inst, bad)
    constraints = [v.constraint for v in verdict.violations]
    assert "matching-edge:k=1" in constraints
    assert not any(c.startswith("snapshot-weight") for c in constraints)
    assert not any(c.endswith(":k=2") and not c.startswith("consecutive")
                   for c in constraints)


def test_one_snapshot_run_equals_the_certificate_check():
    inst, run = path5_run()
    snap = run.snapshots[0]
    cert = replaced(snap.certificate, gamma=Fraction(3), y=(Fraction(1),) * 5)
    one = run._replace(snapshots=(forged(snap, cert),), status=STATUS_NO_PERFECT)
    sub = check_cardinality_certificate(inst, snap.matching, cert)
    assert not sub.passed
    assert verify_run(inst, one) == Verdict(tuple(
        Violation(f"{v.constraint}:k=0", v.witness, v.lhs, v.rhs) for v in sub.violations))


def test_empty_run_names_the_missing_first_snapshot():
    inst, run = path5_run()
    verdict = verify_run(inst, run._replace(snapshots=()))
    assert [(v.constraint, v.witness, v.lhs, v.rhs) for v in verdict.violations] == [
        ("snapshot-cardinality-sequence:k=0", 0, "missing", 0)]
