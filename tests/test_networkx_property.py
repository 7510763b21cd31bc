"""Property test beyond the oracle's node budget: random sparse graphs of
up to 120 nodes, checked by the certificate verifier and against
networkx's maximum-cardinality matching on negated weights (the verdict
also against the per-snapshot reference checker), and stepped
through the engine with its carried view checked after every step.

networkx also checks the paper's theorem at every cardinality, where the
oracle cannot reach: snapshot k's matching maximizes lambda * |M| - w(M)
over all matchings at lambda = gamma of its certificate. On graphs of up
to 40 nodes with negative weights it checks the unconstrained optimum,
and the doubled graph's perfect optimum against it. It checks the theorem
too on runs whose every dual phase is split into two uniform steps.

Hypothesis and networkx are test-only; the module is skipped without them.
"""

import random
from fractions import Fraction

import pytest

from matchcert.certificates import verify_run
from matchcert.engine import solve
from matchcert.graph import Instance, normalize_weights, scaled
from matchcert.reductions import build_doubled_graph
from util import checked_steps, random_instance, reference_verify_run

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
st = hypothesis.strategies


@st.composite
def sparse_instances(draw, max_nodes: int = 120, signed: bool = False) -> Instance:
    """n <= max_nodes nodes with about n * degree / 2 edges and integer
    weights in [0, high], or [-high, high] when signed; the edges come from
    a drawn seed, so shrinking works on n, degree, the weight range and
    the seed."""
    n = draw(st.integers(2, max_nodes))
    degree = draw(st.sampled_from((1, 2, 3, 5, 8)))
    high = draw(st.sampled_from((0, 3, 100)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n * degree // 2)}
    low = -high if signed else 0
    return Instance.from_edges(n, [(u, v, rng.randint(low, high)) for u, v in sorted(pairs)])


def networkx_matching(edges, maxcardinality: bool) -> tuple[int, int]:
    """(size, weight) of networkx's maximum-weight matching on the
    (u, v, int weight) edges."""
    graph = nx.Graph()
    graph.add_weighted_edges_from(edges)
    matching = nx.max_weight_matching(graph, maxcardinality=maxcardinality)
    return len(matching), sum(graph[u][v]["weight"] for u, v in matching)


def networkx_final(inst: Instance) -> tuple[int, Fraction]:
    size, weight = networkx_matching(((e.u, e.v, -int(e.weight)) for e in inst.edges),
                                     maxcardinality=True)
    return size, Fraction(-weight)


def lagrangian_value(inst: Instance, lam: Fraction) -> Fraction:
    """V(lam), the largest lam * |M| - w(M) over all matchings M: networkx's
    maximum-weight matching on the edges with lam - w > 0, weighted
    lam - w and scaled to ints."""
    gains = [(e.u, e.v, lam - e.weight) for e in inst.edges if lam > e.weight]
    scale, ints = scaled(gain for _, _, gain in gains)
    _, value = networkx_matching(((u, v, x) for (u, v, _), x in zip(gains, ints)),
                                 maxcardinality=False)
    return Fraction(value, scale)


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(sparse_instances())
def test_runs_verify_and_agree_with_networkx(inst):
    run = solve(inst)
    verdict = verify_run(inst, run)
    assert verdict.passed and verdict == reference_verify_run(inst, run)
    assert (run.final.cardinality, run.final.weight) == networkx_final(inst)


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(sparse_instances())
def test_carried_view_equals_its_definition(inst):
    checked_steps(inst)


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(sparse_instances())
def test_every_snapshot_maximizes_its_lagrangian(inst):
    """The paper's theorem at every k, past the oracle: V(lam) equals
    lam * k - w(k) at lam = gamma of snapshot k's certificate."""
    for snap in solve(inst).snapshots:
        lam = snap.certificate.gamma
        assert lagrangian_value(inst, lam) == lam * snap.cardinality - snap.weight


@pytest.mark.parametrize("r", [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)],
                         ids=["third", "half", "two-thirds"])
def test_split_uniform_steps_keep_every_snapshot_optimal(r):
    """Inside the restriction: each dual phase stepped as r * alpha and
    then the rest, (1 - r) * alpha, every tree alike. Every snapshot
    verifies and maximizes its Lagrangian, and the run is solve's: a
    partial uniform step makes no edge tight and empties no blossom."""
    rng = random.Random(41)

    def split(state, alpha):
        return [r * alpha, alpha - r * alpha] if alpha else [alpha]

    for _ in range(40):
        inst = random_instance(rng, max_nodes=14)
        counts, run = checked_steps(inst, policy=split)
        assert counts["refused"] == 0
        assert verify_run(inst, run).passed
        for snap in run.snapshots:
            lam = snap.certificate.gamma
            assert lagrangian_value(inst, lam) == lam * snap.cardinality - snap.weight
        assert run == solve(inst)


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(sparse_instances(max_nodes=40, signed=True))
def test_unconstrained_optimum_and_the_doubled_graph(inst):
    """The smallest w(k) over all k, in the instance's own units, is the
    minimum-weight matching networkx finds on the negated weights, equals
    -V(shift) on the normalized weights, and is half the doubled graph's
    minimum perfect-matching weight."""
    normalized, record = normalize_weights(inst)
    shift = record.shift
    best = min(s.weight - s.cardinality * shift for s in solve(normalized).snapshots)
    _, negated = networkx_matching(((e.u, e.v, -int(e.weight)) for e in inst.edges),
                                   maxcardinality=False)
    assert best == -negated
    assert best == -lagrangian_value(normalized, shift)
    doubled, doubled_record = normalize_weights(build_doubled_graph(inst))
    final = solve(doubled, mode="perfect").final
    assert final.cardinality == inst.node_count
    assert 2 * best == final.weight - final.cardinality * doubled_record.shift
