"""Property test beyond the oracle's node budget: random sparse graphs of
up to 120 nodes, checked by the certificate verifier and against
networkx's maximum-cardinality matching on negated weights (the verdict
also against the per-snapshot reference checker), and stepped
through the engine with its carried view checked after every step.

Hypothesis and networkx are test-only; the module is skipped without them.
"""

import random
from fractions import Fraction

import pytest

from matchcert.certificates import verify_run
from matchcert.engine import solve
from matchcert.graph import Instance
from util import checked_steps, reference_verify_run

hypothesis = pytest.importorskip("hypothesis")
nx = pytest.importorskip("networkx")
st = hypothesis.strategies


@st.composite
def sparse_instances(draw) -> Instance:
    """n nodes with about n * degree / 2 edges and integer weights; the
    edges come from a drawn seed, so shrinking works on n, degree, the
    weight range and the seed."""
    n = draw(st.integers(2, 120))
    degree = draw(st.sampled_from((1, 2, 3, 5, 8)))
    high = draw(st.sampled_from((0, 3, 100)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n * degree // 2)}
    return Instance.from_edges(n, [(u, v, rng.randint(0, high)) for u, v in sorted(pairs)])


def networkx_final(inst: Instance) -> tuple[int, Fraction]:
    graph = nx.Graph()
    graph.add_nodes_from(range(inst.node_count))
    graph.add_weighted_edges_from((e.u, e.v, -int(e.weight)) for e in inst.edges)
    matching = nx.max_weight_matching(graph, maxcardinality=True)
    return len(matching), Fraction(sum(-graph[u][v]["weight"] for u, v in matching))


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
