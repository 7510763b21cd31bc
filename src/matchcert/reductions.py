"""Graph constructions that reduce cardinality-optimality to perfect
matching: the auxiliary completion certificate and the doubled graph.

The auxiliary completion attaches one fresh node per exposed node of a
snapshot, joined to every original node by weight-0 edges. The snapshot's
matching extends to a perfect matching of the same weight, and the frozen
duals extend to dual values for it, each helper at minus the maximum
accumulated dual pi*. They certify it as a minimum-weight perfect matching
when every exposed node sits at that maximum, as uniform dual updates
keep it; an exposed node below it leaves its helper edge slack, which the
checker reports as `cs-matched-edge-tight`. This re-proves the snapshot
cardinality-optimal on a different graph, matching and duals than its
cardinality certificate, with the same checker (see
`check_perfect_certificate`). The completed instance's scaled int weights
are the original's cached ones plus a 0 per helper edge, so no Fraction
is read again, and its edges skip `Instance`'s checks, which the
original's passed and the helper edges meet by construction
(`Instance._extended`); the doubled graph is built the same way. The
completion's edge index (`Instance._incident`) follows from its layout:
helper i's edge to original node v has index m + i*n + v, so no pass
over its edges builds it.

The doubled graph joins a mirror copy of the instance along weight-0
bridge edges; its minimum perfect-matching weight is exactly twice the
minimum matching weight of the original over all cardinalities.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .certificates import (Verdict, accumulated_pi, check_cardinality_certificate,
                           transform_duals)
from .engine import DualState, Snapshot
from .graph import Edge, Instance, Matching

ZERO = Fraction(0)


class AuxiliaryCompletion(namedtuple("AuxiliaryCompletion",
                                     "aux_instance extended_matching lifted_duals "
                                     "exposed_nodes")):
    """A snapshot completed to a certified perfect matching.

    Helper nodes are appended after the original ones: for the completed
    instance `inst`, helper i (0-based) is node inst.node_count + i,
    matched to exposed_nodes[i].
    """

    __slots__ = ()

    aux_instance: Instance
    extended_matching: Matching
    lifted_duals: DualState
    exposed_nodes: tuple[int, ...]


def build_auxiliary_completion(inst: Instance, snapshot: Snapshot) -> AuxiliaryCompletion:
    """Complete a snapshot to a perfect matching on the extended graph.

    Each helper node is connected to every original node at weight 0 and
    carries dual value minus the maximum accumulated dual, so its matching
    edge is tight exactly when its exposed node sits at that maximum (true
    for uniform-policy runs). The completion is built either way, and
    `check_perfect_certificate` fails each exposed node below the maximum
    at its helper edge. The lifted duals are the snapshot's ints, in its
    scale, with k helper values appended.
    """
    dual = snapshot.dual_state
    exposed = snapshot.matching.exposed(inst)
    n = inst.node_count
    k = len(exposed)
    if k == 0:
        return AuxiliaryCompletion(inst, snapshot.matching, dual, ())

    # tuple.__new__ skips Edge's own __new__, a Python call per edge.
    helper_edges = [tuple.__new__(Edge, (v, helper, ZERO))
                    for helper in range(n, n + k) for v in range(n)]
    # Helper i's edge to node v has index m + i*n + v.
    m = len(inst.edges)
    incident = {v: list(range(m + v, m + k * n, n)) for v in range(n)}
    incident.update((n + i, list(range(m + i * n, m + i * n + n))) for i in range(k))
    aux = inst._extended(n + k, helper_edges, (0,) * len(helper_edges), incident)

    pairs = set(snapshot.matching.edges)
    pairs.update((exposed[i], n + i) for i in range(k))
    extended = Matching(frozenset(pairs))

    # pi_star_max is a sum of the duals' ints, so the scale stays the
    # smallest one.
    pi_star_max = max(accumulated_pi(dual.pi_units, dual.blossom_units))
    duals = DualState(dual.scale, dual.pi_units + (-pi_star_max,) * k,
                      dual.blossom_units, dual.beta)
    return AuxiliaryCompletion(aux, extended, duals, exposed)


def check_perfect_certificate(comp: AuxiliaryCompletion) -> Verdict:
    """Check that the completion's duals certify its perfect matching.

    Raises ValueError unless the matching is perfect; then runs the
    cardinality checker on the completion's own certificate. For a perfect
    matching the two dual forms state the same conditions: with
    y = pi* - t and gamma = 2t, an edge's left-hand side equals its
    cut-form load for any t, so F1 is the load bound (`edge-feasibility`)
    and CS1 its tightness; z <= 0 is pi >= 0 (`z-nonpositive`, value
    -2 pi); and a blossom holds (|U|-1)/2 matching edges exactly when one
    leaves it (`cs-blossom-full`). No node is exposed, so CS2 is vacuous.
    A pass certifies the extended matching is a minimum-weight perfect
    matching of the extended graph.
    """
    inst, m = comp.aux_instance, comp.extended_matching
    if not m.is_perfect_on(inst):
        raise ValueError(
            f"extended matching covers {2 * len(m)} of {inst.node_count} nodes; "
            "a perfect matching is required")
    return check_cardinality_certificate(inst, m, transform_duals(comp.lifted_duals, len(m)))


def build_doubled_graph(inst: Instance) -> Instance:
    """The instance plus a mirror copy, bridged by weight-0 edges.

    Node v's mirror is node v + n. Original and mirror edges keep the
    original weights. Any matching M of the instance extends to a perfect
    matching of weight 2 * w(M) (match M on both copies, bridge the rest),
    and conversely, so the doubled graph's minimum perfect-matching weight
    is twice the instance's minimum matching weight over all cardinalities.
    """
    n = inst.node_count
    edges = [Edge(u + n, v + n, w) for u, v, w in inst.edges]
    edges += [Edge(v, v + n, ZERO) for v in range(n)]
    return inst._extended(2 * n, edges, inst.scaled_weights[1] + (0,) * n)
