"""Verification of dual certificates of cardinality-optimality.

A snapshot's frozen duals transform into a certificate (gamma, y, z) for
the linear program over matchings of a fixed cardinality k:

    minimize  w.x  over  x >= 0,  x(delta(v)) <= 1,
              x(E[U]) <= (|U|-1)/2 for odd U,  x(E) = k,

whose dual constrains, for every edge e = {u, v},

    y_u + y_v + sum_{U : e inside U} z_U + gamma  <=  w_e,
    y <= 0,  z <= 0.

The transformation is gamma = 2 * max accumulated dual, y_v = accumulated
dual of v minus that maximum, z_U = -2 pi(U) on blossoms. It lives in
`matchcert.engine` beside `accumulated_pi` (`transform_duals`, cached per
snapshot as `Snapshot.certificate`) and is re-exported here; this module
holds the checkers, which compute from the constraint definitions and
share no arithmetic with the builder. Checking dual feasibility plus
complementary slackness against a matching of cardinality k proves, by
weak LP duality, that the matching has minimum weight among all matchings
of cardinality k. No LP is ever solved; every check is an exact
comparison.

Duals and certificates hold ints in units of 1/scale (`DualState`,
`CardinalityCertificate`). A checker brings them and the instance's
scaled weights (`Instance.scaled_weights`) to the lcm of the two scales
and compares ints; only a violation is reported as Fractions, in
original units.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from typing import Iterable

# CardinalityCertificate and transform_duals are re-exported: callers
# import the builder from here, beside its checker.
from .engine import (STATUS_PERFECT, CardinalityCertificate, DualState,
                     RunResult, transform_duals)
from .graph import (Instance, Matching, alternating_path_difference,
                    matching_weight)

ZERO = Fraction(0)


class Violation(namedtuple("Violation", "constraint witness lhs rhs")):
    """One failed exact check: which constraint, where, and both sides."""

    __slots__ = ()

    constraint: str
    witness: object
    lhs: object
    rhs: object


class Verdict(namedtuple("Verdict", "violations")):
    __slots__ = ()

    violations: tuple[Violation, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed


def _verdict(violations: Iterable[Violation]) -> Verdict:
    return Verdict(tuple(violations))


def _family_violations(sets: Iterable[frozenset[int]]) -> list[Violation]:
    """The family must consist of odd sets and be laminar.

    Laminarity is checked in O(sum of set sizes): going from the largest
    set to the smallest, each node remembers the smallest set seen so far
    that contains it, and all members of a set must remember the same one.
    """
    violations: list[Violation] = []
    enclosing: dict[int, int] = {}
    for i, nodes in enumerate(sorted(sets, key=len, reverse=True)):
        if len(nodes) % 2 == 0:
            violations.append(Violation("odd-set", nodes, len(nodes), "odd"))
        if len({enclosing.get(v) for v in nodes}) > 1:
            violations.append(
                Violation("laminar-family", nodes, "crossing", "nested or disjoint"))
        for v in nodes:
            enclosing[v] = i
    return violations


def non_edge_violations(inst: Instance, m: Matching) -> list[Violation]:
    """One `matching-edge` violation per matched pair that is not an edge
    of the instance, in ascending pair order."""
    return [Violation("matching-edge", pair, "not an edge", "edge")
            for pair in sorted(p for p in m.edges if not inst.has_edge(*p))]


def cut_loads(inst: Instance, dual: DualState) -> tuple[int, list[int], list[int]]:
    """(scale, weights, loads): every edge's weight and cut-form dual load
    as ints in units of 1/scale, in edge order.

    scale is the lcm of the instance's weight scale and the duals' scale.
    An edge's load is the sum of the duals of the sets that hold exactly
    one of its ends: both singletons, plus every blossom with nonzero pi
    that separates them.
    """
    weight_scale, weights = inst.scaled_weights
    scale = lcm(weight_scale, dual.scale)
    factor = scale // dual.scale
    pi = dual.pi_units if factor == 1 else [p * factor for p in dual.pi_units]
    separating = [(b.nodes, b.pi * factor) for b in dual.blossom_units if b.pi]
    loads = []
    for u, v, _ in inst.edges:
        load = pi[u] + pi[v]
        for nodes, p in separating:
            if (u in nodes) != (v in nodes):
                load += p
        loads.append(load)
    factor = scale // weight_scale
    return scale, [w * factor for w in weights], loads


def cut_violations(inst: Instance, dual: DualState,
                   scale: int, weights: list[int], loads: list[int]) -> list[Violation]:
    """The cut-form feasibility violations, given `cut_loads(inst, dual)`."""
    violations = _family_violations(b.nodes for b in dual.blossom_units)
    for b in dual.blossom_units:
        if b.pi < 0:
            violations.append(Violation("blossom-nonneg", b.nodes,
                                        Fraction(b.pi, dual.scale), ZERO))
    for e, w, load in zip(inst.edges, weights, loads):
        if load > w:
            violations.append(
                Violation("edge-load", (e.u, e.v), Fraction(load, scale), e.weight))
    return violations


def check_cut_feasibility(inst: Instance, dual: DualState) -> Verdict:
    """Check the cut-form dual constraints exactly.

    The blossoms must form a laminar family of odd sets, blossom duals
    must be nonnegative, and for every edge the summed dual load over sets
    cut by the edge must not exceed the edge weight. Loads are compared
    on ints (`cut_loads`) and reported in original units.
    """
    return _verdict(cut_violations(inst, dual, *cut_loads(inst, dual)))


def check_cardinality_certificate(inst: Instance, m: Matching,
                                  cert: CardinalityCertificate) -> Verdict:
    """Check feasibility and complementary slackness, all exactly.

    Checks: the z sets form a laminar family of odd sets; every matched
    pair is an edge of the instance; the matching has cardinality cert.k;
    every edge satisfies the dual constraint (F1); y and z are nonpositive
    (F2); matched edges make (F1) tight (CS1); nodes with negative y are
    matched (CS2); sets with negative z contain exactly (|U|-1)/2 matching
    edges (CS3). A passing verdict certifies m is minimum-weight among
    cardinality-k matchings.

    Every check reads the certificate's ints, brought with the weights
    (`Instance.scaled_weights`, scaled once per instance) to the lcm of
    the two scales. Violations are reported in original units.
    """
    violations = _family_violations(nodes for nodes, _ in cert.z_units)
    violations += non_edge_violations(inst, m)

    if len(m) != cert.k:
        violations.append(Violation("cardinality", None, len(m), cert.k))

    weight_scale, weights = inst.scaled_weights
    scale = lcm(weight_scale, cert.scale)
    y, z, gamma = cert.y_units, cert.z_units, cert.gamma_units
    if scale != cert.scale:
        factor = scale // cert.scale
        y = [v * factor for v in y]
        z = [(nodes, zu * factor) for nodes, zu in z]
        gamma *= factor
    if scale != weight_scale:
        factor = scale // weight_scale
        weights = [w * factor for w in weights]

    for v, yv in enumerate(y):
        if yv > 0:
            violations.append(Violation("y-nonpositive", v, Fraction(yv, scale), ZERO))
    for nodes, zu in z:
        if zu > 0:
            violations.append(Violation("z-nonpositive", nodes, Fraction(zu, scale), ZERO))

    # Sets with z = 0 add nothing to any sum.
    nonzero = [(nodes, zu) for nodes, zu in z if zu]
    matched = m.edges
    for (u, v, weight), w in zip(inst.edges, weights):
        lhs = y[u] + y[v] + gamma
        for nodes, zu in nonzero:
            if u in nodes and v in nodes:
                lhs += zu
        if lhs > w:
            violations.append(
                Violation("edge-feasibility", (u, v), Fraction(lhs, scale), weight))
        elif lhs != w and (u, v) in matched:
            violations.append(
                Violation("cs-matched-edge-tight", (u, v), Fraction(lhs, scale),
                          weight))

    for v, yv in enumerate(y):
        if yv < 0 and not m.covers(v):
            violations.append(
                Violation("cs-exposed-zero-y", v, Fraction(yv, scale), ZERO))

    for nodes, zu in z:
        if zu < 0:
            inside = m.count_inside(nodes)
            expected = (len(nodes) - 1) // 2
            if inside != expected:
                violations.append(
                    Violation("cs-blossom-full", nodes, inside, expected))

    return _verdict(violations)


def verify_run(inst: Instance, run: RunResult) -> Verdict:
    """Verify a whole run: every snapshot's certificate plus the shape of
    the snapshot sequence.

    Per snapshot: check the certificate of the frozen duals
    (`Snapshot.certificate`, built once per snapshot) against the
    snapshot's matching; recheck the stored weight (skipped when the
    matching uses a non-edge, which the certificate check reports as
    `matching-edge`); check that its duals carry the run's beta
    (`beta-mismatch`).
    Across snapshots: cardinalities must be 0, 1, ..., K, and consecutive
    matchings must differ by a single alternating path. The first
    snapshot's duals must be the initial ones: beta on every node and no
    blossoms (`beta-mismatch`, witness the node or the blossom). The
    run's status must agree with its last matching: `perfect-found`
    exactly when that matching covers all n nodes.
    """
    violations: list[Violation] = []

    for i, snap in enumerate(run.snapshots):
        tag = f"k={snap.cardinality}"
        if snap.cardinality != i:
            violations.append(
                Violation(f"snapshot-cardinality-sequence:{tag}", i,
                          snap.cardinality, i))
        if snap.dual_state.beta != run.beta:
            violations.append(
                Violation(f"beta-mismatch:{tag}", None, snap.dual_state.beta, run.beta))
        try:
            actual_weight = matching_weight(inst, snap.matching)
        except ValueError:  # a non-edge, reported below as matching-edge
            actual_weight = snap.weight
        if actual_weight != snap.weight:
            violations.append(
                Violation(f"snapshot-weight:{tag}", None, snap.weight, actual_weight))
        sub = check_cardinality_certificate(inst, snap.matching, snap.certificate)
        for viol in sub.violations:
            violations.append(
                Violation(f"{viol.constraint}:{tag}", viol.witness,
                          viol.lhs, viol.rhs))

    first = run.snapshots[0]
    dual, tag = first.dual_state, f"beta-mismatch:k={first.cardinality}"
    initial = run.beta * dual.scale
    for v, p in enumerate(dual.pi_units):
        if p != initial:
            violations.append(Violation(tag, v, Fraction(p, dual.scale), run.beta))
    for b in dual.blossom_units:
        violations.append(Violation(tag, b.nodes, Fraction(b.pi, dual.scale), "no blossom"))

    for prev, nxt in zip(run.snapshots, run.snapshots[1:]):
        diff = alternating_path_difference(prev.matching, nxt.matching)
        if diff.kind != "single-path":
            violations.append(
                Violation(f"consecutive-single-path:k={nxt.cardinality}",
                          diff.components, diff.kind, "single-path"))

    covered = 2 * len(run.final.matching)
    if (covered == inst.node_count) != (run.status == STATUS_PERFECT):
        violations.append(Violation("run-status", run.status, covered, inst.node_count))

    return _verdict(violations)
