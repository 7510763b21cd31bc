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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Iterable

# CardinalityCertificate and transform_duals are re-exported: callers
# import the builder from here, beside its checker.
from .engine import (STATUS_PERFECT, CardinalityCertificate, DualState,
                     RunResult, transform_duals)
from .graph import (Instance, Matching, alternating_path_difference,
                    matching_weight)

ZERO = Fraction(0)


@dataclass(frozen=True)
class Violation:
    """One failed exact check: which constraint, where, and both sides."""

    constraint: str
    witness: object
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Verdict:
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


def check_cut_feasibility(inst: Instance, dual: DualState) -> Verdict:
    """Check the cut-form dual constraints exactly.

    The blossoms must form a laminar family of odd sets, blossom duals
    must be nonnegative, and for every edge the summed dual load over sets
    cut by the edge must not exceed the edge weight.
    """
    violations = _family_violations(b.nodes for b in dual.blossoms)
    for b in dual.blossoms:
        if b.pi < 0:
            violations.append(Violation("blossom-nonneg", b.nodes, b.pi, ZERO))
    for e in inst.edges:
        load = dual.edge_load(e.u, e.v)
        if load > e.weight:
            violations.append(Violation("edge-load", (e.u, e.v), load, e.weight))
    return _verdict(violations)


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

    The edge constraints are evaluated on integers: gamma, y, z and the
    weights multiplied by the lcm of their denominators. The weights come
    scaled once per instance (`Instance.scaled_weights`) and are brought
    to the common scale here. Violations are reported in original units.
    """
    violations = _family_violations(nodes for nodes, _ in cert.z)
    violations += non_edge_violations(inst, m)

    if len(m) != cert.k:
        violations.append(Violation("cardinality", None, len(m), cert.k))

    weight_scale, weights = inst.scaled_weights
    scale = lcm(weight_scale, *{q.denominator for q in chain(
        (cert.gamma,), cert.y, (zu for _, zu in cert.z))})
    factor = scale // weight_scale

    def units(q: Fraction) -> int:
        return q.numerator * (scale // q.denominator)

    # units() inlined: y holds one value per node, in every snapshot.
    y = [q.numerator * (scale // q.denominator) for q in cert.y]
    z = [(nodes, units(zu)) for nodes, zu in cert.z]
    gamma = units(cert.gamma)

    for v, yv in enumerate(y):
        if yv > 0:
            violations.append(Violation("y-nonpositive", v, cert.y[v], ZERO))
    for (nodes, zu), (_, value) in zip(z, cert.z):
        if zu > 0:
            violations.append(Violation("z-nonpositive", nodes, value, ZERO))

    # Sets with z = 0 add nothing to any sum.
    nonzero = [(nodes, zu) for nodes, zu in z if zu]
    matched = m.edges
    for (u, v, weight), w in zip(inst.edges, weights):
        lhs = y[u] + y[v] + gamma
        for nodes, zu in nonzero:
            if u in nodes and v in nodes:
                lhs += zu
        w *= factor
        if lhs > w:
            violations.append(
                Violation("edge-feasibility", (u, v), Fraction(lhs, scale), weight))
        elif lhs != w and (u, v) in matched:
            violations.append(
                Violation("cs-matched-edge-tight", (u, v), Fraction(lhs, scale),
                          weight))

    for v, yv in enumerate(y):
        if yv < 0 and not m.covers(v):
            violations.append(Violation("cs-exposed-zero-y", v, cert.y[v], ZERO))

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
    `matching-edge`).
    Across snapshots: cardinalities must be 0, 1, ..., K, and consecutive
    matchings must differ by a single alternating path. The run's status
    must agree with its last matching: `perfect-found` exactly when that
    matching covers all n nodes.
    """
    violations: list[Violation] = []

    for i, snap in enumerate(run.snapshots):
        tag = f"k={snap.cardinality}"
        if snap.cardinality != i:
            violations.append(
                Violation(f"snapshot-cardinality-sequence:{tag}", i,
                          snap.cardinality, i))
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
