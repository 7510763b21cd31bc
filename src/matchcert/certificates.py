"""Verification of dual certificates of cardinality-optimality.

A snapshot's frozen duals transform into a certificate (gamma, y, z) for
the linear program over matchings of a fixed cardinality k:

    minimize  w.x  over  x >= 0,  x(delta(v)) <= 1,
              x(E[U]) <= (|U|-1)/2 for odd U,  x(E) = k,

whose dual constrains, for every edge e = {u, v},

    y_u + y_v + sum_{U : e inside U} z_U + gamma  <=  w_e,
    y <= 0,  z <= 0.

The builder (`engine.transform_duals`, cached as `Snapshot.certificate`)
shares no arithmetic with the checker. Dual feasibility plus
complementary slackness against a matching of size k proves, by weak LP
duality, that it is minimum-weight among those. The checks compare ints
at the lcm of the duals' and weights' scales (`Instance.scaled_weights`)
and report violations as Fractions in original units; a run's checker
recomputes only changed edges.

This is the package's one feasibility checker: the auxiliary perfect
completion (`reductions.check_perfect_certificate`) is checked by it too,
on the completion's own graph, matching and certificate.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count
from math import lcm
from operator import ne
from typing import Iterable

# transform_duals is re-exported only for perfbench/tracing.py, the one
# module that still imports it from here; the package and its tests
# import it from engine.
from .engine import (STATUS_PERFECT, CardinalityCertificate, RunResult,
                     transform_duals)
from .graph import Instance, Matching, alternating_path_difference

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


class _RunChecker:
    """`check_cardinality_certificate` on a run's snapshots, in order. It keeps
    the last matching, weight, scale, y, gamma, value per distinct z set and
    F1 violators, and each edge's z sum and left-hand side. It diffs each
    certificate with the kept one, never with engine state, and recomputes
    only edges at a node whose y_v + gamma/2 moved or in a z set that moved."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.pairs, self.weight_units, self.scale, self.y = frozenset(), 0, None, ()

    # The incidence maps are built on first use: a check of one snapshot
    # rechecks every edge and needs neither unless it has z sets.
    @cached_property
    def incident(self) -> defaultdict[int, list[int]]:
        incident = defaultdict(list)
        for i, (u, v, _) in enumerate(self.inst.edges):
            incident[u].append(i)
            incident[v].append(i)
        return incident

    @cached_property
    def below(self) -> defaultdict[int, list[tuple[int, int]]]:
        below = defaultdict(list)  # (edge, upper end) by lower end
        for i, (u, v, _) in enumerate(self.inst.edges):
            below[u].append((i, v))
        return below

    def check(self, m: Matching, cert: CardinalityCertificate) -> list[Violation]:
        inst, edges = self.inst, self.inst.edges
        index, (weight_scale, weights) = inst._pair_index, inst.scaled_weights
        for sign, pairs in ((1, m.edges - self.pairs), (-1, self.pairs - m.edges)):
            self.weight_units += sign * sum(weights[i] for i in map(index.get, pairs)
                                            if i is not None)
        self.pairs = m.edges
        self.weight = Fraction(self.weight_units, weight_scale) \
            if index.keys() >= m.edges else None  # None: a matched non-edge
        y, gamma, z = cert.y_units, cert.gamma_units, cert.z_units
        violations = _family_violations(nodes for nodes, _ in z)
        if self.weight is None:
            violations += non_edge_violations(inst, m)
        if len(m) != cert.k:
            violations.append(Violation("cardinality", None, len(m), cert.k))
        if y and max(y) > 0:
            violations += [Violation("y-nonpositive", v, Fraction(yv, cert.scale), ZERO)
                           for v, yv in enumerate(y) if yv > 0]
        violations += [Violation("z-nonpositive", nodes, Fraction(zu, cert.scale), ZERO)
                       for nodes, zu in z if zu > 0]
        zmap: dict[frozenset[int], int] = {}
        for nodes, zu in z:  # duplicate sets add up
            zmap[nodes] = zmap.get(nodes, 0) + zu
        if cert.scale != self.scale or len(y) != len(self.y):
            scale = lcm(weight_scale, cert.scale)
            self.units, self.factor = scale, scale // cert.scale
            self.w = [w * (scale // weight_scale) for w in weights]
            self.scale, self.zmap, self.above = cert.scale, {}, set()
            self.zin, self.lhs = [0] * len(edges), [0] * len(edges)
            recheck = set(range(len(edges)))
        else:  # a potential stays put when y moves by -(change of gamma)/2
            shift, odd = divmod(self.gamma - gamma, 2)
            moved = range(len(y)) if odd else \
                compress(count(), map(ne, y, map(shift.__add__, self.y)))
            recheck = set(chain.from_iterable(map(self.incident.__getitem__, moved)))
        zin, old = self.zin, self.zmap
        for nodes in {nodes for nodes, _ in zmap.items() ^ old.items()}:
            delta = zmap.get(nodes, 0) - old.get(nodes, 0)
            for x in nodes if delta else ():
                for e, v in self.below[x]:
                    if v in nodes:
                        zin[e] += delta
                        recheck.add(e)
        self.y, self.gamma, self.zmap = y, gamma, zmap
        lhs, w, f, over = self.lhs, self.w, self.factor, []
        for e in recheck:
            u, v, _ = edges[e]
            lhs[e] = load = (y[u] + y[v] + gamma + zin[e]) * f
            if load > w[e]:
                over.append(e)
        self.above = self.above.difference(recheck).union(over)
        # F1 on every edge, CS1 on the matched ones, in edge order.
        loose = [e for e in map(index.get, m.edges) if e is not None and lhs[e] < w[e]]
        for e in sorted(self.above.union(loose)):
            u, v, weight = edges[e]
            violations.append(Violation(
                "edge-feasibility" if lhs[e] > w[e] else "cs-matched-edge-tight",
                (u, v), Fraction(lhs[e], self.units), weight))
        exposed = sorted(set(range(len(y))).difference(chain.from_iterable(m.edges)))
        violations += [Violation("cs-exposed-zero-y", v, Fraction(y[v], cert.scale), ZERO)
                       for v in exposed if y[v] < 0]
        return violations + [
            Violation("cs-blossom-full", nodes, inside, (len(nodes) - 1) // 2)
            for nodes, zu in z if zu < 0
            if (inside := m.count_inside(nodes)) != (len(nodes) - 1) // 2]


def check_cardinality_certificate(inst: Instance, m: Matching,
                                  cert: CardinalityCertificate) -> Verdict:
    """Check feasibility and complementary slackness, all exactly.

    Checks: the z sets form a laminar family of odd sets; every matched
    pair is an edge of the instance; the matching has cardinality cert.k;
    every edge satisfies the dual constraint (F1); y and z are nonpositive
    (F2); matched edges make (F1) tight (CS1); nodes with negative y are
    matched (CS2); sets with negative z contain exactly (|U|-1)/2 matching
    edges (CS3). A pass certifies m minimum-weight among cardinality-k
    matchings. This is the run checker on one snapshot.
    """
    return Verdict(tuple(_RunChecker(inst).check(m, cert)))


def verify_run(inst: Instance, run: RunResult) -> Verdict:
    """Verify a whole run: every snapshot's certificate plus the shape of
    the snapshot sequence.

    Per snapshot, with one run checker (`_RunChecker`): the certificate
    against the matching; the stored weight, carried from the previous
    snapshot (skipped when a matched pair is a non-edge); the duals' beta.
    Across snapshots: cardinalities are 0, 1, ..., K (an empty run misses
    k=0); consecutive matchings differ by one alternating path; the first
    duals are beta on every node and no blossoms (`beta-mismatch`, witness
    the node or blossom); the status is `perfect-found` iff the last matching is perfect.
    """
    if not run.snapshots:
        return Verdict((Violation("snapshot-cardinality-sequence:k=0", 0, "missing", 0),))
    violations: list[Violation] = []
    checker = _RunChecker(inst)
    for i, snap in enumerate(run.snapshots):
        tag = f"k={snap.cardinality}"
        if snap.cardinality != i:
            violations.append(
                Violation(f"snapshot-cardinality-sequence:{tag}", i, snap.cardinality, i))
        if snap.dual_state.beta != run.beta:
            violations.append(
                Violation(f"beta-mismatch:{tag}", None, snap.dual_state.beta, run.beta))
        sub = checker.check(snap.matching, snap.certificate)
        if checker.weight is not None and checker.weight != snap.weight:
            violations.append(
                Violation(f"snapshot-weight:{tag}", None, snap.weight, checker.weight))
        violations += [Violation(f"{v.constraint}:{tag}", *v[1:]) for v in sub]

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
    return Verdict(tuple(violations))
