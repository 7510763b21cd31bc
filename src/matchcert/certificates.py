"""Verification of dual certificates of cardinality-optimality.

A snapshot's frozen duals transform into a certificate (gamma, y, z) for
the linear program over matchings of a fixed cardinality k:

    minimize  w.x  over  x >= 0,  x(delta(v)) <= 1,
              x(E[U]) <= (|U|-1)/2 for odd U,  x(E) = k,

whose dual constrains, for every edge e = {u, v},

    y_u + y_v + sum_{U : e inside U} z_U + gamma  <=  w_e,
    y <= 0,  z <= 0.

This module holds a certificate's record (`CardinalityCertificate`), its
formula (`transform_duals`, cached as `engine.Snapshot.certificate`) and
its check, and imports only `graph`. The builder shares no arithmetic with
the checker. Dual feasibility plus complementary slackness against a
matching of size k proves, by weak LP duality, that it is minimum-weight
among those. The checks compare ints at the lcm of the duals' and weights'
scales (`Instance.scaled_weights`; an auxiliary completion carries the
original instance's over) and report violations as Fractions in original
units; a run's checker recomputes only changed edges.

This is the package's one feasibility checker: the auxiliary perfect
completion (`reductions.check_perfect_certificate`) is checked by it too,
on the completion's own graph, matching and certificate.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, count, repeat
from math import lcm
from operator import ne
from typing import TYPE_CHECKING, Iterable

from .graph import Instance, Matching, alternating_path_difference, reduced, scaled

if TYPE_CHECKING:
    from .engine import DualState, RunResult

ZERO = Fraction(0)
STATUS_PERFECT = "perfect-found"
STATUS_NO_PERFECT = "no-perfect-matching"


def accumulated_pi(base: Iterable, sets: Iterable) -> list:
    """Accumulated dual pi*(v) of every node: its base value plus the pi of
    each given set (anything with `nodes` and `pi`) that contains it.
    Works alike on ints of one scale and on Fractions."""
    acc = list(base)
    for s in sets:
        pi = s.pi
        if pi:
            for v in s.nodes:
                acc[v] += pi
    return acc


class CardinalityCertificate(namedtuple("CardinalityCertificate",
                                        "scale gamma_units y_units z_units k")):
    """A dual solution (gamma, y, z) claiming optimality at cardinality k.

    Like `DualState`, it holds ints in units of 1/scale, at the smallest
    such scale: `gamma_units`, `y_units[v]`, and `z_units`, which is
    sparse (sets absent from it have value 0). `gamma`, `y` and `z` are
    read-only Fraction views, built on first access; `from_fractions`
    builds a certificate from Fractions.
    """

    scale: int
    gamma_units: int
    y_units: tuple[int, ...]
    z_units: tuple[tuple[frozenset[int], int], ...]
    k: int

    @classmethod
    def from_fractions(cls, gamma: Fraction, y: Iterable[Fraction],
                       z: Iterable[tuple[frozenset[int], Fraction]],
                       k: int) -> "CardinalityCertificate":
        """The certificate of these Fraction values, in their int form
        (`scaled`)."""
        y, z = tuple(y), tuple(z)
        n = len(y)
        scale, ints = scaled((gamma, *y, *(zu for _, zu in z)))
        return cls(scale, ints[0], ints[1:n + 1],
                   tuple((nodes, zu) for (nodes, _), zu in zip(z, ints[n + 1:])),
                   k)

    @cached_property
    def gamma(self) -> Fraction:
        return Fraction(self.gamma_units, self.scale)

    @cached_property
    def y(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, self.scale) for p in self.y_units)

    @cached_property
    def z(self) -> tuple[tuple[frozenset[int], Fraction], ...]:
        return tuple((nodes, Fraction(zu, self.scale))
                     for nodes, zu in self.z_units)


def transform_duals(dual: DualState, k: int) -> CardinalityCertificate:
    """Build the cardinality-k certificate from frozen duals.

    gamma = 2 * pi_star_max, y_v = pi_star(v) - pi_star_max, and
    z_U = -2 pi(U) on every blossom of the family. y <= 0 and z <= 0 hold
    by construction (blossom duals are nonnegative).

    Everything is computed on the duals' ints, in their scale, and the
    result is brought to its own smallest scale (`reduced`).
    """
    pi_star = accumulated_pi(dual.pi_units, dual.blossom_units)
    top, n = max(pi_star), len(pi_star)
    scale, ints = reduced(dual.scale, (2 * top, *(p - top for p in pi_star),
                                       *(-2 * b.pi for b in dual.blossom_units)))
    return CardinalityCertificate(
        scale, ints[0], ints[1:n + 1],
        tuple((b.nodes, zu) for b, zu in zip(dual.blossom_units, ints[n + 1:])), k)


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


class _RunChecker:
    """`check_cardinality_certificate` on a run's snapshots, in order. It keeps
    the last matching and its edges' indices, weight, scale, y, gamma, value
    per distinct z set and F1 violators, and each edge's z sum and left-hand
    side. It finds edges only through `Instance._incident` and looks a
    matched pair up once, when it enters; `strays` holds the matched pairs
    that are no edge. It diffs each certificate with the kept one, never
    with engine state, and recomputes only edges at a node whose
    y_v + gamma/2 moved or in a z set that moved (each edge met once, at
    its lower end)."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.pairs, self.weight_units, self.scale, self.y = frozenset(), 0, None, ()
        self.matched: dict[tuple[int, int], int] = {}  # matched edge pair -> index
        self.strays: set[tuple[int, int]] = set()  # matched pairs that are no edge

    def check(self, m: Matching, cert: CardinalityCertificate) -> list[Violation]:
        inst, matched, strays = self.inst, self.matched, self.strays
        edges, incident = inst.edges, inst._incident
        weight_scale, weights = inst.scaled_weights
        for pair in self.pairs - m.edges:
            if pair in matched:
                self.weight_units -= weights[matched.pop(pair)]
            else:
                strays.remove(pair)
        for pair in m.edges - self.pairs:
            try:
                matched[pair] = e = inst.edge_index(*pair)
            except KeyError:
                strays.add(pair)
            else:
                self.weight_units += weights[e]
        self.pairs = m.edges
        self.weight = None if strays else Fraction(self.weight_units, weight_scale)
        y, gamma, z = cert.y_units, cert.gamma_units, cert.z_units
        violations = _family_violations(nodes for nodes, _ in z)
        violations += [Violation("matching-edge", pair, "not an edge", "edge")
                       for pair in sorted(strays)]
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
            per_weight = scale // weight_scale
            self.w = [w * per_weight for w in weights]
            self.scale, self.zmap, self.above = cert.scale, {}, set()
            self.zin, self.lhs = [0] * len(edges), [0] * len(edges)
            recheck = set(range(len(edges)))
        else:  # a potential stays put when y moves by -(change of gamma)/2
            shift, odd = divmod(self.gamma - gamma, 2)
            moved = range(len(y)) if odd else \
                compress(count(), map(ne, y, map(shift.__add__, self.y)))
            recheck = set(chain.from_iterable(map(incident.get, moved, repeat(()))))
        zin, old = self.zin, self.zmap
        for nodes in {nodes for nodes, _ in zmap.items() ^ old.items()}:
            delta = zmap.get(nodes, 0) - old.get(nodes, 0)
            for x in nodes if delta else ():
                for e in incident.get(x, ()):
                    u, v, _ = edges[e]
                    if u == x and v in nodes:
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
        loose = [e for e in matched.values() if lhs[e] < w[e]]
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
