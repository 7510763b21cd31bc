"""Primal-dual weighted matching solver with snapshot recording.

The solver maintains a matching together with dual values on a laminar
family of odd node sets (all singletons, plus one set per shrunken
blossom). It alternates primal steps (augment along an alternating walk
between exposed nodes of the shrunken graph, or shrink a blossom when the
walk is not a path) with dual steps (shift the duals of the alternating
forest's S- and T-nodes, uniformly or by scripted per-tree amounts).

Every augmentation is recorded as a Snapshot: the fully deshrunken
matching plus a frozen copy of the duals, from which `Snapshot.certificate`
builds, once, the certificate proving it minimum-weight among matchings of
its cardinality. This module is the solver and its run records;
`matchcert.certificates` holds a certificate's record, formula and check.

Design notes:

  * Edges are named by index; `_pairs[i]` holds the ends of edge i. The
    stored matching (`mates`, see `EngineState`) is like the `mate` array
    of Galil (1986): the three mutations update it in place, and it is
    never rebuilt. `_lifted` recomputes blossom interiors from each
    blossom's remembered odd cycle and the node its map entry covers, so
    shrinking and deshrinking cannot change the deshrunken matching.
  * The shrunken view is carried across steps: one adjacency map, view
    id -> tight edges, plus `top`. One rule, `_tight_edges`, decides
    tightness and rejects an overloaded edge; `_tight_view` applies it to
    every edge. `__init__` builds the first view so, and `apply_dual_update`
    validates every update so, on the view ids left after the blossoms it
    expands, except a uniform step 0 < a <= alpha that `compute_alpha`
    proved for this forest and that expands nothing. That step patches the
    view (`_stepped_view`): the tight edges whose load falls leave, and the
    rule is applied only to the edges whose bound tied alpha. `augment`
    keeps the view (blossoms and pi* do not change); `shrink_blossom`
    merges the cycle's entries into the new blossom's, whose dual is 0,
    drops tight edges now inside it and rebuilds only the lists of the
    cycle's neighbours. A patch or a shrink shares every other list with
    the previous view; no view is mutated once built, which is what makes
    the sharing safe. The forest, the walk and the alpha proof are dropped
    after every mutation; the forest and walk are regrown on demand.
  * A view node's id is the smallest original node it contains. Each
    blossom record computes this id once, as its `key`; the view's `top`
    maps every original node to the id of its maximal set, and every
    lookup by view node goes through one of the two.
  * Numeric domain: inside the engine every weight and dual is a plain
    int, in units of 1/D. D starts as 2 * lcm of the denominators of all
    weights and beta, so on such inputs every dual stays a multiple of
    1/D (with integer weights, duals are multiples of 1/2). An amount
    handed in from outside (a scripted phase, or a direct call of
    `apply_dual_update`) that is not a multiple of 1/D first multiplies D
    by the missing factor, rescaling every stored int. A snapshot's
    `DualState` and its `CardinalityCertificate` keep that form: a scale
    plus int numerators, reduced to the smallest scale (`graph.reduced`),
    so equal duals are equal whatever D was; Fractions enter the form
    through `graph.scaled`, as the instance's weights do. Values cross
    the API boundary as exact Fractions in original units: `pi_node`,
    `AlphaResult.alpha`, `InfeasibleUpdateError`, `Snapshot.weight`, and
    the read-only Fraction views of `DualState` and
    `CardinalityCertificate`.
  * Each node's accumulated dual pi*(v) (its own dual plus the duals of
    all blossoms containing it) is kept current: a dual update moves it
    by its maximal set's label (0 when free) times its tree's amount,
    and shrinking or expanding a blossom, whose dual is then 0, leaves
    it unchanged. `compute_alpha` and `apply_dual_update` read it directly.
  * Determinism: forest growth scans shrunken-graph nodes in ascending id
    (a node's id is the smallest original node it contains) and each
    node's incident edges in instance input order. The first event found
    in that order is the one acted on.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .certificates import (STATUS_NO_PERFECT, STATUS_PERFECT, CardinalityCertificate,
                           transform_duals)
from .graph import Instance, Matching, RationalInput, as_rational, reduced, scaled

ZERO = Fraction(0)

LABEL_T = 1  # a forest label is its set's rate in a dual step
LABEL_S = -1

Pair = tuple[int, int]


class EngineStateError(RuntimeError):
    """Raised when an operation is called in the wrong engine phase."""


class InfeasibleUpdateError(ValueError):
    """A dual update was rejected; carries the violated constraint.

    Attributes mirror certificate violations: constraint id, witness
    (edge index or node set), exact lhs and rhs, in original units. The
    message names the witness by its nodes (the edge's ends or the set),
    as sorted 1-based ids. The duals keep their values when this is raised.
    """

    def __init__(self, constraint: str, witness, lhs, rhs, nodes: Iterable[int]):
        ids = [v + 1 for v in sorted(nodes)]
        super().__init__(f"{constraint}: witness={ids} lhs={lhs} rhs={rhs}")
        self.constraint = constraint
        self.witness = witness
        self.lhs = lhs
        self.rhs = rhs


# ---------------------------------------------------------------------------
# Frozen dual state, snapshots, run results


class BlossomDual(namedtuple("BlossomDual", "nodes pi")):
    """One odd set of the laminar family with its dual value: an int in
    units of 1/scale in `DualState.blossom_units`, a Fraction in the view
    `DualState.blossoms`."""

    __slots__ = ()

    nodes: frozenset[int]
    pi: int | Fraction


class DualState(namedtuple("DualState", "scale pi_units blossom_units beta", defaults=(ZERO,))):
    """Immutable copy of the duals: singleton values plus all blossoms.

    The laminar family is the set of all singletons together with the
    node sets of the blossoms (nested members included). Any odd set not
    listed has dual value 0.

    The duals are ints in units of 1/scale: `pi_units[v]` for node v and
    one `BlossomDual` with an int `pi` per blossom. scale is the smallest
    that makes every dual an int, so equal duals are equal states.
    `singleton_pi` and `blossoms` are read-only Fraction views of these
    ints, built on first access; `from_fractions` builds a state from
    Fractions.
    """

    # No __slots__: the cached properties keep their values in __dict__.
    scale: int
    pi_units: tuple[int, ...]
    blossom_units: tuple[BlossomDual, ...]
    beta: Fraction  # defaults to ZERO

    @classmethod
    def from_fractions(cls, singleton_pi: Iterable[Fraction],
                       blossoms: Iterable[BlossomDual] = (),
                       beta: Fraction = ZERO) -> "DualState":
        """The state of these Fraction duals, in their int form (`scaled`)."""
        singleton_pi, blossoms = tuple(singleton_pi), tuple(blossoms)
        n = len(singleton_pi)
        scale, ints = scaled(singleton_pi + tuple(b.pi for b in blossoms))
        return cls(scale, ints[:n],
                   tuple(BlossomDual(b.nodes, p) for b, p in zip(blossoms, ints[n:])),
                   beta)

    @cached_property
    def singleton_pi(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(p, self.scale) for p in self.pi_units)

    @cached_property
    def blossoms(self) -> tuple[BlossomDual, ...]:
        return tuple(BlossomDual(b.nodes, Fraction(b.pi, self.scale))
                     for b in self.blossom_units)


class Snapshot(namedtuple("Snapshot", "cardinality matching dual_state weight")):
    """One intermediate matching with the duals frozen at that moment."""

    cardinality: int
    matching: Matching
    dual_state: DualState
    weight: Fraction

    @cached_property
    def certificate(self) -> CardinalityCertificate:
        """The cardinality certificate of these duals, built on first use."""
        return transform_duals(self.dual_state, self.cardinality)


class RunResult(namedtuple("RunResult", "snapshots status mode beta", defaults=(ZERO,))):
    """All snapshots of one run, ordered by cardinality 0, 1, ..., K."""

    __slots__ = ()

    snapshots: tuple[Snapshot, ...]
    status: str  # STATUS_PERFECT or STATUS_NO_PERFECT
    mode: str  # "perfect" or "maximum"
    beta: Fraction  # defaults to ZERO

    @property
    def final(self) -> Snapshot:
        return self.snapshots[-1]

    @property
    def infeasible(self) -> bool:
        """True when a perfect matching was requested but none exists."""
        return self.mode == "perfect" and self.status == STATUS_NO_PERFECT


# ---------------------------------------------------------------------------
# Views of the engine state


class ShrunkenView(namedtuple("ShrunkenView", "top incident")):
    """The shrunken graph: one node per maximal set, tight edges only.

    Node ids are the smallest original node of each maximal set, and
    top[v] is the id of the one holding original node v. incident maps
    every view id, in ascending order, to the (edge index, other end)
    pairs of its tight edges, in input order. A view is never mutated
    once built, so the next view may share its lists.
    """

    __slots__ = ()

    top: list[int]
    incident: dict[int, list[tuple[int, int]]]


class ForestLabels(namedtuple("ForestLabels", "label root roots")):
    """Labels of the alternating forest over the shrunken graph.

    T-nodes (roots included) sit at even alternating distance from an
    exposed root, S-nodes at odd distance; unlabeled nodes are free. A
    label is its set's rate in a dual step (LABEL_T = +1, LABEL_S = -1).
    """

    __slots__ = ()

    label: dict[int, int]
    root: dict[int, int]
    roots: tuple[int, ...]


class AlternatingWalk(namedtuple("AlternatingWalk", "nodes edges")):
    """An alternating walk between exposed shrunken-graph nodes.

    nodes are view ids; edges[i] is the instance edge index joining
    nodes[i] and nodes[i+1]. Edges alternate unmatched, matched,
    unmatched, ... and both end nodes are exposed. A walk that revisits
    no node is an augmenting path; otherwise it closes over a blossom.
    """

    __slots__ = ()

    nodes: tuple[int, ...]
    edges: tuple[int, ...]

    def is_path(self) -> bool:
        return len(set(self.nodes)) == len(self.nodes)


class AlphaResult(namedtuple("AlphaResult", "alpha binding")):
    """Largest feasible uniform dual step, or None when unbounded."""

    __slots__ = ()

    alpha: Fraction | None
    binding: tuple | None  # (constraint id, witness) of the binding bound


# ---------------------------------------------------------------------------
# Internal blossom records


class _Blossom:
    """A shrunken odd cycle. cycle[0] is the base constituent; cycle_edges[i]
    indexes the edge joining cycle[i] and cycle[(i+1) % len]. key is the
    blossom's view id, its smallest node; pi is its dual in engine units."""

    __slots__ = ("nodes", "key", "pi", "cycle", "cycle_edges")

    def __init__(self, nodes: frozenset[int], cycle: list, cycle_edges: list[int]):
        self.nodes = nodes
        self.key = min(nodes)
        self.pi = 0
        self.cycle = cycle
        self.cycle_edges = cycle_edges

    def constituent_index(self, node: int) -> int:
        for i, c in enumerate(self.cycle):
            if node in (c.nodes if isinstance(c, _Blossom) else (c,)):
                return i
        raise ValueError(f"node {node} not inside blossom {sorted(self.nodes)}")

    def matched_positions(self, free: int) -> Iterator[int]:
        """Positions i of the cycle edges matched inside this blossom when
        constituent `free` is the one left uncovered."""
        size = len(self.cycle)
        for t in range((size - 1) // 2):
            yield (free + 1 + 2 * t) % size

    def descendants(self) -> Iterator["_Blossom"]:
        """This record and every nested one, parents before children."""
        stack = [self]
        while stack:
            rec = stack.pop()
            yield rec
            stack.extend(c for c in reversed(rec.cycle) if isinstance(c, _Blossom))


def _completion(rec: _Blossom, entry: int | None, pairs: list[Pair]) -> set[int]:
    """Edge indices of a blossom's interior near-perfect matching, leaving
    only the constituent holding `entry` (the base when entry is None)
    uncovered at the top level, and likewise inside every nested blossom.
    pairs[i] holds the ends of edge i."""
    out: set[int] = set()
    pending = [(rec, entry)]
    while pending:
        rec, entry = pending.pop()
        size = len(rec.cycle)
        j = 0 if entry is None else rec.constituent_index(entry)
        for i in rec.matched_positions(j):
            eidx = rec.cycle_edges[i]
            out.add(eidx)
            for c in (rec.cycle[i], rec.cycle[(i + 1) % size]):
                if isinstance(c, _Blossom):
                    u, v = pairs[eidx]
                    pending.append((c, u if u in c.nodes else v))
        if isinstance(rec.cycle[j], _Blossom):
            pending.append((rec.cycle[j], entry))
    return out


# ---------------------------------------------------------------------------
# Engine state


class EngineState:
    """Mutable solver state: duals, blossoms, and the stored matching.

    The stored matching `mates` maps each matched view node to (mate
    view node, edge index): one original edge per matched pair of maximal
    sets, entered at both ends. Blossom interiors are derived, never
    stored. Use `solve` for a full run, or drive the state manually with
    grow_forest / augment / shrink_blossom / compute_alpha /
    apply_dual_update for stepping and inspection.
    """

    def __init__(self, inst: Instance, beta: RationalInput = 0):
        beta = as_rational(beta)
        if beta < 0:
            raise ValueError(f"beta must be nonnegative, got {beta}")
        weight_scale, weights = inst.scaled_weights
        if inst.min_weight() < 0:
            u, v, _ = next(e for e, w in zip(inst.edges, weights) if w < 0)
            raise ValueError(
                f"negative weight on edge ({u}, {v}); normalize weights first")
        if inst.edges and 2 * beta > inst.min_weight():
            raise ValueError(
                f"beta {beta} makes the initial duals infeasible: "
                f"2*beta exceeds the minimum edge weight {inst.min_weight()}")
        self.inst = inst
        self.beta = beta
        # Integer units of 1/scale: weights, node duals, accumulated duals
        # pi*, and (on the records) blossom duals. The scale is a multiple
        # of the instance's, so the weights are its cached ints times one
        # factor.
        self._scale = 2 * lcm(beta.denominator, weight_scale)
        factor = self._scale // weight_scale
        self._weights = [w * factor for w in weights]
        self._pairs: list[Pair] = [(u, v) for u, v, _ in inst.edges]
        self._pi = [self._units(beta)] * inst.node_count
        self._pi_star = list(self._pi)
        self.blossoms: list[_Blossom] = []  # maximal nontrivial blossoms
        self.mates: dict[int, tuple[int, int]] = {}
        self._forest: ForestLabels | None = None
        self._walk: AlternatingWalk | None = None
        # compute_alpha's proof for the current forest: (forest, bound in
        # units of 1/(2 * scale), that scale, the edges whose bound ties it).
        self._proof: tuple | None = None
        nodes = range(inst.node_count)
        self._view = _tight_view(self, list(nodes), nodes, self._pi_star)

    # -- caching ------------------------------------------------------------

    def _invalidate(self, view: ShrunkenView) -> None:
        """Drop the forest, walk and alpha proof; `view` is the new view."""
        self._view = view
        self._forest = None
        self._walk = None
        self._proof = None

    # -- dual arithmetic ----------------------------------------------------

    def _units(self, value: Fraction) -> int:
        """value * scale, which must be an integer."""
        return value.numerator * (self._scale // value.denominator)

    def _admit(self, amounts: Iterable[Fraction]) -> None:
        """Grow the scale once so that every amount is a whole number of
        units, multiplying every stored int by the same factor."""
        factor = lcm(*(a.denominator // gcd(a.denominator, self._scale)
                       for a in amounts))
        if factor == 1:
            return
        self._scale *= factor
        self._weights = [w * factor for w in self._weights]
        self._pi = [p * factor for p in self._pi]
        self._pi_star = [p * factor for p in self._pi_star]
        for rec in self._records():
            rec.pi *= factor

    @property
    def pi_node(self) -> list[Fraction]:
        """Singleton duals in original units."""
        return [Fraction(p, self._scale) for p in self._pi]

    def _records(self) -> Iterator[_Blossom]:
        """Every blossom record, nested ones included."""
        for top in self.blossoms:
            yield from top.descendants()

    # -- structure ----------------------------------------------------------

    def shrunken_view(self) -> ShrunkenView:
        return self._view

    def _pair(self, a: int, b: int, eidx: int) -> None:
        """Store edge eidx as the matching edge of view nodes a and b."""
        self.mates[a] = (b, eidx)
        self.mates[b] = (a, eidx)

    def exposed_view_keys(self) -> tuple[int, ...]:
        return self.forest_labels().roots

    def covered_node(self, rec: _Blossom) -> int | None:
        """The node of maximal blossom `rec` covered by its stored matching
        edge, or None when the blossom is exposed."""
        entry = self.mates.get(rec.key)
        if entry is None:
            return None
        u, v = self._pairs[entry[1]]
        return u if u in rec.nodes else v

    # -- forest growth ------------------------------------------------------

    def grow_forest(self) -> AlternatingWalk | None:
        """Grow the alternating forest from all exposed view nodes.

        Returns the first X-to-X alternating walk found in deterministic
        scan order (a path triggers augmentation, anything else closes a
        blossom), or None when the forest is complete and a dual update
        is due. The labels remain available via forest_labels().
        """
        if self._forest is not None:
            return self._walk
        mates = self.mates
        incident = self.shrunken_view().incident

        label: dict[int, int] = {}
        parent: dict[int, tuple[int, int]] = {}
        root: dict[int, int] = {}
        roots = tuple(k for k in incident if k not in mates)
        for k in roots:
            label[k] = LABEL_T
            root[k] = k

        walk: AlternatingWalk | None = None
        # A min-heap of T-nodes still to scan; roots ascend, so it is one.
        # Every node enters at most once, when it is labeled T.
        pending = list(roots)
        while pending and walk is None:
            u = heapq.heappop(pending)
            for eidx, w in incident[u]:
                lw = label.get(w)
                if lw == LABEL_S:
                    continue
                if lw == LABEL_T:
                    walk = self._build_walk(u, w, eidx, parent)
                    break
                # w is free; exposed nodes are roots, so w must be matched.
                assert w in mates, "free exposed view node found during growth"
                mate_key, mate_eidx = mates[w]
                label[w] = LABEL_S
                parent[w] = (u, eidx)
                root[w] = root[u]
                label[mate_key] = LABEL_T
                parent[mate_key] = (w, mate_eidx)
                root[mate_key] = root[u]
                heapq.heappush(pending, mate_key)

        self._forest = ForestLabels(label, root, roots)
        self._walk = walk
        return walk

    def _build_walk(self, u: int, w: int, closing_edge: int,
                    parent: dict[int, tuple[int, int]]) -> AlternatingWalk:
        def chain(key: int) -> tuple[list[int], list[int]]:
            nodes, edges = [key], []
            while key in parent:
                key, eidx = parent[key]
                nodes.append(key)
                edges.append(eidx)
            return nodes, edges

        nodes_u, edges_u = chain(u)
        nodes_w, edges_w = chain(w)
        nodes = nodes_u[::-1] + nodes_w
        edges = edges_u[::-1] + [closing_edge] + edges_w
        return AlternatingWalk(tuple(nodes), tuple(edges))

    def forest_labels(self) -> ForestLabels:
        self.grow_forest()
        assert self._forest is not None
        return self._forest

    def _require_clean_forest(self) -> ForestLabels:
        walk = self.grow_forest()
        if walk is not None:
            kind = "augmenting walk" if walk.is_path() else "blossom walk"
            raise EngineStateError(
                f"dual update requested while an {kind} exists; resolve it first")
        assert self._forest is not None
        return self._forest

    # -- primal steps ---------------------------------------------------------

    def augment(self, walk: AlternatingWalk) -> None:
        """Flip the matching along an augmenting path of the shrunken graph."""
        if not walk.is_path():
            raise ValueError("cannot augment along a walk that is not a path")
        nodes, edges = walk.nodes, walk.edges
        if nodes[0] in self.mates or nodes[-1] in self.mates:
            raise ValueError("augmenting path must join two exposed nodes")
        for i in range(1, len(edges), 2):
            assert self.mates.get(nodes[i]) == (nodes[i + 1], edges[i]), \
                "matched walk edge missing from matching"
        # Every path node is an end of one unmatched walk edge, so these
        # writes replace all of the path's old entries.
        for i in range(0, len(edges), 2):
            self._pair(nodes[i], nodes[i + 1], edges[i])
        # Blossoms and pi* are unchanged, and with them the view.
        self._invalidate(self._view)

    # -- snapshots ------------------------------------------------------------

    def frozen_duals(self) -> DualState:
        """The engine's own ints at their smallest scale (`reduced`)."""
        records = sorted(self._records(), key=lambda r: (r.key, len(r.nodes)))
        n = len(self._pi)
        scale, ints = reduced(self._scale, (*self._pi, *(r.pi for r in records)))
        return DualState(scale, ints[:n],
                         tuple(BlossomDual(r.nodes, p) for r, p in zip(records, ints[n:])),
                         self.beta)

    def snapshot(self) -> Snapshot:
        lifted, pairs, weights = _lifted(self), self._pairs, self._weights
        m = Matching(frozenset(pairs[i] for i in lifted))
        total = sum(weights[i] for i in lifted)
        return Snapshot(len(m), m, self.frozen_duals(), Fraction(total, self._scale))


# ---------------------------------------------------------------------------
# Operations on the engine state


def _lifted(state: EngineState) -> set[int]:
    """Edge indices of the current matching, all blossoms expanded: the
    stored edges, and each maximal blossom's `_completion` at the node its
    stored edge covers (at its base when it is exposed)."""
    edges = {i for _, i in state.mates.values()}
    for rec in state.blossoms:
        edges |= _completion(rec, state.covered_node(rec), state._pairs)
    return edges


def _tight_edges(state: EngineState, top: list[int], pi_star: list[int],
                 edges: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """The tightness rule: (i, top[u], top[v]) for each edge i of `edges`
    joining distinct view ids whose load pi*(u) + pi*(v) equals its weight.
    Raises InfeasibleUpdateError at the first whose load exceeds it."""
    pairs, weights = state._pairs, state._weights
    for i in edges:
        (u, v), w = pairs[i], weights[i]
        load = pi_star[u] + pi_star[v]
        if load < w:
            continue
        ku, kv = top[u], top[v]
        if ku == kv:
            continue
        if load > w:
            raise InfeasibleUpdateError("edge-slack", i, Fraction(load, state._scale),
                                        Fraction(w, state._scale), (u, v))
        yield i, ku, kv


def _tight_view(state: EngineState, top: list[int], keys: Iterable[int],
                pi_star: list[int]) -> ShrunkenView:
    """The view over `top` with view ids `keys`, ascending, at accumulated
    duals `pi_star`: each id lists its `_tight_edges` in input order."""
    incident: dict[int, list[tuple[int, int]]] = {k: [] for k in keys}
    for i, ku, kv in _tight_edges(state, top, pi_star, range(len(state._pairs))):
        incident[ku].append((i, kv))
        incident[kv].append((i, ku))
    return ShrunkenView(top, incident)


def _stepped_view(state: EngineState, label: dict[int, int], pi_star: list[int],
                  ties: list[int]) -> ShrunkenView:
    """The view after a uniform step 0 < a <= alpha of the forest `label`
    that expands no blossom, patched from the current one. No load that
    grows (rate sum r > 0) passes its weight, and only edges whose bound
    tied alpha (`ties`) can reach it: the rule decides which join. Loads
    at r = 0 stay; at r < 0 they fall, so tight edges with an S end and no
    T end leave. Touched lists are fresh; every other list is shared."""
    view = state._view
    old, incident = view.incident, dict(view.incident)
    falling = {k for s, rate in label.items() if rate == LABEL_S
               for _, x in old[s] if label.get(x) != LABEL_T for k in (s, x)}
    for k in falling:
        incident[k] = [(i, x) for i, x in old[k] if label.get(k, 0) + label.get(x, 0) >= 0]
    for i, ku, kv in _tight_edges(state, view.top, pi_star, ties):
        incident[ku] = sorted([*incident[ku], (i, kv)])
        incident[kv] = sorted([*incident[kv], (i, ku)])
    return ShrunkenView(view.top, incident)


def lift_matching(state: EngineState) -> Matching:
    """The current matching on the original graph, all blossoms expanded."""
    return Matching(frozenset(state._pairs[i] for i in _lifted(state)))


def shrink_blossom(state: EngineState, walk: AlternatingWalk) -> EngineState:
    """Shrink the odd cycle closed by a non-path X-to-X walk.

    The cycle's node set joins the laminar family with dual value 0; its
    matched cycle edges leave the stored matching (they become derived
    interior edges). The deshrunken matching is unchanged.
    """
    if walk.is_path():
        raise ValueError("walk is a path; augment instead of shrinking")
    nodes, edges = walk.nodes, walk.edges
    if nodes[0] != nodes[-1]:
        raise ValueError("non-path walk must start and end at the same exposed node")
    last = len(edges)
    strip = 0
    while strip + 1 < last - strip - 1 and nodes[strip + 1] == nodes[last - strip - 1]:
        strip += 1
    assert strip % 2 == 0, "walk enters the cycle on a matched edge"

    cycle_keys = list(nodes[strip:last - strip])
    cycle_eidx = list(edges[strip:last - strip])
    assert len(cycle_keys) % 2 == 1 and len(cycle_keys) >= 3

    view = state.shrunken_view()
    records = {rec.key: rec for rec in state.blossoms}
    cycle: list = []
    node_union: set[int] = set()
    for key in cycle_keys:
        item = records.get(key, key)
        cycle.append(item)
        node_union |= item.nodes if isinstance(item, _Blossom) else {key}

    # The matched cycle edges sit at odd positions; they move from the
    # stored matching into the derived interior. The base's entry, the
    # stem edge or none at a root, moves to the new blossom.
    mates = state.mates
    for i in range(1, len(cycle_keys), 2):
        assert mates.get(cycle_keys[i]) == (cycle_keys[i + 1], cycle_eidx[i])
    stem = mates.get(cycle_keys[0])
    for key in cycle_keys:
        mates.pop(key, None)

    rec = _Blossom(frozenset(node_union), cycle, cycle_eidx)
    state.blossoms = [b for b in state.blossoms if b not in cycle] + [rec]
    if stem is not None:
        state._pair(rec.key, *stem)

    # The new blossom's dual is 0, so pi* and tightness stay as they are:
    # the cycle's view ids merge into rec.key, the smallest of them, which
    # keeps its place among the keys. Its list is the cycle's outward
    # tight edges, in input order; tight edges between two cycle ids drop
    # out. Only the lists of the cycle's neighbours name a merged id, so
    # only they are rebuilt; the new view shares every other list.
    key, merged = rec.key, set(cycle_keys)
    top = list(view.top)
    for v in rec.nodes:
        top[v] = key
    incident = dict(view.incident)
    outward = [entry for k in cycle_keys
               for entry in (incident[k] if k == key else incident.pop(k))
               if entry[1] not in merged]
    outward.sort()
    incident[key] = outward
    for w in {w for _, w in outward}:
        incident[w] = [(i, key if x in merged else x) for i, x in incident[w]]
    state._invalidate(ShrunkenView(top, incident))
    return state


def compute_alpha(state: EngineState) -> AlphaResult:
    """Largest uniform dual step keeping the dual constraints feasible.

    Over the fully grown forest each node moves at the rate of its
    maximal set, the set's label (+1 T, -1 S), or 0 when it is free.
    Bounds: (a) pi(U) for S-labeled blossoms (their dual is about to
    decrease); (b) slack(e) / r for each edge between distinct view nodes
    whose load grows at rate r = rate(u) + rate(v) > 0, binding as
    `edge-t-t` at r = 2 and `edge-t-free` at r = 1. Returns alpha None
    when no bound exists (no perfect matching). Bounds are compared in
    units of 1/(2 * scale), where (b) is the integer 2 * slack // r; of
    equal bounds the first offered, in the order above and edges in input
    order, binds.

    The scan leaves a proof on the state until its next mutation (the
    forest, the bound and its scale, the edges whose bound ties it), by
    which `apply_dual_update` patches the view for a step it covers.
    """
    forest = state._require_clean_forest()
    label = forest.label
    top = state.shrunken_view().top
    pi_star = state._pi_star
    rate = [label.get(k, 0) for k in top]
    names = (None, "edge-t-free", "edge-t-t")  # by rate

    best: int | None = None
    binding: tuple | None = None
    ties: list[int] = []  # the edges whose bound equals best

    for rec in state.blossoms:
        if label.get(rec.key) == LABEL_S:
            bound = 2 * rec.pi
            if best is None or bound < best:
                best, binding = bound, ("blossom-nonneg", rec.nodes)

    for i, ((u, v), w) in enumerate(zip(state._pairs, state._weights)):
        r = rate[u] + rate[v]
        if r > 0 and top[u] != top[v]:
            bound = 2 * (w - pi_star[u] - pi_star[v]) // r
            if best is None or bound <= best:
                if best is None or bound < best:
                    best, binding, ties = bound, (names[r], i), []
                ties.append(i)

    if best is None:
        return AlphaResult(None, None)
    state._proof = (forest, best, state._scale, ties)
    return AlphaResult(Fraction(best, 2 * state._scale), binding)


def apply_dual_update(state: EngineState,
                      amounts: Union[RationalInput, Mapping[int, RationalInput]],
                      ) -> EngineState:
    """Shift duals by per-tree amounts: +a on T-nodes, -a on S-nodes.

    `amounts` is either a single value applied to every tree, or a map
    from tree root (view node id) to that tree's amount; unmapped trees
    get 0. The update is validated against the dual constraints before
    anything is written; an infeasible request raises InfeasibleUpdateError
    and leaves the duals untouched. Afterwards every maximal S-labeled
    blossom whose dual reached 0 is deshrunken and removed. A uniform
    amount 0 < a <= alpha that `compute_alpha` proved for this forest and
    that expands no blossom patches the view (`_stepped_view`). Any other
    update is validated by `_tight_view` on the view ids left after the
    expansions, so the same scan builds the next view.
    """
    labels = state._require_clean_forest()
    ties = None  # compute_alpha's tie edges, when its proof covers the step

    if isinstance(amounts, Mapping):
        per_root = {k: as_rational(a) for k, a in amounts.items()}
        unknown = set(per_root) - set(labels.roots)
        if unknown:
            raise ValueError(f"amounts given for non-root view nodes {sorted(unknown)}")
        state._admit(per_root.values())
        units = {k: state._units(a) for k, a in per_root.items()}
    else:
        value = as_rational(amounts)
        state._admit((value,))
        unit = state._units(value)
        units = dict.fromkeys(labels.roots, unit)
        proof = state._proof
        if proof is not None and proof[0] is labels and \
                0 < 2 * unit * proof[2] <= proof[1] * state._scale:
            ties = proof[3]

    delta = {k: rate * units.get(labels.root[k], 0) for k, rate in labels.label.items()}

    # Validate nonnegativity of blossom duals. The S-labeled ones that
    # the update takes to 0 expand: their nodes get the view ids of their
    # constituents.
    tops = {rec.key: rec for rec in state.blossoms}
    expanded = []
    for key, rec in tops.items():
        if key in delta:
            new_pi = rec.pi + delta[key]
            if new_pi < 0:
                raise InfeasibleUpdateError("blossom-nonneg", rec.nodes,
                                            Fraction(new_pi, state._scale), ZERO, rec.nodes)
            if new_pi == 0 and labels.label[key] == LABEL_S:
                expanded.append(rec)
    view = state.shrunken_view()
    top, keys = view.top, view.incident
    if expanded:
        top = list(top)
        for c in (part for rec in expanded for part in rec.cycle):
            key, inner = (c.key, c.nodes) if isinstance(c, _Blossom) else (c, (c,))
            for v in inner:
                top[v] = key
        keys = [v for v, key in enumerate(top) if v == key]

    # Unless alpha's proof covers the step, validate the edges on the new
    # pi*, where a maximal set's step moves every node inside it, building
    # the next view. The duals are feasible before the update, so the
    # first edge found overloaded is the first whose load grows past its
    # weight. An edge inside an expanded blossom is never rejected: no set
    # separating its ends moves.
    pi_star = [p + delta.get(k, 0) for p, k in zip(state._pi_star, view.top)]
    if ties is not None and not expanded:
        new_view = _stepped_view(state, labels.label, pi_star, ties)
    else:
        new_view = _tight_view(state, top, keys, pi_star)

    # Commit.
    state._pi_star = pi_star
    for key, d in delta.items():
        if key in tops:
            tops[key].pi += d
        else:
            state._pi[key] += d

    for rec in expanded:
        entry = state.covered_node(rec)
        assert entry is not None, "S-labeled blossom must be matched"
        # In the stored matching, the blossom's entry moves to the
        # constituent holding the covered node, and each matched cycle
        # edge joins it, between view ids of the new `top`.
        state._pair(top[entry], *state.mates.pop(rec.key))
        for i in rec.matched_positions(rec.constituent_index(entry)):
            u, v = state._pairs[rec.cycle_edges[i]]
            state._pair(top[u], top[v], rec.cycle_edges[i])
        state.blossoms.remove(rec)
        state.blossoms.extend(c for c in rec.cycle if isinstance(c, _Blossom))

    state._invalidate(new_view)
    return state


# ---------------------------------------------------------------------------
# Full runs


def solve(inst: Instance,
          mode: str = "maximum",
          phases: Sequence[Sequence[RationalInput]] = (),
          beta: RationalInput = 0,
          ) -> RunResult:
    """Run the solver, recording a snapshot at every cardinality.

    Weights must be nonnegative (run normalize_weights first). In both
    modes the run ends either with a perfect matching or with an unbounded
    dual step; the latter proves the current matching has maximum
    cardinality, which "maximum" mode treats as normal termination and
    "perfect" mode flags as infeasible (see RunResult.infeasible).

    Dual updates are uniform, by the largest feasible step, except for
    the first len(phases): phases[i] lists the per-tree amounts of dual
    update i, bound to the forest's trees in ascending order of root id.
    Trees beyond the end of a phase get 0, and a phase listing more
    amounts than there are trees raises ValueError. Each phase is checked
    against the dual constraints before it is applied
    (InfeasibleUpdateError). To observe every dual update, drive the
    state step by step (see EngineState).
    """
    if mode not in ("perfect", "maximum"):
        raise ValueError(f"unknown mode {mode!r}")

    state = EngineState(inst, beta)
    snapshots = [state.snapshot()]
    scripted = list(phases)

    steps = 0
    # Each scripted phase spends a step of its own, even one of zeros.
    step_limit = 200 + 50 * (inst.node_count + len(inst.edges)) + len(scripted)
    while True:
        steps += 1
        if steps > step_limit:
            raise RuntimeError("step limit exceeded; this is a solver defect")

        if not state.exposed_view_keys():
            status = STATUS_PERFECT
            break

        walk = state.grow_forest()
        if walk is not None:
            if walk.is_path():
                state.augment(walk)
                snapshots.append(state.snapshot())
            else:
                shrink_blossom(state, walk)
            continue

        if scripted:
            phase, roots = scripted.pop(0), state.forest_labels().roots
            if len(phase) > len(roots):
                raise ValueError(f"scripted phase lists {len(phase)} amounts but "
                                 f"the forest has only {len(roots)} trees")
            amounts = dict(zip(roots, phase))
        else:
            result = compute_alpha(state)
            if result.alpha is None:
                status = STATUS_NO_PERFECT
                break
            amounts = result.alpha
        apply_dual_update(state, amounts)

    return RunResult(tuple(snapshots), status, mode, state.beta)
