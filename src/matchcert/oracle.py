"""Exhaustive ground truth: the minimum weight and a witness for every
matching cardinality, by exact enumeration over node subsets.

This module is the independent check against which the solver is tested;
it shares no code with the solver beyond the graph types. The search is a
memoized branch over the lowest undecided node (leave it unmatched, or
match it to each available neighbor), which visits every matching exactly
once up to shared prefixes. Weights are scaled to integers internally so
the inner loop stays in machine arithmetic; results are exact Fractions.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .graph import Instance, Matching, matching_weight

DEFAULT_NODE_LIMIT = 16

Pair = tuple[int, int]
# Per cardinality: (scaled weight, witness edges sorted ascending) or None.
_Entry = tuple[int, tuple[Pair, ...]]


class CardinalityRecord(namedtuple("CardinalityRecord", "cardinality min_weight witness")):
    __slots__ = ()

    cardinality: int
    min_weight: Fraction
    witness: Matching


class OracleTable(namedtuple("OracleTable", "by_cardinality")):
    """Per-cardinality minima for one instance, k = 0 .. nu."""

    __slots__ = ()

    by_cardinality: tuple[CardinalityRecord, ...]

    @property
    def nu(self) -> int:
        return len(self.by_cardinality) - 1

    def min_weight(self, k: int) -> Fraction:
        return self.by_cardinality[k].min_weight

    def witness(self, k: int) -> Matching:
        return self.by_cardinality[k].witness


def min_weight_by_cardinality(inst: Instance,
                              limit: int = DEFAULT_NODE_LIMIT) -> OracleTable:
    """Exact minima and lexicographically-first witnesses for every k.

    Witness tie-break: among minimum-weight matchings of a cardinality, the
    one whose sorted edge tuple is smallest. Raises ValueError when the
    instance exceeds the node budget.
    """
    n = inst.node_count
    if n > limit:
        raise ValueError(f"instance has {n} nodes, exceeding the oracle budget of {limit}")

    scale, weights = inst.scaled_weights
    # neighbors[v]: (u, scaled weight, 1 << u) for each edge {v, u}.
    neighbors: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for e, w in zip(inst.edges, weights):
        neighbors[e.u].append((e.v, w, 1 << e.v))
        neighbors[e.v].append((e.u, w, 1 << e.u))
    for lst in neighbors:
        lst.sort()

    # A branch decides one or two more nodes, so the masks the search
    # reaches are collected by how many nodes they decide, and the memo is
    # filled from the most decided level down: every branch is filled
    # before the masks that read it, and no input size meets the
    # recursion limit.
    full = (1 << n) - 1
    levels: list[dict[int, None]] = [{0: None}] + [{} for _ in range(n)]
    for decided in range(n):
        for mask in levels[decided]:
            v = ((mask + 1) & ~mask).bit_length() - 1  # lowest undecided node
            skip = mask | (1 << v)
            levels[decided + 1][skip] = None
            for _, _, bit in neighbors[v]:
                if not mask & bit:
                    levels[decided + 2][skip | bit] = None

    # memo[mask]: entries indexed by cardinality, over the nodes not yet
    # decided.
    memo: dict[int, list[_Entry | None]] = {full: [(0, ())]}
    for mask in (mask for level in reversed(levels[:n]) for mask in level):
        v = ((mask + 1) & ~mask).bit_length() - 1
        skip = mask | (1 << v)
        entries: list[_Entry | None] = list(memo[skip])
        for u, w, bit in neighbors[v]:
            if mask & bit:
                continue
            for k, entry in enumerate(memo[skip | bit]):
                if entry is None:
                    continue
                cand: _Entry = (entry[0] + w, ((v, u),) + entry[1])
                kk = k + 1
                if kk >= len(entries):
                    entries.extend([None] * (kk + 1 - len(entries)))
                cur = entries[kk]
                if cur is None or cand < cur:
                    entries[kk] = cand
        memo[mask] = entries

    records: list[CardinalityRecord] = []
    for k, entry in enumerate(memo[0]):
        if entry is None:
            continue
        scaled, pairs = entry
        records.append(CardinalityRecord(k, Fraction(scaled, scale),
                                         Matching.from_pairs(pairs)))
    # Every cardinality up to nu is achievable (drop edges from a witness),
    # so the table has no holes.
    assert [r.cardinality for r in records] == list(range(len(records)))
    table = OracleTable(tuple(records))
    for rec in table.by_cardinality:
        assert matching_weight(inst, rec.witness) == rec.min_weight
    return table
