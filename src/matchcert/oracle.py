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

    # memo[mask][k]: the minimum scaled weight of a k-edge matching on
    # the nodes mask leaves undecided. The cardinalities reachable from a
    # mask run 0 .. its matching number without a gap, and a match
    # branch's list is no longer than the skip branch's, so a list only
    # ever grows at its end.
    memo: dict[int, list[int]] = {full: [0]}
    for mask in (mask for level in reversed(levels[:n]) for mask in level):
        v = ((mask + 1) & ~mask).bit_length() - 1
        skip = mask | (1 << v)
        best = list(memo[skip])
        for u, w, bit in neighbors[v]:
            if mask & bit:
                continue
            for k, sub in enumerate(memo[skip | bit], 1):
                cand = sub + w
                if k == len(best):
                    best.append(cand)
                elif cand < best[k]:
                    best[k] = cand
        memo[mask] = best

    def witness(k: int) -> list[tuple[int, int]]:
        """The first minimum k-edge matching in sorted edge order, read
        back from mask 0: the lowest undecided node is matched to its
        smallest free neighbor that keeps the minimum, which sorts before
        every matching that leaves it unmatched, or else left unmatched."""
        pairs, mask, target = [], 0, memo[0][k]
        while k:
            v = ((mask + 1) & ~mask).bit_length() - 1
            skip = mask | (1 << v)
            for u, w, bit in neighbors[v]:
                if mask & bit:
                    continue
                sub = memo[skip | bit]
                if k - 1 < len(sub) and sub[k - 1] + w == target:
                    pairs.append((v, u))
                    mask, k, target = skip | bit, k - 1, target - w
                    break
            else:
                mask = skip
        return pairs

    table = OracleTable(tuple(
        CardinalityRecord(k, Fraction(weight, scale), Matching.from_pairs(witness(k)))
        for k, weight in enumerate(memo[0])))
    for rec in table.by_cardinality:
        assert matching_weight(inst, rec.witness) == rec.min_weight
    return table
