"""Shared test helpers: reference enumerators, instance generators, and
stepping utilities. The reference oracle here is deliberately different
from the package oracle (edge-subset enumeration vs node recursion) so
the two check each other."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from matchcert.engine import solve
from matchcert.graph import Instance, normalize_weights
from matchcert.engine import EngineState, shrink_blossom


def naive_min_by_cardinality(inst: Instance) -> dict[int, tuple[Fraction, tuple]]:
    """Brute force over edge subsets; only sensible for small instances.

    Returns k -> (min weight, lexicographically-first witness edge tuple).
    """
    best: dict[int, tuple[Fraction, tuple]] = {0: (Fraction(0), ())}
    m = len(inst.edges)
    for r in range(1, m + 1):
        found = False
        for combo in combinations(range(m), r):
            used: set[int] = set()
            weight = Fraction(0)
            ok = True
            for i in combo:
                e = inst.edges[i]
                if e.u in used or e.v in used:
                    ok = False
                    break
                used.add(e.u)
                used.add(e.v)
                weight += e.weight
            if not ok:
                continue
            found = True
            witness = tuple(sorted((inst.edges[i].u, inst.edges[i].v) for i in combo))
            cand = (weight, witness)
            if r not in best or cand < best[r]:
                best[r] = cand
        if not found:
            break
    return best


def random_instance(rng: random.Random, max_nodes: int = 14,
                    low: int = 0, high: int = 20) -> Instance:
    n = rng.randint(2, max_nodes)
    density = rng.choice([0.3, 0.6, 0.9])
    edges = [(u, v, rng.randint(low, high))
             for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return Instance.from_edges(n, edges)


def advance_to_dual_phase(state: EngineState) -> None:
    """Apply augmentations and shrinks until a dual update is due."""
    while True:
        walk = state.grow_forest()
        if walk is None:
            return
        if walk.is_path():
            state.augment(walk)
        else:
            shrink_blossom(state, walk)


def minimum_perfect_weight(inst: Instance) -> Fraction | None:
    """Minimum perfect-matching weight via the solver, or None if none
    exists. Accepts arbitrary (possibly negative) weights."""
    normalized, record = normalize_weights(inst)
    run = solve(normalized, mode="perfect")
    if run.infeasible:
        return None
    assert 2 * run.final.cardinality == inst.node_count
    return run.final.weight - record.shift * run.final.cardinality
