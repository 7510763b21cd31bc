"""Seeded instance generators for the benchmark workloads.

Every generator draws from a `random.Random` seeded with a string built
from the workload name, the benchmark seed and the instance index, so the
same seed always yields byte-identical instance files. The program under
test only ever sees those files. This module imports nothing from the
program, so the corpus cannot depend on the code it measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("sparse-certify", "nested-ladder", "audit-replay", "small-batch")

# sparse-certify and audit-replay: the ROADMAP's random sparse corpus.
SPARSE_NODES = 64
SPARSE_DEGREE = 8
SPARSE_WEIGHTS = (0, 100)

# nested-ladder: depth is set by the run-time budget: one operation stays
# near half a second, so a run times enough of them for a steady median.
# Nesting depth ~330 hits RecursionError in the program, far beyond this
# depth, so no workload covers that defect.
LADDER_DEPTH = 40
LADDER_RUNG_WEIGHT = 2

# small-batch: desk-scale graphs inside the oracle's 16-node budget, with
# negative weights so that normalization runs. Instance i takes its size
# and density from a fixed grid, so every seed's pass has the same mix;
# the oracle's cost grows as 2^n, and a random mix moved the median.
SMALL_NODES = range(10, 17)
SMALL_DENSITIES = (0.3, 0.6, 0.9)
SMALL_WEIGHTS = (-10, 20)


@dataclass(frozen=True)
class GeneratedInstance:
    """One instance file and what the benchmark needs to know about it.

    edges are 0-based (u, v, weight) triples in file order.
    """

    name: str
    path: Path
    node_count: int
    edges: tuple[tuple[int, int, int], ...]


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def format_dimacs(node_count: int, edges, comment: str) -> str:
    """The program's instance format: 1-based ids, integer weights."""
    lines = [f"c {comment}", f"p edge {node_count} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1} {w}" for u, v, w in edges]
    return "\n".join(lines) + "\n"


def sparse_edges(rng: random.Random, n: int = SPARSE_NODES,
                 degree: int = SPARSE_DEGREE) -> list[tuple[int, int, int]]:
    """G(n, m) with m = n * degree / 2 distinct pairs, in shuffled order."""
    m = n * degree // 2
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < m:
        u, v = rng.sample(range(n), 2)
        pairs.add((min(u, v), max(u, v)))
    ordered = sorted(pairs)
    rng.shuffle(ordered)
    low, high = SPARSE_WEIGHTS
    return [(u, v, rng.randint(low, high)) for u, v in ordered]


def ladder_edges(rng: random.Random, depth: int = LADDER_DEPTH,
                 ) -> tuple[int, list[tuple[int, int, int]]]:
    """Nested-blossom ladder with a pendant node, ids and order permuted.

    A weight-0 triangle; each level adds a weight-0 pair (a, b) joined to
    the two newest nodes of the previous level by rung edges, closing an
    odd cycle around the previous blossom. The pendant edge is heavier
    than all rungs together, so the last augmentation runs only after the
    whole nest of depth + 1 blossoms has formed.
    """
    edges = [(0, 1, 0), (1, 2, 0), (0, 2, 0)]
    left, right = 2, 0
    n = 3
    for _ in range(depth):
        a, b = n, n + 1
        n += 2
        edges += [(left, a, LADDER_RUNG_WEIGHT), (a, b, 0),
                  (b, right, LADDER_RUNG_WEIGHT)]
        left, right = a, b
    edges.append((left, n, LADDER_RUNG_WEIGHT * (depth + 1)))
    n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    permuted = [(min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                for u, v, w in edges]
    rng.shuffle(permuted)
    return n, permuted


def small_edges(rng: random.Random, index: int) -> tuple[int, list[tuple[int, int, int]]]:
    n = SMALL_NODES[index % len(SMALL_NODES)]
    density = SMALL_DENSITIES[index // len(SMALL_NODES) % len(SMALL_DENSITIES)]
    low, high = SMALL_WEIGHTS
    edges = [(u, v, rng.randint(low, high))
             for u in range(n) for v in range(u + 1, n)
             if rng.random() < density]
    return n, edges


def generate(workload: str, seed: int, count: int,
             out_dir: Path) -> list[GeneratedInstance]:
    """Write `count` instance files for a workload and return them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    instances = []
    for index in range(count):
        rng = _rng(workload, seed, index)
        if workload == "nested-ladder":
            n, edges = ladder_edges(rng)
        elif workload == "small-batch":
            n, edges = small_edges(rng, index)
        else:
            n, edges = SPARSE_NODES, sparse_edges(rng)
        name = f"i{index:03d}"
        path = out_dir / f"{name}.txt"
        path.write_text(format_dimacs(n, edges, f"{workload} seed {seed} #{index}"),
                        encoding="utf-8")
        instances.append(GeneratedInstance(name, path, n, tuple(edges)))
    return instances
