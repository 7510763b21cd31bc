"""Graph instances, matchings, file formats, and weight normalization.

Everything in this module works with exact rationals (fractions.Fraction).
Floats are rejected on input: the dual certificates produced elsewhere in
this package are checked with equality, and binary floating point would
silently break those checks.

Node ids are 0-based in memory and 1-based in the DIMACS-flavored file
format and in all JSON output.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import IO, Iterable, NamedTuple, Union

RationalInput = Union[int, str, Fraction]

ZERO = Fraction(0)

_RATIONAL = re.compile(r"[+-]?[0-9]+(?:\.[0-9]+|/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """An exact rational written as an integer, a decimal or a fraction
    (`3`, `-2.5`, `7/2`). Anything else, exponents and whitespace
    included, raises ValueError, as does a zero denominator."""
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError(f"invalid rational {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}")


def as_rational(value: RationalInput) -> Fraction:
    """Convert to an exact Fraction, rejecting floats outright; strings
    follow `parse_rational`'s grammar."""
    if isinstance(value, float):
        raise TypeError(f"floating point value {value!r} is not exact; "
                        "pass an int, a Fraction, or a string like '7/2'")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


class Edge(NamedTuple):
    u: int
    v: int
    weight: Fraction


@dataclass(frozen=True)
class Instance:
    """A simple undirected graph with exact rational edge weights.

    Invariants, enforced at construction:
      * every endpoint lies in [0, node_count),
      * no self-loops,
      * no duplicate unordered node pairs,
      * all weights are Fractions.

    Edge order is preserved; the solver uses it as a deterministic scan
    order, so two textually identical files produce identical runs.
    """

    node_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.node_count, int) or self.node_count < 1:
            raise ValueError(f"node_count must be a positive integer, got {self.node_count!r}")
        seen: set[tuple[int, int]] = set()
        for e in self.edges:
            if not isinstance(e, Edge):
                raise TypeError(f"edges must be Edge tuples, got {e!r}")
            if not (isinstance(e.u, int) and isinstance(e.v, int)):
                raise TypeError(f"edge endpoints must be ints: {e!r}")
            if e.u == e.v:
                raise ValueError(f"self-loop at node {e.u}")
            if not (0 <= e.u < self.node_count and 0 <= e.v < self.node_count):
                raise ValueError(f"edge endpoint out of range: {e!r}")
            if e.u > e.v:
                raise ValueError(f"edge endpoints must be ordered u < v: {e!r}")
            if not isinstance(e.weight, Fraction):
                raise TypeError(f"edge weight must be a Fraction: {e!r}")
            pair = (e.u, e.v)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)

    @classmethod
    def from_edges(cls, node_count: int,
                   edges: Iterable[tuple[int, int, RationalInput]]) -> "Instance":
        """Build an Instance from (u, v, weight) triples, normalizing u < v."""
        normalized = []
        for u, v, w in edges:
            if isinstance(u, int) and isinstance(v, int) and u > v:
                u, v = v, u
            normalized.append(Edge(u, v, as_rational(w)))
        return cls(node_count, tuple(normalized))

    @cached_property
    def _pair_index(self) -> dict[tuple[int, int], int]:
        return {(e.u, e.v): i for i, e in enumerate(self.edges)}

    @cached_property
    def scaled_weights(self) -> tuple[int, tuple[int, ...]]:
        """(scale, weights * scale as ints), scale the lcm of the weight
        denominators; computed once per instance."""
        scale = lcm(*{e.weight.denominator for e in self.edges})
        return scale, tuple(e.weight.numerator * (scale // e.weight.denominator)
                            for e in self.edges)

    @cached_property
    def _incident(self) -> tuple[tuple[int, ...], ...]:
        lists: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, e in enumerate(self.edges):
            lists[e.u].append(i)
            lists[e.v].append(i)
        return tuple(tuple(l) for l in lists)

    def incident_edges(self, v: int) -> tuple[int, ...]:
        """Indices of edges incident to node v, in input order."""
        return self._incident[v]

    def induced_edges(self, nodes: Iterable[int]) -> tuple[int, ...]:
        """Indices of edges with both endpoints in the given node set."""
        inside = set(nodes)
        return tuple(i for i, e in enumerate(self.edges)
                     if e.u in inside and e.v in inside)

    def edge_index(self, u: int, v: int) -> int:
        """Index of the edge {u, v}; raises KeyError if absent."""
        if u > v:
            u, v = v, u
        return self._pair_index[(u, v)]

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._pair_index

    def min_weight(self) -> Fraction:
        """Smallest edge weight (0 for an edgeless graph)."""
        if not self.edges:
            return ZERO
        return min(e.weight for e in self.edges)


@dataclass(frozen=True)
class Matching:
    """A set of edges (as ordered node pairs) no two of which share a node.

    The edge set doubles as the characteristic vector of the matching:
    ``covers``, ``count_inside`` and ``len`` give the per-node, per-node-set
    and total coordinate sums of that vector.
    """

    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) in matching")
            if u > v:
                raise ValueError(f"matching edge must be ordered u < v: ({u}, {v})")
            if u in seen or v in seen:
                raise ValueError(f"node shared by two matching edges near ({u}, {v})")
            seen.add(u)
            seen.add(v)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(frozenset((u, v) if u < v else (v, u) for u, v in pairs))

    @classmethod
    def empty(cls) -> "Matching":
        return cls(frozenset())

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, pair: tuple[int, int]) -> bool:
        u, v = pair
        return ((u, v) if u < v else (v, u)) in self.edges

    @cached_property
    def covered(self) -> frozenset[int]:
        return frozenset(x for e in self.edges for x in e)

    def covers(self, v: int) -> bool:
        return v in self.covered

    def count_inside(self, nodes: Iterable[int]) -> int:
        """Number of matching edges with both endpoints in the node set."""
        inside = set(nodes)
        return sum(1 for u, v in self.edges if u in inside and v in inside)

    def exposed(self, inst: Instance) -> tuple[int, ...]:
        """Nodes of the instance not covered by this matching, ascending."""
        return tuple(v for v in range(inst.node_count) if v not in self.covered)

    def is_perfect_on(self, inst: Instance) -> bool:
        return 2 * len(self.edges) == inst.node_count

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))


def matching_weight(inst: Instance, m: Matching) -> Fraction:
    """Total weight of the matching; the empty matching weighs 0.

    Summed on the instance's scaled int weights, one Fraction at the end.
    """
    scale, weights = inst.scaled_weights
    total = 0
    for u, v in m.edges:
        try:
            idx = inst.edge_index(u, v)
        except KeyError:
            raise ValueError(f"matching edge ({u}, {v}) is not an edge of the instance")
        total += weights[idx]
    return Fraction(total, scale)


@dataclass(frozen=True)
class NormalizationRecord:
    """Record of the uniform weight shift applied by normalize_weights."""

    shift: Fraction
    original: Instance


def normalize_weights(inst: Instance) -> tuple[Instance, NormalizationRecord]:
    """Shift all weights by C = max(0, -min weight) so they are nonnegative.

    Every matching of cardinality k gains exactly k*C, so the ordering of
    matchings within each cardinality class is untouched.
    """
    shift = max(ZERO, -inst.min_weight())
    if shift == 0:
        return inst, NormalizationRecord(ZERO, inst)
    shifted = Instance(inst.node_count,
                       tuple(Edge(e.u, e.v, e.weight + shift) for e in inst.edges))
    return shifted, NormalizationRecord(shift, inst)


@dataclass(frozen=True)
class SymmetricDifference:
    """Classification of the symmetric difference of two matchings.

    kind is one of:
      * "single-path":     exactly one component, and it is a simple path;
      * "connected-other": exactly one component, but not a simple path;
      * "disconnected":    zero or two-or-more components.

    components holds one node sequence per component: path order for paths,
    cycle order (starting at the smallest node) for cycles.
    """

    kind: str
    components: tuple[tuple[int, ...], ...]


def alternating_path_difference(m: Matching, m2: Matching) -> SymmetricDifference:
    """Compute m XOR m2 and classify its component structure.

    Since both inputs are matchings, every node of the difference has degree
    at most 2, so components are simple paths or even cycles. Symmetric in
    its arguments.
    """
    delta = m.edges ^ m2.edges
    if not delta:
        return SymmetricDifference("disconnected", ())

    adj: dict[int, list[int]] = {}
    for u, v in delta:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for nbrs in adj.values():
        nbrs.sort()

    components: list[tuple[int, ...]] = []
    all_paths = True
    visited: set[int] = set()
    for start in sorted(adj):
        if start in visited:
            continue
        # Collect the component of `start`.
        comp: set[int] = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x])
        visited |= comp
        endpoints = sorted(x for x in comp if len(adj[x]) == 1)
        if endpoints:
            # A path: walk from the smallest endpoint.
            seq = _walk_from(adj, endpoints[0])
        else:
            # An even cycle: walk from the smallest node toward its
            # smaller neighbor.
            all_paths = False
            seq = _walk_from(adj, min(comp))
        components.append(seq)

    if len(components) == 1:
        kind = "single-path" if all_paths else "connected-other"
    else:
        kind = "disconnected"
    return SymmetricDifference(kind, tuple(components))


def _walk_from(adj: dict[int, list[int]], start: int) -> tuple[int, ...]:
    seq = [start]
    prev = None
    cur = start
    while True:
        nxt = None
        for cand in adj[cur]:
            if cand != prev:
                nxt = cand
                break
        if nxt is None or nxt == start:
            return tuple(seq)
        seq.append(nxt)
        prev, cur = cur, nxt


class ParseError(ValueError):
    """Input file error, carrying the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _lines(source: Union[str, IO[str], Iterable[str]]) -> Iterable[str]:
    if isinstance(source, str):
        return source.splitlines()
    return source


def parse_instance(source: Union[str, IO[str], Iterable[str]]) -> Instance:
    """Parse the DIMACS-flavored instance format.

    Lines: optional comments ``c ...``; one header ``p edge <n> <m>``;
    then m lines ``e <u> <v> <w>`` with 1-based node ids and ``w`` an
    integer, exact decimal, or fraction (``3``, ``-2.5``, ``7/2``).
    """
    node_count: int | None = None
    expected_edges = 0
    triples: list[tuple[int, int, Fraction]] = []
    seen_pairs: set[tuple[int, int]] = set()

    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if node_count is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError(f"malformed header {line!r}; expected 'p edge <n> <m>'", lineno)
            try:
                node_count = int(fields[2])
                expected_edges = int(fields[3])
            except ValueError:
                raise ParseError(f"malformed header counts in {line!r}", lineno)
            if node_count < 1 or expected_edges < 0:
                raise ParseError(f"invalid header counts in {line!r}", lineno)
        elif fields[0] == "e":
            if node_count is None:
                raise ParseError("edge line before header", lineno)
            if len(fields) != 4:
                raise ParseError(f"malformed edge line {line!r}; expected 'e <u> <v> <w>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"non-integer node id in {line!r}", lineno)
            try:
                w = parse_rational(fields[3])
            except ValueError:
                raise ParseError(f"invalid weight {fields[3]!r}", lineno)
            if u == v:
                raise ParseError(f"self-loop at node {u}", lineno)
            if not (1 <= u <= node_count and 1 <= v <= node_count):
                raise ParseError(f"node id out of range in {line!r}", lineno)
            pair = (min(u, v) - 1, max(u, v) - 1)
            if pair in seen_pairs:
                raise ParseError(f"duplicate edge {{{u}, {v}}}", lineno)
            seen_pairs.add(pair)
            triples.append((pair[0], pair[1], w))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)

    if node_count is None:
        raise ParseError("missing 'p edge' header", 1)
    if len(triples) != expected_edges:
        raise ParseError(f"header promised {expected_edges} edges, found {len(triples)}", 1)
    return Instance.from_edges(node_count, triples)


def format_instance(inst: Instance) -> str:
    """Serialize an Instance back to the file format (1-based ids)."""
    out = [f"p edge {inst.node_count} {len(inst.edges)}"]
    for e in inst.edges:
        out.append(f"e {e.u + 1} {e.v + 1} {e.weight}")
    return "\n".join(out) + "\n"


def parse_matching(source: Union[str, IO[str], Iterable[str]],
                   inst: Instance | None = None) -> Matching:
    """Parse a matching file: lines ``m <u> <v>`` with 1-based ids.

    If an instance is given, every pair must be one of its edges.
    """
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "m" or len(fields) != 3:
            raise ParseError(f"malformed matching line {line!r}; expected 'm <u> <v>'", lineno)
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(f"non-integer node id in {line!r}", lineno)
        if inst is not None:
            if not (1 <= u <= inst.node_count and 1 <= v <= inst.node_count):
                raise ParseError(f"node id out of range in {line!r}", lineno)
            if not inst.has_edge(u - 1, v - 1):
                raise ParseError(f"{{{u}, {v}}} is not an edge of the instance", lineno)
        pairs.append((u - 1, v - 1))
    try:
        return Matching.from_pairs(pairs)
    except ValueError as exc:
        raise ParseError(str(exc), 1)


def format_matching(m: Matching) -> str:
    return "".join(f"m {u + 1} {v + 1}\n" for u, v in m.sorted_edges())
