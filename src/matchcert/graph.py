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
import sys
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import IO, Iterable, Union

RationalInput = Union[int, str, Fraction]

ZERO = Fraction(0)

_RATIONAL = re.compile(r"[+-]?[0-9]+(\.[0-9]+|/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """An exact rational written as an integer, a decimal or a fraction
    (`3`, `-2.5`, `7/2`). Anything else, exponents and whitespace
    included, raises ValueError, as does a zero denominator."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid rational {text!r}")
    if match[1] is None:  # an integer: skip Fraction's own string parser
        return Fraction(int(text))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}")


def parse_natural(text: str) -> int:
    """A count or node id: ASCII digits only ([0-9]+). int() alone would
    also take signs, underscores and non-ASCII digits such as '\u0661'."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected digits 0-9, got {text!r}")
    return int(text)


def as_rational(value: RationalInput) -> Fraction:
    """Convert to an exact Fraction, rejecting floats outright; strings
    follow `parse_rational`'s grammar. A Fraction is returned as is."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"floating point value {value!r} is not exact; "
                        "pass an int, a Fraction, or a string like '7/2'")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


class Edge(namedtuple("Edge", "u v weight")):
    """One edge of an Instance: 0-based ends u < v and its weight."""

    __slots__ = ()

    u: int
    v: int
    weight: Fraction


class Instance(namedtuple("Instance", "node_count edges")):
    """A simple undirected graph with exact rational edge weights.

    Invariants, enforced at construction:
      * every endpoint lies in [0, node_count),
      * no self-loops,
      * no duplicate unordered node pairs,
      * all weights are Fractions.

    Edge order is preserved; the solver uses it as a deterministic scan
    order, so two textually identical files produce identical runs.

    `_incident` is the one edge lookup: `edge_index` and the certificate
    checker find edges through it.
    """

    # No __slots__: the cached properties keep their values in __dict__.
    node_count: int
    edges: tuple[Edge, ...]

    def __new__(cls, node_count: int, edges: tuple[Edge, ...]) -> "Instance":
        if not isinstance(node_count, int) or node_count < 1:
            raise ValueError(f"node_count must be a positive integer, got {node_count!r}")
        seen: set[tuple[int, int]] = set()
        for e in edges:
            if not isinstance(e, Edge):
                raise TypeError(f"edges must be Edge tuples, got {e!r}")
            u, v, weight = e
            if not (isinstance(u, int) and isinstance(v, int)):
                raise TypeError(f"edge endpoints must be ints: {e!r}")
            if not 0 <= u < v < node_count:  # one test for the valid case
                if u == v:
                    raise ValueError(f"self-loop at node {u}")
                if not (0 <= u < node_count and 0 <= v < node_count):
                    raise ValueError(f"edge endpoint out of range: {e!r}")
                raise ValueError(f"edge endpoints must be ordered u < v: {e!r}")
            if not isinstance(weight, Fraction):
                raise TypeError(f"edge weight must be a Fraction: {e!r}")
            pair = (u, v)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
        return super().__new__(cls, node_count, edges)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Instance":
        """namedtuple's `_make`, which `_replace` calls, but through the
        checks of `__new__`."""
        return cls(*iterable)

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
    def _incident(self) -> dict[int, list[int]]:
        """Node -> indices of its edges, in input order, built on first use.
        A dict, so an id outside 0..node_count-1 has no edges."""
        incident = defaultdict(list)
        for i, (u, v, _) in enumerate(self.edges):
            incident[u].append(i)
            incident[v].append(i)
        return dict(incident)

    @cached_property
    def scaled_weights(self) -> tuple[int, tuple[int, ...]]:
        """(scale, weights * scale as ints), scale the lcm of the weight
        denominators; computed once per instance."""
        scale = lcm(*{e.weight.denominator for e in self.edges})
        return scale, tuple(e.weight.numerator * (scale // e.weight.denominator)
                            for e in self.edges)

    def _extended(self, node_count: int, edges: Iterable[Edge], weights: Iterable[int],
                  incident: dict[int, list[int]] | None = None) -> "Instance":
        """An instance on `node_count` nodes with this one's edges followed
        by `edges`, whose weights times this instance's scale are the ints
        `weights`. Its `scaled_weights` carries this one's ints over rather
        than reading every Fraction again, so each new weight's denominator
        must divide this instance's scale (as 0 and this instance's own
        weights do).

        `incident`, when given, maps every node with a new edge to the
        indices of its new edges, in order, as the caller's layout of
        `edges` places them. The new instance's `_incident` is then this
        one's lists followed by those, with no pass over the edges."""
        scale, own = self.scaled_weights
        inst = Instance(node_count, self.edges + tuple(edges))
        inst.__dict__["scaled_weights"] = scale, own + tuple(weights)
        if incident is not None:
            index = {**self._incident}
            for v, new in incident.items():
                index[v] = index.get(v, []) + new
            inst.__dict__["_incident"] = index
        return inst

    def edge_index(self, u: int, v: int) -> int:
        """Index of the edge {u, v}; raises KeyError if absent."""
        if u > v:
            u, v = v, u
        for i in self._incident.get(u, ()):  # the lower end's edges
            if self.edges[i][:2] == (u, v):
                return i
        raise KeyError((u, v))

    def min_weight(self) -> Fraction:
        """Smallest edge weight (0 for an edgeless graph), found on the
        scaled int weights."""
        if not self.edges:
            return ZERO
        scale, weights = self.scaled_weights
        return Fraction(min(weights), scale)


class Matching(namedtuple("Matching", "edges")):
    """A set of edges (as ordered node pairs) no two of which share a node.

    The edge set doubles as the characteristic vector of the matching:
    ``covers``, ``count_inside`` and ``len`` give the per-node, per-node-set
    and total coordinate sums of that vector.
    """

    edges: frozenset[tuple[int, int]]

    def __new__(cls, edges: frozenset[tuple[int, int]]) -> "Matching":
        seen: set[int] = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) in matching")
            if u > v:
                raise ValueError(f"matching edge must be ordered u < v: ({u}, {v})")
            if u in seen or v in seen:
                raise ValueError(f"node shared by two matching edges near ({u}, {v})")
            seen.add(u)
            seen.add(v)
        return super().__new__(cls, edges)

    @classmethod
    def _make(cls, iterable: Iterable) -> "Matching":
        """namedtuple's `_make`, which `_replace` calls, but through the
        checks of `__new__`."""
        return cls(*iterable)

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


class NormalizationRecord(namedtuple("NormalizationRecord", "shift")):
    """Record of the uniform weight shift applied by normalize_weights."""

    __slots__ = ()

    shift: Fraction


def normalize_weights(inst: Instance) -> tuple[Instance, NormalizationRecord]:
    """Shift all weights by C = max(0, -min weight) so they are nonnegative.

    Every matching of cardinality k gains exactly k*C, so the ordering of
    matchings within each cardinality class is untouched.
    """
    shift = max(ZERO, -inst.min_weight())
    if shift == 0:
        return inst, NormalizationRecord(ZERO)
    shifted = Instance(inst.node_count,
                       tuple(Edge(e.u, e.v, e.weight + shift) for e in inst.edges))
    return shifted, NormalizationRecord(shift)


class SymmetricDifference(namedtuple("SymmetricDifference", "kind components")):
    """Classification of the symmetric difference of two matchings.

    kind is one of:
      * "single-path":     exactly one component, and it is a simple path;
      * "connected-other": exactly one component, but not a simple path;
      * "disconnected":    zero or two-or-more components.

    components holds one node sequence per component: path order for paths,
    cycle order (starting at the smallest node) for cycles.
    """

    __slots__ = ()

    kind: str
    components: tuple[tuple[int, ...], ...]


def alternating_path_difference(m: Matching, m2: Matching) -> SymmetricDifference:
    """Compute m XOR m2 and classify its component structure.

    Since both inputs are matchings, every node of the difference has degree
    at most 2, so components are simple paths or even cycles. Symmetric in
    its arguments.
    """
    delta = m.edges ^ m2.edges
    adj: dict[int, list[int]] = {}
    for u, v in delta:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen: set[int] = set()

    def walk(start: int) -> tuple[int, ...]:
        """The component from `start`, first toward its smaller neighbor,
        up to a path's other end or back round a cycle."""
        seq, prev, cur = [start], start, min(adj[start])
        while cur != start:
            seq.append(cur)
            nbrs = adj[cur]
            if len(nbrs) == 1:
                break
            prev, cur = cur, nbrs[1] if nbrs[0] == prev else nbrs[0]
        seen.update(seq)
        return tuple(seq)

    # A path is walked from its smaller end, met first in ascending order;
    # every node left over lies on a cycle, met first at its smallest node.
    paths = [walk(v) for v in sorted(v for v, nbrs in adj.items() if len(nbrs) == 1)
             if v not in seen]
    cycles = [walk(v) for v in sorted(adj.keys() - seen) if v not in seen]
    components = sorted(paths + cycles, key=min)

    if len(components) != 1:
        kind = "disconnected"
    else:
        kind = "connected-other" if cycles else "single-path"
    return SymmetricDifference(kind, tuple(components))


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
    integer, exact decimal, or fraction (``3``, ``-2.5``, ``7/2``). Counts
    and node ids are written in ASCII digits only.
    """
    node_count: int | None = None
    expected_edges = 0
    edges: list[Edge] = []
    seen_pairs: set[tuple[int, int]] = set()
    weights: dict[str, Fraction] = {}  # weight text -> its value, parsed once

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
                node_count = parse_natural(fields[2])
                expected_edges = parse_natural(fields[3])
            except ValueError:
                raise ParseError(f"malformed header counts in {line!r}", lineno)
            if node_count < 1:
                raise ParseError(f"invalid header counts in {line!r}", lineno)
            if node_count > sys.maxsize:
                raise ParseError(f"node count {node_count} exceeds {sys.maxsize}", lineno)
        elif fields[0] == "e":
            if node_count is None:
                raise ParseError("edge line before header", lineno)
            if len(fields) != 4:
                raise ParseError(f"malformed edge line {line!r}; expected 'e <u> <v> <w>'", lineno)
            try:
                u, v = parse_natural(fields[1]), parse_natural(fields[2])
            except ValueError:
                raise ParseError(f"malformed node id in {line!r}", lineno)
            if fields[3] not in weights:
                try:
                    weights[fields[3]] = parse_rational(fields[3])
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
            edges.append(Edge(pair[0], pair[1], weights[fields[3]]))
        else:
            raise ParseError(f"unrecognized line {line!r}", lineno)

    if node_count is None:
        raise ParseError("missing 'p edge' header", 1)
    if len(edges) != expected_edges:
        raise ParseError(f"header promised {expected_edges} edges, found {len(edges)}", 1)
    return Instance(node_count, tuple(edges))


def format_instance(inst: Instance) -> str:
    """Serialize an Instance back to the file format (1-based ids).

    Written from the scaled int weights: each distinct weight's text and
    each node's id are built once, not once per edge."""
    scale, weights = inst.scaled_weights
    ids = [str(v) for v in range(1, inst.node_count + 1)]
    texts = {w: str(Fraction(w, scale)) for w in set(weights)}
    out = [f"p edge {inst.node_count} {len(inst.edges)}"]
    out += [f"e {ids[u]} {ids[v]} {texts[w]}" for (u, v, _), w in zip(inst.edges, weights)]
    return "\n".join(out) + "\n"

