"""JSON wire formats for run results, oracle tables, and verdicts.

Conventions: node ids are 1-based in JSON, rationals serialize as strings
("7/2", or "3" when integral), and all collections are emitted in a fixed
deterministic order so identical inputs produce byte-identical output.
Readers check every key and type they use and raise ValueError on a
malformed file. `dumps` writes the text of the standard library's
`json.dumps(data, indent=2)`, and has the standard library write all of
it but a run's snapshots array.

`run_result_to_dict` returns a run's top-level object, whose `snapshots`
entry is left for `dumps`: it renders the snapshots array straight to
text, into one list of pieces with the text of the rest of the object,
joined once. That array is Theta(n * nu) and dominates every run file, so
its writer makes each string once per call: the quoted text of each
rational, through a memo keyed by (scale, int) that reads the duals' and
certificates' ints as they are, each blossom's node list, each matching
edge, and the `"17": ` keys of the per-node objects. A rational's text is
always `str(Fraction(units, scale))`, so it is the same whatever scale
the value comes in.

The reader fills the same int form: each snapshot's duals at the lcm of
their denominators, straight from a memo of each distinct string.
`run_result_from_dict` decodes every snapshot of a run;
`snapshot_from_dict` makes the same top-level checks and decodes one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import Any, Callable

from .certificates import Verdict
from .engine import (STATUS_NO_PERFECT, STATUS_PERFECT, BlossomDual, DualState,
                     RunResult, Snapshot)
from .graph import Matching, parse_rational
from .oracle import OracleTable


def rational_to_str(value: Fraction) -> str:
    return str(value)


def str_to_rational(text: str) -> Fraction:
    if type(text) is not str:
        raise ValueError(f"expected a rational as a string, got {text!r}")
    return parse_rational(text)


def field(data: Any, key: str, kind: type, default: Any = None) -> Any:
    """data[key], which must be a `kind`; `default` when the key is absent,
    or a ValueError when it is absent and there is no default."""
    if not isinstance(data, dict):
        raise ValueError(f"snapshots file: expected an object with key {key!r}")
    if key not in data:
        if default is None:
            raise ValueError(f"snapshots file: missing key {key!r}")
        return default
    value = data[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"snapshots file: {key!r} must be of type {kind.__name__}")
    return value


def _node_ids(ids: Any, n: int) -> list[int]:
    """1-based node ids from JSON, checked to lie in 1..n, made 0-based."""
    if type(ids) is not list or not all(type(v) is int and 0 < v <= n for v in ids):
        raise ValueError(f"snapshots file: {ids!r} is not a list of node ids in 1..{n}")
    return [v - 1 for v in ids]


def matching_to_json(m: Matching) -> list[list[int]]:
    """A matching's edges as sorted pairs of 1-based ids."""
    return [[u + 1, v + 1] for u, v in m.sorted_edges()]


def _matching_from_json(pairs: list[Any], n: int) -> Matching:
    if not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        raise ValueError("snapshots file: every matching edge must be two node ids")
    ends = _node_ids([v for pair in pairs for v in pair], n)
    try:
        m = Matching.from_pairs(zip(ends[::2], ends[1::2]))
    except ValueError:
        # Raise the same error again on the file's own 1-based ids.
        Matching.from_pairs(pairs)
        raise
    if 2 * len(m) < len(ends):
        raise ValueError(f"snapshots file: matching {pairs!r} lists an edge twice")
    return m


class _RationalReader:
    """Reads the rationals of one run file, each distinct string parsed
    once: a file repeats few values.

    Called with a string, it gives the Fraction. `units` gives a list of
    strings as ints at the lcm of their denominators, the form a
    `DualState` holds, from memos keyed by string (and by scale), so a
    snapshot costs a few dict lookups per value.
    """

    def __init__(self) -> None:
        self.fractions: dict[str, Fraction] = {}
        self.denominators: dict[str, int] = {}
        self.scaled = _Memo(self._scaled_to)  # scale -> (string -> int)
        self.keys = _Memo(lambda n: [str(v) for v in range(1, n + 1)])  # n -> "1".."n"

    def __call__(self, text: Any) -> Fraction:
        if type(text) is str:
            value = self.fractions.get(text)
            if value is not None:
                return value
        value = self.fractions[text] = str_to_rational(text)
        self.denominators[text] = value.denominator
        return value

    def _scaled_to(self, scale: int) -> "_Memo":
        fractions = self.fractions
        return _Memo(lambda text: fractions[text].numerator
                     * (scale // fractions[text].denominator))

    def units(self, texts: list[Any]) -> tuple[int, tuple[int, ...]]:
        """(scale, ints): each string's value times scale, the lcm of
        their denominators."""
        seen = self.denominators
        try:
            denominators = set(map(seen.__getitem__, texts))
        except (KeyError, TypeError):  # a string not read yet, or not a string
            for text in texts:
                if type(text) is not str or text not in seen:
                    self(text)
            denominators = set(map(seen.__getitem__, texts))
        scale = lcm(*denominators)
        return scale, tuple(map(self.scaled[scale].__getitem__, texts))


def _blossom_nodes(ids: Any, n: int) -> frozenset[int]:
    nodes = frozenset(_node_ids(ids, n))
    if len(nodes) < len(ids):
        raise ValueError(f"snapshots file: blossom {ids!r} repeats a node id")
    return nodes


def _duals_from_json(data: Any, read: _RationalReader) -> DualState:
    singles = field(data, "singletons", dict)
    n = len(singles)
    try:
        texts = list(map(singles.__getitem__, read.keys[n]))
    except KeyError as exc:
        raise ValueError(f"snapshots file: no singleton dual for node {exc}")
    items = field(data, "blossoms", list, [])
    nodes = [_blossom_nodes(field(item, "nodes", list), n) for item in items]
    scale, units = read.units(texts + [field(item, "pi", str) for item in items])
    beta = read(field(data, "beta", str, "0"))
    return DualState(scale, units[:n], tuple(map(BlossomDual, nodes, units[n:])), beta)


def _snapshot_from_dict(data: Any, read: _RationalReader) -> Snapshot:
    dual_state = _duals_from_json(field(data, "duals", dict), read)
    n = len(dual_state.pi_units)
    return Snapshot(
        cardinality=field(data, "k", int),
        matching=_matching_from_json(field(data, "matching", list), n),
        dual_state=dual_state,
        weight=read(field(data, "weight", str)),
    )


def run_result_to_dict(run: RunResult) -> dict[str, Any]:
    """The run's top-level JSON object. Its `snapshots` entry is not a
    list: it is handed to `dumps`, which writes the array straight to
    text. Read a run's snapshots back through `json.loads(dumps(...))`."""
    return {
        "status": run.status,
        "mode": run.mode,
        "beta": rational_to_str(run.beta),
        "snapshots": _SnapshotsArray(run.snapshots),
    }


def _run_fields(data: Any) -> tuple[list[Any], str, str, Fraction, _RationalReader]:
    """A run's checked top-level fields: its non-empty snapshots array,
    status, mode and beta, and the reader that read beta."""
    snapshots = field(data, "snapshots", list)
    if not snapshots:
        raise ValueError("snapshots file: 'snapshots' is empty; "
                         "every run has a k=0 snapshot")
    status = field(data, "status", str)
    if status not in (STATUS_PERFECT, STATUS_NO_PERFECT):
        raise ValueError(f"snapshots file: unknown status {status!r}")
    mode = field(data, "mode", str, "maximum")
    if mode not in ("perfect", "maximum"):
        raise ValueError(f"snapshots file: unknown mode {mode!r}")
    read = _RationalReader()
    return snapshots, status, mode, read(field(data, "beta", str, "0")), read


def run_result_from_dict(data: Any) -> RunResult:
    snapshots, status, mode, beta, read = _run_fields(data)
    return RunResult(
        snapshots=tuple(_snapshot_from_dict(s, read) for s in snapshots),
        status=status,
        mode=mode,
        beta=beta,
    )


def snapshot_from_dict(data: Any, k: int) -> Snapshot:
    """The first snapshot of cardinality k in a run's top-level object,
    after the same top-level checks as `run_result_from_dict`. Only that
    snapshot is decoded: the ones before it are read up to their int `k`,
    and the ones after it not at all."""
    snapshots, _, _, _, read = _run_fields(data)
    for snap in snapshots:
        if field(snap, "k", int) == k:
            return _snapshot_from_dict(snap, read)
    raise ValueError(f"run has no snapshot of cardinality {k}")


def dual_state_to_dict(dual: DualState) -> dict[str, Any]:
    """The `singletons` and `blossoms` objects of a dual state, rendered
    from its ints with one string per distinct value."""
    text = _Memo(lambda units: _rational_text(units, dual.scale))
    return {
        "singletons": {str(v + 1): text[p] for v, p in enumerate(dual.pi_units)},
        "blossoms": [{"nodes": [v + 1 for v in sorted(b.nodes)], "pi": text[b.pi]}
                     for b in dual.blossom_units],
    }


def oracle_table_to_dict(table: OracleTable) -> dict[str, Any]:
    return {
        "nu": table.nu,
        "by_cardinality": [
            {"k": rec.cardinality,
             "min_weight": rational_to_str(rec.min_weight),
             "witness": matching_to_json(rec.witness)}
            for rec in table.by_cardinality],
    }


def _jsonable_value(value: Any) -> Any:
    return rational_to_str(value) if isinstance(value, Fraction) else value


def _jsonable_witness(constraint: str, witness: Any) -> Any:
    """Witness in JSON ids: node ids and node sets 1-based, node sequences
    (edges, path components) as nested lists, snapshot positions as is."""
    if constraint.startswith("snapshot-cardinality-sequence"):
        return witness  # a position in the snapshots array, not a node id
    if witness is None or isinstance(witness, str):
        return witness
    if isinstance(witness, int):
        return witness + 1
    if isinstance(witness, (frozenset, set)):
        return [v + 1 for v in sorted(witness)]
    return [_jsonable_witness(constraint, x) for x in witness]  # a tuple


def verdict_to_dict(verdict: Verdict) -> dict[str, Any]:
    return {
        "pass": verdict.passed,
        "violations": [
            {"constraint": viol.constraint,
             "witness": _jsonable_witness(viol.constraint, viol.witness),
             "lhs": _jsonable_value(viol.lhs),
             "rhs": _jsonable_value(viol.rhs)}
            for viol in verdict.violations],
    }


def dumps(data: Any) -> str:
    """Deterministic JSON text: `json.dumps(data, indent=2) + "\n"`, where
    a run's `snapshots` entry stands for the array its snapshots serialize
    to.

    The standard library writes all but that array: the run's object with
    null in the array's place, whose text is split there to take the
    array's pieces from `_emit_snapshots`, all joined once. Payloads hold
    str, int, bool, None, lists, tuples and dicts with str keys; a
    Fraction or a set is a TypeError.
    """
    snapshots = data.get("snapshots") if type(data) is dict else None
    if type(snapshots) is not _SnapshotsArray:
        return json.dumps(data, indent=2) + "\n"
    head, _, tail = json.dumps({**data, "snapshots": None}, indent=2).partition(
        _SNAPSHOTS_KEY + "null")
    pieces = [head, _SNAPSHOTS_KEY]
    _emit_snapshots(snapshots.snapshots, pieces)
    pieces.append(tail + "\n")
    return "".join(pieces)


# The top-level `snapshots` key as written with indent=2. A string never
# holds a raw newline and a nested key is indented further, so the text
# occurs once in a document, at that key.
_SNAPSHOTS_KEY = '\n  "snapshots": '


class _SnapshotsArray:
    """A run's snapshots, standing for their JSON array until `dumps`."""

    __slots__ = ("snapshots",)

    def __init__(self, snapshots: tuple[Snapshot, ...]) -> None:
        self.snapshots = snapshots


def _rational_text(units: int, scale: int) -> str:
    """The text of the rational units / scale, as `rational_to_str`."""
    return str(Fraction(units, scale))


class _Memo(dict):
    """A dict that fills in a missing key with `render(key)`."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[Any], Any]) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, key: Any) -> str:
        text = self[key] = self.render(key)
        return text


def _emit_snapshots(snapshots: tuple[Snapshot, ...], out: list[str]) -> None:
    """Append the JSON array of a run's snapshots, the value of a
    top-level key, one piece per snapshot.

    The memos live for this call only. Each rational's quoted string is
    made once per (scale, int): the duals and certificates are read as
    their ints, one memo per scale, and a Fraction (a weight or beta) as
    its (denominator, numerator). Each blossom's node list is made once
    per node set, shared by `duals.blossoms`, `certificate.z` and every
    snapshot. The singleton and `y` objects are filled into one
    %-template per length, which holds the `"17": ` keys, in one C call.
    """
    if not snapshots:
        out.append("[]")
        return
    i1 = "\n    "  # a snapshot
    i2 = i1 + "  "  # its keys
    i3 = i2 + "  "  # keys of duals and certificate; matching edges
    i4 = i3 + "  "  # singleton and y entries; blossoms; edge ends
    i5 = i4 + "  "  # blossom keys
    i6 = i5 + "  "  # blossom nodes
    n = max(len(s.dual_state.pi_units) for s in snapshots)
    ids = [str(v) for v in range(1, n + 1)]

    def quoted_in(scale: int) -> _Memo:
        return _Memo(lambda units: encode_basestring_ascii(_rational_text(units, scale)))

    scales = _Memo(quoted_in)  # scale -> (units -> quoted text)

    def quote(value: Fraction) -> str:
        return scales[value.denominator][value.numerator]

    # The object mapping node ids 1..size to `size` quoted values.
    objects = _Memo(lambda size: "{" + ",".join([f'{i4}"{v}": %s' for v in ids[:size]])
                    + i3 + "}" if size else "{}")

    def rationals(units: tuple[int, ...], quoted: _Memo) -> str:
        return objects[len(units)] % tuple(map(quoted.__getitem__, units))

    def node_list(nodes: frozenset[int]) -> str:
        if not nodes:
            return f'{i4}{{{i5}"nodes": [],{i5}'
        return (f'{i4}{{{i5}"nodes": [{i6}'
                + f",{i6}".join([ids[v] for v in sorted(nodes)]) + f"{i5}],{i5}")

    edges = _Memo(lambda e: f"{i3}[{i4}{ids[e[0]]},{i4}{ids[e[1]]}{i3}]")
    heads = _Memo(node_list)  # a blossom's text up to its value's key
    tail = i4 + "}"

    def sets(items: Any, quoted: _Memo, label: str) -> str:
        """The array of (node set, units) pairs `items`, each written as
        an object of `"nodes"` and the value under `label`."""
        if not items:
            return "[]"
        return ("[" + ",".join([heads[nodes] + label + quoted[units] + tail
                                for nodes, units in items])
                + i3 + "]")

    sep = "["
    for snap in snapshots:
        dual, cert = snap.dual_state, snap.certificate
        in_dual, in_cert = scales[dual.scale], scales[cert.scale]
        pairs = snap.matching.sorted_edges()
        matching = ("[" + ",".join(map(edges.__getitem__, pairs)) + i2 + "]"
                    if pairs else "[]")
        singletons = rationals(dual.pi_units, in_dual)
        blossoms = sets(dual.blossom_units, in_dual, '"pi": ')
        y = rationals(cert.y_units, in_cert)
        z = sets(cert.z_units, in_cert, '"value": ')
        out.append(
            f'{sep}{i1}{{{i2}"k": {snap.cardinality},{i2}"weight": {quote(snap.weight)},'
            f'{i2}"matching": {matching},{i2}"duals": {{'
            f'{i3}"singletons": {singletons},{i3}"blossoms": {blossoms},'
            f'{i3}"beta": {quote(dual.beta)}{i2}}},{i2}"certificate": {{'
            f'{i3}"gamma": {in_cert[cert.gamma_units]},{i3}"y": {y},{i3}"z": {z}{i2}}}{i1}}}')
        sep = ","
    out.append("\n  ]")
