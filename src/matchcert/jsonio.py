"""JSON wire formats for run results, oracle tables, and verdicts.

Conventions: node ids are 1-based in JSON, rationals serialize as strings
("7/2", or "3" when integral), and all collections are emitted in a fixed
deterministic order so identical inputs produce byte-identical output.
Readers check every key and type they use and raise ValueError on a
malformed file. `dumps` writes the same text as the standard library's
`json.dumps(data, indent=2)`, without its pure-Python indenting encoder.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .certificates import CardinalityCertificate, Verdict
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


def _matching_to_json(m: Matching) -> list[list[int]]:
    return [[u + 1, v + 1] for u, v in m.sorted_edges()]


def _matching_from_json(pairs: list[Any], n: int) -> Matching:
    if not all(type(pair) is list and len(pair) == 2 for pair in pairs):
        raise ValueError("snapshots file: every matching edge must be two node ids")
    ends = _node_ids([v for pair in pairs for v in pair], n)
    return Matching.from_pairs(zip(ends[::2], ends[1::2]))


def _duals_to_json(dual: DualState, keys: list[str]) -> dict[str, Any]:
    return {
        "singletons": dict(zip(keys, map(rational_to_str, dual.singleton_pi))),
        "blossoms": [{"nodes": [v + 1 for v in sorted(b.nodes)],
                      "pi": rational_to_str(b.pi)}
                     for b in dual.blossoms],
        "beta": rational_to_str(dual.beta),
    }


def _rational_reader() -> Callable[[Any], Fraction]:
    """str_to_rational with a memo keyed by the exact string, living as
    long as the returned function: one run file repeats few values."""
    memo: dict[str, Fraction] = {}

    def read(text: Any) -> Fraction:
        if type(text) is str:
            value = memo.get(text)
            if value is not None:
                return value
        value = memo[text] = str_to_rational(text)
        return value

    return read


def _duals_from_json(data: Any, rational: Callable[[Any], Fraction]) -> DualState:
    singles = field(data, "singletons", dict)
    n = len(singles)
    try:
        pi = tuple(rational(singles[str(v + 1)]) for v in range(n))
    except KeyError as exc:
        raise ValueError(f"snapshots file: no singleton dual for node {exc}")
    blossoms = tuple(
        BlossomDual(frozenset(_node_ids(field(item, "nodes", list), n)),
                    rational(field(item, "pi", str)))
        for item in field(data, "blossoms", list, []))
    beta = rational(field(data, "beta", str, "0"))
    return DualState(pi, blossoms, beta)


def _certificate_to_json(cert: CardinalityCertificate,
                         keys: list[str]) -> dict[str, Any]:
    return {
        "gamma": rational_to_str(cert.gamma),
        "y": dict(zip(keys, map(rational_to_str, cert.y))),
        "z": [{"nodes": [v + 1 for v in sorted(nodes)],
               "value": rational_to_str(zu)}
              for nodes, zu in cert.z],
    }


def snapshot_to_dict(snap: Snapshot, keys: list[str]) -> dict[str, Any]:
    """keys[v] is node v's JSON key, its 1-based id as a string; a run
    shares one list over all its snapshots."""
    return {
        "k": snap.cardinality,
        "weight": rational_to_str(snap.weight),
        "matching": _matching_to_json(snap.matching),
        "duals": _duals_to_json(snap.dual_state, keys),
        "certificate": _certificate_to_json(snap.certificate, keys),
    }


def _snapshot_from_dict(data: Any, rational: Callable[[Any], Fraction]) -> Snapshot:
    dual_state = _duals_from_json(field(data, "duals", dict), rational)
    n = len(dual_state.singleton_pi)
    return Snapshot(
        cardinality=field(data, "k", int),
        matching=_matching_from_json(field(data, "matching", list), n),
        dual_state=dual_state,
        weight=rational(field(data, "weight", str)),
    )


def run_result_to_dict(run: RunResult) -> dict[str, Any]:
    n = max(len(s.dual_state.singleton_pi) for s in run.snapshots)
    keys = [str(v + 1) for v in range(n)]
    return {
        "status": run.status,
        "mode": run.mode,
        "beta": rational_to_str(run.beta),
        "snapshots": [snapshot_to_dict(s, keys) for s in run.snapshots],
    }


def run_result_from_dict(data: Any) -> RunResult:
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
    rational = _rational_reader()
    return RunResult(
        snapshots=tuple(_snapshot_from_dict(s, rational) for s in snapshots),
        status=status,
        mode=mode,
        beta=rational(field(data, "beta", str, "0")),
    )


def oracle_table_to_dict(table: OracleTable) -> dict[str, Any]:
    return {
        "nu": table.nu,
        "by_cardinality": [
            {"k": rec.cardinality,
             "min_weight": rational_to_str(rec.min_weight),
             "witness": _matching_to_json(rec.witness)}
            for rec in table.by_cardinality],
    }


def _jsonable_value(value: Any) -> Any:
    if isinstance(value, Fraction):
        return rational_to_str(value)
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


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
    if isinstance(witness, tuple):
        return [_jsonable_witness(constraint, x) for x in witness]
    return str(witness)


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


def dumps(data: dict[str, Any]) -> str:
    """Deterministic JSON text: fixed key order, two-space indent.

    The text equals `json.dumps(data, indent=2) + "\n"`. Each dict and
    list is joined into its own string, which avoids the standard
    library's pure-Python indenting encoder and the one list of chunks it
    collects for the whole document. Values may be str, int, bool, None,
    lists, tuples and dicts with str keys; anything else is a TypeError.
    """
    return _encode(data, "\n") + "\n"


def _encode(value: Any, newline: str) -> str:
    """JSON text of one value whose line starts with `newline`."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": "
                         + (encode_basestring_ascii(item) if type(item) is str
                            else _encode(item, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[" + inner + ("," + inner).join([_encode(item, inner) for item in value])
                + newline + "]")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
