"""JSON wire formats for run results, oracle tables, and verdicts.

Conventions: node ids are 1-based in JSON, rationals serialize as strings
("7/2", or "3" when integral), and all collections are emitted in a fixed
deterministic order so identical inputs produce byte-identical output.
Readers check every key and type they use and raise ValueError on a
malformed file.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .certificates import CardinalityCertificate, Verdict, transform_duals
from .engine import BlossomDual, DualState, RunResult, Snapshot
from .graph import Matching
from .oracle import OracleTable


def rational_to_str(value: Fraction) -> str:
    return str(value)


def str_to_rational(text: str) -> Fraction:
    if type(text) is not str:
        raise ValueError(f"expected a rational as a string, got {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}")


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


def _duals_to_json(dual: DualState) -> dict[str, Any]:
    return {
        "singletons": {str(v + 1): rational_to_str(p)
                       for v, p in enumerate(dual.singleton_pi)},
        "blossoms": [{"nodes": [v + 1 for v in sorted(b.nodes)],
                      "pi": rational_to_str(b.pi)}
                     for b in dual.blossoms],
        "beta": rational_to_str(dual.beta),
    }


def _duals_from_json(data: Any) -> DualState:
    singles = field(data, "singletons", dict)
    n = len(singles)
    try:
        pi = tuple(str_to_rational(singles[str(v + 1)]) for v in range(n))
    except KeyError as exc:
        raise ValueError(f"snapshots file: no singleton dual for node {exc}")
    blossoms = tuple(
        BlossomDual(frozenset(_node_ids(field(item, "nodes", list), n)),
                    str_to_rational(field(item, "pi", str)))
        for item in field(data, "blossoms", list, []))
    beta = str_to_rational(field(data, "beta", str, "0"))
    return DualState(pi, blossoms, beta)


def _certificate_to_json(cert: CardinalityCertificate) -> dict[str, Any]:
    return {
        "gamma": rational_to_str(cert.gamma),
        "y": {str(v + 1): rational_to_str(yv) for v, yv in enumerate(cert.y)},
        "z": [{"nodes": [v + 1 for v in sorted(nodes)],
               "value": rational_to_str(zu)}
              for nodes, zu in cert.z],
    }


def snapshot_to_dict(snap: Snapshot) -> dict[str, Any]:
    return {
        "k": snap.cardinality,
        "weight": rational_to_str(snap.weight),
        "matching": _matching_to_json(snap.matching),
        "duals": _duals_to_json(snap.dual_state),
        "certificate": _certificate_to_json(
            transform_duals(snap.dual_state, snap.cardinality)),
    }


def snapshot_from_dict(data: Any) -> Snapshot:
    dual_state = _duals_from_json(field(data, "duals", dict))
    n = len(dual_state.singleton_pi)
    return Snapshot(
        cardinality=field(data, "k", int),
        matching=_matching_from_json(field(data, "matching", list), n),
        dual_state=dual_state,
        weight=str_to_rational(field(data, "weight", str)),
    )


def run_result_to_dict(run: RunResult) -> dict[str, Any]:
    return {
        "status": run.status,
        "mode": run.mode,
        "beta": rational_to_str(run.beta),
        "snapshots": [snapshot_to_dict(s) for s in run.snapshots],
    }


def run_result_from_dict(data: Any) -> RunResult:
    return RunResult(
        snapshots=tuple(snapshot_from_dict(s) for s in field(data, "snapshots", list)),
        status=field(data, "status", str),
        mode=field(data, "mode", str, "maximum"),
        beta=str_to_rational(field(data, "beta", str, "0")),
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
    """Deterministic JSON text: fixed key order, two-space indent."""
    return json.dumps(data, indent=2) + "\n"
