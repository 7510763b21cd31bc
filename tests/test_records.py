"""The result records are immutable named tuples: one contract, checked on
every record, and an import of the command line that loads neither
`dataclasses` nor the `inspect` module it pulls in."""

import copy
import re
import subprocess
import sys
from fractions import Fraction
from functools import cached_property

import pytest

import matchcert
from matchcert import certificates, cli, engine, graph, jsonio, oracle, reductions
from matchcert.certificates import STATUS_PERFECT, CardinalityCertificate
from matchcert.engine import (AlphaResult, AlternatingWalk, BlossomDual, DualState,
                              ForestLabels, RunResult, ShrunkenView, Snapshot)
from matchcert.graph import (Edge, Instance, Matching, NormalizationRecord,
                             SymmetricDifference)

ZERO = Fraction(0)
HALF = Fraction(1, 2)


def test_cli_import_loads_no_dataclasses():
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import matchcert.cli\n"
            "matchcert.cli.build_parser()\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _samples():
    """(record class, field values, one field changed to another valid
    value, names of its cached properties) for every record."""
    inst = Instance(2, (Edge(0, 1, Fraction(3)),))
    m = Matching(frozenset({(0, 1)}))
    blossom = BlossomDual(frozenset({0, 1, 2}), 1)
    duals = DualState(2, (1, 1, 1), (blossom,), HALF)
    snap = Snapshot(1, Matching(frozenset({(0, 2)})), duals, Fraction(3))
    viol = certificates.Violation("odd-set", frozenset({0, 1}), 2, "odd")
    record = oracle.CardinalityRecord(1, Fraction(3), m)
    return [
        (Edge, (0, 1, Fraction(3)), {"weight": Fraction(4)}, ()),
        (Instance, (2, (Edge(0, 1, Fraction(3)),)), {"node_count": 3},
         ("_incident", "scaled_weights")),
        (Matching, (frozenset({(0, 1)}),), {"edges": frozenset()}, ("covered",)),
        (NormalizationRecord, (Fraction(2),), {"shift": ZERO}, ()),
        (SymmetricDifference, ("single-path", ((0, 1, 2),)), {"kind": "disconnected"}, ()),
        (BlossomDual, (frozenset({0, 1, 2}), 1), {"pi": 2}, ()),
        (DualState, (2, (1, 1, 1), (blossom,), HALF), {"scale": 4},
         ("singleton_pi", "blossoms")),
        (CardinalityCertificate, (2, 4, (0, -1, 0), ((frozenset({0, 1, 2}), -2),), 1),
         {"k": 0}, ("gamma", "y", "z")),
        (Snapshot, (1, Matching(frozenset({(0, 2)})), duals, Fraction(3)),
         {"weight": Fraction(4)}, ("certificate",)),
        (RunResult, ((snap,), STATUS_PERFECT, "maximum", HALF), {"mode": "perfect"}, ()),
        (ShrunkenView, ([0, 0, 0], {0: [(1, 0)]}), {"incident": {}}, ()),
        (ForestLabels, ({0: engine.LABEL_T}, {0: 0}, (0,)), {"roots": ()}, ()),
        (AlternatingWalk, ((0, 1), (0,)), {"edges": (1,)}, ()),
        (AlphaResult, (Fraction(1), ("edge-t-t", (0, 1))), {"alpha": None}, ()),
        (certificates.Violation, ("odd-set", frozenset({0, 1}), 2, "odd"), {"lhs": 3}, ()),
        (certificates.Verdict, ((viol,),), {"violations": ()}, ()),
        (oracle.CardinalityRecord, (1, Fraction(3), m), {"cardinality": 0}, ()),
        (oracle.OracleTable, ((record,),), {"by_cardinality": ()}, ()),
        (reductions.AuxiliaryCompletion, (inst, m, duals, (1,)),
         {"exposed_nodes": ()}, ()),
        (cli.ScenarioReport, (((0, ZERO),), None, "infeasible", (ZERO,), None, None),
         {"scripted_verdict": certificates.Verdict(())}, ()),
    ]


SAMPLES = _samples()
DEFAULTS = {DualState: {"beta": ZERO}, RunResult: {"beta": ZERO}}


def test_every_record_is_sampled():
    modules = (graph, engine, certificates, oracle, reductions, cli, jsonio, matchcert)
    records = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and obj.__module__.startswith("matchcert.")}
    assert records == {cls for cls, *_ in SAMPLES}


@pytest.mark.parametrize("cls, values, changed, cached", SAMPLES,
                         ids=[cls.__name__ for cls, *_ in SAMPLES])
def test_record_contract(cls, values, changed, cached):
    rec = cls(*values)
    assert tuple(getattr(rec, name) for name in cls._fields) == values
    assert cls(**dict(zip(cls._fields, values))) == rec
    assert cls._field_defaults == DEFAULTS.get(cls, {})
    required = len(cls._fields) - len(cls._field_defaults)
    assert cls(*values[:required])[required:] == tuple(cls._field_defaults.values())

    # Equality and hash follow the fields.
    twin = cls(*copy.deepcopy(values))
    assert twin == rec and twin is not rec
    other = rec._replace(**changed)
    assert other != rec
    try:
        expected = hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(twin) == expected

    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert type(other) is cls and type(rec._replace()) is cls and rec._replace() == rec

    # A record with cached properties keeps them in its __dict__; every
    # other record has none.
    assert {name for name, attr in vars(cls).items()
            if isinstance(attr, cached_property)} == set(cached)
    assert hasattr(rec, "__dict__") == bool(cached)
    for name in cached:
        first = getattr(rec, name)
        assert getattr(rec, name) is first and vars(rec)[name] is first


BAD_INSTANCES = [
    ((0, ()), ValueError, "node_count must be a positive integer, got 0"),
    ((2, ((0, 1, ZERO),)), TypeError, "edges must be Edge tuples, got (0, 1, "),
    ((2, (Edge(0, 1.0, Fraction(1)),)), TypeError, "edge endpoints must be ints: "),
    ((2, (Edge(1, 1, Fraction(1)),)), ValueError, "self-loop at node 1"),
    ((2, (Edge(0, 2, Fraction(1)),)), ValueError, "edge endpoint out of range: "),
    ((2, (Edge(1, 0, Fraction(1)),)), ValueError, "edge endpoints must be ordered u < v: "),
    ((2, (Edge(0, 1, 1),)), TypeError, "edge weight must be a Fraction: "),
    ((2, (Edge(0, 1, ZERO), Edge(0, 1, ZERO))), ValueError, "duplicate edge (0, 1)"),
]
BAD_MATCHINGS = [
    ((frozenset({(1, 1)}),), ValueError, "self-loop (1, 1) in matching"),
    ((frozenset({(2, 1)}),), ValueError, "matching edge must be ordered u < v: (2, 1)"),
    ((frozenset({(0, 1), (1, 2)}),), ValueError, "node shared by two matching edges near "),
]


@pytest.mark.parametrize("cls, values, error, message",
                         [(Instance, *bad) for bad in BAD_INSTANCES]
                         + [(Matching, *bad) for bad in BAD_MATCHINGS])
def test_checked_records_reject_bad_input_on_every_route(cls, values, error, message):
    good = {Instance: Instance(3, ()), Matching: Matching(frozenset())}[cls]
    routes = (lambda: cls(*values), lambda: cls._make(values),
              lambda: good._replace(**dict(zip(cls._fields, values))))
    for route in routes:
        with pytest.raises(error, match="^" + re.escape(message)):
            route()
