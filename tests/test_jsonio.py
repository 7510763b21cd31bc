import json
from fractions import Fraction

from matchcert.certificates import Verdict, Violation, verify_run
from matchcert.engine import solve
from matchcert.oracle import min_weight_by_cardinality
from matchcert import jsonio


def test_rational_strings():
    assert jsonio.rational_to_str(Fraction(7, 2)) == "7/2"
    assert jsonio.rational_to_str(Fraction(3)) == "3"
    assert jsonio.rational_to_str(Fraction(-5, 2)) == "-5/2"
    assert jsonio.str_to_rational("7/2") == Fraction(7, 2)
    assert jsonio.str_to_rational("-4") == Fraction(-4)


def test_run_result_round_trip(p4):
    run = solve(p4)
    data = jsonio.run_result_to_dict(run)
    assert jsonio.run_result_from_dict(data) == run


def test_run_result_round_trip_with_blossoms(fig2):
    run = solve(fig2)
    data = json.loads(jsonio.dumps(jsonio.run_result_to_dict(run)))
    restored = jsonio.run_result_from_dict(data)
    assert restored == run
    assert verify_run(fig2, restored).passed


def test_snapshot_schema_fields(p4):
    data = jsonio.run_result_to_dict(solve(p4))
    assert data["status"] == "perfect-found"
    snap = data["snapshots"][1]
    assert snap["k"] == 1
    assert snap["weight"] == "1"
    assert snap["matching"] == [[2, 3]]  # 1-based ids on the wire
    assert snap["duals"]["singletons"]["1"] == "1/2"
    assert snap["certificate"]["gamma"] == "1"
    assert snap["certificate"]["y"]["1"] == "0"


def test_blossom_serialization_is_one_based(c5_two_tails):
    run = solve(c5_two_tails)
    data = jsonio.run_result_to_dict(run)
    snap = data["snapshots"][3]
    assert snap["duals"]["blossoms"] == [
        {"nodes": [1, 2, 3, 4, 5], "pi": "0"}]
    assert snap["certificate"]["z"] == [
        {"nodes": [1, 2, 3, 4, 5], "value": "0"}]
    restored = jsonio.run_result_from_dict(data)
    assert restored == run
    assert verify_run(c5_two_tails, restored).passed


def test_oracle_table_schema(p4):
    data = jsonio.oracle_table_to_dict(min_weight_by_cardinality(p4))
    assert data["nu"] == 2
    assert data["by_cardinality"][1] == {
        "k": 1, "min_weight": "1", "witness": [[2, 3]]}


def test_verdict_serialization():
    verdict = Verdict((
        Violation("edge-load", (0, 2), Fraction(3, 2), Fraction(1)),
        Violation("cs-blossom-full", frozenset({2, 0, 1}), 0, 1),
        Violation("y-nonpositive", 4, Fraction(1, 2), Fraction(0)),
    ))
    data = jsonio.verdict_to_dict(verdict)
    assert data["pass"] is False
    assert data["violations"][0]["witness"] == [1, 3]
    assert data["violations"][0]["lhs"] == "3/2"
    assert data["violations"][1]["witness"] == [1, 2, 3]
    assert data["violations"][2]["witness"] == 5


def test_dumps_deterministic(fig2):
    run1 = jsonio.dumps(jsonio.run_result_to_dict(solve(fig2)))
    run2 = jsonio.dumps(jsonio.run_result_to_dict(solve(fig2)))
    assert run1 == run2
