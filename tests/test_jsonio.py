import json
from fractions import Fraction

import pytest

from matchcert.certificates import Verdict, Violation, verify_run
from matchcert.cli import figure2_instance, main
from matchcert.engine import solve
from matchcert.graph import format_instance
from matchcert.oracle import min_weight_by_cardinality
from matchcert import jsonio

ODD_STRINGS = ["", "plain", "caf\u00e9 \u2211 \U0001f600", "tab\tline\nquote\"back\\slash",
               "\x00\x1f\x7f\u2028"]


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


def test_rationals_decoded_once_per_file(fig2):
    data = json.loads(jsonio.dumps(jsonio.run_result_to_dict(solve(fig2))))
    run = jsonio.run_result_from_dict(data)
    values = [p for snap in run.snapshots for p in snap.dual_state.singleton_pi]
    assert len({id(p) for p in values}) == len(set(values))


@pytest.mark.parametrize("bad", ["1/0", 1, None, ["1"]])
def test_bad_rational_rejected_after_good_ones(p4, bad):
    data = jsonio.run_result_to_dict(solve(p4))
    data["snapshots"][-1]["duals"]["singletons"]["4"] = bad
    with pytest.raises(ValueError):
        jsonio.run_result_from_dict(data)


def test_empty_run_rejected():
    with pytest.raises(ValueError, match="'snapshots' is empty"):
        jsonio.run_result_from_dict({"status": "perfect-found", "snapshots": []})


@pytest.mark.parametrize("value", [
    {}, [], (), "top", -7, None,
    {"a": {}, "b": [], "c": ()},
    [[1, [2, []]], (), [()]],
    (1, -2, 0, 10 ** 30),
    [True, False, None],
    {"k": -17, "n": None, "t": True, "f": False},
    {s: s for s in ODD_STRINGS},
    ODD_STRINGS,
    {"nested": [{"x": [(), {}]}, [[[]]], {"y": {"z": [-1]}}]},
])
def test_dumps_matches_json(value):
    assert jsonio.dumps(value) == json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize("value", [
    Fraction(1, 2), {"x": Fraction(1)}, [1.5], {1: "a"}, {"s": {1, 2}}])
def test_dumps_rejects_other_types(value):
    with pytest.raises(TypeError):
        jsonio.dumps(value)


def test_dumps_matches_json_on_every_command(tmp_path, monkeypatch, capsys):
    payloads = []
    dumps = jsonio.dumps
    monkeypatch.setattr(jsonio, "dumps",
                        lambda data: payloads.append(data) or dumps(data))
    negative = tmp_path / "neg.dimacs"
    negative.write_text("p edge 4 3\ne 1 2 -5\ne 2 3 1\ne 3 4 5\n")
    fig2 = tmp_path / "fig2.dimacs"
    fig2.write_text(format_instance(figure2_instance()))
    amounts = tmp_path / "amounts.txt"
    amounts.write_text("1, 1, 3\n")
    run_path = tmp_path / "run.json"
    commands = [
        (["solve", str(negative), "--verify", "--oracle-check",
          "--snapshots", str(run_path)], 0),
        (["solve", str(fig2), "--policy", f"scripted={amounts}", "--verify"], 2),
        (["oracle", str(negative)], 0),
        (["counterexample"], 0),
        (["reduce", str(negative), "--auxiliary", f"{run_path}:1"], 0),
        (["verify", str(negative), "--run", str(run_path)], 0),
    ]
    for argv, code in commands:
        assert main(argv) == code
    assert len(payloads) == len(commands)
    # A failing verdict with set and path witnesses.
    payloads.append(jsonio.verdict_to_dict(Verdict((
        Violation("cs-blossom-full:k=1", frozenset({0, 1, 2}), 0, 1),
        Violation("consecutive-single-path:k=2", ((0, 1), (2, 3)),
                  "disconnected", "single-path"),
        Violation("snapshot-cardinality-sequence:k=2", 1, 2, 1),
    ))))
    for data in payloads:
        assert dumps(data) == json.dumps(data, indent=2) + "\n"
    capsys.readouterr()
