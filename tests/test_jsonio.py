import json
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from matchcert.certificates import Verdict, Violation, verify_run
from matchcert.cli import figure2_instance, main
from matchcert.engine import (STATUS_NO_PERFECT, BlossomDual, DualState, RunResult,
                              Snapshot, solve)
from matchcert.graph import Instance, Matching, format_instance, normalize_weights
from matchcert.oracle import min_weight_by_cardinality
from matchcert import jsonio

from util import reference_run_dict

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402

ODD_STRINGS = ["", "plain", "caf\u00e9 \u2211 \U0001f600", "tab\tline\nquote\"back\\slash",
               "\x00\x1f\x7f\u2028"]


def test_rational_strings():
    assert jsonio.rational_to_str(Fraction(7, 2)) == "7/2"
    assert jsonio.rational_to_str(Fraction(3)) == "3"
    assert jsonio.rational_to_str(Fraction(-5, 2)) == "-5/2"
    assert jsonio.str_to_rational("7/2") == Fraction(7, 2)
    assert jsonio.str_to_rational("-4") == Fraction(-4)


def written(run) -> dict:
    """A run's JSON object as a reader sees it: written, then parsed."""
    return json.loads(jsonio.dumps(jsonio.run_result_to_dict(run)))


def test_run_result_round_trip(p4):
    run = solve(p4)
    data = written(run)
    assert jsonio.run_result_from_dict(data) == run


def test_run_result_round_trip_with_blossoms(fig2):
    run = solve(fig2)
    data = json.loads(jsonio.dumps(jsonio.run_result_to_dict(run)))
    restored = jsonio.run_result_from_dict(data)
    assert restored == run
    assert verify_run(fig2, restored).passed


def test_snapshot_schema_fields(p4):
    data = written(solve(p4))
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
    data = written(run)
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
        Violation("edge-feasibility", (0, 2), Fraction(3, 2), Fraction(1)),
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


def test_rationals_decoded_once_per_file(fig2, monkeypatch):
    parsed, parse = [], jsonio.str_to_rational

    def counting(text):
        parsed.append(text)
        return parse(text)

    data = json.loads(jsonio.dumps(jsonio.run_result_to_dict(solve(fig2))))
    monkeypatch.setattr(jsonio, "str_to_rational", counting)
    run = jsonio.run_result_from_dict(data)
    assert run == solve(fig2)
    assert len(parsed) == len(set(parsed))


@pytest.mark.parametrize("bad", ["1/0", 1, None, ["1"]])
def test_bad_rational_rejected_after_good_ones(p4, bad):
    data = written(solve(p4))
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
    Fraction(1, 2), {"x": Fraction(1)}, {"witness": frozenset({0, 1})},
    {(0, 1): "edge"}, {"s": {1, 2}}])
def test_dumps_rejects_other_types(value):
    with pytest.raises(TypeError):
        jsonio.dumps(value)


def assert_plain_json(value):
    """value holds only str, int (never float), bool, None, lists or
    tuples, and dicts with str keys: the standard library would write a
    float, and turn an int key into a string, where no reader expects it."""
    if type(value) is dict:
        for key, item in value.items():
            assert type(key) is str, key
            assert_plain_json(item)
    elif type(value) in (list, tuple):
        for item in value:
            assert_plain_json(item)
    else:
        assert value is None or type(value) in (str, int, bool), value


def test_dumps_matches_json_on_every_command(tmp_path, monkeypatch, capsys):
    payloads = []
    references = {}  # id of a run's payload -> its snapshots as plain lists
    dumps, to_dict = jsonio.dumps, jsonio.run_result_to_dict

    def run_result_to_dict(run):
        data = to_dict(run)
        references[id(data)] = reference_run_dict(run)["snapshots"]
        return data

    monkeypatch.setattr(jsonio, "dumps",
                        lambda data: payloads.append(data) or dumps(data))
    monkeypatch.setattr(jsonio, "run_result_to_dict", run_result_to_dict)
    negative = tmp_path / "neg.dimacs"
    negative.write_text("p edge 4 3\ne 1 2 -5\ne 2 3 1\ne 3 4 5\n")
    fig2 = tmp_path / "fig2.dimacs"
    fig2.write_text(format_instance(figure2_instance()))
    path = tmp_path / "path.dimacs"
    path.write_text("p edge 3 2\ne 1 2 1\ne 2 3 1\n")
    amounts = tmp_path / "amounts.txt"
    amounts.write_text("1, 1, 3\n")
    run_path = tmp_path / "run.json"
    scripted_path = tmp_path / "scripted.json"
    commands = [
        (["solve", str(negative), "--verify", "--oracle-check",
          "--snapshots", str(run_path)], 0),
        (["solve", str(fig2), "--policy", f"scripted={amounts}", "--verify",
          "--snapshots", str(scripted_path)], 2),
        (["solve", str(path), "--mode", "perfect"], 1),
        (["oracle", str(negative)], 0),
        (["counterexample"], 0),
        (["reduce", str(negative), "--auxiliary", f"{run_path}:1"], 0),
        (["reduce", str(fig2), "--auxiliary", f"{scripted_path}:4"], 2),
        (["verify", str(negative), "--run", str(run_path)], 0),
        (["verify", str(fig2), "--run", str(scripted_path)], 2),
    ]
    for argv, code in commands:
        assert main(argv) == code
    assert len(payloads) == len(commands)
    assert list(map(id, payloads[:3])) == list(references)
    # The failing reduce names its one fault.
    assert [v["constraint"] for v in payloads[6]["check"]["violations"]] == [
        "cs-matched-edge-tight"]
    # A failing verdict with set and path witnesses.
    payloads.append(jsonio.verdict_to_dict(Verdict((
        Violation("cs-blossom-full:k=1", frozenset({0, 1, 2}), 0, 1),
        Violation("consecutive-single-path:k=2", ((0, 1), (2, 3)),
                  "disconnected", "single-path"),
        Violation("snapshot-cardinality-sequence:k=2", 1, 2, 1),
    ))))
    for data in payloads:
        plain = data
        if id(data) in references:
            plain = {**data, "snapshots": references[id(data)]}
        assert_plain_json(plain)
        assert dumps(data) == json.dumps(plain, indent=2) + "\n"
    capsys.readouterr()


def assert_writes_reference(payload, run):
    """dumps(payload) is the standard library's text of the payload with
    its snapshots built as plain dicts by the reference builder."""
    plain = {**payload, "snapshots": reference_run_dict(run)["snapshots"]}
    assert jsonio.dumps(payload) == json.dumps(plain, indent=2) + "\n"


def ladder_run():
    """A run on the benchmark's ladder: a nest of 41 blossoms, 84 nodes."""
    return solve(Instance.from_edges(*corpus.ladder_edges(random.Random(0))))


def test_writer_matches_reference_on_a_deep_ladder():
    run = ladder_run()
    assert len(run.final.dual_state.blossoms) == corpus.LADDER_DEPTH + 1
    assert_writes_reference(jsonio.run_result_to_dict(run), run)


def test_writer_matches_reference_with_every_payload_key():
    inst = Instance.from_edges(5, [(0, 1, -3), (1, 2, Fraction(1, 2)), (2, 3, -1),
                                   (3, 4, 4), (0, 4, Fraction(-7, 3)), (1, 3, 2)])
    normalized, record = normalize_weights(inst)
    run = solve(normalized)
    table = min_weight_by_cardinality(normalized)
    payload = jsonio.run_result_to_dict(run)
    payload["normalization"] = {"shift": jsonio.rational_to_str(record.shift)}
    payload["verification"] = jsonio.verdict_to_dict(verify_run(normalized, run))
    # Every snapshot listed, so that the block's array has entries.
    payload["oracle_check"] = {"pass": False, "mismatches": [
        {"k": s.cardinality, "weight": jsonio.rational_to_str(s.weight),
         "oracle_min": jsonio.rational_to_str(table.min_weight(s.cardinality))}
        for s in run.snapshots]}
    assert record.shift == 3 and payload["verification"]["pass"]
    assert_writes_reference(payload, run)


def test_writer_matches_reference_with_a_failing_verdict(fig2):
    run = solve(fig2, phases=[(1, 1, 3)])
    verdict = verify_run(fig2, run)
    assert not verdict.passed
    payload = jsonio.run_result_to_dict(run)
    payload["verification"] = jsonio.verdict_to_dict(verdict)
    assert_writes_reference(payload, run)


def test_writer_matches_json_on_an_empty_run():
    # No solve returns a run without its k=0 snapshot, but the library
    # writes one; the reference builder cannot, as it sizes the node ids
    # from the snapshots.
    run = RunResult((), STATUS_NO_PERFECT, "maximum")
    plain = {"status": STATUS_NO_PERFECT, "mode": "maximum", "beta": "0", "snapshots": []}
    assert jsonio.dumps(jsonio.run_result_to_dict(run)) == json.dumps(plain, indent=2) + "\n"


def test_writer_matches_reference_on_a_blossom_without_nodes():
    # Not an odd set, but a record the library builds: its node lists in
    # `duals.blossoms` and `certificate.z` are empty.
    duals = DualState(1, (0, 0), (BlossomDual(frozenset(), 1),))
    run = RunResult((Snapshot(0, Matching.empty(), duals, Fraction(0)),),
                    STATUS_NO_PERFECT, "maximum")
    assert_writes_reference(jsonio.run_result_to_dict(run), run)


@pytest.mark.parametrize("run", [
    pytest.param(ladder_run, id="ladder-depth-40"),
    pytest.param(lambda: solve(Instance.from_edges(
        64, corpus.sparse_edges(random.Random(64), n=64))), id="sparse-n-64"),
])
def test_writing_a_run_peaks_below_a_small_multiple_of_its_text(run):
    """The snapshots array is written into one list of pieces and joined
    once, so the peak stays near two copies of the text: the pieces and
    the joined result. Certificates are built before, as by --verify."""
    run = run()
    for snap in run.snapshots:
        snap.certificate
    tracemalloc.start()
    try:
        text = jsonio.dumps(jsonio.run_result_to_dict(run))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * len(text)
