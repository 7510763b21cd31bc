import json
import os
import subprocess
import sys

import pytest

from matchcert import cli
from matchcert.cli import compare_dual_policies, figure2_instance, main

P4_TEXT = "p edge 4 3\ne 1 2 5\ne 2 3 1\ne 3 4 5\n"
TRIANGLE_TEXT = "p edge 3 3\ne 1 2 1\ne 1 3 2\ne 2 3 3\n"
NEGATIVE_TEXT = "p edge 3 2\ne 1 2 -5\ne 2 3 1\n"


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.dimacs"
    path.write_text(P4_TEXT)
    return str(path)


@pytest.fixture
def fig2_scripted(tmp_path):
    """Figure 2's instance file and a scripted policy of amounts 1, 1, 3."""
    from matchcert.graph import format_instance
    fig2_path = tmp_path / "fig2.dimacs"
    fig2_path.write_text(format_instance(figure2_instance()))
    amounts = tmp_path / "amounts.txt"
    amounts.write_text("1, 1, 3\n")
    return str(fig2_path), f"scripted={amounts}"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveCommand:
    def test_solve_verify_oracle(self, capsys, p4_file):
        code, out, err = run_cli(capsys, "solve", p4_file,
                                 "--verify", "--oracle-check")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "perfect-found"
        assert [s["weight"] for s in data["snapshots"]] == ["0", "1", "10"]
        assert data["verification"]["pass"] is True
        assert data["oracle_check"]["pass"] is True
        assert "perfect-found" in err

    def test_snapshots_file(self, capsys, tmp_path, p4_file):
        out_path = tmp_path / "run.json"
        code, out, _ = run_cli(capsys, "solve", p4_file,
                               "--snapshots", str(out_path))
        assert code == 0
        assert out_path.read_text() == out

    def test_snapshots_file_overwritten_to_new_length(self, capsys, tmp_path,
                                                      p4_file):
        # A longer old file loses its tail.
        out_path = tmp_path / "run.json"
        out_path.write_text("x" * 100000)
        code, out, _ = run_cli(capsys, "solve", p4_file,
                               "--snapshots", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == out.encode("utf-8")

    def test_snapshots_to_devnull(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, "solve", p4_file, "--snapshots", os.devnull)
        assert code == 0
        assert json.loads(out)["status"] == "perfect-found"

    def test_unwritable_snapshots_path_leaves_stdout_empty(self, capsys, tmp_path,
                                                           p4_file):
        code, out, err = run_cli(capsys, "solve", p4_file, "--snapshots", str(tmp_path))
        assert code == 3
        assert out == ""
        assert "Is a directory" in err

    def test_snapshots_file_opened_without_truncation(self, capsys, monkeypatch,
                                                      tmp_path, p4_file):
        # Truncate-on-open makes the next rewrite of the file wait on a
        # disk flush (ext4 auto_da_alloc); the file is cut after writing.
        out_path = str(tmp_path / "run.json")
        flags_seen = []
        os_open = cli.os.open

        def recording_open(path, flags, *rest, **kwargs):
            if path == out_path:
                flags_seen.append(flags)
            return os_open(path, flags, *rest, **kwargs)

        monkeypatch.setattr(cli.os, "open", recording_open)
        code, _, _ = run_cli(capsys, "solve", p4_file, "--snapshots", out_path)
        assert code == 0
        assert len(flags_seen) == 1
        assert not flags_seen[0] & os.O_TRUNC

    def test_perfect_infeasible_exit(self, capsys, tmp_path):
        path = tmp_path / "tri.dimacs"
        path.write_text(TRIANGLE_TEXT)
        code, out, _ = run_cli(capsys, "solve", str(path), "--mode", "perfect")
        assert code == 1
        assert json.loads(out)["status"] == "no-perfect-matching"

    def test_negative_weights_normalized(self, capsys, tmp_path):
        path = tmp_path / "neg.dimacs"
        path.write_text(NEGATIVE_TEXT)
        code, out, _ = run_cli(capsys, "solve", str(path), "--oracle-check")
        assert code == 0
        data = json.loads(out)
        assert data["normalization"]["shift"] == "5"
        assert data["oracle_check"]["pass"] is True

    def test_summary_weight_in_the_instance_units(self, capsys, tmp_path):
        # The one edge weighs -5/3: the JSON holds it shifted to 0 with the
        # shift, and the stderr summary the weight of the instance as given.
        path = tmp_path / "neg.dimacs"
        path.write_text("p edge 3 1\ne 1 2 -5/3\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["normalization"]["shift"] == "5/3"
        assert data["snapshots"][-1]["weight"] == "0"
        assert err.endswith("final |M| = 1, weight -5/3\n")

    def test_scripted_policy_from_file(self, capsys, fig2_scripted):
        fig2_path, policy = fig2_scripted
        code, out, _ = run_cli(capsys, "solve", fig2_path, "--policy", policy)
        assert code == 0
        data = json.loads(out)
        assert data["snapshots"][-1]["weight"] == "4"

    def test_oracle_check_failure_exits_2(self, capsys, fig2_scripted):
        fig2_path, policy = fig2_scripted
        code, out, _ = run_cli(capsys, "solve", fig2_path, "--policy", policy,
                               "--oracle-check")
        assert code == 2
        assert json.loads(out)["oracle_check"] == {
            "pass": False, "mismatches": [{"k": 4, "weight": "4", "oracle_min": "3"}]}

    def test_long_zero_script_runs_to_the_end(self, capsys, tmp_path, p4_file):
        # Each of the 1,200 phases spends a solver step; zero amounts leave
        # the run the uniform one.
        amounts = tmp_path / "zeros.txt"
        amounts.write_text("0\n" * 1200)
        code, out, _ = run_cli(capsys, "solve", p4_file, "--policy", f"scripted={amounts}")
        assert code == 0
        assert out == run_cli(capsys, "solve", p4_file)[1]

    def test_infeasible_scripted_amount_names_edge_ends(self, capsys, tmp_path, p4_file):
        amounts = tmp_path / "amounts.txt"
        amounts.write_text("100\n")
        code, out, err = run_cli(capsys, "solve", p4_file,
                                 "--policy", f"scripted={amounts}")
        assert code == 3 and out == ""
        assert err == "error: edge-slack: witness=[1, 2] lhs=100 rhs=5\n"

    def test_beta_option(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, "solve", p4_file, "--beta", "1/2")
        assert code == 0
        assert json.loads(out)["beta"] == "1/2"

    def test_exponent_beta_is_input_error(self, capsys, p4_file):
        code, out, err = run_cli(capsys, "solve", p4_file, "--beta", "1e9")
        assert code == 3
        assert out == ""
        assert "invalid rational '1e9'" in err

    def test_exponent_weight_is_input_error(self, capsys, tmp_path):
        # Fraction() would expand the exponent into a huge integer.
        path = tmp_path / "exp.dimacs"
        path.write_text("p edge 3 2\ne 1 2 1e99999999\ne 2 3 1\n")
        code, out, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert out == ""
        assert "line 2: invalid weight" in err

    def test_input_error_exit(self, capsys, tmp_path):
        path = tmp_path / "bad.dimacs"
        path.write_text("p edge 2 1\ne 1 1 0\n")
        code, _, err = run_cli(capsys, "solve", str(path))
        assert code == 3
        assert "self-loop" in err

    def test_missing_file(self, capsys):
        code, _, _ = run_cli(capsys, "solve", "/nonexistent/g.dimacs")
        assert code == 3

    def test_out_of_memory_is_input_error(self, capsys, monkeypatch, p4_file):
        # A node count the header allows can exceed what the process can
        # hold. The failure is faked: a real one needs an instance too large
        # to allocate, and with no memory cap that takes the machine's memory.
        def exhausted(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr(cli, "solve", exhausted)
        code, out, err = run_cli(capsys, "solve", p4_file)
        assert (code, out) == (3, "")
        assert err.startswith("error: out of memory") and "Traceback" not in err

    def test_byte_identical_output(self, capsys, p4_file):
        _, out1, _ = run_cli(capsys, "solve", p4_file, "--verify")
        _, out2, _ = run_cli(capsys, "solve", p4_file, "--verify")
        assert out1 == out2

    def test_verify_builds_each_certificate_once(self, capsys, monkeypatch, p4_file):
        # The emitted certificate block and the check share one build.
        from matchcert import certificates, engine
        built = []
        transform = engine.transform_duals
        for module in (engine, certificates):
            monkeypatch.setattr(module, "transform_duals",
                                lambda dual, k: built.append(k) or transform(dual, k))
        code, out, _ = run_cli(capsys, "solve", p4_file, "--verify")
        assert code == 0
        assert json.loads(out)["verification"]["pass"] is True
        assert built == [0, 1, 2]


class TestParser:
    def test_one_parser_serves_every_call(self, capsys, tmp_path, p4_file):
        # solve, a failing verify, then solve again: in one process they
        # print what each prints as the first call of a fresh process.
        run_path, bad_path = tmp_path / "run.json", tmp_path / "bad.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(bad_path))
        bad_path.write_text(bad_path.read_text().replace('"weight": "1"', '"weight": "2"'))
        calls = [("solve", p4_file, "--verify", "--snapshots", str(run_path)),
                 ("verify", p4_file, "--run", str(bad_path)),
                 ("solve", p4_file, "--mode", "perfect")]
        first = []
        for argv in calls:
            cli.build_parser.cache_clear()
            first.append(run_cli(capsys, *argv)[:2])
        assert [code for code, _ in first] == [0, 2, 0]
        parser = cli.build_parser()
        assert [run_cli(capsys, *argv)[:2] for argv in calls] == first
        assert cli.build_parser() is parser

    @pytest.mark.parametrize("argv", [
        ("solve",),
        ("oracle", "g.dimacs", "--limit", "abc"),
        ("reduce", "g.dimacs"),
    ])
    def test_malformed_command_line_is_input_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("argv", [("--help",), ("solve", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 0
        assert "usage: matchcert" in capsys.readouterr().out


def verify_tampered(capsys, tmp_path, instance_file, tamper):
    """Solve P4, edit the snapshots file with `tamper`, then verify it
    against `instance_file`."""
    p4_path = tmp_path / "p4.dimacs"
    p4_path.write_text(P4_TEXT)
    run_path = tmp_path / "run.json"
    run_cli(capsys, "solve", str(p4_path), "--snapshots", str(run_path))
    data = json.loads(run_path.read_text())
    tamper(data)
    run_path.write_text(json.dumps(data))
    return run_cli(capsys, "verify", instance_file, "--run", str(run_path))


def swap_snapshots_1_2(data):
    snaps = data["snapshots"]
    snaps[1], snaps[2] = snaps[2], snaps[1]


def witnesses(out, constraint):
    return [v["witness"] for v in json.loads(out)["violations"]
            if v["constraint"].startswith(constraint)]


class TestVerifyCommand:
    def test_round_trip(self, capsys, tmp_path, p4_file):
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        code, out, _ = run_cli(capsys, "verify", p4_file, "--run", str(run_path))
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_corrupted_run_fails(self, capsys, tmp_path, p4_file):
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        data = json.loads(run_path.read_text())
        data["snapshots"][1]["weight"] = "2"
        run_path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", p4_file, "--run", str(run_path))
        assert code == 2
        assert json.loads(out)["pass"] is False

    def test_normalization_shift_respected(self, capsys, tmp_path):
        path = tmp_path / "neg.dimacs"
        path.write_text(NEGATIVE_TEXT)
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", str(path), "--snapshots", str(run_path))
        code, out, _ = run_cli(capsys, "verify", str(path), "--run", str(run_path))
        assert code == 0
        assert json.loads(out)["pass"] is True


    def test_sequence_witness_is_snapshot_position(self, capsys, tmp_path, p4_file):
        code, out, _ = verify_tampered(capsys, tmp_path, p4_file, swap_snapshots_1_2)
        assert code == 2
        assert witnesses(out, "snapshot-cardinality-sequence") == [1, 2]

    def test_path_witness_is_one_based_node_lists(self, capsys, tmp_path, p4_file):
        code, out, _ = verify_tampered(capsys, tmp_path, p4_file, swap_snapshots_1_2)
        assert code == 2
        # Snapshots k=0 and k=2 differ by the two disjoint edges {1,2}, {3,4}.
        assert witnesses(out, "consecutive-single-path") == [[[1, 2], [3, 4]]]

    def test_missing_duals_is_input_error(self, capsys, tmp_path, p4_file):
        def drop_duals(data):
            del data["snapshots"][1]["duals"]
        code, out, err = verify_tampered(capsys, tmp_path, p4_file, drop_duals)
        assert code == 3
        assert out == ""
        assert "missing key 'duals'" in err

    def test_dropped_singleton_is_input_error(self, capsys, tmp_path, p4_file):
        def drop_singleton(data):
            for snap in data["snapshots"]:
                del snap["duals"]["singletons"]["4"]
        code, out, err = verify_tampered(capsys, tmp_path, p4_file, drop_singleton)
        assert code == 3
        assert out == ""
        assert "node ids in 1..3" in err

    def test_run_of_another_instance_is_input_error(self, capsys, tmp_path):
        # P4 plus an isolated fifth node: every stored edge still exists.
        other = tmp_path / "p4_plus_one.dimacs"
        other.write_text(P4_TEXT.replace("p edge 4 3", "p edge 5 3"))
        code, out, err = verify_tampered(capsys, tmp_path, str(other), lambda d: None)
        assert code == 3
        assert out == ""
        assert "duals for 4 nodes, but the instance has 5" in err


    def test_exponent_rational_is_input_error(self, capsys, tmp_path, p4_file):
        def exponent_weight(data):
            data["snapshots"][1]["weight"] = "1e99999999"
        code, out, err = verify_tampered(capsys, tmp_path, p4_file, exponent_weight)
        assert code == 3
        assert out == ""
        assert "invalid rational" in err

    @pytest.mark.parametrize("key, value", [("status", "banana"), ("mode", "whatever")])
    def test_unknown_status_or_mode_is_input_error(self, capsys, tmp_path, p4_file,
                                                   key, value):
        def rewrite(data):
            data[key] = value
        code, out, err = verify_tampered(capsys, tmp_path, p4_file, rewrite)
        assert code == 3
        assert out == ""
        assert f"unknown {key} {value!r}" in err

    def test_status_contradicting_final_matching_fails(self, capsys, tmp_path):
        # Path 1-2-3-4-5 has no perfect matching.
        path = tmp_path / "p5.dimacs"
        path.write_text("p edge 5 4\ne 1 2 3\ne 2 3 1\ne 3 4 5\ne 4 5 2\n")
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", str(path), "--snapshots", str(run_path))
        data = json.loads(run_path.read_text())
        assert data["status"] == "no-perfect-matching"
        data["status"] = "perfect-found"
        run_path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", str(path), "--run", str(run_path))
        assert code == 2
        assert witnesses(out, "run-status") == ["perfect-found"]

    def test_deeply_nested_file_is_input_error(self, capsys, tmp_path, p4_file):
        run_path = tmp_path / "deep.json"
        run_path.write_text("[" * 200000 + "]" * 200000)
        for argv in (["verify", p4_file, "--run", str(run_path)],
                     ["reduce", p4_file, "--auxiliary", f"{run_path}:1"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 3
            assert out == ""
            assert "nested too deeply" in err

    def test_empty_run_is_input_error(self, capsys, tmp_path, p4_file):
        run_path = tmp_path / "empty.json"
        run_path.write_text(json.dumps({"status": "perfect-found", "snapshots": []}))
        code, out, err = run_cli(capsys, "verify", p4_file, "--run", str(run_path))
        assert code == 3
        assert out == ""
        assert "'snapshots' is empty" in err

    def test_even_blossom_fails(self, capsys, tmp_path):
        # The k=1 optimum is the weight-0 edge {1,2}; an even "blossom"
        # {1,2} at pi 5 would certify the weight-10 edge {3,4} instead.
        graph = tmp_path / "two_edges.dimacs"
        graph.write_text("p edge 4 2\ne 1 2 0\ne 3 4 10\n")
        zero = {"singletons": {"1": "0", "2": "0", "3": "0", "4": "0"},
                "blossoms": [], "beta": "0"}
        even = {"singletons": {"1": "0", "2": "0", "3": "5", "4": "5"},
                "blossoms": [{"nodes": [1, 2], "pi": "5"}], "beta": "0"}
        run_path = tmp_path / "run.json"
        run_path.write_text(json.dumps({
            "status": "no-perfect-matching", "mode": "maximum", "beta": "0",
            "snapshots": [
                {"k": 0, "weight": "0", "matching": [], "duals": zero},
                {"k": 1, "weight": "10", "matching": [[3, 4]], "duals": even}]}))
        code, out, _ = run_cli(capsys, "verify", str(graph), "--run", str(run_path))
        assert code == 2
        assert json.loads(out)["violations"] == [
            {"constraint": "odd-set:k=1", "witness": [1, 2], "lhs": 2, "rhs": "odd"}]

    def test_forged_beta_fails(self, capsys, tmp_path, p4_file):
        # The run says beta 7 everywhere, but its k=0 duals are 0.
        def forge(data):
            data["beta"] = "7"
            for snap in data["snapshots"]:
                snap["duals"]["beta"] = "7"
        code, out, _ = verify_tampered(capsys, tmp_path, p4_file, forge)
        assert code == 2
        assert witnesses(out, "beta-mismatch") == [1, 2, 3, 4]
        assert {v["constraint"] for v in json.loads(out)["violations"]} == \
            {"beta-mismatch:k=0"}

    def test_one_snapshot_beta_fails(self, capsys, tmp_path, p4_file):
        def forge(data):
            data["snapshots"][1]["duals"]["beta"] = "7"
        code, out, _ = verify_tampered(capsys, tmp_path, p4_file, forge)
        assert code == 2
        assert json.loads(out)["violations"] == [
            {"constraint": "beta-mismatch:k=1", "witness": None, "lhs": "7", "rhs": "0"}]

    def test_initial_blossom_fails(self, capsys, tmp_path, p4_file):
        # A zero-dual blossom passes every certificate check; only the
        # initial duals rule it out.
        def forge(data):
            data["snapshots"][0]["duals"]["blossoms"] = [{"nodes": [1, 2, 3], "pi": "0"}]
        code, out, _ = verify_tampered(capsys, tmp_path, p4_file, forge)
        assert code == 2
        assert json.loads(out)["violations"] == [
            {"constraint": "beta-mismatch:k=0", "witness": [1, 2, 3], "lhs": "0",
             "rhs": "no blossom"}]

    def test_beta_run_verifies(self, capsys, tmp_path, p4_file):
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--beta", "1/2", "--snapshots", str(run_path))
        code, _, _ = run_cli(capsys, "verify", p4_file, "--run", str(run_path))
        assert code == 0

    def test_non_edge_matching_fails(self, capsys, tmp_path):
        path = tmp_path / "path3.dimacs"
        path.write_text("p edge 3 2\ne 1 2 1\ne 2 3 1\n")
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", str(path), "--snapshots", str(run_path))
        data = json.loads(run_path.read_text())
        data["snapshots"][1]["matching"] = [[1, 3]]
        run_path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", str(path), "--run", str(run_path))
        assert code == 2
        assert witnesses(out, "matching-edge:k=1") == [[1, 3]]


class TestFailureSummary:
    """A failing verdict's stderr names its first failure, the first
    violation at the smallest k, in the JSON's 1-based ids, and counts each
    constraint id; stdout and the exit code are as before."""

    FIG2 = ("1 violations\n"
            "first failure at k=4: cs-exposed-zero-y witness=8 lhs=-2 rhs=0\n"
            "per constraint: cs-exposed-zero-y 1\n")

    def test_figure2_scripted_run(self, capsys, tmp_path, fig2_scripted):
        fig2_path, policy = fig2_scripted
        run_path = tmp_path / "run.json"
        code, out, err = run_cli(capsys, "solve", fig2_path, "--policy", policy,
                                 "--verify", "--snapshots", str(run_path))
        assert code == 2
        assert err == ("status no-perfect-matching; 5 snapshots; final |M| = 4, "
                       "weight 4\n" + self.FIG2)
        assert [v["constraint"] for v in json.loads(out)["verification"]["violations"]] \
            == ["cs-exposed-zero-y:k=4"]
        code, out, err = run_cli(capsys, "verify", fig2_path, "--run", str(run_path))
        assert (code, err) == (2, self.FIG2)
        assert json.loads(out) == {"pass": False, "violations": [
            {"constraint": "cs-exposed-zero-y:k=4", "witness": 8, "lhs": "-2", "rhs": "0"}]}

    def test_run_checked_against_permuted_weights(self, capsys, tmp_path):
        # The path 1-2-3-4-5 solved with weights 3, 1, 5, 2 and checked
        # against the same edges weighted 2, 5, 1, 3.
        path = tmp_path / "path5.dimacs"
        path.write_text("p edge 5 4\ne 1 2 3\ne 2 3 1\ne 3 4 5\ne 4 5 2\n")
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", str(path), "--snapshots", str(run_path))
        path.write_text("p edge 5 4\ne 1 2 2\ne 2 3 5\ne 3 4 1\ne 4 5 3\n")
        code, out, err = run_cli(capsys, "verify", str(path), "--run", str(run_path))
        assert code == 2 and len(json.loads(out)["violations"]) == 6
        assert err == ("6 violations\n"
                       "first failure at k=1: snapshot-weight witness=null lhs=1 rhs=5\n"
                       "per constraint: cs-matched-edge-tight 3, edge-feasibility 1, "
                       "snapshot-weight 2\n")

    def test_smallest_k_not_first_in_order(self, capsys, tmp_path, p4_file):
        # Swapped, the snapshot at position 1 claims k=2 and fails first;
        # the one claiming k=1 is named.
        code, _, err = verify_tampered(capsys, tmp_path, p4_file, swap_snapshots_1_2)
        assert code == 2
        assert err.splitlines()[1:] == [
            "first failure at k=1: snapshot-cardinality-sequence witness=2 lhs=1 rhs=2",
            "per constraint: consecutive-single-path 1, run-status 1, "
            "snapshot-cardinality-sequence 2"]

    def test_no_snapshot_named(self, capsys, tmp_path, p4_file):
        code, _, err = verify_tampered(capsys, tmp_path, p4_file,
                                       lambda d: d.update(status="no-perfect-matching"))
        assert (code, err) == (2, "1 violations\n"
                               'first failure: run-status witness="no-perfect-matching" '
                               "lhs=4 rhs=4\nper constraint: run-status 1\n")


def assert_input_error(result, message):
    """A command's (code, out, err): exit 3 with `message` on stderr, no
    output and no traceback."""
    code, out, err = result
    assert (code, out) == (3, "")
    assert message in err and "Traceback" not in err


def rename_singleton_4(data):
    for snap in data["snapshots"]:
        singles = snap["duals"]["singletons"]
        singles["5"] = singles.pop("4")


class TestInputErrors:
    @pytest.mark.parametrize("text, message", [
        ("p edge 2 1\np edge 2 1\ne 1 2 1\n", "line 2: duplicate header"),
        ("p edge 0 0\n", "line 1: invalid header counts"),
        ("p edge 99999999999999999999999 1\ne 1 2 1\n", "line 1: node count"),
        ("p edge 2 1\ne 1 2\n", "line 2: malformed edge line"),
        ("p edge 2 1\nx 1 2 1\n", "line 2: unrecognized line"),
        ("c no header\n", "missing 'p edge' header"),
    ])
    def test_malformed_instance(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.dimacs"
        path.write_text(text)
        assert_input_error(run_cli(capsys, "solve", str(path)), message)

    def test_snapshots_file_not_an_object(self, capsys, tmp_path, p4_file):
        run_path = tmp_path / "run.json"
        run_path.write_text("[]")
        assert_input_error(run_cli(capsys, "verify", p4_file, "--run", str(run_path)),
                           "expected an object with key 'snapshots'")

    @pytest.mark.parametrize("tamper, message", [
        (lambda d: d["snapshots"][1].update(k="1"), "'k' must be of type int"),
        (lambda d: d["snapshots"][1].update(matching=[[1]]),
         "every matching edge must be two node ids"),
        (rename_singleton_4, "no singleton dual for node '4'"),
        (lambda d: d["snapshots"][1].update(matching=[[2, 3], [2, 3]]),
         "matching [[2, 3], [2, 3]] lists an edge twice"),
        (lambda d: d["snapshots"][2]["duals"].update(
            blossoms=[{"nodes": [1, 2, 3, 1], "pi": "0"}]),
         "blossom [1, 2, 3, 1] repeats a node id"),
    ])
    def test_malformed_snapshots_file(self, capsys, tmp_path, p4_file, tamper, message):
        assert_input_error(verify_tampered(capsys, tmp_path, p4_file, tamper), message)

    @pytest.mark.parametrize("matching, message", [
        ([[2, 2]], "error: self-loop (2, 2) in matching"),
        ([[2, 3], [3, 4]], "error: node shared by two matching edges near (3, 4)"),
    ])
    def test_malformed_matching_named_in_file_ids(self, capsys, tmp_path,
                                                  matching, message):
        """The reader's matching errors name the file's 1-based node ids."""
        path = tmp_path / "path5.dimacs"
        path.write_text("p edge 5 4\ne 1 2 3\ne 2 3 1\ne 3 4 5\ne 4 5 2\n")
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", str(path), "--snapshots", str(run_path))
        data = json.loads(run_path.read_text())
        data["snapshots"][2]["matching"] = matching
        run_path.write_text(json.dumps(data))
        assert_input_error(run_cli(capsys, "verify", str(path), "--run", str(run_path)),
                           message)

    def test_empty_amounts_file(self, capsys, tmp_path, p4_file):
        amounts = tmp_path / "amounts.txt"
        amounts.write_text("c no phases\n\n")
        assert_input_error(
            run_cli(capsys, "solve", p4_file, "--policy", f"scripted={amounts}"),
            "no dual-update phases found")

    def test_unknown_policy(self, capsys, p4_file):
        assert_input_error(run_cli(capsys, "solve", p4_file, "--policy", "greedy"),
                           "unknown policy 'greedy'")

    def test_run_with_another_weight_shift(self, capsys, tmp_path):
        path = tmp_path / "neg.dimacs"
        path.write_text(NEGATIVE_TEXT)
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", str(path), "--snapshots", str(run_path))
        path.write_text(NEGATIVE_TEXT.replace("-5", "-3"))
        assert_input_error(run_cli(capsys, "verify", str(path), "--run", str(run_path)),
                           "snapshots were produced with weight shift 5")

    @pytest.mark.parametrize("tamper", [
        lambda d: d.pop("normalization"),
        lambda d: d.update(normalization={"shift": "0"}),
    ], ids=["absent", "zero"])
    def test_run_without_the_weight_shift(self, capsys, tmp_path, tamper):
        """A file with no `normalization` was made with shift 0, the same
        as one that records shift 0."""
        path = tmp_path / "neg4.dimacs"
        path.write_text("p edge 4 3\ne 1 2 -3\ne 2 3 1\ne 3 4 -2\n")
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", str(path), "--snapshots", str(run_path))
        data = json.loads(run_path.read_text())
        tamper(data)
        run_path.write_text(json.dumps(data))
        message = ("snapshots were produced with weight shift 0, "
                   "but the instance normalizes with shift 3")
        for argv in (["verify", str(path), "--run", str(run_path)],
                     ["reduce", str(path), "--auxiliary", f"{run_path}:1"]):
            assert_input_error(run_cli(capsys, *argv), message)

    def test_auxiliary_without_k(self, capsys, p4_file):
        assert_input_error(run_cli(capsys, "reduce", p4_file, "--auxiliary", "run.json"),
                           "--auxiliary expects <snapshots.json>:<k>")


class TestCounterexampleCommand:
    def test_default_amounts(self, capsys):
        code, out, err = run_cli(capsys, "counterexample")
        assert code == 0
        data = json.loads(out)
        assert data["divergence"] == 4
        assert data["uniform"][-1] == {"k": 4, "weight": "3"}
        assert data["scripted"][-1] == {"k": 4, "weight": "4"}
        assert data["oracle_minima"][4] == "3"
        # The verifier names the broken condition: exposed node 8 with y < 0.
        assert data["scripted_verdict"] == {"pass": False, "violations": [
            {"constraint": "cs-exposed-zero-y:k=4", "witness": 8, "lhs": "-2", "rhs": "0"}]}
        assert err == ("divergence at k=4: scripted weight 4 vs optimum 3\n"
                       "scripted run: 1 violations\n"
                       "first failure at k=4: cs-exposed-zero-y witness=8 lhs=-2 rhs=0\n"
                       "per constraint: cs-exposed-zero-y 1\n")

    def test_uniform_equivalent_amounts(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--amounts", "1,1,1")
        assert code == 0
        data = json.loads(out)
        assert data["divergence"] is None
        assert data["scripted"][-1] == {"k": 4, "weight": "3"}
        assert data["scripted_verdict"] == {"pass": True, "violations": []}

    def test_infeasible_amounts_reported_not_fatal(self, capsys):
        # An edge left overloaded, or more amounts than trees: the scripted
        # run is refused, and stderr says so rather than judging it.
        for amounts in ("9,0,0", ",".join(["1"] * 11)):
            code, out, err = run_cli(capsys, "counterexample", "--amounts", amounts)
            assert code == 0
            data = json.loads(out)
            assert data["scripted"] is None and data["scripted_verdict"] is None
            assert data["scripted_error"]
            assert data["uniform"][-1] == {"k": 4, "weight": "3"}
            assert err == f"scripted run refused: {data['scripted_error']}\n"

    def test_infeasible_amounts_name_edge_ends(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--amounts", "100,1,1")
        assert code == 0
        assert json.loads(out)["scripted_error"] == \
            "edge-slack: witness=[1, 2] lhs=101 rhs=3"


def rewrite_snapshots(run_path, edit):
    """Apply `edit` to the snapshots array of the file at run_path."""
    data = json.loads(run_path.read_text())
    edit(data["snapshots"])
    run_path.write_text(json.dumps(data))


# Two ways to make one snapshot malformed: a singleton dual that is no
# rational, and a matching that is no list.
SPOILED_SNAPSHOTS = [
    pytest.param(lambda snap: snap["duals"]["singletons"].update({"2": "1/x"}),
                 id="bad-singleton"),
    pytest.param(lambda snap: snap.update(matching=5), id="non-list-matching"),
]


class TestReduceCommand:
    def test_doubled_output_parses(self, capsys, p4_file):
        code, out, _ = run_cli(capsys, "reduce", p4_file, "--doubled")
        assert code == 0
        from matchcert.graph import parse_instance
        doubled = parse_instance(out)
        assert doubled.node_count == 8
        assert len(doubled.edges) == 10

    def test_auxiliary(self, capsys, tmp_path, p4_file):
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        code, out, _ = run_cli(capsys, "reduce", p4_file,
                               "--auxiliary", f"{run_path}:1")
        assert code == 0
        data = json.loads(out)
        assert data["check"]["pass"] is True
        assert data["exposed"] == [1, 4]
        assert [m for m in data["matching"]] == [[1, 5], [2, 3], [4, 6]]
        from matchcert.graph import parse_instance
        aux = parse_instance(data["instance"])
        assert aux.node_count == 6

    def test_auxiliary_non_edge_matching_fails(self, capsys, tmp_path):
        path = tmp_path / "path3.dimacs"
        path.write_text("p edge 3 2\ne 1 2 1\ne 2 3 1\n")
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", str(path), "--snapshots", str(run_path))
        data = json.loads(run_path.read_text())
        data["snapshots"][1]["matching"] = [[1, 3]]
        run_path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "reduce", str(path),
                               "--auxiliary", f"{run_path}:1")
        assert code == 2
        violations = json.loads(out)["check"]["violations"]
        assert [(v["constraint"], v["witness"]) for v in violations] == \
            [("matching-edge", [1, 3])]

    def test_auxiliary_overloaded_edge_fails(self, capsys, tmp_path, p4_file):
        # Raising node 2's dual at the perfect snapshot overloads both of
        # its edges; the witnesses are 1-based.
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        data = json.loads(run_path.read_text())
        data["snapshots"][2]["duals"]["singletons"]["2"] = "3/2"
        run_path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "reduce", p4_file, "--auxiliary", f"{run_path}:2")
        assert code == 2
        violations = json.loads(out)["check"]["violations"]
        assert [(v["constraint"], v["witness"], v["lhs"], v["rhs"]) for v in violations] == \
            [("edge-feasibility", [1, 2], "6", "5"), ("edge-feasibility", [2, 3], "2", "1")]

    def test_auxiliary_scripted_snapshot_fails(self, capsys, tmp_path, fig2_scripted):
        # Exposed node 8 sits at accumulated dual 1, below the maximum 3,
        # so its helper edge to node 10 is slack by 2.
        fig2_path, policy = fig2_scripted
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", fig2_path, "--policy", policy, "--snapshots", str(run_path))
        code, out, err = run_cli(capsys, "reduce", fig2_path, "--auxiliary", f"{run_path}:4")
        assert code == 2
        data = json.loads(out)
        assert data["exposed"] == [8]
        assert [(v["constraint"], v["witness"], v["lhs"], v["rhs"])
                for v in data["check"]["violations"]] == \
            [("cs-matched-edge-tight", [8, 10], "-2", "0")]
        assert err == "1 violations\n"

    @pytest.mark.parametrize("j", [0, 2])
    @pytest.mark.parametrize("spoil", SPOILED_SNAPSHOTS)
    def test_auxiliary_decodes_snapshot_k_alone(self, capsys, tmp_path, p4_file,
                                                spoil, j):
        """A malformed snapshot other than k leaves `reduce` as it was;
        `verify`, which reads the whole file, refuses it."""
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        argv = ["reduce", p4_file, "--auxiliary", f"{run_path}:1"]
        intact = run_cli(capsys, *argv)
        assert intact[0] == 0
        rewrite_snapshots(run_path, lambda snaps: spoil(snaps[j]))
        assert run_cli(capsys, *argv) == intact
        assert run_cli(capsys, "verify", p4_file, "--run", str(run_path))[0] == 3

    @pytest.mark.parametrize("spoil", SPOILED_SNAPSHOTS)
    def test_auxiliary_malformed_snapshot_k_is_input_error(self, capsys, tmp_path,
                                                           p4_file, spoil):
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        rewrite_snapshots(run_path, lambda snaps: spoil(snaps[1]))
        code, out, err = run_cli(capsys, "reduce", p4_file, "--auxiliary", f"{run_path}:1")
        assert (code, out) == (3, "")
        assert "Traceback" not in err

    def test_auxiliary_snapshot_k_of_another_node_count(self, capsys, tmp_path, p4_file):
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        rewrite_snapshots(run_path, lambda snaps: snaps[1]["duals"]["singletons"].pop("4"))
        assert_input_error(
            run_cli(capsys, "reduce", p4_file, "--auxiliary", f"{run_path}:1"),
            "snapshot k=1 has duals for 3 nodes, but the instance has 4")

    def test_auxiliary_uses_the_first_snapshot_of_cardinality_k(self, capsys, tmp_path,
                                                               p4_file):
        """Of two snapshots with k=1, the first is completed: a forged copy
        after it changes nothing, and before it fails the check."""
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        argv = ["reduce", p4_file, "--auxiliary", f"{run_path}:1"]
        intact = run_cli(capsys, *argv)
        forged = json.loads(run_path.read_text())["snapshots"][1]
        forged["duals"]["singletons"]["2"] = "3/2"
        rewrite_snapshots(run_path, lambda snaps: snaps.insert(2, forged))
        assert run_cli(capsys, *argv) == intact
        rewrite_snapshots(run_path, lambda snaps: snaps.insert(1, forged))
        assert run_cli(capsys, *argv)[0] == 2

    def test_auxiliary_missing_snapshot(self, capsys, tmp_path, p4_file):
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        code, _, err = run_cli(capsys, "reduce", p4_file,
                               "--auxiliary", f"{run_path}:9")
        assert code == 3
        assert "no snapshot" in err

    @pytest.mark.parametrize("k", ["+1", "1_0", "\u0661", "-1", ""])
    def test_auxiliary_k_takes_ascii_digits_only(self, capsys, tmp_path, p4_file, k):
        run_path = tmp_path / "run.json"
        run_cli(capsys, "solve", p4_file, "--snapshots", str(run_path))
        code, out, err = run_cli(capsys, "reduce", p4_file,
                                 "--auxiliary", f"{run_path}:{k}")
        assert code == 3
        assert out == ""
        assert "digits 0-9" in err


class TestScenarioReport:
    def test_p4_single_amount(self, p4):
        report = compare_dual_policies(p4, [1])
        assert report.divergence is None
        assert report.scripted_error is None
        # The weights stay optimal, yet moving one tree alone leaves an
        # exposed node below the others' accumulated dual.
        assert [v.constraint for v in report.scripted_verdict.violations] == \
            ["cs-exposed-zero-y:k=1"]
        assert report.scripted[-1] == (2, 10)
        assert report.oracle_minima == (0, 1, 10)

    def test_divergence_iff_suboptimal(self):
        report = compare_dual_policies(figure2_instance(), [1, 1, 3])
        scripted = dict(report.scripted)
        suboptimal = [k for k, w in scripted.items()
                      if w > report.oracle_minima[k]]
        assert report.divergence == min(suboptimal)

    def test_bad_amount_reported_as_scripted_error(self, p4):
        report = compare_dual_policies(p4, ["1/0"])
        assert report.scripted is None and report.scripted_verdict is None
        assert report.scripted_error == "zero denominator in '1/0'"
        assert report.uniform[-1] == (2, 10)


def test_module_entry_point(tmp_path):
    path = tmp_path / "p4.dimacs"
    path.write_text(P4_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "matchcert", "solve", str(path), "--verify"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "perfect-found"
