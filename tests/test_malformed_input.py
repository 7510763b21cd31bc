"""Malformed input never escapes `cli.main` as a traceback.

Seeded edits of a valid snapshots file and a valid instance file, and
malformed option values, run through every command that reads them. Each
call must end in an exit code of 0 to 3 with no exception from `main`; an
input error (exit 3) prints nothing on stdout and one line on stderr,
starting `error:` or `input error:`. argparse's own exit on a bad option
value counts as exit 3: it raises SystemExit(3) and ends stderr with its
`error:` line under the usage.
"""

import json
import random

import pytest

from matchcert.cli import main

# Six nodes with a negative weight (so the file records a normalization
# shift) and an odd cycle (so some snapshot's duals hold a blossom).
INSTANCE = ("p edge 6 8\ne 1 2 -2\ne 2 3 1\ne 1 3 2\ne 3 4 4\n"
            "e 4 5 1\ne 5 6 3\ne 4 6 2\ne 2 5 5\n")

# What an edited snapshots file holds in place of one value.
VALUES = [None, True, False, 0, -1, 2**70, 1.5, "", "x", "1/0", [], {}, [[1, 2]]]

# Tokens put into an instance file, an amounts file or an option value.
TOKENS = ["1/0", "1e3", "١", "+1", "99999999999999999999", "NaN",
          "0", "-1", "2", "3/7", "0.5", "e", "p", "edge"]


def call(capsys, argv: list[str]) -> int:
    """Run `main(argv)` and check how it ended; returns the exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse, on a malformed option value
        out, err = capsys.readouterr()
        assert exc.code == 3 and out == "", (argv, err)
        assert "error:" in err.splitlines()[-1], (argv, err)
        return 3
    except Exception as exc:
        pytest.fail(f"{argv}: {exc!r} escaped main")
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    if code == 3:
        assert out == "", (argv, out)
        assert err.count("\n") == 1 and err.startswith(("error:", "input error:")), \
            (argv, err)
    return code


def paths(data) -> list[tuple]:
    """The path of keys and indices to every value in a JSON tree."""
    found = []
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        found.append((key,))
        if isinstance(value, (dict, list)):
            found += [(key, *rest) for rest in paths(value)]
    return found


def edited(data, rng: random.Random):
    """A copy of `data` with one value, anywhere in the tree, replaced by
    one of VALUES or deleted."""
    data = json.loads(json.dumps(data))
    *parents, last = rng.choice(paths(data))
    holder = data
    for key in parents:
        holder = holder[key]
    if rng.random() < 0.2:
        del holder[last]
    else:
        holder[last] = rng.choice(VALUES)
    return data


def edited_text(text: str, rng: random.Random) -> str:
    """`text` with one of its tokens replaced or dropped, or a token of
    TOKENS added."""
    lines = [line.split() for line in text.splitlines()]
    row = rng.choice(lines)
    at = rng.randrange(len(row))
    action = rng.choice(("replace", "add", "drop"))
    if action == "replace":
        row[at] = rng.choice(TOKENS)
    elif action == "add":
        row.insert(at, rng.choice(TOKENS))
    else:
        del row[at]
    return "\n".join(" ".join(row) for row in lines) + "\n"


def test_edited_snapshots_files(capsys, tmp_path):
    inst_path, run_path = tmp_path / "inst.dimacs", tmp_path / "run.json"
    inst_path.write_text(INSTANCE)
    assert call(capsys, ["solve", str(inst_path), "--snapshots", str(run_path)]) == 0
    valid = json.loads(run_path.read_text())
    assert "normalization" in valid and any(s["duals"]["blossoms"]
                                            for s in valid["snapshots"])
    rng = random.Random(11)
    codes = []
    for _ in range(600):
        run_path.write_text(json.dumps(edited(valid, rng)))
        codes.append(call(capsys, ["verify", str(inst_path), "--run", str(run_path)]))
        k = rng.randrange(len(valid["snapshots"]) + 1)
        codes.append(call(capsys, ["reduce", str(inst_path),
                                   "--auxiliary", f"{run_path}:{k}"]))
    assert {0, 2, 3} <= set(codes)


def test_edited_instances_and_option_values(capsys, tmp_path):
    valid_path, inst_path = tmp_path / "valid.dimacs", tmp_path / "inst.dimacs"
    amounts_path = tmp_path / "amounts.txt"
    valid_path.write_text(INSTANCE)
    rng = random.Random(13)
    codes = []
    for _ in range(150):
        inst_path.write_text(edited_text(INSTANCE, rng))
        tokens = " ".join(rng.choices(TOKENS, k=rng.randint(1, 3)))
        amounts_path.write_text(tokens + "\n")
        for argv in (["solve", str(inst_path), "--verify", "--oracle-check"],
                     ["reduce", str(inst_path), "--doubled"],
                     ["solve", str(valid_path), "--policy", f"scripted={amounts_path}"],
                     ["solve", str(valid_path), "--beta", rng.choice(TOKENS)],
                     ["oracle", str(valid_path), "--limit", rng.choice(TOKENS)],
                     ["counterexample", "--amounts", tokens.replace(" ", ",")]):
            codes.append(call(capsys, argv))
    assert {0, 3} <= set(codes)
