"""The package's public names are exactly what the README documents, and
the benchmark's replays of the program still match it."""

import random
import re
import sys
from pathlib import Path

import matchcert
from matchcert import Instance, solve, verify_run

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names_match_readme_library_section():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    missing = [name for name in matchcert.__all__
               if not re.search(rf"\b{name}\b", section)]
    assert not missing, f"in __all__ but not in the README's Library section: {missing}"
    block = re.search(r"from matchcert import \(([^)]*)\)", section).group(1)
    imported = {name.strip() for name in block.split(",")}
    assert imported <= set(matchcert.__all__)


# The benchmark replays `solve` through the stepping API and `verify_run`
# from its parts; an engine change that breaks either replay fails here,
# before any benchmark run.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import corpus  # noqa: E402
import tracing  # noqa: E402


def benchmark_instances():
    for seed in range(5):
        yield Instance.from_edges(64, corpus.sparse_edges(random.Random(seed), n=64))
    yield Instance.from_edges(*corpus.ladder_edges(random.Random(0)))


def test_benchmark_replays_equal_the_program():
    for inst in benchmark_instances():
        run = tracing.stepping_solve(inst, tracing.Tracer())
        assert run == solve(inst)
        assert tracing.traced_verify(inst, run, tracing.Tracer()) == verify_run(inst, run)
