import os
import sys
from pathlib import Path

import pytest

# Write no bytecode into src/, in this process or in the commands the tests
# start: a checkout's first run should find no __pycache__ left by the tests.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from matchcert.cli import figure2_instance  # noqa: E402
from matchcert.graph import Instance  # noqa: E402

# pyproject's `pythonpath` puts src/ on this process's path; commands the
# tests start as subprocesses need it too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def p4() -> Instance:
    # Path 1-2-3-4 with weights 5, 1, 5 (1-based labels).
    return Instance.from_edges(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5)])


@pytest.fixture
def triangle() -> Instance:
    # w12 = 1, w13 = 2, w23 = 3.
    return Instance.from_edges(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)])


@pytest.fixture
def fig2() -> Instance:
    return figure2_instance()


@pytest.fixture
def nested_blossom_instance() -> Instance:
    # Triangle 0-1-2 plus the path 2-3-4-0; the run shrinks the triangle,
    # then shrinks an outer blossom around it.
    return Instance.from_edges(
        5, [(0, 1, 0), (1, 2, 0), (0, 2, 0), (2, 3, 2), (3, 4, 0), (0, 4, 2)])


@pytest.fixture
def c5_two_tails() -> Instance:
    # Unit-weight 5-cycle with pendants at nodes 0 and 3. Drives the run
    # through a shrink, an S-labeled blossom with dual 0 (alpha = 0), and
    # the deshrink that follows.
    return Instance.from_edges(
        7, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (0, 4, 1),
            (0, 5, 1), (3, 6, 1)])
