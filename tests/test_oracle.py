import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from matchcert.cli import figure2_instance
from matchcert.graph import Instance, matching_weight
from matchcert.oracle import min_weight_by_cardinality
from util import naive_min_by_cardinality, random_instance


def test_triangle(triangle):
    table = min_weight_by_cardinality(triangle)
    assert table.nu == 1
    assert table.min_weight(0) == 0
    assert table.min_weight(1) == 1
    assert table.witness(1).sorted_edges() == ((0, 1),)


def test_p4(p4):
    table = min_weight_by_cardinality(p4)
    assert table.nu == 2
    assert [table.min_weight(k) for k in range(3)] == [0, 1, 10]
    assert table.witness(2).sorted_edges() == ((0, 1), (2, 3))


def test_figure2():
    table = min_weight_by_cardinality(figure2_instance())
    assert table.nu == 4
    assert table.min_weight(4) == 3
    # The optimal cardinality-4 matching uses the weight-3 tip edge.
    assert (0, 1) in table.witness(4)


def test_empty_graph():
    inst = Instance.from_edges(3, [])
    table = min_weight_by_cardinality(inst)
    assert table.nu == 0 and table.min_weight(0) == 0


def test_budget():
    inst = Instance.from_edges(17, [(0, 1, 1)])
    with pytest.raises(ValueError):
        min_weight_by_cardinality(inst)
    assert min_weight_by_cardinality(inst, limit=17).nu == 1


def test_long_path_within_a_low_recursion_limit():
    # The search decides one node per level; an explicit stack keeps that
    # depth off the interpreter's, so 300 nodes pass a limit of 200.
    code = (
        "import sys\n"
        "from matchcert.graph import Instance\n"
        "from matchcert.oracle import min_weight_by_cardinality\n"
        "sys.setrecursionlimit(200)\n"
        "inst = Instance.from_edges(300, [(v, v + 1, v % 3) for v in range(299)])\n"
        "print(min_weight_by_cardinality(inst, limit=300).nu)\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "150"


def test_long_path_memory():
    # The memo keeps one int per mask and cardinality; a memo that keeps
    # each entry's witness tuple peaks near 20 MB on this path.
    inst = Instance.from_edges(400, [(v, v + 1, v % 3) for v in range(399)])
    inst.scaled_weights  # cached on the instance, outside the measurement
    tracemalloc.start()
    try:
        table = min_weight_by_cardinality(inst, limit=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nu == 200
    assert peak < 6_000_000


def test_fractional_weights():
    inst = Instance.from_edges(4, [(0, 1, "1/3"), (1, 2, "1/6"), (2, 3, "1/2")])
    table = min_weight_by_cardinality(inst)
    assert table.min_weight(1) == Fraction(1, 6)
    assert table.min_weight(2) == Fraction(5, 6)


def test_against_independent_enumeration():
    rng = random.Random(101)
    for _ in range(40):
        inst = random_instance(rng, max_nodes=8, low=-6, high=12)
        table = min_weight_by_cardinality(inst)
        reference = naive_min_by_cardinality(inst)
        assert table.nu == max(reference)
        for k in range(table.nu + 1):
            weight, witness = reference[k]
            assert table.min_weight(k) == weight
            assert table.witness(k).sorted_edges() == witness
            assert matching_weight(inst, table.witness(k)) == weight


def test_equal_weights_take_the_first_witness():
    # Every matching of a cardinality ties, so the witness is decided by
    # the tie-break alone: the smallest sorted edge tuple.
    rng = random.Random(103)
    for _ in range(30):
        inst = random_instance(rng, max_nodes=8, low=2, high=2)
        table = min_weight_by_cardinality(inst)
        reference = naive_min_by_cardinality(inst)
        assert table.nu == max(reference)
        for k in range(table.nu + 1):
            assert (table.min_weight(k), table.witness(k).sorted_edges()) == reference[k]
