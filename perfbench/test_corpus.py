"""The corpus is a pure function of (workload, seed).

    python3 -m pytest perfbench/test_corpus.py
"""

import corpus
import pytest


def _files(workload: str, seed: int, out_dir) -> dict[str, bytes]:
    instances = corpus.generate(workload, seed, 3, out_dir)
    return {i.path.name: i.path.read_bytes() for i in instances}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_byte_identical_files(workload, tmp_path):
    first = _files(workload, 7, tmp_path / "a")
    assert first == _files(workload, 7, tmp_path / "b")
    assert first != _files(workload, 8, tmp_path / "c")


def test_ladder_shape():
    n, edges = corpus.ladder_edges(corpus._rng("nested-ladder", 7, 0))
    assert n == 2 * corpus.LADDER_DEPTH + 4
    assert len(edges) == 3 * corpus.LADDER_DEPTH + 4
    assert len({(u, v) for u, v, _ in edges}) == len(edges)
    assert all(u < v for u, v, _ in edges)


def test_sparse_shape():
    edges = corpus.sparse_edges(corpus._rng("sparse-certify", 7, 0))
    assert len(edges) == corpus.SPARSE_NODES * corpus.SPARSE_DEGREE // 2
    assert len({(u, v) for u, v, _ in edges}) == len(edges)
    low, high = corpus.SPARSE_WEIGHTS
    assert all(low <= w <= high for _, _, w in edges)
