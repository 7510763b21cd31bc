"""The instance formatter, which writes each edge from the scaled int
weights, against the per-edge Fraction reference: on Hypothesis instances
with negative, decimal and fractional weights, as read and as doubled.

Hypothesis is test-only; the module is skipped without it.
"""

import pytest

from matchcert.graph import Instance, format_instance, parse_instance
from matchcert.reductions import build_doubled_graph
from util import fresh_scaled_weights, reference_format_instance

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# Weights as a file writes them: integers, exact decimals, fractions.
WEIGHT_TEXTS = st.one_of(
    st.integers(-1000, 1000).map(str),
    st.builds("{}{}.{:03d}".format, st.sampled_from(("", "-")),
              st.integers(0, 99), st.integers(0, 999)),
    st.builds("{}/{}".format, st.integers(-1000, 1000), st.integers(1, 60)),
)


@st.composite
def instances(draw) -> Instance:
    """Up to 12 nodes, edges in drawn order, one drawn weight each."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Instance.from_edges(n, [(u, v, draw(WEIGHT_TEXTS)) for u, v in chosen])


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(instances())
def test_format_matches_the_per_edge_reference(inst):
    text = format_instance(inst)
    assert text == reference_format_instance(inst)
    assert parse_instance(text) == inst
    doubled = build_doubled_graph(inst)
    assert doubled.scaled_weights == fresh_scaled_weights(doubled)
    assert format_instance(doubled) == reference_format_instance(doubled)
