import random
import sys
from fractions import Fraction

import pytest

from matchcert.cli import figure2_instance
from matchcert.engine import solve
from matchcert.graph import (Instance, Matching, ParseError,
                             alternating_path_difference, format_instance,
                             matching_weight, normalize_weights, parse_instance,
                             parse_rational)
from matchcert.reductions import build_auxiliary_completion, build_doubled_graph
from util import (naive_min_by_cardinality, random_instance,
                  reference_path_difference)


def random_matching(rng: random.Random, n: int) -> Matching:
    """Pairs of a shuffled node order, each kept with probability 0.6."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    return Matching.from_pairs((u, v) for u, v in zip(nodes[::2], nodes[1::2])
                               if rng.random() < 0.6)


class TestParseInstance:
    def test_basic(self):
        inst = parse_instance("p edge 3 2\ne 1 2 5\ne 2 3 1")
        assert inst.node_count == 3
        assert len(inst.edges) == 2
        assert inst.edges[0] == (0, 1, Fraction(5))
        assert inst.edges[1] == (1, 2, Fraction(1))

    def test_comments_and_blank_lines(self):
        inst = parse_instance("c hello\n\np edge 2 1\nc mid\ne 1 2 7/2\n")
        assert inst.edges[0].weight == Fraction(7, 2)

    def test_exact_decimal_and_fraction_weights(self):
        inst = parse_instance("p edge 2 1\ne 1 2 -2.5")
        assert inst.edges[0].weight == Fraction(-5, 2)

    def test_self_loop_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p edge 2 1\ne 1 1 0")
        assert err.value.line == 2
        assert "self-loop" in str(err.value)

    def test_duplicate_edge(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p edge 3 2\ne 1 2 1\ne 2 1 4")
        assert err.value.line == 3

    def test_out_of_range_node(self):
        with pytest.raises(ParseError) as err:
            parse_instance("p edge 2 1\ne 1 3 0")
        assert err.value.line == 2

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_instance("p edge x 1\ne 1 2 0")
        with pytest.raises(ParseError):
            parse_instance("p nodes 2 1\ne 1 2 0")

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_instance("p edge 3 2\ne 1 2 1")

    def test_edge_before_header(self):
        with pytest.raises(ParseError):
            parse_instance("e 1 2 1\np edge 2 1")

    @pytest.mark.parametrize("text, line", [
        ("p edge 1_0 1\ne 1 2 5", 1),
        ("p edge 2 0_1\ne 1 2 5", 1),
        ("p edge +3 1\ne 1 2 5", 1),
        ("p edge \u0663 1\ne 1 2 5", 1),
        ("p edge 10 1\ne 1_0 1 5", 2),
        ("p edge 10 1\ne \u0661 10 5", 2),
        ("p edge 10 1\ne +3 1 5", 2),
        ("p edge 10 1\ne 1 +3 5", 2),
    ])
    def test_counts_and_node_ids_take_ascii_digits_only(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == line

    def test_node_count_beyond_an_index_rejected_on_its_line(self):
        with pytest.raises(ParseError, match="^line 2: node count") as err:
            parse_instance(f"c big\np edge {sys.maxsize + 1} 1\ne 1 2 1")
        assert err.value.line == 2
        assert parse_instance(f"p edge {sys.maxsize} 0").node_count == sys.maxsize

    def test_bad_weight(self):
        with pytest.raises(ParseError):
            parse_instance("p edge 2 1\ne 1 2 fast")

    def test_figure2_file_matches_builtin(self):
        text = ("p edge 9 9\n"
                "e 1 4 0\ne 2 5 0\ne 3 6 0\n"
                "e 4 7 0\ne 5 8 0\ne 6 9 0\n"
                "e 1 2 3\ne 2 3 5\ne 1 3 4\n")
        assert parse_instance(text) == figure2_instance()

    def test_round_trip(self):
        inst = parse_instance("p edge 3 2\ne 1 2 5\ne 2 3 -7/3")
        assert parse_instance(format_instance(inst)) == inst


class TestParseRational:
    @pytest.mark.parametrize("text, value", [
        ("3", Fraction(3)), ("-3", Fraction(-3)), ("+3", Fraction(3)),
        ("-2.5", Fraction(-5, 2)), ("0.125", Fraction(1, 8)),
        ("7/2", Fraction(7, 2)), ("-14/4", Fraction(-7, 2)),
        ("+7", Fraction(7)), ("-0", Fraction(0)), ("007", Fraction(7)),
    ])
    def test_grammar(self, text, value):
        parsed = parse_rational(text)
        assert parsed == value and type(parsed) is Fraction

    @pytest.mark.parametrize("text", [
        "", " 3", "3 ", "1e5", "1E-5", "2.", ".5", "1/-2", "1/0", "1/2/3",
        "1.5/2", "inf", "nan", "0x10", "1_000", "\u0663", "--1",
        "1\u0663", "-\uff17", "\u0663/2",
    ])
    def test_rejects_everything_else(self, text):
        with pytest.raises(ValueError):
            parse_rational(text)


class TestInstanceInvariants:
    def test_rejects_float_weight(self):
        with pytest.raises(TypeError):
            Instance.from_edges(2, [(0, 1, 0.5)])

    def test_rejects_duplicate_unordered(self):
        with pytest.raises(ValueError):
            Instance.from_edges(3, [(0, 1, 1), (1, 0, 2)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Instance.from_edges(2, [(1, 1, 0)])

    def test_accessors(self):
        inst = Instance.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
        assert inst.edge_index(3, 2) == 2
        assert inst.edge_index(3, 0) == 3
        with pytest.raises(KeyError):
            inst.edge_index(0, 2)

    def test_edge_lookup_matches_a_scan(self, fig2):
        """`edge_index` agrees with a scan of the edges on every pair of ids
        from -2 to n + 1, either way round and u == v included: a pair
        outside 0 <= u < v < n is never an edge."""
        rng = random.Random(24)
        run = solve(fig2, phases=[[1, 1, 3]])
        instances = [random_instance(rng) for _ in range(20)] + [
            build_auxiliary_completion(fig2, run.snapshots[2]).aux_instance,
            build_doubled_graph(fig2)]
        for inst in instances:
            scan = {frozenset(e[:2]): i for i, e in enumerate(inst.edges)}
            ids = range(-2, inst.node_count + 2)
            for u in ids:
                for v in ids:
                    i = scan.get(frozenset((u, v)))
                    if i is None:
                        with pytest.raises(KeyError):
                            inst.edge_index(u, v)
                    else:
                        assert inst.edge_index(u, v) == i


class TestMatching:
    def test_rejects_shared_node(self):
        with pytest.raises(ValueError):
            Matching.from_pairs([(0, 1), (1, 2)])

    def test_characteristic_sums(self):
        m = Matching.from_pairs([(2, 1), (3, 4)])
        assert len(m) == 2
        assert m.covers(1) and not m.covers(0)
        assert m.count_inside({1, 2, 3}) == 1
        assert (4, 3) in m


class TestMatchingWeight:
    def test_empty(self, p4):
        assert matching_weight(p4, Matching.empty()) == 0

    def test_single_edge(self, p4):
        assert matching_weight(p4, Matching.from_pairs([(1, 2)])) == 1

    def test_two_edges(self, p4):
        assert matching_weight(p4, Matching.from_pairs([(0, 1), (2, 3)])) == 10

    def test_edge_not_in_instance(self, p4):
        with pytest.raises(ValueError):
            matching_weight(p4, Matching.from_pairs([(0, 2)]))


class TestNormalizeWeights:
    def test_already_nonnegative(self):
        inst = Instance.from_edges(4, [(0, 1, 1), (1, 2, 2), (2, 3, 3)])
        out, record = normalize_weights(inst)
        assert out is inst
        assert record.shift == 0

    def test_negative_minimum(self):
        inst = Instance.from_edges(3, [(0, 1, -5), (1, 2, 1)])
        out, record = normalize_weights(inst)
        assert record.shift == 5
        assert [e.weight for e in out.edges] == [0, 6]

    def test_all_equal_negative(self):
        inst = Instance.from_edges(3, [(0, 1, -2), (1, 2, -2)])
        out, record = normalize_weights(inst)
        assert record.shift == 2
        assert [e.weight for e in out.edges] == [0, 0]

    def test_weight_shift_law(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_instance(rng, max_nodes=8, low=-9, high=9)
            out, record = normalize_weights(inst)
            # Compare per-cardinality minima through the independent
            # enumerator: shifting preserves the argmin of each class.
            raw = naive_min_by_cardinality(inst)
            shifted = naive_min_by_cardinality(out)
            assert raw.keys() == shifted.keys()
            for k, (weight, witness) in raw.items():
                assert shifted[k][0] == weight + k * record.shift
                assert shifted[k][1] == witness


class TestAlternatingPathDifference:
    def test_equal_matchings(self):
        m = Matching.from_pairs([(0, 1)])
        result = alternating_path_difference(m, m)
        assert result.kind == "disconnected"
        assert result.components == ()

    def test_single_edge(self):
        result = alternating_path_difference(
            Matching.empty(), Matching.from_pairs([(1, 2)]))
        assert result.kind == "single-path"
        assert result.components == ((1, 2),)

    def test_p4_difference(self):
        m = Matching.from_pairs([(1, 2)])
        m2 = Matching.from_pairs([(0, 1), (2, 3)])
        result = alternating_path_difference(m, m2)
        assert result.kind == "single-path"
        assert result.components == ((0, 1, 2, 3),)

    def test_cycle_is_connected_other(self):
        m = Matching.from_pairs([(0, 1), (2, 3)])
        m2 = Matching.from_pairs([(1, 2), (0, 3)])
        result = alternating_path_difference(m, m2)
        assert result.kind == "connected-other"
        assert result.components == ((0, 1, 2, 3),)

    def test_two_components(self):
        m = Matching.from_pairs([(0, 1), (4, 5)])
        result = alternating_path_difference(m, Matching.empty())
        assert result.kind == "disconnected"
        assert result.components == ((0, 1), (4, 5))

    def test_symmetry(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 9)
            a, b = random_matching(rng, n), random_matching(rng, n)
            assert (alternating_path_difference(a, b)
                    == alternating_path_difference(b, a))

    def test_matches_reference(self):
        rng = random.Random(13)
        for _ in range(3000):
            n = rng.randint(2, 16)
            a, b = random_matching(rng, n), random_matching(rng, n)
            assert alternating_path_difference(a, b) == reference_path_difference(a, b)
        for _ in range(100):
            # One path, or with an even node count one cycle, through
            # every node in shuffled order.
            nodes = rng.sample(range(400), rng.randint(2, 400))
            steps = list(zip(nodes, nodes[1:]))
            if len(nodes) % 2 == 0 and len(nodes) >= 4 and rng.random() < 0.5:
                steps.append((nodes[-1], nodes[0]))
            a, b = Matching.from_pairs(steps[::2]), Matching.from_pairs(steps[1::2])
            assert alternating_path_difference(a, b) == reference_path_difference(a, b)
