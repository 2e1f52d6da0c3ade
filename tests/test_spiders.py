import copy
import pickle
import re
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import spider_params
from references import build_graph, degree_array, export_graph, is_connected, spider_roles
from spidernets import cli, spiders
from spidernets.spiders import (
    ConsistencyError,
    SpiderParams,
    build_spider,
    decimal_digits,
    edge_count,
    export_size,
    export_spider,
    node_count,
    normalize,
    pair_count,
)


DEFAULT_GRID = cli.iter_grid(8, 5, 6, 2000)
# The stars and paths, up to 20,000 nodes, on which the export size bound is checked.
SIZE_SHAPES = [(1, 0, 0), (1, 10, 1), (1, 100, 1), (100, 0, 0), (1, 1, 3999), (1, 19999, 1)]


def export_text(p, fmt):
    """The export of a spider as one string, its chunks joined."""
    return "".join(export_spider(p, fmt))


def scheme_edges(p):
    """The spider's edges written out from the documented id scheme."""
    m, k, l = p.m, p.k, p.l
    edges = [(u, v) for u in range(m) for v in range(u + 1, m)]
    for core in range(m):
        for leg in range(k):
            prev = core
            for pos in range(1, l + 1):
                node = m + core * k * l + leg * l + (pos - 1)
                edges.append((prev, node))
                prev = node
    return edges


class TestNormalize:
    def test_zero_legs_clears_length(self):
        assert normalize(3, 0, 5) == SpiderParams(3, 0, 0)

    def test_zero_length_clears_legs(self):
        assert normalize(3, 2, 0) == SpiderParams(3, 0, 0)

    def test_identity_on_valid(self):
        assert normalize(1, 1, 7) == SpiderParams(1, 1, 7)

    def test_core_must_be_positive(self):
        with pytest.raises(ValueError):
            normalize(0, 1, 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize(2, -1, 3)

    def test_unnormalized_ctor_rejected(self):
        with pytest.raises(ValueError):
            SpiderParams(3, 2, 0)

    def test_replace_and_make_are_checked(self):
        with pytest.raises(ValueError, match="not normalized"):
            normalize(2, 1, 1)._replace(k=0)
        with pytest.raises(ValueError, match="core size must be >= 1, got 0"):
            SpiderParams._make((0, 1, 1))
        assert normalize(2, 1, 1)._replace(l=3) == SpiderParams(2, 1, 3)

    def test_range_errors_name_long_values_by_digit_count(self):
        with pytest.raises(ValueError, match=r"^k=0 l=a 61-digit integer not normalized"):
            SpiderParams(1, 0, 10**60)
        with pytest.raises(ValueError, match=r"got k=-2 l=a 61-digit integer$"):
            normalize(3, -2, 10**60)
        with pytest.raises(ValueError, match=r"got a 61-digit negative integer$"):
            normalize(-(10**60), 1, 1)

    def test_copy_and_pickle_give_an_equal_record(self):
        p = normalize(2, 1, 1)
        for twin in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is SpiderParams and twin == p

    def test_repr_names_the_fields(self):
        assert repr(SpiderParams(2, 1, 1)) == "SpiderParams(m=2, k=1, l=1)"


class TestCounts:
    @pytest.mark.parametrize(
        "m,k,l,nodes", [(2, 2, 1, 6), (1, 1, 4, 5), (3, 2, 2, 15), (1, 0, 0, 1)]
    )
    def test_node_count(self, m, k, l, nodes):
        assert node_count(normalize(m, k, l)) == nodes

    @pytest.mark.parametrize(
        "m,k,l,edges", [(2, 2, 1, 5), (4, 0, 0, 6), (1, 3, 2, 6), (1, 0, 0, 0)]
    )
    def test_edge_count(self, m, k, l, edges):
        assert edge_count(normalize(m, k, l)) == edges

    @pytest.mark.parametrize(
        "m,k,l,pairs", [(2, 2, 1, 15), (1, 1, 1, 1), (3, 1, 2, 36), (1, 0, 0, 0)]
    )
    def test_pair_count(self, m, k, l, pairs):
        assert pair_count(normalize(m, k, l)) == pairs


class TestBuildSpider:
    def test_single_segment(self):
        g = build_spider(normalize(1, 1, 1))
        assert g.n == 2 and g.num_edges == 1

    def test_h_graph_layout(self):
        g = build_spider(normalize(2, 2, 1))
        assert g.adjacency[0] == (1, 2, 3)
        assert g.adjacency[1] == (0, 4, 5)
        assert g.adjacency[2] == (0,)
        assert g.adjacency[5] == (1,)

    def test_star_shape(self):
        assert degree_array(build_spider(normalize(1, 3, 1))) == (3, 1, 1, 1)

    def test_path_shapes(self):
        for p in (normalize(1, 1, 5), normalize(2, 1, 2)):
            degrees = degree_array(build_spider(p))
            assert degrees.count(1) == 2
            assert all(d <= 2 for d in degrees)

    def test_degenerate_single_node(self):
        g = build_spider(normalize(1, 0, 0))
        assert g.n == 1 and g.num_edges == 0

    @given(spider_params)
    def test_counts_and_connectivity(self, p):
        g = build_spider(p)
        assert g.n == node_count(p)
        assert g.num_edges == edge_count(p)
        assert is_connected(g)

    @pytest.mark.parametrize("m,k,l", [(10, 7, 9), (3, 8, 25), (70, 1, 1), (8, 5, 6)])
    def test_larger_spiders_stay_consistent(self, m, k, l):
        p = normalize(m, k, l)
        assert node_count(p) <= 5000
        g = build_spider(p)
        assert g.num_edges == edge_count(p)
        assert is_connected(g)

    @pytest.mark.parametrize(
        "p",
        DEFAULT_GRID
        + [
            normalize(*shape)
            for shape in [(1, 0, 0), (1, 7, 1), (3, 9, 1), (998, 0, 0), (1, 19999, 1)]
        ],
        ids=lambda p: f"{p.m},{p.k},{p.l}",
    )
    def test_equals_build_graph_on_the_scheme_edges(self, p):
        assert build_spider(p) == build_graph(node_count(p), scheme_edges(p))

    @given(spider_params)
    def test_equals_build_graph_on_random_params(self, p):
        assert build_spider(p) == build_graph(node_count(p), scheme_edges(p))

    def test_edge_count_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(spiders, "edge_count", lambda p: 0)
        with pytest.raises(ConsistencyError, match="edge count"):
            build_spider(normalize(2, 2, 1))

    def test_pair_count_mismatch_raises(self, monkeypatch):
        monkeypatch.setattr(spiders, "node_count", lambda p: 7)
        with pytest.raises(ConsistencyError, match="pair count"):
            pair_count(normalize(2, 2, 1))


def dot_role(text, node):
    """The role that a dot export gives a node id."""
    return text.split(f"\n  {node} [role=\"", 1)[1].split('"', 1)[0]


class TestLabels:
    def test_core_block_comes_first(self):
        # node 3 is position 1 of leg 0 of core node 0
        text = export_text(normalize(3, 2, 2), "dot")
        assert (dot_role(text, 2), dot_role(text, 3)) == ("core", "leg")
        assert "\n  0 -- 3;\n" in text

    def test_roles(self):
        text = export_text(normalize(2, 1, 2), "dot")
        assert dot_role(text, 0) == "core"
        assert dot_role(text, 2) == "leg"
        assert dot_role(text, 3) == "terminal"

    def test_length_one_legs_are_terminal(self):
        text = export_text(normalize(2, 2, 1), "dot")
        assert all(dot_role(text, u) == "terminal" for u in range(2, 6))


class TestExport:
    def test_edge_list_single_segment(self):
        assert export_text(normalize(1, 1, 1), "edge-list") == "0 1\n"

    def test_edge_list_complete(self):
        text = export_text(normalize(4, 0, 0), "edge-list")
        assert text.splitlines() == ["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"]

    def test_adjacency_csv_h_graph(self):
        rows = [
            line.split(",") for line in export_text(normalize(2, 2, 1), "adjacency-csv").splitlines()
        ]
        assert len(rows) == 6 and all(len(r) == 6 for r in rows)
        assert sum(value == "1" for row in rows for value in row) == 10
        for i in range(6):
            assert rows[i][i] == "0"
            for j in range(6):
                assert rows[i][j] == rows[j][i]

    def test_adjacency_csv_equals_membership_test(self):
        # The row-by-row membership test, written out.
        for p in DEFAULT_GRID + [normalize(1, 1, 300)]:
            g = build_spider(p)
            rows = []
            for u in range(g.n):
                nbrs = set(g.adjacency[u])
                rows.append(",".join("1" if v in nbrs else "0" for v in range(g.n)))
            assert export_text(p, "adjacency-csv") == "".join(row + "\n" for row in rows)

    @pytest.mark.parametrize("fmt", spiders.EXPORT_FORMATS)
    def test_equals_the_reference(self, fmt):
        shapes = SIZE_SHAPES + [(1, 1, 1999), (1, 2999, 1)]
        for p in DEFAULT_GRID + [normalize(*shape) for shape in shapes]:
            if fmt == "adjacency-csv" and node_count(p) > 3000:
                continue  # n * n characters
            assert export_text(p, fmt) == export_graph(build_spider(p), fmt, spider_roles(p))

    @given(spider_params)
    def test_equals_the_reference_on_random_params(self, p):
        for fmt in spiders.EXPORT_FORMATS:
            assert export_text(p, fmt) == export_graph(build_spider(p), fmt, spider_roles(p))

    @pytest.mark.parametrize("shape", [(1, 1, 200000), (100, 10, 200)])
    def test_edge_list_and_dot_need_no_graph_and_little_memory(self, shape, monkeypatch):
        def refuse(*args):
            raise AssertionError("an edge list or dot file builds no graph")

        monkeypatch.setattr(spiders, "build_spider", refuse)
        monkeypatch.setattr(spiders, "Graph", refuse)
        p = normalize(*shape)
        for fmt in ("edge-list", "dot"):
            tracemalloc.start()
            try:
                size = sum(map(len, export_spider(p, fmt)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert size > 10**6
            assert peak < 2 * 10**6  # the whole export takes several MB

    def test_dot_roles(self):
        text = export_text(normalize(1, 1, 3), "dot")
        assert text.startswith("graph spider {\n")
        assert '0 [role="core"];' in text
        assert text.count('role="leg"') == 2
        assert text.count('role="terminal"') == 1
        assert "2 -- 3;" in text

    @pytest.mark.parametrize(
        "shape,fmt",
        [(shape, fmt) for shape in [(1, 0, 0), (3, 2, 2), (150, 0, 0), (1, 1, 999)]
         for fmt in spiders.EXPORT_FORMATS]
        + [((3, 4, 2000), "edge-list"), ((3, 4, 2000), "dot")],
    )
    def test_chunks_are_whole_lines_within_the_bound(self, shape, fmt):
        p = normalize(*shape)
        chunks = list(export_spider(p, fmt))
        text = "".join(chunks)
        longest = max(map(len, text.splitlines(keepends=True)), default=0)
        assert all(chunk.endswith("\n") for chunk in chunks)
        assert all(len(chunk) <= max(spiders.CHUNK, longest) for chunk in chunks)
        # lines are batched, not written one by one
        assert len(chunks) <= 1 + 4 * len(text) // spiders.CHUNK

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown export format 'graphml'"):
            export_spider(normalize(1, 1, 1), "graphml")

    def test_deterministic(self):
        p = normalize(3, 2, 2)
        assert export_text(p, "edge-list") == export_text(p, "edge-list")
        assert export_text(p, "dot") == export_text(p, "dot")

    def test_size_is_exact_for_adjacency_csv(self):
        for p in DEFAULT_GRID + [normalize(1, 0, 0)]:
            assert export_size(p, "adjacency-csv") == len(export_text(p, "adjacency-csv"))

    @pytest.mark.parametrize("fmt", ["edge-list", "dot"])
    def test_size_bounds_the_export_within_twice(self, fmt):
        for p in DEFAULT_GRID + [normalize(*shape) for shape in SIZE_SHAPES]:
            text = export_text(p, fmt)
            assert len(text) <= export_size(p, fmt) <= 2 * len(text)
            # the bound is the export with every id as wide as the largest, every role "terminal"
            width = len(str(node_count(p) - 1))
            widest = re.sub(r"\d+", lambda digits: digits[0].zfill(width), text)
            assert export_size(p, fmt) == len(re.sub(r'role="\w+"', 'role="terminal"', widest))

    @pytest.mark.parametrize(
        "shape,fmt",
        [((10**40000, 0, 0), "edge-list"), ((10**40000, 0, 0), "dot"),
         ((1, 1, 40000), "adjacency-csv")],
    )
    def test_a_line_past_the_chunk_size_gets_a_chunk_of_its_own(self, shape, fmt):
        # ids of 40,000 digits, or CSV rows of 80,002 characters, may reach past CHUNK
        first = next(iter(export_spider(normalize(*shape), fmt)))
        assert first.endswith("\n") and first.count("\n") == 1

    @given(st.integers(min_value=0, max_value=10**4000))
    @example(0)
    @example(9)
    @example(10)
    @example(10**4000 - 1)
    def test_decimal_digits_count_like_str(self, value):
        assert decimal_digits(value) == len(str(value))

    def test_decimal_digits_corrects_an_estimate_one_too_high(self):
        # Below 10**7 bits the estimate of a true bit length is never too high (checked exactly
        # against log10(2) to 50 digits); overstating it by 3 bits (0.9 digits) makes it so.
        class Overstated(int):
            def bit_length(self):
                return super().bit_length() + 3

        values = list(range(2000)) + [10**j + d for j in range(4, 60) for d in (-1, 0, 1)]
        assert [decimal_digits(Overstated(v)) for v in values] == [len(str(v)) for v in values]
        assert decimal_digits(Overstated(9)) == 1  # estimated as 2

    @given(st.integers(min_value=-(10**80), max_value=10**80))
    @example(10**50 - 1)
    @example(10**50)
    @example(-(10**50))
    def test_decimal_text_shows_at_most_fifty_digits(self, value):
        digits = len(str(abs(value)))
        sign = "negative " if value < 0 else ""
        expected = str(value) if digits <= 50 else f"a {digits}-digit {sign}integer"
        assert spiders.decimal_text(value) == expected

    def test_size_of_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            export_size(normalize(1, 1, 1), "graphml")

    def test_single_node_exports(self):
        p = normalize(1, 0, 0)
        assert export_text(p, "edge-list") == ""
        assert export_text(p, "adjacency-csv") == "0\n"
