import itertools
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import _expand, _expand_runs, connected_graphs, graphs
from references import (
    UNREACHABLE,
    all_pairs_distances,
    alpha_array,
    bfs_distances,
    build_graph,
    degree_array,
    density,
    gamma_array,
    h_index,
    is_connected,
    linear_runs_by_entry,
    ordered_pairs,
)
from spidernets import graph_core
from spidernets.graph_core import all_indicators, h_index_of_groups, linear_runs
from spidernets.closed_form import closed_form_report
from spidernets.spiders import build_spider, normalize


def mean_distance(g):
    """The average distance over unordered node pairs, from the indicator record."""
    return Fraction(all_indicators(g).total_distance, g.n * (g.n - 1) // 2)


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n):
    return build_graph(n, [(0, i) for i in range(1, n)])


def lollipop(head, tail):
    """A complete graph on head nodes with a path of tail more nodes hanging off it."""
    edges = [(i, j) for i in range(head) for j in range(i + 1, head)]
    edges += [(i, i + 1) for i in range(head - 1, head + tail - 1)]
    return build_graph(head + tail, edges)


def cycle_with_tail(ring, tail, at=0):
    """A cycle of ring nodes with a path of tail more nodes hanging off cycle node at."""
    edges = [(i, (i + 1) % ring) for i in range(ring)]
    edges += [(at, ring)] if tail else []
    edges += [(i, i + 1) for i in range(ring, ring + tail - 1)]
    return build_graph(ring + tail, edges)


@st.composite
def bridged_blocks(draw, max_blocks=6):
    """Small cycles, cliques and single nodes joined by bridges, with pendant paths.

    Each block either hangs off an earlier node by a bridge or starts a new
    component, so forests and disconnected graphs occur too.  The node ids
    are shuffled, so the peel order does not follow the build order.
    """
    edges, n = [], 0
    for _ in range(draw(st.integers(min_value=1, max_value=max_blocks))):
        kind = draw(st.sampled_from(["node", "cycle", "clique"]))
        size = 1 if kind == "node" else draw(st.integers(3 if kind == "cycle" else 2, 6))
        block = list(range(n, n + size))
        if kind == "cycle":
            edges += [(block[i], block[(i + 1) % size]) for i in range(size)]
        elif kind == "clique":
            edges += list(itertools.combinations(block, 2))
        if n and draw(st.integers(0, 3)):
            edges.append((draw(st.integers(0, n - 1)), draw(st.sampled_from(block))))
        n += size
        tail = draw(st.integers(0, 4))
        if tail:
            edges.append((draw(st.sampled_from(block)), n))
            edges += [(i, i + 1) for i in range(n, n + tail - 1)]
            n += tail
    label = draw(st.permutations(range(n)))
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def long_chains(draw):
    """Paths, caterpillars, brooms, spiders and cycles with tails; chains of up to 300 nodes.

    A depth histogram walked up a chain turns from an int into a bytearray
    past 32 lanes and back into an int where the walk stops, so these cross
    the switch both ways.  The node ids are shuffled, so the peel order
    does not follow the build order.
    """
    kind = draw(st.sampled_from(["path", "caterpillar", "broom", "spider", "cycle"]))
    if kind == "path":
        g = path(draw(st.integers(2, 400)))
    elif kind == "caterpillar":
        spine = draw(st.integers(2, 200))
        legs = sorted(draw(st.sets(st.integers(0, spine - 1), max_size=spine)))
        g = build_graph(spine + len(legs), [(i, i + 1) for i in range(spine - 1)]
                        + [(u, spine + i) for i, u in enumerate(legs)])
    elif kind == "broom":
        handle, bristles = draw(st.integers(1, 300)), draw(st.integers(1, 20))
        g = build_graph(handle + bristles, [(i, i + 1) for i in range(handle - 1)]
                        + [(handle - 1, handle + i) for i in range(bristles)])
    elif kind == "spider":
        m, k = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 3), (3, 1)]))
        g = build_spider(normalize(m, k, draw(st.integers(1, 300 if m * k <= 2 else 200))))
    else:
        ring = draw(st.integers(3, 12))
        tails = draw(st.lists(st.tuples(st.integers(0, ring - 1), st.integers(1, 200)),
                              min_size=1, max_size=3))
        edges, n = [(i, (i + 1) % ring) for i in range(ring)], ring
        for at, length in tails:
            edges += [(at, n)] + [(v, v + 1) for v in range(n, n + length - 1)]
            n += length
        g = build_graph(n, edges)
    label = list(range(g.n))
    random.Random(draw(st.integers(0, 2**32))).shuffle(label)
    edges = [(u, v) for u in range(g.n) for v in g.adjacency[u] if u < v]
    return build_graph(g.n, [(label[u], label[v]) for u, v in edges])


def pairs_by_distance(g):
    """Ordered pairs at each distance 0..n-1 from the all-pairs reference."""
    want = [0] * g.n
    for row in all_pairs_distances(g):
        for dist in row:
            if dist != UNREACHABLE:
                want[dist] += 1
    return want


def assert_sweep_matches_reference(g):
    """The folded count gives the reference's ordered pairs by distance, and so do the indicators.

    On a split graph it counts the pairs that a path joins.
    """
    assert ordered_pairs(g) == pairs_by_distance(g)
    assert_indicators_match_reference(g)


def assert_indicators_match_reference(g):
    d = all_pairs_distances(g)
    pairs = [d[u][v] for u in range(g.n) for v in range(u + 1, g.n)]
    if UNREACHABLE in pairs:
        for indicator in (alpha_array, all_indicators):
            with pytest.raises(ValueError):
                indicator(g)
        return
    alpha = tuple(pairs.count(j) for j in range(1, g.n))
    assert alpha_array(g) == alpha
    if g.n < 2:
        return
    assert mean_distance(g) == Fraction(sum(pairs), len(pairs))
    ind = all_indicators(g)
    assert (_expand_runs(ind.alpha), ind.diameter, ind.total_distance) == (
        alpha, max(pairs), sum(pairs)
    )


class TestBuildGraph:
    def test_single_segment(self):
        g = build_graph(2, [(0, 1)])
        assert g.n == 2 and g.num_edges == 1

    def test_duplicate_edges_collapse(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 1)])
        assert g.num_edges == 2

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_graph(4, [(0, 4)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            build_graph(3, [(1, 1)])

    def test_adjacency_is_sorted_and_symmetric(self):
        g = build_graph(4, [(2, 0), (3, 0), (1, 0)])
        assert g.adjacency[0] == (1, 2, 3)
        assert all(0 in g.adjacency[v] for v in (1, 2, 3))


class TestConnectivityAndDistances:
    def test_path_is_connected(self):
        assert is_connected(path(3))

    def test_isolated_nodes_not_connected(self):
        assert not is_connected(build_graph(2, []))

    def test_tiny_graphs_vacuously_connected(self):
        assert is_connected(build_graph(0, []))
        assert is_connected(build_graph(1, []))

    def test_spider_is_connected(self):
        assert is_connected(build_spider(normalize(3, 2, 2)))

    def test_path_distance(self):
        d = all_pairs_distances(path(3))
        assert d[0][2] == 2 and d[2][0] == 2

    def test_unreachable_marker(self):
        d = all_pairs_distances(build_graph(3, [(0, 1)]))
        assert d[0][2] == UNREACHABLE

    def test_h_graph_terminal_to_terminal(self):
        # terminals hanging off different core nodes are 3 apart
        g = build_spider(normalize(2, 2, 1))
        d = all_pairs_distances(g)
        assert d[2][4] == 3

    def test_leg_to_leg_across_core(self):
        # leg end, core, core, core, leg end: 2 + 1 + 2
        g = build_spider(normalize(3, 1, 2))
        d = all_pairs_distances(g)
        terminal_a = 4  # position 2 of core 0's leg
        terminal_b = 6  # position 2 of core 1's leg
        assert d[terminal_a][terminal_b] == 5


class TestDegreeArrays:
    def test_star(self):
        assert degree_array(build_spider(normalize(1, 3, 1))) == (3, 1, 1, 1)

    def test_complete(self):
        assert degree_array(complete(4)) == (3, 3, 3, 3)

    def test_three_core_spider(self):
        g = build_spider(normalize(3, 1, 2))
        assert degree_array(g) == (3, 3, 3, 2, 2, 2, 1, 1, 1)


class TestGammaArrays:
    def test_single_segment(self):
        assert gamma_array(path(2)) == (2, 2)

    def test_three_node_path(self):
        assert gamma_array(path(3)) == (4, 3, 3)

    def test_star(self):
        assert gamma_array(build_spider(normalize(1, 3, 1))) == (6, 4, 4, 4)

    def test_neighboring_index(self):
        def neighboring_index(g):
            return sum(v * c for v, c in all_indicators(g).gamma)

        assert neighboring_index(path(2)) == 4
        assert neighboring_index(path(3)) == 10
        g = build_spider(normalize(2, 2, 1))
        assert neighboring_index(g) == sum(gamma_array(g)) == 32


class TestAlphaArrays:
    def test_h_graph(self):
        assert alpha_array(build_spider(normalize(2, 2, 1))) == (5, 6, 4, 0, 0)

    def test_chain(self):
        assert alpha_array(path(5)) == (4, 3, 2, 1)

    def test_complete(self):
        assert alpha_array(complete(4)) == (6, 0, 0)

    def test_single_node_empty(self):
        assert alpha_array(build_graph(1, [])) == ()

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            alpha_array(build_graph(3, [(0, 1)]))


class TestScalarIndicators:
    def test_diameter(self):
        assert all_indicators(build_spider(normalize(2, 2, 1))).diameter == 3
        assert all_indicators(complete(5)).diameter == 1
        assert all_indicators(build_spider(normalize(1, 3, 2))).diameter == 4
        assert alpha_array(build_graph(1, [])) == ()  # a single node has no distances

    def test_diameter_disconnected_rejected(self):
        with pytest.raises(ValueError):
            all_indicators(build_graph(2, []))

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match=r"^density needs at least 2 nodes$"):
            all_indicators(build_graph(1, []))

    def test_density(self):
        assert density(complete(4)) == 1
        assert density(build_spider(normalize(2, 2, 1))) == Fraction(1, 3)
        assert density(path(2)) == 1

    def test_density_needs_two_nodes(self):
        with pytest.raises(ValueError):
            density(build_graph(1, []))

    def test_mean_distance(self):
        assert mean_distance(complete(6)) == 1
        assert mean_distance(path(3)) == Fraction(4, 3)
        assert mean_distance(build_spider(normalize(3, 1, 2))) == Fraction(93, 36)

    def test_total_distance(self):
        assert all_indicators(path(5)).total_distance == 20
        assert all_indicators(complete(7)).total_distance == 21


class TestHIndex:
    def test_golden_cases(self):
        assert h_index((3, 3, 3, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1)) == 3
        assert h_index((1, 1)) == 1
        assert h_index(()) == 0

    def test_zero_head(self):
        assert h_index((0, 0)) == 0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            h_index((1, 2))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            h_index((2, -1))

    @given(graphs())
    def test_matches_definition(self, g):
        delta = degree_array(g)
        want = max(
            (h for h in range(1, g.n + 1) if delta[h - 1] >= h),
            default=0,
        )
        assert h_index(delta) == want


value_count_groups = st.lists(
    st.tuples(st.integers(min_value=-2, max_value=12), st.integers(min_value=0, max_value=5)),
    max_size=6,
)


class TestHIndexOfGroups:
    @given(value_count_groups.map(lambda groups: sorted(((abs(v), c) for v, c in groups), reverse=True)))
    @example([])
    @example([(4, 7)])
    @example([(9, 0), (3, 4), (2, 0), (0, 3)])
    def test_matches_expanded_array(self, groups):
        assert h_index_of_groups(groups) == h_index(_expand(groups))

    @given(value_count_groups)
    @example([(1, 1), (2, 1)])
    @example([(3, 2), (0, 0), (5, 1)])
    @example([(2, 1), (-1, 1)])
    def test_rejects_what_h_index_rejects(self, groups):
        try:
            want = h_index(_expand(groups))
        except ValueError:
            with pytest.raises(ValueError):
                h_index_of_groups(groups)
        else:
            assert h_index_of_groups(groups) == want

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            h_index_of_groups([(3, 2), (2, -1)])


@st.composite
def linear_splits(draw):
    """Linear runs (first, last, a, b) from j = 1, and a finer split of the same array.

    The lines come from a small set, so neighbouring runs often share one.
    """
    lines = st.sampled_from([(0, 0), (3, 0), (9, -1), (-4, 2), (5, 1)])
    runs, first = [], 1
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        last = first + draw(st.integers(min_value=0, max_value=6))
        runs.append((first, last) + draw(lines))
        first = last + 1
    finer = []
    for first, last, a, b in runs:
        inner = st.sets(st.integers(min_value=first + 1, max_value=last))
        cuts = sorted(draw(inner)) if last > first else []
        for start, end in zip([first] + cuts, [cut - 1 for cut in cuts] + [last]):
            finer.append((start, end, a, b))
    return runs, finer


@st.composite
def gapless_runs(draw):
    """Runs (first, last, a, b) that follow each other without gaps, from any first.

    An empty run (last = first - 1) may stand anywhere, a run may hold up to
    10**30 entries and slopes may be negative; the lines come from a small
    set as often as not, so neighbouring runs often share one.
    """
    lines = st.one_of(
        st.sampled_from([(0, 0), (3, 0), (9, -1), (-4, 2), (5, 1)]),
        st.tuples(st.integers(min_value=-9, max_value=9), st.integers(min_value=-3, max_value=3)),
    )
    sizes = st.one_of(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=10**30))
    runs, first = [], draw(st.integers(min_value=-5, max_value=5))
    for size in draw(st.lists(sizes, max_size=8)):
        runs.append((first, first + size - 1) + draw(lines))
        first += size
    return runs


class TestLinearRuns:
    @given(linear_splits())
    @example((
        [(1, 1, 5, 0), (2, 3, 8, -1), (4, 5, 0, 0)],
        [(1, 1, 5, 0), (2, 2, 8, -1), (3, 3, 8, -1), (4, 5, 0, 0)],
    ))
    # One example per case of the merge: a lone entry, then a run on its line;
    @example(([(1, 1, 5, 0), (2, 4, 3, 2)], [(1, 1, 5, 0), (2, 2, 3, 2), (3, 4, 3, 2)]))
    # a lone entry, then a run off its line;
    @example(([(1, 1, 5, 0), (2, 4, 8, -1)], [(1, 1, 5, 0), (2, 3, 8, -1), (4, 4, 8, -1)]))
    # a one-entry run on the last line;
    @example(([(1, 3, 0, 2), (4, 4, 8, 0)], [(1, 2, 0, 2), (3, 3, 0, 2), (4, 4, 8, 0)]))
    # a run whose first entry is on the last line, with another slope;
    @example(([(1, 3, 0, 2), (4, 6, 16, -2)], [(1, 3, 0, 2), (4, 4, 16, -2), (5, 6, 16, -2)]))
    # a run whose first entry is off the last line.
    @example(([(1, 3, 0, 2), (4, 6, 0, 0)], [(1, 3, 0, 2), (4, 5, 0, 0), (6, 6, 0, 0)]))
    def test_any_split_gives_the_canonical_runs(self, splits):
        runs, finer = splits
        array = _expand_runs(runs)
        canonical = linear_runs(runs)
        assert linear_runs(finer) == canonical
        assert linear_runs((j, j, v, 0) for j, v in enumerate(array, start=1)) == canonical
        assert _expand_runs(canonical) == array
        # An empty run, last = first - 1, stands for no entries, also before any other.
        head = runs[0][0]
        assert linear_runs([(head, head - 1, 7, 1)] + finer) == canonical
        # Greedy-left and maximal: a run ends only where the next entry leaves its line.
        for (first, last, a, b), (start, _, _, _) in zip(canonical, canonical[1:]):
            assert last > first and a + b * start != array[start - 1]
        first, last, _, b = canonical[-1]
        assert last == len(array) and (last > first or b == 0)

    @given(gapless_runs())
    @example([(1, 0, 7, 1)])
    @example([(1, 3, 0, 2), (4, 3, 7, 1), (4, 4, 8, -5), (5, 10**30, 0, 2)])
    def test_equals_placing_entries_one_by_one(self, runs):
        assert linear_runs(runs) == linear_runs_by_entry(runs)


class TestInvariants:
    @given(graphs())
    def test_total_degree_is_twice_edges(self, g):
        assert sum(degree_array(g)) == 2 * g.num_edges

    @given(graphs())
    def test_distance_matrix_symmetric_zero_diagonal(self, g):
        d = all_pairs_distances(g)
        for u in range(g.n):
            assert d[u][u] == 0
            for v in range(g.n):
                assert d[u][v] == d[v][u]
                if d[u][v] == 1:
                    assert v in g.adjacency[u]

    @given(graphs())
    def test_triangle_inequality_sample(self, g):
        d = all_pairs_distances(g)
        rng = random.Random(0)
        for _ in range(100):
            if g.n == 0:
                break
            i, j, k = (rng.randrange(g.n) for _ in range(3))
            if UNREACHABLE in (d[i][j], d[i][k], d[k][j]):
                continue
            assert d[i][j] <= d[i][k] + d[k][j]

    @given(connected_graphs())
    def test_alpha_counts_every_pair_once(self, g):
        if g.n >= 2:
            assert sum(alpha_array(g)) == g.n * (g.n - 1) // 2

    @given(connected_graphs())
    def test_diameter_is_last_nonzero_alpha(self, g):
        if g.n >= 2:
            alpha = alpha_array(g)
            assert all_indicators(g).diameter == max(
                j for j, a in enumerate(alpha, start=1) if a > 0
            )

    @given(connected_graphs())
    def test_mean_distance_at_least_one(self, g):
        if g.n >= 2:
            mu = mean_distance(g)
            assert mu >= 1
            assert (mu == 1) == (g.num_edges == g.n * (g.n - 1) // 2)

    @given(graphs())
    def test_gamma_dominates_degree_per_node(self, g):
        for u in range(g.n):
            own = len(g.adjacency[u])
            assert own + sum(len(g.adjacency[v]) for v in g.adjacency[u]) >= own
        assert sum(gamma_array(g)) == sum(
            len(g.adjacency[u]) + sum(len(g.adjacency[v]) for v in g.adjacency[u])
            for u in range(g.n)
        )

    @settings(max_examples=50)
    @given(connected_graphs())
    @example(cycle_with_tail(3, 0))
    @example(cycle_with_tail(9, 40, at=4))
    @example(cycle_with_tail(40, 9, at=20))
    @example(cycle_with_tail(61, 39))
    def test_all_indicators_consistent(self, g):
        if g.n < 2:
            return
        ind = all_indicators(g)
        assert ind.total_distance == sum(
            j * a for j, a in enumerate(_expand_runs(ind.alpha), start=1)
        )
        assert sum(v * c for v, c in ind.gamma) == sum(gamma_array(g))
        assert _expand(ind.delta) == degree_array(g)
        assert _expand(ind.gamma) == gamma_array(g)
        assert ind.density == density(g)
        assert ind.diameter == max(j for j, a in enumerate(alpha_array(g), start=1) if a)
        assert ind.h_index == h_index(degree_array(g))

    @given(st.one_of(graphs(), connected_graphs()))
    def test_sweep_matches_all_pairs_reference(self, g):
        assert_sweep_matches_reference(g)

    @settings(max_examples=15, deadline=None)
    @given(connected_graphs(max_nodes=150))
    def test_sweep_beyond_one_machine_word(self, g):
        assert_sweep_matches_reference(g)

    @pytest.mark.parametrize(
        "g",
        [
            path(64),
            path(65),
            path(130),
            star(65),
            star(200),
            lollipop(40, 90),
            lollipop(70, 5),
            build_graph(100, [(i, i + 1) for i in range(99) if i != 70]),
            path(300),
            lollipop(20, 280),
            build_graph(300, [(i, i + 1) for i in range(299) if i != 150]),
            cycle_with_tail(30, 200, at=7),
            build_graph(255, [((i - 1) // 2, i) for i in range(1, 255)]),
            build_graph(120, [(i, j) for i in range(10) for j in range(i + 1, 10)]
                        + [(i, i + 1) for i in range(9, 109)]
                        + [(i, j) for i in range(109, 120) for j in range(i + 1, 120)]),
            build_graph(90, [(0, 1), (1, 2), (0, 2)] + [(i, i + 1) for i in range(3, 89)]),
        ],
        ids=["path64", "path65", "path130", "star65", "star200", "lollipop40+90",
             "lollipop70+5", "split-path100", "path300", "lollipop20+280",
             "split-path300", "cycle30+tail200", "binary-tree255", "barbell10+100+11",
             "triangle+path87"],
    )
    def test_sweep_on_wide_eccentricity_ranges(self, g):
        assert_sweep_matches_reference(g)

    @given(connected_graphs())
    def test_diameter_within_twice_the_eccentricity_of_node_0(self, g):
        if g.n >= 2:
            ecc0 = max(bfs_distances(g, 0))
            assert ecc0 <= all_indicators(g).diameter <= 2 * ecc0

    def test_bfs_distances_from_each_source(self):
        g = path(4)
        assert bfs_distances(g, 0) == [0, 1, 2, 3]
        assert bfs_distances(g, 3) == [3, 2, 1, 0]


class TestSchemeChoice:
    """Every graph takes one search, which follows from the graph alone: its 2-core sweep.

    No node runs a BFS of its own and no probe row is taken: ``graph_core``
    has no per-source BFS, and ``bfs_distances`` is the tests' reference.
    """

    @pytest.mark.parametrize(
        "shape",
        [(21, 1, 47), (2, 166, 3), (2, 3, 166), (1, 1, 2999)],
        ids=["spider21,1,47", "spider2,166,3", "spider2,3,166", "path3000"],
    )
    def test_per_source_without_probe_where_most_rows_are_shared(self, shape):
        # most nodes hang off the 2-core and are folded into it; only the
        # core K_21 of the first spider is swept, and the trees sweep nothing
        p = normalize(*shape)
        g = build_spider(p)
        counts, calls = core_sweeps(g)
        assert calls == ([(list(range(p.m)), 1)] if p.m >= 3 else [])
        assert tuple(c // 2 for c in counts[1:]) == _expand_runs(closed_form_report(p).alpha)

    def test_sweep_picked_on_a_complete_core(self):
        p = normalize(998, 0, 0)
        counts, calls = core_sweeps(build_spider(p))
        assert calls == [(list(range(998)), 1)]
        assert counts == [998, 998 * 997] + [0] * 996
        assert tuple(c // 2 for c in counts[1:]) == _expand_runs(closed_form_report(p).alpha)

    def test_probe_bounds_the_diameter_by_twice_the_depth_of_node_0(self):
        # node 0 carries the tail, so its depth is 498; the diameter, 749, is
        # the tail plus half the cycle, so it sits in tree lanes shifted by a
        # 2-core distance and is seen by neither part alone
        g = cycle_with_tail(502, 498)
        counts, calls = core_sweeps(g)
        assert calls == [(list(range(502)), 2)]
        ecc0 = max(bfs_distances(g, 0))
        assert (ecc0, all_indicators(g).diameter) == (498, 749)
        # one pair is that far apart: the tail's end and node 0's antipode
        assert (counts[749], sum(counts[750:]), sum(counts)) == (2, 0, g.n * g.n)

    def test_probe_row_is_not_run_again(self):
        # no row is run at all, so none twice: one sweep over the cycle, in
        # which node 300 with its tail is a second weight class
        g = cycle_with_tail(600, 400, at=300)
        counts, calls = core_sweeps(g)
        assert calls == [(list(range(600)), 2)]
        assert counts == pairs_by_distance(g)


def lanes(w):
    """The 64-bit lanes of a folded weight, the lowest first."""
    return [(w >> 64 * i) & ((1 << 64) - 1) for i in range(-(-w.bit_length() // 64))]


class TestSharedRows:
    """A pendant tree shares its 2-core node's distances: it is folded into a weight, not searched."""

    def test_one_bfs_on_a_path(self):
        # a path is all pendant: it is folded end to end and searched not
        # even once, neither by a row nor by a 2-core sweep
        g = path(300)
        counts, calls = core_sweeps(g)
        assert calls == []
        assert tuple(c // 2 for c in counts[1:]) == tuple(range(299, 0, -1))

    @settings(max_examples=300, deadline=None)
    @given(bridged_blocks())
    def test_histograms_equal_the_all_pairs_reference(self, g):
        assert ordered_pairs(g) == pairs_by_distance(g)

    @settings(max_examples=25, deadline=None)
    @given(long_chains())
    @example(path(32))
    @example(path(33))
    @example(path(34))
    @example(build_spider(normalize(1, 3, 300)))
    @example(cycle_with_tail(5, 300, at=2))
    def test_long_chains_equal_the_all_pairs_reference(self, g):
        assert ordered_pairs(g) == pairs_by_distance(g)

    @pytest.mark.parametrize(
        "g, held, want",
        [
            (build_spider(normalize(1, 19999, 1)), {}, [20000, 2 * 19999, 19999 * 19998]
             + [0] * 19997),
            (path(300), {}, None),
            (lollipop(10, 60), {u: [1] * (61 if u == 9 else 1) for u in range(10)}, None),
            (cycle_with_tail(9, 40, at=4), {u: [1] * (41 if u == 4 else 1) for u in range(9)},
             None),
            (build_graph(30, [(i, i + 1) for i in range(29) if i != 12]), {}, None),
        ],
        ids=["star20000", "path300", "lollipop10+60", "cycle9+tail40", "split-path30"],
    )
    def test_shared_nodes_count_only_their_subtrees(self, g, held, want):
        # each 2-core node reaches the sweep holding the depth histogram of
        # its own pendant tree, one lane per depth, and nothing of another
        # node's; a tree is shared through and through and is never swept
        with mock.patch.object(
            graph_core, "_core_pairs", wraps=graph_core._core_pairs
        ) as sweep:
            counts = ordered_pairs(g)
        assert {
            u: lanes(weight[u])
            for _, core, weight in (call.args for call in sweep.call_args_list)
            for u in core
        } == held
        assert counts == (want or pairs_by_distance(g))

    def test_rows_held_stay_few(self):
        # a caterpillar: each spine node's leaf is peeled before the spine,
        # and a spine node's weight is dropped as soon as it is folded into
        # the next one
        spine = 200
        g = build_graph(
            2 * spine,
            [(i, i + 1) for i in range(spine - 1)] + [(i, spine + i) for i in range(spine)],
        )
        tracemalloc.start()
        try:
            ordered_pairs(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the spine is peeled from both ends, so keeping every folded spine
        # weight would take about 2 * 8 * (spine / 2)^2 / 2 bytes of lanes
        assert peak < 8 * spine**2 // 4


def core_sweeps(g):
    """The folded count of g and the (2-core, weight class count) of each 2-core sweep it ran."""
    with mock.patch.object(graph_core, "_core_pairs", wraps=graph_core._core_pairs) as sweep:
        counts = ordered_pairs(g)
    calls = [
        (core, len({weight[u] for u in core})) for _, core, weight in
        (call.args for call in sweep.call_args_list)
    ]
    return counts, calls


def tails(ring, lengths):
    """A cycle of ring nodes with a path of lengths[i] more nodes hanging off cycle node 2 * i."""
    edges, n = [(i, (i + 1) % ring) for i in range(ring)], ring
    for i, length in enumerate(lengths):
        edges += [(2 * i, n)] + [(v, v + 1) for v in range(n, n + length - 1)]
        n += length
    return build_graph(n, edges)


class TestFold:
    """The peel leaves the 2-core, and only the 2-core is swept, in classes of equal weight."""

    @pytest.mark.parametrize(
        "shape",
        [(1, 1, 2999), (1, 1, 19999), (1, 19999, 1), (2, 166, 3), (2, 3, 166), (2, 2, 250),
         (2, 2, 1000)],
        ids=["path3000", "path20000", "star20000", "spider2,166,3", "spider2,3,166",
             "spider2,2,250", "spider2,2,1000"],
    )
    def test_trees_run_no_core_sweep(self, shape):
        p = normalize(*shape)
        g = build_spider(p)
        if shape == (1, 1, 2999):
            assert g == path(3000)
        counts, calls = core_sweeps(g)
        assert calls == []
        assert tuple(c // 2 for c in counts[1:]) == _expand_runs(closed_form_report(p).alpha)

    @pytest.mark.parametrize(
        "g, core, classes",
        [
            (build_graph(30, [(i, i + 1) for i in range(29) if i != 12]), [], 0),
            (build_spider(normalize(5, 2, 3)), list(range(5)), 1),
            (complete(40), list(range(40)), 1),
            (lollipop(10, 60), list(range(10)), 2),
            (cycle_with_tail(9, 40, at=4), list(range(9)), 2),
            (tails(6, [1, 2, 3]), list(range(6)), 4),
        ],
        ids=["split-path30", "spider5,2,3", "complete40", "lollipop10+60", "cycle9+tail40",
             "cycle6+tails1,2,3"],
    )
    def test_only_the_2_core_is_swept(self, g, core, classes):
        counts, calls = core_sweeps(g)
        assert calls == ([(core, classes)] if core else [])
        assert counts == pairs_by_distance(g)
        assert_indicators_match_reference(g)

    @pytest.mark.parametrize(
        "g",
        [complete(m) for m in range(3, 9)] + [build_spider(normalize(5, 2, 3))],
        ids=[f"complete{m}" for m in range(3, 9)] + ["spider5,2,3"],
    )
    def test_a_complete_core_is_swept_in_one_pass(self, g):
        # a node leaves the sweep once it has seen every 2-core node, so a
        # complete core takes one level and no further pass that finds nothing
        inside, lengths = [], []
        sweep, wide = graph_core._core_pairs, graph_core._wide_lanes

        def sweeping(*args):
            inside.append(True)
            try:
                return sweep(*args)
            finally:
                inside.pop()

        def recording(values):
            values = list(values)
            if inside:
                lengths.append(len(values))
            return wide(values)

        with mock.patch.object(graph_core, "_core_pairs", sweeping), mock.patch.object(
            graph_core, "_wide_lanes", recording
        ):
            counts = ordered_pairs(g)
        assert lengths == [2]  # lane 0 and the one level, for the one weight class
        assert counts == pairs_by_distance(g)

    def test_folded_weights_are_dropped(self):
        # a weight is dropped once folded into its parent, so a bare path
        # holds the two growing ends, not every node's depth histogram
        g = path(3000)
        tracemalloc.start()
        try:
            ordered_pairs(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # keeping every weight would take 2 * 8 * 1500^2 / 2 bytes
        assert peak < 8 * 1500**2 // 4
