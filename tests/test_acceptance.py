"""Acceptance suite: every release-gating check, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  All comparisons are exact (integer or Fraction equality);
the only tolerances are the stated runtime budgets.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import _expand, _expand_runs
from references import (
    UNREACHABLE,
    all_pairs_distances,
    alpha_array,
    build_graph,
    degree_array,
    density,
    gamma_array,
    h_index,
    is_connected,
)
from spidernets.cli import compare_point, iter_grid
from spidernets.closed_form import (
    alpha_runs,
    delta_groups,
    density_closed,
    gamma_groups,
    h_index_closed,
    total_distance_closed,
)
from spidernets.graph_core import all_indicators
from spidernets.small_world import (
    CANONICAL_DIRECTIONS,
    SmallWorldNotion,
    classify,
    geometric_steps,
    ratio_sequence,
    verdict_table,
)
from spidernets.spiders import build_spider, edge_count, node_count, normalize, pair_count

GRID = dict(mmax=8, kmax=5, lmax=6, node_cap=2000)


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {description}: FAIL")
        raise
    print(f"[criterion {number}] {description}: PASS ({time.perf_counter() - start:.2f}s)")


def sweep_grid():
    return iter_grid(GRID["mmax"], GRID["kmax"], GRID["lmax"], GRID["node_cap"])


def test_criterion_1_golden_arrays():
    with criterion(1, "golden arrays reproduce exactly"):
        start = time.perf_counter()
        assert _expand_runs(alpha_runs(normalize(2, 2, 1))) == (5, 6, 4, 0, 0)

        assert _expand(delta_groups(normalize(1, 4, 1))) == (4, 1, 1, 1, 1)
        assert _expand(delta_groups(normalize(1, 1, 5))) == (2, 2, 2, 2, 1, 1)
        assert _expand(delta_groups(normalize(2, 1, 3))) == (2,) * 6 + (1, 1)

        assert _expand(gamma_groups(normalize(1, 3, 1))) == (6, 4, 4, 4)
        assert _expand(gamma_groups(normalize(1, 3, 2))) == (9, 6, 6, 6, 3, 3, 3)
        assert _expand(gamma_groups(normalize(1, 1, 1))) == (2, 2)
        assert _expand(gamma_groups(normalize(1, 1, 2))) == (4, 3, 3)
        assert _expand(gamma_groups(normalize(1, 1, 3))) == (5, 5, 3, 3)
        assert _expand(gamma_groups(normalize(1, 1, 6))) == (6, 6, 6, 5, 5, 3, 3)
        assert _expand(gamma_groups(normalize(3, 2, 1))) == (14,) * 3 + (5,) * 6
        assert _expand(gamma_groups(normalize(2, 1, 4))) == (6,) * 6 + (5, 5, 3, 3)
        assert _expand(gamma_groups(normalize(2, 1, 1))) == (5, 5, 3, 3)

        assert _expand_runs(alpha_runs(normalize(5, 0, 0))) == (10, 0, 0, 0)
        assert _expand_runs(alpha_runs(normalize(1, 4, 1))) == (4, 6, 0, 0)
        assert _expand_runs(alpha_runs(normalize(1, 3, 2))) == (6, 6, 6, 3, 0, 0)
        assert _expand_runs(alpha_runs(normalize(1, 1, 2))) == (2, 1)
        assert _expand_runs(alpha_runs(normalize(1, 1, 4))) == (4, 3, 2, 1)
        assert _expand_runs(alpha_runs(normalize(2, 1, 2))) == (5, 4, 3, 2, 1)

        assert time.perf_counter() - start < 1.0


def test_criterion_2_oracle_equivalence_sweep():
    with criterion(2, "closed forms equal brute force on the full grid"):
        start = time.perf_counter()
        points = sweep_grid()
        assert len(points) == 247
        mismatches = []
        for p in points:
            mismatches.extend(compare_point(p))
        assert mismatches == []
        assert time.perf_counter() - start < 60.0


def test_criterion_3_identity_suite():
    with criterion(3, "sum identities hold exactly on the full grid"):
        for p in sweep_grid():
            n = node_count(p)
            alpha = _expand_runs(alpha_runs(p))
            assert sum(alpha) == n * (n - 1) // 2 == pair_count(p)
            assert sum(_expand(delta_groups(p))) == 2 * edge_count(p)
            assert total_distance_closed(p) == sum(
                j * a for j, a in enumerate(alpha, start=1)
            )
            assert density_closed(p) == Fraction(2 * edge_count(p), n * (n - 1))


def test_criterion_4_total_distance_three_ways():
    with criterion(4, "total distance of spider(3,1,2) is 93 three ways"):
        p = normalize(3, 1, 2)
        from_formula = total_distance_closed(p)
        from_alpha = sum(j * a for j, a in enumerate(_expand_runs(alpha_runs(p)), start=1))
        from_oracle = all_indicators(build_spider(p)).total_distance
        assert from_formula == from_alpha == from_oracle == 93


def test_criterion_5_h_index_table():
    def expected_h(p):
        if p.k == 0:
            return p.m - 1
        if p.m > 1:
            return p.m
        if p.k > 1:
            return 1 if p.l == 1 else 2
        return 2 if p.l > 2 else 1

    with criterion(5, "h-index regimes match the oracle degree arrays"):
        for p in sweep_grid():
            want = expected_h(p)
            assert h_index_closed(p) == want
            assert h_index(degree_array(build_spider(p))) == want


def test_criterion_6_small_world_verdicts():
    expected = {
        ("DSWL", "M"): "SW",
        ("DSWL", "K"): "SW",
        ("DSWL", "L"): "not",
        ("DSWA", "M"): "SW",
        ("DSWA", "K"): "not",
        ("DSWA", "L"): "not",
        ("SWD", "M"): "ultra",
        ("SWD", "K"): "ultra",
        ("SWD", "L"): "not",
        ("SWA", "M"): "ultra",
        ("SWA", "K"): "ultra",
        ("SWA", "L"): "not",
    }
    with criterion(6, "12-cell small-world table and monotone ratio trends"):
        start = time.perf_counter()
        table = verdict_table()
        assert len(table) == 12
        for notion, direction, verdict in table:
            if verdict.is_ultra_small:
                got = "ultra"
            elif verdict.is_small_world:
                got = "SW"
            else:
                got = "not"
            assert got == expected[(notion.value, direction.varying)]
        for notion in SmallWorldNotion:
            for direction in CANONICAL_DIRECTIONS:
                steps = geometric_steps()
                assert len(steps) == 12
                ratios = [pt.ratio for pt in ratio_sequence(notion, direction, steps)]
                tail = ratios[-6:]
                if classify(notion, direction).diverges:
                    assert all(a < b for a, b in zip(tail, tail[1:]))
                    assert ratios[0] < ratios[-1]
                else:
                    assert all(a > b for a, b in zip(tail, tail[1:]))
                    assert ratios[0] > ratios[-1]
        assert time.perf_counter() - start < 5.0


def test_criterion_7_degenerate_and_boundary():
    with criterion(7, "degenerate spiders, complete graphs, chain encodings"):
        # single node: counts work, distance indicators refuse
        single = normalize(1, 0, 0)
        assert node_count(single) == 1 and pair_count(single) == 0
        g = build_spider(single)
        assert g.n == 1 and g.num_edges == 0
        for op in (density, all_indicators):
            try:
                op(g)
                raise AssertionError("expected ValueError on a single node")
            except ValueError:
                pass

        # complete graphs
        for m in range(2, 9):
            p = normalize(m, 0, 0)
            g = build_spider(p)
            assert degree_array(g) == (m - 1,) * m
            assert density(g) == density_closed(p) == 1
            assert all_indicators(g).diameter == 1
            assert alpha_array(g) == (m * (m - 1) // 2,) + (0,) * (m - 2)

        # the same even-node chain in both encodings
        for leg in range(1, 6):
            one_core = normalize(1, 1, 2 * leg + 1)
            two_core = normalize(2, 1, leg)
            assert node_count(one_core) == node_count(two_core) == 2 * leg + 2
            assert _expand(delta_groups(one_core)) == _expand(delta_groups(two_core))
            assert _expand_runs(alpha_runs(one_core)) == _expand_runs(alpha_runs(two_core))
            # isomorphic graphs force equal gamma arrays; each encoding's
            # closed form matches its own pattern, and the patterns coincide
            g1, g2 = build_spider(one_core), build_spider(two_core)
            assert gamma_array(g1) == gamma_array(g2)
            assert _expand(gamma_groups(one_core)) == gamma_array(g1)
            assert _expand(gamma_groups(two_core)) == gamma_array(g2)
            # one-core pattern has (2*leg+1)-3 sixes, two-core 2*(leg-1): same
            assert _expand(gamma_groups(one_core)) == (6,) * (2 * leg - 2) + (5, 5, 3, 3)
            assert _expand(gamma_groups(two_core)) == (6,) * (2 * leg - 2) + (5, 5, 3, 3)
            # at equal leg length the encodings are different graphs
            assert gamma_groups(normalize(1, 1, leg)) != gamma_groups(normalize(2, 1, leg))


def test_criterion_8_random_graph_invariants():
    with criterion(8, "200 random graphs satisfy the oracle invariants"):
        rng = random.Random(20260808)
        probabilities = (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 0.9)
        connected_seen = disconnected_seen = 0
        for i in range(200):
            n = rng.randint(1, 30)
            prob = probabilities[i % len(probabilities)]
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < prob
            ]
            g = build_graph(n, edges)
            assert sum(degree_array(g)) == 2 * g.num_edges
            d = all_pairs_distances(g)
            for u in range(n):
                assert d[u][u] == 0
                for v in range(n):
                    assert d[u][v] == d[v][u]
            for _ in range(100):
                if n == 0:
                    break
                a, b, c = (rng.randrange(n) for _ in range(3))
                if UNREACHABLE in (d[a][b], d[a][c], d[c][b]):
                    continue
                assert d[a][b] <= d[a][c] + d[c][b]
            if is_connected(g):
                connected_seen += 1
                if n >= 2:
                    assert sum(alpha_array(g)) == n * (n - 1) // 2
            else:
                disconnected_seen += 1
        assert connected_seen >= 20 and disconnected_seen >= 20
