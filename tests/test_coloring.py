import random
from itertools import combinations

import pytest

from mdlab.coloring import EdgeColoring, is_md_coloring
from mdlab.graph import graph, is_connected


def k(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def cycle_coloring(n, colors_in_cycle_order):
    """Map colors given around the cycle onto the canonical edge order."""
    g = cycle(n)
    by_edge = {}
    for i in range(n):
        e = tuple(sorted((i, (i + 1) % n)))
        by_edge[e] = colors_in_cycle_order[i]
    return EdgeColoring(g, tuple(by_edge[e] for e in g.edges))


def random_connected(n, p, rng):
    while True:
        g = graph(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        )
        if is_connected(g):
            return g


class TestVerifier:
    def test_trivial_coloring_always_passes(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_connected(rng.randrange(1, 8), 0.5, rng)
            assert is_md_coloring(g, EdgeColoring(g, (1,) * g.m)) == (True, ())

    def test_c4_alternating(self):
        # Opposite corners are separated by removing either class.
        assert is_md_coloring(cycle(4), cycle_coloring(4, [1, 2, 1, 2])) == (True, ())

    def test_c4_single_odd_edge_fails(self):
        # Removing class 1 leaves the color-2 edge joining its endpoints;
        # removing class 2 leaves the path through the rest of the cycle.
        assert is_md_coloring(cycle(4), cycle_coloring(4, [1, 1, 1, 2])) == (False, ((0, 3),))

    def test_certificate_witnesses_recompute(self):
        # The unseparated pairs are those that share a component of G minus
        # each color class, as a plain union-find labels them.
        def component_labels(n, edges):
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for u, v in edges:
                parent[find(u)] = find(v)
            return [find(x) for x in range(n)]

        rng = random.Random(8)
        verdicts = set()
        for _ in range(300):
            g = random_connected(rng.randrange(2, 11), 0.6, rng)
            palette = rng.randrange(1, 6)
            colors = tuple(rng.randrange(1, palette + 1) for _ in range(g.m))
            comp_of = [
                component_labels(g.n, [e for e, c in zip(g.edges, colors) if c != color])
                for color in set(colors)
            ]
            want = tuple(
                (u, v)
                for u, v in combinations(range(g.n), 2)
                if all(label[u] == label[v] for label in comp_of)
            )
            assert is_md_coloring(g, EdgeColoring(g, colors)) == (not want, want)
            if len(set(colors)) > 1:  # one color always passes
                verdicts.add(not want)
        assert verdicts == {True, False}

    def test_graph_mismatch_rejected(self):
        c = EdgeColoring(cycle(4), (1,) * 4)
        with pytest.raises(ValueError, match="different graph"):
            is_md_coloring(cycle(5), c)

    def test_bool_colors_rejected_by_the_coloring(self):
        with pytest.raises(ValueError):
            EdgeColoring(k(3), (True, True, True))

    def test_disconnected_graph_rejected_and_tiny_graphs_vacuous(self):
        for g in (graph(2, []), graph(4, [(0, 1), (2, 3)]), graph(3, [(0, 1)])):
            with pytest.raises(ValueError, match="connected graphs"):
                is_md_coloring(g, EdgeColoring(g, (1,) * g.m))
        for n in (0, 1):
            g = graph(n, [])
            assert is_md_coloring(g, EdgeColoring(g, ())) == (True, ())


class TestC4Classification:
    def test_only_trivial_and_alternating_pass(self):
        # All 15 set partitions of the 4 cycle edges, exhaustively.
        g = cycle(4)
        cyc_edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
        passing = []

        def rgs(m):  # restricted growth strings over m items
            a = [0] * m
            while True:
                yield list(a)
                j = m - 1
                while j > 0 and a[j] == max(a[:j]) + 1:
                    j -= 1
                if j == 0:
                    return
                a[j] += 1
                for t in range(j + 1, m):
                    a[t] = 0

        for a in rgs(4):
            by_edge = {e: a[i] + 1 for i, e in enumerate(cyc_edges)}
            col = EdgeColoring(g, tuple(by_edge[e] for e in g.edges))
            ok, _ = is_md_coloring(g, col)
            if ok:
                passing.append(a)
        # Trivial: [0,0,0,0]; alternating: opposite cycle edges paired.
        assert passing == [[0, 0, 0, 0], [0, 1, 0, 1]]

    def test_opposite_edges_same_color_in_any_passing_coloring(self):
        g = cycle(4)
        index = g.edge_index
        for a, b, c, d in [(1, 2, 1, 2), (1, 1, 1, 1)]:
            col = cycle_coloring(4, [a, b, c, d])
            ok, _ = is_md_coloring(g, col)
            assert ok
            assert col.colors[index[(0, 1)]] == col.colors[index[(2, 3)]]


class TestRestriction:
    def test_restriction_to_connected_subgraph_stays_valid(self):
        # Restricting a passing coloring to a connected subgraph keeps the
        # separation property on that subgraph.
        rng = random.Random(55)
        checked = 0
        for _ in range(150):
            g = random_connected(rng.randrange(3, 7), 0.6, rng)
            c = EdgeColoring(g, tuple(rng.randrange(1, 4) for _ in range(g.m)))
            ok, _ = is_md_coloring(g, c)
            if not ok:
                continue
            index = g.edge_index
            for _ in range(4):
                keep_vertices = sorted(
                    rng.sample(range(g.n), rng.randrange(2, g.n + 1))
                )
                vmap = {v: i for i, v in enumerate(keep_vertices)}
                sub_edges = [
                    (vmap[u], vmap[v])
                    for u, v in g.edges
                    if u in vmap and v in vmap
                ]
                sub = graph(len(keep_vertices), sub_edges)
                if not is_connected(sub) or sub.n < 2:
                    continue
                inv = {i: v for v, i in vmap.items()}
                sub_col = EdgeColoring(
                    sub,
                    tuple(
                        c.colors[index[(inv[u], inv[v])]] for u, v in sub.edges
                    ),
                )
                ok_sub, _ = is_md_coloring(sub, sub_col)
                assert ok_sub
                checked += 1
        assert checked >= 20

