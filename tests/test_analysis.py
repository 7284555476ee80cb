import random
from itertools import combinations

import pytest

from mdlab.analysis import block_decomposition, soft_layer_reduce
from mdlab.extremal import enumerate_connected
from mdlab.graph import graph, is_connected


def k(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def random_connected(n, p, rng):
    while True:
        g = graph(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        )
        if is_connected(g):
            return g


class TestBlocks:
    def test_two_triangles_sharing_a_vertex(self):
        g = graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        dec = block_decomposition(g)
        assert dec.blocks == ((0, 1, 2), (2, 3, 4))
        assert dec.cut_vertices == (2,)

    def test_tree_blocks_are_edges(self):
        g = path(6)
        dec = block_decomposition(g)
        assert len(dec.blocks) == 5
        assert all(len(b) == 2 for b in dec.blocks)
        assert dec.cut_vertices == (1, 2, 3, 4)

    def test_cycle_single_block(self):
        dec = block_decomposition(cycle(5))
        assert dec.blocks == ((0, 1, 2, 3, 4),)
        assert dec.cut_vertices == ()

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            block_decomposition(graph(4, [(0, 1), (2, 3)]))

    def test_single_vertex_has_no_blocks(self):
        dec = block_decomposition(graph(1, []))
        assert dec.blocks == ()

    def test_empty_graph_has_no_blocks(self):
        dec = block_decomposition(graph(0, []))
        assert dec.blocks == () and dec.block_graphs == ()

    @pytest.mark.parametrize("g", [k(2), cycle(5), k(4)], ids=["K2", "C5", "K4"])
    def test_single_block_is_the_graph_itself(self, g):
        dec = block_decomposition(g)
        assert dec.blocks == (tuple(range(g.n)),)
        assert dec.block_graphs == (g,)
        assert dec.block_graphs[0] is g

    def test_blocks_against_vertex_deletion(self):
        rng = random.Random(99)
        graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
        assert len(graphs) == 143
        for _ in range(60):
            graphs.append(random_connected(rng.randrange(2, 10), rng.uniform(0.2, 0.9), rng))
        for g in graphs:
            assert_blocks_by_brute_force(g)


def connected_without(g, v):
    """True when deleting vertex v leaves g connected, by a plain search."""
    rest = [x for x in range(g.n) if x != v]
    if not rest:
        return True
    seen, todo = {rest[0]}, [rest[0]]
    while todo:
        for y in g.adjacency[todo.pop()]:
            if y != v and y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == len(rest)


def assert_blocks_by_brute_force(g):
    """Check a decomposition with vertex deletions, never with itself."""
    dec = block_decomposition(g)
    assert dec.cut_vertices == tuple(v for v in range(g.n) if not connected_without(g, v))
    assert list(dec.blocks) == sorted(dec.blocks)
    # Local vertex i of a block is its i-th smallest original vertex.
    block_edges = [
        [(verts[a], verts[b]) for a, b in bg.edges]
        for verts, bg in zip(dec.blocks, dec.block_graphs)
    ]
    all_edges = [e for es in block_edges for e in es]
    assert sorted(all_edges) == list(g.edges)
    assert len(set(all_edges)) == g.m
    for bg, verts, edges in zip(dec.block_graphs, dec.blocks, block_edges):
        assert list(verts) == sorted(set(verts))
        assert bg.n == len(verts) >= 2
        assert set(edges) == {e for e in g.edges if e[0] in verts and e[1] in verts}
        # A block on three or more vertices survives any one deletion.
        if len(verts) >= 3:
            assert all(connected_without(bg, v) for v in range(bg.n))
    # Pairs of blocks share at most a vertex, and it is a cut vertex.
    for b1, b2 in combinations(dec.blocks, 2):
        shared = set(b1) & set(b2)
        assert len(shared) <= 1
        assert shared <= set(dec.cut_vertices)


class TestSoftLayer:
    def test_k4_reduces_to_k2(self):
        assert soft_layer_reduce(k(4)) == (0, 1)

    def test_tree_is_irreducible(self):
        assert soft_layer_reduce(path(5)) == ()

    def test_cycle_loses_exactly_one_vertex(self):
        assert soft_layer_reduce(cycle(6)) == (0,)

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            soft_layer_reduce(graph(4, [(0, 1), (2, 3)]))

    def test_prefixes_are_valid_layers(self):
        # Recheck the definition against the original graph step by step: a
        # vertex is eligible when it is alive, has >= 2 alive neighbors, and
        # the alive set without it stays connected.
        def connected(g, vertex_set):
            if not vertex_set:
                return True
            start = min(vertex_set)
            seen, todo = {start}, [start]
            while todo:
                for y in g.adjacency[todo.pop()]:
                    if y in vertex_set and y not in seen:
                        seen.add(y)
                        todo.append(y)
            return seen == vertex_set

        def eligible(g, alive, v):
            alive_nbrs = sum(1 for y in g.adjacency[v] if y in alive)
            return alive_nbrs >= 2 and connected(g, alive - {v})

        rng = random.Random(77)
        for _ in range(25):
            g = random_connected(rng.randrange(3, 9), rng.uniform(0.3, 0.9), rng)
            alive = set(range(g.n))
            for v in soft_layer_reduce(g):
                assert v == min(u for u in alive if eligible(g, alive, u))
                alive.remove(v)
            assert not any(eligible(g, alive, u) for u in alive)
