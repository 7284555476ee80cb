import math
import pickle
import random
import tracemalloc
from itertools import combinations

import pytest

from mdlab import graph as graph_module
from mdlab.extremal import enumerate_connected
from mdlab.families import cycle_graph
from mdlab.graph import (
    Graph,
    Graph6Error,
    block_decomposition,
    from_graph6,
    graph,
    is_connected,
    min_degree,
    odd_girth,
    reach,
    to_graph6,
)
from mdlab.products import ProductKind, product


def k(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def random_graph(n, p, rng):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def random_connected(n, p, rng):
    while True:
        g = random_graph(n, p, rng)
        if is_connected(g):
            return g


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graph(10, outer + spokes + inner)


class TestCanonicalForm:
    def test_reversed_and_duplicate_pairs_collapse(self):
        g = graph(3, [(1, 0), (0, 1), (2, 1)])
        assert g.edges == ((0, 1), (1, 2))

    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            graph(2, [(1, 1)])

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, ((0, 2),))

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 2), (0, 1)))

    def test_equality_is_structural(self):
        assert graph(3, [(0, 1), (1, 2)]) == graph(3, [(1, 2), (0, 1)])
        assert graph(3, [(0, 1)]) != graph(4, [(0, 1)])

    def test_adjacency_matches_edges(self):
        g = graph(4, [(0, 1), (1, 2), (1, 3)])
        assert g.adjacency == ((1,), (0, 2, 3), (1,), (1,))
        assert len(g.adjacency[1]) == 3
        assert g.adjacency[3] == (1,)

    def test_adjacency_is_sorted_and_matches_edges(self):
        # Neighbor lists come out sorted without a sort, because the edge
        # tuple is sorted; each list is exactly the vertex's edge ends.
        rng = random.Random(11)
        for _ in range(100):
            g = random_graph(rng.randrange(0, 12), rng.random(), rng)
            adj = g.adjacency
            assert type(adj) is tuple and len(adj) == g.n
            for x, nbrs in enumerate(adj):
                assert type(nbrs) is tuple
                assert list(nbrs) == sorted({v for e in g.edges if x in e for v in e} - {x})


class TestSharedPairs:
    def test_equal_pairs_are_one_tuple_across_builders(self):
        assert graph(3, [(1, 0)]).edges[0] is graph(5, [(0, 1), (2, 3)]).edges[0]
        c4 = cycle(4)
        built = [
            from_graph6("Bw"),
            from_graph6(to_graph6(petersen())),
            product(c4, c4, ProductKind.CARTESIAN),
            product(c4, c4, ProductKind.TENSOR),
            *enumerate_connected(5),
        ]
        for g in built:
            for e in g.edges:
                assert e is graph(e[1] + 1, [e[::-1]]).edges[0], e

    def test_table_holds_only_the_short_graph6_range(self):
        c9 = cycle_graph(9).graph
        g = product(c9, c9, ProductKind.CARTESIAN)
        assert g.n == 81 and any(v >= 62 for _, v in g.edges)
        assert len(graph_module._PAIRS) <= 62 * 61 // 2 == 1891
        assert all(u < v < 62 for u, v in graph_module._PAIRS)
        assert graph(63, [(0, 62)]).edges[0] is not graph(63, [(0, 62)]).edges[0]

    def test_table_takes_only_plain_ints_in_range(self, monkeypatch):
        # A caller's odd pair is not the object later graphs get, and a pair
        # that is rejected does not stay in the table.
        monkeypatch.delitem(graph_module._PAIRS, (0, 1), raising=False)
        graph(2, [(True, False)])
        assert all(type(x) is int for x in graph(2, [(0, 1)]).edges[0])
        for bad in ((-1, 1), (-5, 1)):
            with pytest.raises(ValueError):
                graph(2, [bad])
            assert bad not in graph_module._PAIRS

    def test_held_graphs_cost_their_own_objects_only(self):
        # A held graph is its slotted Graph and its edge tuple; the pairs it
        # points at are shared.  A new tuple per pair and a __dict__ per Graph
        # would cost about 1,040 traced bytes per graph here; without them
        # it is about 360 (Pythons 3.10-3.13).
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graphs = list(enumerate_connected(7))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(graphs) == 853
        assert held / len(graphs) < 600, held / len(graphs)

    def test_slotted_graph_pickles_equal(self):
        # Census workers receive their graphs pickled.
        for g in (graph(0, []), cycle(5), petersen(), graph(63, [(0, 62)])):
            assert not hasattr(g, "__dict__")
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(g, protocol))
                assert back == g and hash(back) == hash(g)


class TestGraph6:
    # Hand-decoded per the bit layout: length byte n+63, then the upper
    # triangle column by column in 6-bit groups.
    def test_decode_k3(self):
        assert from_graph6("Bw") == k(3)

    def test_decode_path3(self):
        assert from_graph6("Bg") == graph(3, [(0, 1), (1, 2)])

    def test_decode_single_vertex(self):
        assert from_graph6("@") == graph(1, [])

    def test_graph6_that_is_not_a_string(self):
        with pytest.raises(Graph6Error):
            from_graph6(5)

    def test_encode_k3(self):
        assert to_graph6(k(3)) == "Bw"

    def test_encode_single_vertex(self):
        assert to_graph6(graph(1, [])) == "@"

    def test_c4_round_trip(self):
        c4 = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert from_graph6(to_graph6(c4)) == c4

    def test_round_trip_random(self):
        rng = random.Random(1729)
        for _ in range(200):
            n = rng.randrange(0, 15)
            g = random_graph(n, rng.random(), rng)
            assert from_graph6(to_graph6(g)) == g

    def test_round_trip_boundary_size(self):
        g = cycle(62)
        assert from_graph6(to_graph6(g)) == g

    def test_encode_matches_the_pair_loop_encoder(self):
        # The pair-by-pair reference: the upper triangle column by column,
        # six bits to a character, the last one padded with zeros.  Every n
        # up to 62 covers every padding length.
        def reference(g):
            edges = set(g.edges)
            out, acc, nb = [chr(g.n + 63)], 0, 0
            for v in range(1, g.n):
                for u in range(v):
                    acc = (acc << 1) | ((u, v) in edges)
                    nb += 1
                    if nb == 6:
                        out.append(chr(acc + 63))
                        acc, nb = 0, 0
            if nb:
                out.append(chr((acc << (6 - nb)) + 63))
            return "".join(out)

        rng = random.Random(62)
        for n in range(63):
            for p in (0, 0.1, 0.5, 1):
                g = random_graph(n, p, rng)
                assert to_graph6(g) == reference(g), (n, p)
                assert from_graph6(to_graph6(g)) == g, (n, p)

    def test_encode_rejects_large(self):
        with pytest.raises(Graph6Error):
            to_graph6(graph(63, []))

    def test_decode_rejects_long_form(self):
        with pytest.raises(Graph6Error, match="offset 0"):
            from_graph6("~??")

    def test_decode_rejects_bad_length_byte(self):
        with pytest.raises(Graph6Error, match="offset 0"):
            from_graph6("!")

    def test_decode_rejects_truncation(self):
        with pytest.raises(Graph6Error, match="content characters"):
            from_graph6("D")  # n=5 needs 2 content chars

    def test_decode_rejects_out_of_range_char(self):
        with pytest.raises(Graph6Error, match="offset 2"):
            from_graph6("Dw" + "\x05")

    def test_decode_rejects_nonzero_padding(self):
        # Each padding bit of the last character, set alone on the line of
        # K_n (every data bit set), is refused at that character's offset.
        for n in range(2, 13):
            nbits = n * (n - 1) // 2
            text = to_graph6(graph(n, combinations(range(n), 2)))
            for bit in range(-nbits % 6):
                bad = text[:-1] + chr((ord(text[-1]) - 63 | 1 << bit) + 63)
                with pytest.raises(Graph6Error) as info:
                    from_graph6(bad)
                assert str(info.value) == (
                    f"offset {nbits // 6 + 1}: nonzero padding bits after the {nbits} data bits"
                ), (n, bit)


class TestConnectivity:
    def test_k3_connected(self):
        assert is_connected(k(3))

    def test_two_disjoint_edges(self):
        g = graph(4, [(0, 1), (2, 3)])
        assert not is_connected(g)

    def test_c5_minus_edge_connected(self):
        g = graph(5, [(1, 2), (2, 3), (3, 4), (0, 4)])
        assert is_connected(g)

    def test_empty_graph_connected_by_convention(self):
        assert is_connected(graph(0, []))

    def test_agrees_with_components_on_every_small_labelled_graph(self):
        # All 1,100 labelled graphs on 0-5 vertices, disconnected ones included,
        # against a component count from a plain union-find.
        def component_count(g):
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for u, v in g.edges:
                parent[find(u)] = find(v)
            return len({find(x) for x in range(g.n)})

        checked = 0
        for n in range(6):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            for bits in range(1 << len(pairs)):
                g = graph(n, [e for i, e in enumerate(pairs) if bits >> i & 1])
                assert is_connected(g) == (component_count(g) <= 1), (n, g.edges)
                checked += 1
        assert checked == 1100

    def test_reach_is_a_component_of_the_induced_subgraph(self):
        # From one vertex of S, stepping only onto S, reach finds that
        # vertex's component of the subgraph S induces; S = every vertex by
        # default.  The oracle is a plain union-find on the kept edges.
        def component(g, start, within):
            parent = list(range(g.n))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            for u, v in g.edges:
                if within >> u & 1 and within >> v & 1:
                    parent[find(u)] = find(v)
            return sum(1 << x for x in range(g.n) if within >> x & 1 and find(x) == find(start))

        rng = random.Random(5)
        for _ in range(300):
            g = random_graph(rng.randrange(1, 9), rng.random(), rng)
            masks = [sum(1 << y for y in nbrs) for nbrs in g.adjacency]
            everyone = (1 << g.n) - 1
            within = rng.randrange(1, everyone + 1)
            start = rng.choice([v for v in range(g.n) if within >> v & 1])
            assert reach(masks, 1 << start, within) == component(g, start, within)
            assert reach(masks, 1 << start) == component(g, start, everyone)


class TestBlocks:
    def test_two_triangles_sharing_a_vertex(self):
        g = graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        dec = block_decomposition(g)
        assert dec.blocks == ((0, 1, 2), (2, 3, 4))

    def test_tree_blocks_are_edges(self):
        g = path(6)
        dec = block_decomposition(g)
        assert dec.blocks == ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))

    def test_cycle_single_block(self):
        dec = block_decomposition(cycle(5))
        assert dec.blocks == ((0, 1, 2, 3, 4),)

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
    adj = g.adjacency
    while todo:
        for y in adj[todo.pop()]:
            if y != v and y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen) == len(rest)


def assert_blocks_by_brute_force(g):
    """Check a decomposition with vertex deletions, never with itself."""
    dec = block_decomposition(g)
    # A vertex lies in two or more blocks exactly when it is a cut vertex.
    cut = {v for v in range(g.n) if not connected_without(g, v)}
    assert {v for v in range(g.n) if sum(v in b for b in dec.blocks) >= 2} == cut
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
        assert shared <= cut


class TestOddGirth:
    def test_c6_bipartite(self):
        assert odd_girth(cycle(6)) == math.inf

    def test_c5(self):
        assert odd_girth(cycle(5)) == 5

    def test_petersen_via_matrix_power_oracle(self):
        # Independent oracle: smallest odd k with a nonzero diagonal in A^k.
        g = petersen()
        n = g.n
        a = [[0] * n for _ in range(n)]
        for u, v in g.edges:
            a[u][v] = a[v][u] = 1
        power = [row[:] for row in a]

        def matmul(x, y):
            return [
                [sum(x[i][t] * y[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)
            ]

        oracle = None
        kk = 1
        while kk <= n:
            if kk % 2 == 1 and any(power[i][i] for i in range(n)):
                oracle = kk
                break
            power = matmul(power, a)
            kk += 1
        assert oracle == 5
        assert odd_girth(g) == 5

    def test_odd_girth_is_odd_or_infinite(self):
        def two_colorable(g):
            # BFS 2-colouring of each component; an edge inside one colour
            # class closes an odd cycle.
            color = [-1] * g.n
            adj = g.adjacency
            for s in range(g.n):
                if color[s] != -1:
                    continue
                color[s] = 0
                queue = [s]
                for x in queue:
                    for y in adj[x]:
                        if color[y] == -1:
                            color[y] = color[x] ^ 1
                            queue.append(y)
            return all(color[u] != color[v] for u, v in g.edges)

        rng = random.Random(23)
        for _ in range(60):
            g = random_graph(rng.randrange(1, 9), rng.random(), rng)
            og = odd_girth(g)
            if og == math.inf:
                assert two_colorable(g)
            else:
                assert og % 2 == 1
                assert not two_colorable(g)


class TestSmallQueries:
    def test_min_degree(self):
        assert min_degree(path(4)) == 1
        assert min_degree(k(4)) == 3
