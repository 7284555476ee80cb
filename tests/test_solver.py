import gc
import hashlib
import random
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from mdlab import extremal, solver
from mdlab.coloring import EdgeColoring, is_md_coloring
from mdlab.extremal import enumerate_connected, md_census
from mdlab.graph import block_decomposition, graph, is_connected, to_graph6
from mdlab.products import ProductKind, product
from mdlab.solver import (
    SearchBudgetExceeded,
    md_exact,
    md_lower_bound,
    md_oracle,
    md_upper_bound,
    mono_classes,
)


def k(n):
    return graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def k23():
    return graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


def random_connected(n, p, rng):
    while True:
        g = graph(
            n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        )
        if is_connected(g):
            return g


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def restricted_growth_strings(m):
    """All set partitions of range(m) as restricted growth strings.

    Yields the same list object each time; copy if you keep it.  The count is
    the m-th Bell number.
    """
    if m == 0:
        yield []
        return
    a = [0] * m
    b = [1] * m  # b[i] = 1 + max(a[:i]); a[i] may range over 0..b[i]
    while True:
        yield a
        j = m - 1
        while j > 0 and a[j] == b[j]:
            j -= 1
        if j == 0:
            return
        a[j] += 1
        nb = b[j] + 1 if a[j] == b[j] else b[j]
        for t in range(j + 1, m):
            a[t] = 0
            b[t] = nb


def connected_graphs(orders):
    for n in orders:
        yield from enumerate_connected(n)


# Hub 0 joined by paths of length two to the 4-cycle 5-6-7-8: md 2.  Its soft
# layer is the hub alone, and what survives is C4 with four pendant edges, a
# graph with a cycle; the soft-layer bound 9 - 1 - 1 = 7 loses to the
# half-order bound 4, and the search takes 205 nodes.
HUB_AND_C4 = graph(
    9,
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8),
     (5, 6), (6, 7), (7, 8), (5, 8)],
)


def assert_classes_sound(g):
    """Every separating coloring of g is constant on each mono class."""
    index = g.edge_index
    classes = [[index[e] for e in cls] for cls in mono_classes(g)]
    for a in restricted_growth_strings(g.m):
        if all(len({a[i] for i in cls}) == 1 for cls in classes):
            continue
        coloring = EdgeColoring(g, tuple(c + 1 for c in a))
        assert not is_md_coloring(g, coloring)[0], (g.edges, tuple(a))


def naive_mono_classes(g):
    """Reference closure: a plain union over the edges of every triangle and
    the opposite edges of every 4-cycle, classes by least edge index."""
    parent = list(range(g.m))
    index = g.edge_index

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(*edges):
        ids = [index[tuple(sorted(e))] for e in edges]
        for i in ids[1:]:
            parent[find(i)] = find(ids[0])

    present = set(g.edges)

    def adjacent(a, b):
        return (min(a, b), max(a, b)) in present

    for a, b, c in combinations(range(g.n), 3):
        if adjacent(a, b) and adjacent(b, c) and adjacent(a, c):
            union((a, b), (b, c), (a, c))
    for a, b, c, d in permutations(range(g.n), 4):
        if adjacent(a, b) and adjacent(b, c) and adjacent(c, d) and adjacent(d, a):
            union((a, b), (c, d))
            union((b, c), (d, a))
    groups = {}
    for i in range(g.m):
        groups.setdefault(find(i), []).append(g.edges[i])
    return [tuple(cls) for cls in groups.values()]


class TestMonoClasses:
    def test_k4_single_class(self):
        assert len(mono_classes(k(4))) == 1

    def test_c5_all_singletons(self):
        assert len(mono_classes(cycle(5))) == 5

    def test_k23_single_class(self):
        assert len(mono_classes(k23())) == 1

    def test_equal_to_naive_closure(self):
        # Exact, not only sound: classes that came out too fine would pass the
        # soundness tests and only cost search nodes.
        rng = random.Random(17)
        graphs = list(connected_graphs(range(1, 7)))
        graphs += [random_connected(rng.randrange(2, 11), rng.uniform(0.2, 0.9), rng) for _ in range(60)]
        graphs += [k(n) for n in range(2, 7)]
        graphs += [graph(2 + t, [(a, b) for a in range(2) for b in range(2, 2 + t)]) for t in (3, 4, 5)]
        graphs += [graph(3, []), graph(3, [(0, 2)])]
        for g in graphs:
            assert mono_classes(g) == naive_mono_classes(g), g.edges

    def test_classes_partition_edges(self):
        rng = random.Random(5)
        for _ in range(30):
            g = random_connected(rng.randrange(2, 9), rng.uniform(0.2, 0.9), rng)
            seen = [e for cls in mono_classes(g) for e in cls]
            assert sorted(seen) == list(g.edges)

    def test_soundness_small_census(self):
        for g in connected_graphs(range(1, 6)):
            if g.m <= 8:
                assert_classes_sound(g)

    @pytest.mark.slow
    def test_soundness_dense_five_vertex_graphs(self):
        dense = [g for g in enumerate_connected(5) if g.m > 8]
        assert len(dense) == 2
        for g in dense:
            assert_classes_sound(g)

    def test_soundness_on_random_graphs(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 25:
            g = random_connected(rng.randrange(4, 8), rng.uniform(0.3, 0.7), rng)
            if g.m <= 7:
                assert_classes_sound(g)
                checked += 1


@pytest.mark.parametrize(
    "solve", [md_exact, md_upper_bound, md_lower_bound], ids=["md_exact", "md_upper_bound", "md_lower_bound"]
)
def test_rejects_disconnected(solve):
    with pytest.raises(ValueError):
        solve(graph(4, [(0, 1), (2, 3)]))


class TestExactAgainstOracle:
    def test_up_to_five_vertices(self):
        for g in connected_graphs(range(1, 6)):
            assert md_exact(g).value == md_oracle(g), g.edges

    def test_feasible_exactly_up_to_md_at_every_k(self):
        # md_feasible answers from md_exact's value and merges its certificate
        # down to k colors; this checks each k against the oracle, including
        # the merged colorings below md.
        for g in connected_graphs(range(2, 6)):
            md = md_oracle(g)
            for kk in range(1, g.m + 1):
                coloring = solver.md_feasible(g, kk)
                assert (coloring is not None) == (kk <= md), (g.edges, kk, md)
                if coloring is not None:
                    assert coloring.k == kk and is_md_coloring(g, coloring)[0]

    @pytest.mark.slow
    def test_six_and_seven_vertices_sparse(self):
        graphs = [g for g in enumerate_connected(6) if g.m <= 10]
        graphs += [g for g in enumerate_connected(7) if g.m <= 9]
        for g in graphs:
            assert md_exact(g).value == md_oracle(g), g.edges


# sha256 over one line per connected graph on 1-7 vertices (996 graphs), in
# enumerate_connected order: graph6, md, certificate colors, bound trail and
# search nodes.  Only a change meant to move a certificate, a trail or a node
# count may re-pin it, and it says why.  Last re-pinned when md_exact stopped
# putting md_lower_bound's entry (one, tree or unicyclic-half) in each block's
# trail: the digest equals the previous one's solves with those entries dropped.
SOLVE_DIGEST_N7 = "cf1c67c54780769e88d150736af066068cef8365d5ee2e54eeaddb536b654bc4"


def test_census_solves_match_the_pinned_digest():
    digest = hashlib.sha256()
    graphs = list(connected_graphs(range(1, 8)))
    assert len(graphs) == 996
    for g in graphs:
        r = md_exact(g)
        # md_feasible relies on this palette: exactly the colors 1..md.
        assert set(r.certificate.colors) == set(range(1, r.value + 1)), g.edges
        digest.update(
            f"{to_graph6(g)} {r.value} {list(r.certificate.colors)} "
            f"{[list(s) for s in r.bounds_trail]} {r.stats['nodes']}\n".encode()
        )
    assert digest.hexdigest() == SOLVE_DIGEST_N7


def test_feasible_refuses_a_certificate_that_skips_a_color(monkeypatch):
    # md_feasible caps the certificate's colors at k, which leaves exactly k
    # colors only on the palette 1..md.  Colors {2, 3} with md 2 separate C4,
    # but capped at 2 they are one color: md_feasible must raise, not return it.
    c4 = cycle(4)
    skipping = replace(md_exact(c4), certificate=EdgeColoring(c4, (2, 3, 3, 2)))
    assert skipping.value == 2 and is_md_coloring(c4, skipping.certificate)[0]
    monkeypatch.setattr(solver, "md_exact", lambda g: skipping)
    assert solver.md_feasible(c4, 1).colors == (1, 1, 1, 1)
    with pytest.raises(RuntimeError, match="solver bug"):
        solver.md_feasible(c4, 2)


def test_solves_and_checks_keep_nothing_on_the_graph():
    # adjacency and edge_index are built per read, and Graph is slotted, so
    # neither a solve of one block or of several nor a certificate check can
    # leave a view on the graph.
    c5, pendant, c4 = cycle(5), graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]), cycle(4)
    assert md_exact(c5).value == 2
    assert md_exact(pendant).value == 3
    assert is_md_coloring(c4, EdgeColoring(c4, (1, 2, 2, 1)))[0]
    for g in (c5, pendant, c4):
        assert not hasattr(g, "__dict__")


@pytest.mark.parametrize(
    "call",
    [
        lambda: md_exact(product(cycle(5), cycle(5), ProductKind.CARTESIAN)),
        lambda: md_exact(HUB_AND_C4),
        lambda: list(enumerate_connected(5)),
    ],
    ids=["c5_box_c5", "hub_and_c4", "enumerate_5"],
)
def test_searches_leave_no_cycles_for_the_collector(call):
    # The block search, the refinement search and the enumeration's growth
    # drop their recursive closures on return, so reference counting frees
    # each search's state (the block's table and memo, the leaves, the forms).
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestBounds:
    @pytest.mark.parametrize(
        "g, bound",
        [(cycle(4), (2, "half-order")), (path(4), (3, "vertex-bound")), (k(2), (1, "vertex-bound"))],
        ids=["c4", "p4", "k2"],
    )
    def test_upper_rule(self, g, bound):
        # Half-order applies exactly when the graph has >= 3 vertices and no
        # cut vertex.
        assert md_upper_bound(g) == bound

    def test_sandwich_up_to_six_vertices(self):
        for g in connected_graphs(range(2, 7)):
            value = md_exact(g).value
            assert md_lower_bound(g)[0] <= value <= md_upper_bound(g)[0], g.edges

    def test_c5_box_c5(self):
        c5 = cycle(5)
        result = md_exact(product(c5, c5, ProductKind.CARTESIAN))
        assert result.value == 4
        assert ("soft-layer", 6) in result.bounds_trail


@lru_cache(maxsize=None)
def census_blocks():
    """Each distinct 2-connected block of the connected graphs on 3-7 vertices."""
    blocks = {}
    for g in connected_graphs(range(3, 8)):
        for bg in block_decomposition(g).block_graphs:
            if bg.n >= 3:
                blocks.setdefault((bg.n, bg.edges), bg)
    return tuple(blocks.values())


class TestOnePassPerBlock:
    def test_table_hand_off_gives_the_same_bound(self):
        for bg in census_blocks():
            assert md_upper_bound(bg, _table=solver._SepTable(bg)) == md_upper_bound(bg), bg.edges


class TestSoftLayer:
    def test_k4_reduces_to_k2(self):
        assert solver._soft_layer(k(4)) == (0, 1)

    def test_tree_is_irreducible(self):
        assert solver._soft_layer(path(5)) == ()

    def test_cycle_loses_exactly_one_vertex(self):
        assert solver._soft_layer(cycle(6)) == (0,)

    def test_prefixes_are_valid_layers(self):
        # Recheck the definition against the original graph step by step: a
        # vertex is eligible when it is alive, has >= 2 alive neighbors, and
        # the alive set without it stays connected.  Each step must strip the
        # smallest eligible vertex, as a rescan from vertex 0 would, on every
        # connected graph on 3-7 vertices and random ones on 3-14.
        def connected(adj, vertex_set):
            if not vertex_set:
                return True
            start = min(vertex_set)
            seen, todo = {start}, [start]
            while todo:
                for y in adj[todo.pop()]:
                    if y in vertex_set and y not in seen:
                        seen.add(y)
                        todo.append(y)
            return seen == vertex_set

        def eligible(adj, alive, v):
            alive_nbrs = sum(1 for y in adj[v] if y in alive)
            return alive_nbrs >= 2 and connected(adj, alive - {v})

        rng = random.Random(77)
        graphs = [g for n in range(3, 8) for g in enumerate_connected(n)]
        graphs += [random_connected(rng.randrange(3, 15), rng.uniform(0.3, 0.9), rng) for _ in range(60)]
        assert len(graphs) == 994 + 60
        for g in graphs:
            alive = set(range(g.n))
            adj = g.adjacency
            for v in solver._soft_layer(g):
                assert v == min(u for u in alive if eligible(adj, alive, u))
                alive.remove(v)
            assert not any(eligible(adj, alive, u) for u in alive)


class TestSoftLayerBound:
    """The soft-layer rule's value, the vertex bound of what survives the
    stripped layer, never falls below md."""

    @staticmethod
    def soft_layer_value(g):
        return g.n - len(solver._soft_layer(g)) - 1

    def test_at_least_md_exact(self):
        blocks = census_blocks()
        assert len(blocks) == 615
        for g in list(blocks) + [HUB_AND_C4] + the_three_products():
            assert self.soft_layer_value(g) >= md_exact(g).value, g.edges

    def test_at_least_oracle_md(self):
        blocks = [g for g in census_blocks() if g.m <= 9]
        assert len(blocks) == 125
        for g in blocks:
            assert self.soft_layer_value(g) >= md_oracle(g), g.edges


class TestPackingCut:
    def test_suffix_bounds_on_census_blocks(self):
        # Soundness of the cut, suffix by suffix: the colors of an extremal
        # coloring that lie wholly in the classes at positions i..t-1 of the
        # search order number at most pack[i].
        blocks = census_blocks()
        assert len(blocks) == 615
        for g in blocks:
            table = solver._SepTable(g)
            (pack, order), t = table.packing(), len(table.classes)
            assert sorted(order) == list(range(t)), (g.edges, order)
            assert len(pack) == t + 1 and pack[t] == 0, g.edges
            assert all(pack[i] <= t - i for i in range(t)), (g.edges, pack)
            result = md_exact(g)
            assert pack[0] >= result.value, (g.edges, pack)
            first, index = {}, g.edge_index
            for i, c in enumerate(order):
                for e in table.classes[c]:
                    first.setdefault(result.certificate.colors[index[e]], i)
            for i in range(t):
                inside = sum(1 for start in first.values() if start >= i)
                assert inside <= pack[i], (g.edges, i, pack)

    @pytest.mark.parametrize(
        "edges",
        [range(10), pytest.param(range(10, 11), marks=pytest.mark.slow)],
        ids=["m_up_to_9", "m_10"],
    )
    def test_packing_at_least_oracle_md(self, edges):
        for g in census_blocks():
            if g.m in edges:
                assert solver._SepTable(g).packing()[0][0] >= md_oracle(g), g.edges


def the_three_products():
    return [product(cycle(5), cycle(5), ProductKind.CARTESIAN),
            product(cycle(6), cycle(6), ProductKind.CARTESIAN),
            product(cycle(5), cycle(5), ProductKind.TENSOR)]


def pair_mask_by_components(g, classes, deleted):
    """Bit u*n + v for every ordered pair u != v that deleting the classes in
    `deleted` puts in different components, from a plain union-find."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for ci, cls in enumerate(classes):
        if not (deleted >> ci) & 1:
            for u, v in cls:
                parent[find(u)] = find(v)
    roots = [find(x) for x in range(g.n)]
    return sum(1 << (u * g.n + v) for u in range(g.n) for v in range(g.n) if roots[u] != roots[v])


class TestSepTable:
    def test_memo_after_search_equals_a_fresh_table(self):
        # Every entry left by the packing walks and the search equals sep
        # computed afresh; the classes stay in mono_classes order throughout,
        # even on the blocks whose search order regroups them.
        regrouped = 0
        for g in list(census_blocks()) + the_three_products():
            table = solver._SepTable(g)
            solver._search(table, g.n // 2, solver._Budget(solver.NODE_BUDGET))
            assert table.classes == mono_classes(g), g.edges
            _, order = table.packing()
            t = len(table.classes)
            regrouped += order != sorted(range(t), key=lambda c: (-len(table.classes[c]), c))
            fresh = solver._SepTable(g)
            for key, mask in table._memo.items():
                assert fresh.sep(key) == mask, (g.edges, key)
        assert regrouped > 0

    def test_sep_equals_plain_components_on_every_subset(self):
        blocks = [g for g in census_blocks() if len(solver._SepTable(g).classes) <= 10]
        blocks += [g for g in the_three_products() if len(solver._SepTable(g).classes) <= 10]
        assert len(blocks) == 617  # all 615 census blocks, C5 box C5 and C5 x C5
        for g in blocks:
            table = solver._SepTable(g)
            table.packing()
            for deleted in range(1 << len(table.classes)):
                want = pair_mask_by_components(g, table.classes, deleted)
                assert table.sep(deleted) == want, (g.edges, deleted)


class TestBudgets:
    def test_budget_is_the_search_node_count(self):
        result = md_exact(HUB_AND_C4)
        assert result.value == 2
        assert result.stats["nodes"] == 205
        assert md_exact(HUB_AND_C4, node_budget=205).value == 2
        with pytest.raises(SearchBudgetExceeded) as exc:
            md_exact(HUB_AND_C4, node_budget=204)
        assert exc.value.nodes == 205

    @pytest.mark.parametrize("budget", [0, -1, 2.5, True])
    def test_budget_must_be_a_positive_int(self, budget):
        with pytest.raises(ValueError):
            md_exact(cycle(6), node_budget=budget)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_census_solves_with_md_exact_default_budget(self, jobs, monkeypatch):
        # md_census takes no budget: serial and worker solves alike must give
        # md_exact's own value on every graph.  An empty cache makes it solve.
        monkeypatch.setattr(extremal, "_CENSUS_CACHE", {})
        rows = md_census(5, jobs=jobs)
        assert [v for _, _, v in rows] == [md_exact(g).value for g in enumerate_connected(5)]


class TestLayerHooks:
    """Callers outside the package time and count layers by replacing these
    module attributes, so the solver must look them up at call time."""

    LAYERS = (
        "block_decomposition",
        "mono_classes",
        "md_upper_bound",
        "md_lower_bound",
        "is_md_coloring",
        "md_exact",
    )

    def test_every_layer_call_goes_through_the_module(self, monkeypatch):
        calls = dict.fromkeys(self.LAYERS, 0)

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in self.LAYERS:
            monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
        # No bound solves, so a solve is one md_exact call.  HUB_AND_C4's soft
        # layer leaves a graph with a cycle, and its bound solves nothing either.
        assert solver.md_exact(HUB_AND_C4).value == 2
        assert calls["md_exact"] == 1
        # md_lower_bound is standalone: a solve's trail holds upper bounds only.
        assert calls["md_lower_bound"] == 0, calls
        assert all(calls[name] > 0 for name in self.LAYERS if name != "md_lower_bound"), calls
        # md_feasible merges the certificate of a solve made through the module.
        assert solver.md_feasible(HUB_AND_C4, 2).k == 2
        assert calls["md_exact"] == 2

    def test_census_solves_through_the_module(self, monkeypatch):
        calls = {"top": 0, "nested": 0}
        inner = solver.md_exact
        depth = 0

        def counting(*args, **kwargs):
            nonlocal depth
            calls["nested" if depth else "top"] += 1
            depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                depth -= 1

        monkeypatch.setattr(solver, "md_exact", counting)
        monkeypatch.setattr(extremal, "_CENSUS_CACHE", {})
        md_census(4)
        assert calls == {"top": 6, "nested": 0}
