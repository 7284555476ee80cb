import random
from functools import lru_cache

import pytest

from mdlab import solver
from mdlab.analysis import block_decomposition
from mdlab.coloring import EdgeColoring, is_md_coloring
from mdlab.extremal import enumerate_connected, md_census
from mdlab.graph import graph, is_connected
from mdlab.products import ProductKind, product
from mdlab.solver import (
    SearchBudgetExceeded,
    SearchConfig,
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


# Hub 0 joined by paths of length two to the 4-cycle 5-6-7-8: md 2.  Its
# soft-layer bound solves C4 with four pendant edges (md 6, 3 search nodes),
# which loses to the half-order bound 4.
HUB_AND_C4 = graph(
    9,
    [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8),
     (5, 6), (6, 7), (7, 8), (5, 8)],
)


def assert_classes_sound(g):
    """Every separating coloring of g is constant on each mono class."""
    classes = [[g.edge_index[e] for e in cls] for cls in mono_classes(g)]
    for a in restricted_growth_strings(g.m):
        if all(len({a[i] for i in cls}) == 1 for cls in classes):
            continue
        coloring = EdgeColoring(g, tuple(c + 1 for c in a))
        assert not is_md_coloring(g, coloring)[0], (g.edges, tuple(a))


class TestMonoClasses:
    def test_k4_single_class(self):
        assert len(mono_classes(k(4))) == 1

    def test_c5_all_singletons(self):
        assert len(mono_classes(cycle(5))) == 5

    def test_k23_single_class(self):
        assert len(mono_classes(k23())) == 1

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


@pytest.mark.parametrize("solve", [md_exact, md_upper_bound], ids=["md_exact", "md_upper_bound"])
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


class TestPackingCut:
    def test_suffix_bounds_on_census_blocks(self):
        # Soundness of the cut, suffix by suffix: the colors of an extremal
        # coloring that lie wholly in classes i..t-1 number at most pack[i].
        blocks = census_blocks()
        assert len(blocks) == 615
        for g in blocks:
            table = solver._SepTable(g)
            pack, t = table.packing(), len(table.classes)
            assert len(pack) == t + 1 and pack[t] == 0, g.edges
            assert all(pack[i] <= t - i for i in range(t)), (g.edges, pack)
            result = md_exact(g)
            assert pack[0] >= result.value, (g.edges, pack)
            first = {}
            for i, cls in enumerate(table.classes):
                for e in cls:
                    first.setdefault(result.certificate.colors[g.edge_index[e]], i)
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
                assert solver._SepTable(g).packing()[0] >= md_oracle(g), g.edges


class TestBudgets:
    def test_soft_layer_sub_solve_is_charged(self):
        result = md_exact(HUB_AND_C4)
        assert result.value == 2
        # 1,188 nodes of main search plus 3 in the soft-layer sub-solve.
        assert result.stats["nodes"] == 1191
        assert md_exact(HUB_AND_C4, SearchConfig(node_budget=1191)).value == 2
        with pytest.raises(SearchBudgetExceeded):
            md_exact(HUB_AND_C4, SearchConfig(node_budget=1190))

    def test_upper_bound_sub_solve_honors_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            md_upper_bound(HUB_AND_C4, SearchConfig(node_budget=2))
        assert md_upper_bound(HUB_AND_C4, SearchConfig(node_budget=3)) == (4, "half-order")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_census_passes_config(self, jobs):
        with pytest.raises(SearchBudgetExceeded):
            md_census(
                6,
                graphs=list(enumerate_connected(6)),
                jobs=jobs,
                cfg=SearchConfig(node_budget=1),
            )


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
        # C6: its soft-layer bound solves the path P5 through md_exact again.
        assert solver.md_exact(cycle(6)).value == 3
        assert calls["md_exact"] == 2
        assert all(calls[name] > 0 for name in self.LAYERS), calls
        # md_feasible merges the certificate of a solve made through the module.
        assert solver.md_feasible(cycle(6), 2).k == 2
        assert calls["md_exact"] == 4

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
        md_census(4, graphs=list(enumerate_connected(4)))
        assert calls["top"] == 6
        # C4's soft-layer bound solves the path P3.
        assert calls["nested"] == 1
