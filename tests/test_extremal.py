import concurrent.futures
import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

from mdlab import extremal
from mdlab.extremal import (
    _adjacency,
    _least_code,
    _orbit_minima,
    _pair_pos,
    _subset_representatives,
    enumerate_connected,
    md_census,
    verify_f,
    verify_g,
)
from mdlab.graph import to_graph6

# OEIS A001349: connected graphs on n unlabeled vertices.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# sha256 over the newline-joined graph6 strings of enumerate_connected(n), in
# order, recorded before canonical augmentation replaced deduplication of
# every child: the same graphs, labelled the same way, in the same order.
ENUMERATION_DIGESTS = {
    1: "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
    2: "ada8d598e51a0bf0d4bb5976d5dc6cb088a0603072947b002d4d665c54cadb1f",
    3: "ff300d6b5191490a6a2d507279c750a00c4d53fb98b6e1b3e8b59ef7894631ec",
    4: "3f857577f8738a7519c9982ffff9c372a7fa13b429b8eacd9cc7055aa015e437",
    5: "db1051baa8a00f9fae1eb28a3a37b8e32c66bff19af809746b6f5b0b06e7f1d4",
    6: "f5e49edc3e9e613c2c8b7c0f84aeb0eb77bb9670bdc43c249eba3ac0cfbd095d",
    7: "bb37d50d9c731dd9aa252605bdf7394125e9ada7d83408f6909aab7c9d5814fe",
    8: "179d1bd423ca661f4dbe761357038346f20bdfd34af3564742e065f608b120da",
}

SEVEN = pytest.param(7, marks=pytest.mark.slow)
EIGHT = pytest.param(8, marks=pytest.mark.slow)

# Regular graphs on 8 vertices: refinement leaves them in one cell, so their
# forms rest on individualization and the twin rule alone.  The last two are
# not vertex-transitive: branching on one vertex of that cell, without the
# twin check, gives a form that depends on which vertex comes first.
REGULAR_8 = {
    "C8": [(i, (i + 1) % 8) for i in range(8)],
    "3-cube": [(u, u | 1 << b) for u in range(8) for b in range(3) if not u >> b & 1],
    "K4,4": [(u, v) for u in range(4) for v in range(4, 8)],
    "complement of C8": [
        (u, v) for u, v in combinations(range(8), 2) if (v - u) % 8 not in (1, 7)
    ],
    "C3 + C5": [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)],
    "two K4 - e joined": [
        (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 4),
        (4, 5), (4, 6), (5, 6), (5, 7), (6, 7), (3, 7),
    ],
}


@pytest.fixture(autouse=True, scope="module")
def _restore_census_cache():
    """Put extremal._CENSUS_CACHE back as this module found it: tests in
    other modules count the solves a census makes, and a census warmed here
    would make none."""
    saved = dict(extremal._CENSUS_CACHE)
    yield
    extremal._CENSUS_CACHE.clear()
    extremal._CENSUS_CACHE.update(saved)


def _bits(edges) -> int:
    return sum(1 << _pair_pos(min(u, v), max(u, v)) for u, v in edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, SEVEN, EIGHT])
def test_enumeration_counts(n):
    g6 = [to_graph6(gg) for gg in enumerate_connected(n)]
    assert len(g6) == CONNECTED_COUNTS[n]
    assert hashlib.sha256("\n".join(g6).encode()).hexdigest() == ENUMERATION_DIGESTS[n]


@pytest.mark.parametrize("n", [0, 9, -1])
def test_enumeration_checks_n_at_the_call(n):
    with pytest.raises(ValueError):
        enumerate_connected(n)


def test_search_automorphisms_give_exactly_the_orbits():
    rng = random.Random(1)
    # C6, the triangular prism and a path: one orbit, one orbit, three.
    graphs = [
        (6, [(i, (i + 1) % 6) for i in range(6)]),
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
        (6, [(i, i + 1) for i in range(5)]),
    ]
    for _ in range(40):
        n, p = rng.randint(1, 6), rng.random()
        graphs.append((n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for n, edges in graphs:
        adj = _adjacency(_bits(edges), n)
        code, labels, generators = _least_code(adj)
        # The generators permute the labels, which relabel the graph to code.
        assert code == _bits([(labels[u], labels[v]) for u, v in edges])
        canon = _adjacency(code, n)
        pairs = [(u, v) for v in range(n) for u in range(v) if canon[v] >> u & 1]
        group = [
            perm
            for perm in permutations(range(n))
            if all(canon[perm[u]] >> perm[v] & 1 for u, v in pairs)
        ]
        assert all(tuple(perm) in group for perm in generators), (n, edges)
        assert _orbit_minima(n, generators) == [min(perm[x] for perm in group) for x in range(n)]

        def image(perm, subset):
            return sum(1 << perm[u] for u in range(n) if subset >> u & 1)

        least = [s for s in range(1, 1 << n) if all(image(perm, s) >= s for perm in group)]
        assert _subset_representatives(n, generators) == least, (n, edges)


def test_enumeration_pins_its_refinement_searches(monkeypatch):
    # One search per child that survives the degree keys: a child for each
    # of the 995 classes on 2..7 vertices, and 33 that the orbit test drops.
    # A lost orbit prune or a second search per child moves the count.
    searches = []
    search = extremal._least_code
    monkeypatch.setattr(extremal, "_least_code", lambda *a: searches.append(a) or search(*a))
    assert sum(1 for _ in enumerate_connected(7)) == CONNECTED_COUNTS[7]
    assert len(searches) == 1028


def test_a_duplicate_form_is_an_enumeration_bug(monkeypatch):
    # Without automorphisms every subset is its own orbit, so two isomorphic
    # children of one parent (P3 from K2, for one) are both kept.
    prune = extremal._subset_representatives
    monkeypatch.setattr(extremal, "_subset_representatives", lambda k, gens: prune(k, []))
    with pytest.raises(RuntimeError, match="enumeration bug"):
        list(enumerate_connected(5))


def test_canonical_is_invariant_under_relabelling():
    rng = random.Random(0)
    graphs = [(8, edges) for edges in REGULAR_8.values()]
    for _ in range(300):
        n, p = rng.randint(2, 8), rng.random()
        graphs.append((n, [e for e in combinations(range(n), 2) if rng.random() < p]))

    def canonical(bits, n):
        return _least_code(_adjacency(bits, n))[0]

    for n, edges in graphs:
        canon = canonical(_bits(edges), n)
        assert canon.bit_count() == len(edges)
        assert canonical(canon, n) == canon
        for _ in range(8):
            perm = rng.sample(range(n), n)
            relabelled = [(perm[u], perm[v]) for u, v in edges]
            assert canonical(_bits(relabelled), n) == canon, (n, edges, perm)


def test_enumeration_matches_networkx_atlas():
    nx = pytest.importorskip("networkx")
    atlas: dict[int, list] = {}
    for h in nx.graph_atlas_g()[1:]:  # entry 0 is the graph with no vertices
        if nx.is_connected(h):
            atlas.setdefault(h.number_of_nodes(), []).append(h)

    def degrees(h) -> tuple[int, ...]:
        return tuple(sorted(d for _, d in h.degree()))

    for n in range(1, 8):
        buckets: dict[tuple[int, ...], list] = {}
        for h in atlas[n]:
            buckets.setdefault(degrees(h), []).append(h)
        for gg in enumerate_connected(n):
            ours = nx.empty_graph(n)
            ours.add_edges_from(gg.edges)
            bucket = buckets.get(degrees(ours), [])
            match = next((h for h in bucket if nx.is_isomorphic(h, ours)), None)
            assert match is not None, (n, gg.edges)
            bucket.remove(match)
        assert not any(buckets.values()), n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, SEVEN, EIGHT])
def test_thresholds_verified(n):
    for r in range(1, n):
        for report in (verify_f(n, r), verify_g(n, r)):
            assert report.verified, report
            assert report.stats["graphs_checked"] == CONNECTED_COUNTS[n]


def test_census_rows_cannot_be_changed_by_a_caller():
    rows = md_census(4)
    with pytest.raises(AttributeError):
        rows.append(("C~", 6, 1))
    # A second call is a cache hit: these rows, not a new census.
    assert md_census(4) is rows
    assert len(md_census(4)) == CONNECTED_COUNTS[4]
    assert verify_f(4, 1).stats["graphs_checked"] == CONNECTED_COUNTS[4]


def test_parallel_census_equals_serial(monkeypatch):
    # Each census starts on an empty cache, because a cached one ignores jobs.
    monkeypatch.setattr(extremal, "_CENSUS_CACHE", {})
    serial = md_census(6, jobs=1)
    monkeypatch.setattr(extremal, "_CENSUS_CACHE", {})
    assert md_census(6, jobs=2) == serial
    assert len(serial) == CONNECTED_COUNTS[6]


def test_parallel_census_keeps_few_graphs_in_flight(monkeypatch):
    # A pool that runs each task when its result is read, in this process,
    # shows how far the census draws ahead of the rows it has taken back: a
    # pool that takes the whole enumeration before the first row fails.
    yielded, taken, ahead = 0, 0, []
    enumerate_all = extremal.enumerate_connected

    def counting_enumeration(n):
        nonlocal yielded
        for g in enumerate_all(n):
            yielded += 1
            yield g

    class Deferred:
        def __init__(self, fn, args):
            self.fn, self.args = fn, args

        def result(self):
            nonlocal taken
            ahead.append(yielded - taken)
            out = self.fn(*self.args)
            taken += len(out) if isinstance(out, list) else 1
            return out

    class InlinePool:
        def __init__(self, max_workers):
            assert max_workers == 2

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            return Deferred(fn, args)

        def map(self, fn, iterable, chunksize=1):
            futures = [Deferred(fn, (x,)) for x in iterable]
            return (f.result() for f in futures)

    monkeypatch.setattr(extremal, "_CENSUS_CACHE", {})
    monkeypatch.setattr(extremal, "enumerate_connected", counting_enumeration)
    monkeypatch.setattr(extremal, "_census_row", lambda g: (to_graph6(g), g.m, 0))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    rows = md_census(7, jobs=2)
    assert rows == tuple((to_graph6(g), g.m, 0) for g in enumerate_all(7))
    assert yielded == taken == CONNECTED_COUNTS[7]
    # 2 * jobs chunks of 32 in flight, and the one drawn next.
    assert max(ahead) <= (2 * 2 + 1) * 32, max(ahead)


def test_serial_census_solves_each_graph_as_it_is_yielded(monkeypatch):
    # No list of every graph comes first: the first solve runs while the
    # enumeration still has graphs to yield.
    yielded, at_first_solve = 0, []
    enumerate_all, solve = extremal.enumerate_connected, extremal.solver.md_exact

    def counting_enumeration(n):
        nonlocal yielded
        for g in enumerate_all(n):
            yielded += 1
            yield g

    def counting_solve(g, **kwargs):
        if not at_first_solve:
            at_first_solve.append(yielded)
        return solve(g, **kwargs)

    monkeypatch.setattr(extremal, "_CENSUS_CACHE", {})
    monkeypatch.setattr(extremal, "enumerate_connected", counting_enumeration)
    monkeypatch.setattr(extremal.solver, "md_exact", counting_solve)
    assert len(md_census(6)) == yielded == CONNECTED_COUNTS[6]
    assert at_first_solve == [1]


@pytest.mark.parametrize("jobs", [0, -3, 1.5, True])
def test_census_refuses_bad_jobs_before_enumerating(jobs, monkeypatch):
    def enumerate_nothing(n):
        raise AssertionError("enumerated before checking jobs")

    monkeypatch.setattr(extremal, "enumerate_connected", enumerate_nothing)
    with pytest.raises(ValueError, match="jobs"):
        md_census(5, jobs=jobs)


@pytest.mark.parametrize("n", [0, 9, -1])
def test_census_refuses_orders_outside_the_enumeration(n, monkeypatch):
    # The enumeration is the census's one source, so its order check is the
    # census's, and a refused order leaves nothing in the cache.
    monkeypatch.setattr(extremal, "_CENSUS_CACHE", {})
    with pytest.raises(ValueError, match=f"got {n}"):
        md_census(n)
    assert extremal._CENSUS_CACHE == {}


def fresh_import(imports, module):
    """Whether `module` is loaded after `import <imports>` in a new interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, {imports}; print({module!r} in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.strip() == "True"


def test_package_imports_without_numpy():
    assert not fresh_import("mdlab, mdlab.extremal, mdlab.cli", "numpy")


def test_extremal_imports_no_process_pool():
    # The pool is imported by md_census(jobs > 1) alone; the jobs=2 census
    # tests cover that path.
    assert not fresh_import("mdlab.extremal", "concurrent.futures.process")
