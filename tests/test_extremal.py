import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from mdlab.extremal import (
    _canonical,
    _pair_pos,
    enumerate_connected,
    md_census,
    verify_f,
    verify_g,
)

# OEIS A001349: connected graphs on n unlabeled vertices.
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

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


def _bits(edges) -> int:
    return sum(1 << _pair_pos(min(u, v), max(u, v)) for u, v in edges)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, SEVEN, EIGHT])
def test_enumeration_counts(n):
    assert sum(1 for _ in enumerate_connected(n)) == CONNECTED_COUNTS[n]


def test_canonical_is_invariant_under_relabelling():
    rng = random.Random(0)
    graphs = [(8, edges) for edges in REGULAR_8.values()]
    for _ in range(300):
        n, p = rng.randint(2, 8), rng.random()
        graphs.append((n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    for n, edges in graphs:
        canon = _canonical(_bits(edges), n)
        assert canon.bit_count() == len(edges)
        assert _canonical(canon, n) == canon
        for _ in range(8):
            perm = rng.sample(range(n), n)
            relabelled = [(perm[u], perm[v]) for u, v in edges]
            assert _canonical(_bits(relabelled), n) == canon, (n, edges, perm)


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
    assert len(md_census(4)) == CONNECTED_COUNTS[4]
    assert verify_f(4, 1).stats["graphs_checked"] == CONNECTED_COUNTS[4]


def test_parallel_census_equals_serial():
    # Passing graphs= keeps the census cache, which ignores jobs, out of it.
    graphs = list(enumerate_connected(6))
    serial = md_census(6, graphs=graphs, jobs=1)
    assert md_census(6, graphs=graphs, jobs=2) == serial
    assert len(serial) == CONNECTED_COUNTS[6]


def test_package_imports_without_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, mdlab, mdlab.extremal, mdlab.cli; print('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"
