"""Deterministic constructors for the named graph families and their colorings.

Every builder returns a FamilyGraph carrying the graph.  Builds are fully
deterministic: same parameters, same graph, same vertex ids.

The md-extremal families:

* sparsest_md_one(n): the sparsest known connected graphs with md = 1;
  ceil(3(n-1)/2) edges.  From n = 5 on, a fan with hub 0 on the path 1..p,
  p = n//2 + 1, whose inner spokes run through fresh vertices (for even n
  the spoke to p - 1 stays intact too).
* threshold_witness(n, r): n vertices, mu(n, r) edges, md exactly r; realizes
  the lower density threshold g(n, r) with equality.
* clique_lollipop / near_clique_lollipop: a clique-like block plus a pendant
  tail; these witness both sides of the upper density threshold f(n, r).
"""

from __future__ import annotations

from dataclasses import dataclass

from mdlab.coloring import EdgeColoring
from mdlab.graph import Graph, graph


@dataclass(frozen=True)
class FamilyGraph:
    graph: Graph


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def cycle_graph(n: int) -> FamilyGraph:
    _need(n >= 3, f"cycle needs n >= 3, got {n}")
    return FamilyGraph(graph(n, [(i, (i + 1) % n) for i in range(n)]))


def sparsest_md_one(n: int) -> FamilyGraph:
    """The sparsest family with md = 1: ceil(3(n-1)/2) edges for n >= 3.

    Up to three vertices this is K_n, and on four it is K_4 minus (0, 1).
    From five vertices on it is a fan: hub 0 on the path 1..p, with
    p = n//2 + 1.  The spokes to 1 and to p stay intact, and for even n so
    does the spoke to p - 1, which leaves one triangle at the far end.  Each
    other spoke runs through a fresh vertex, numbered from p + 1 in path
    order.
    """
    _need(n >= 1, f"sparsest-md-one needs n >= 1, got {n}")
    if n <= 4:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        return FamilyGraph(graph(n, edges[1:] if n == 4 else edges))  # K_4 drops (0, 1)
    p = n // 2 + 1
    subdivided = range(2, p - 1 if n % 2 == 0 else p)
    edges = [(i, i + 1) for i in range(1, p)]
    edges += [(0, i) for i in range(1, p + 1) if i not in subdivided]
    for fresh, i in enumerate(subdivided, start=p + 1):
        edges += [(0, fresh), (fresh, i)]
    return FamilyGraph(graph(n, edges))


def _threshold_witness_parts(
    n: int, r: int
) -> tuple[Graph, list[tuple[int, int]], tuple[tuple[int, int], ...]]:
    """Graph, ordered path edges and core edges for threshold_witness.

    The path is welded between two vertices of a sparsest_md_one core on k
    vertices: 0 and 1 when k <= 4, else the two ends of the fan's path, 1 and
    (k + 2) // 2.  In the cycle case the path is the n-cycle's walk from 0,
    and there is no core.
    """
    _need(n >= 6, f"threshold witness needs n >= 6, got {n}")
    _need(3 <= r <= n // 2, f"threshold witness needs 3 <= r <= n//2, got r={r}")
    if n % 2 == 0 and r == n // 2:
        walk, core = [*range(n), 0], ()
    else:
        k, t = (n - 2 * r + 1, 2 * r) if n % 2 == 0 else (n - 2 * r + 2, 2 * r - 1)
        core = sparsest_md_one(k).graph.edges
        u, w = (0, 1) if k <= 4 else (1, (k + 2) // 2)
        walk = [u, *range(k, k + t - 1), w]
    path_edges = [(min(a, b), max(a, b)) for a, b in zip(walk, walk[1:])]
    return graph(n, [*core, *path_edges]), path_edges, core


def threshold_witness(n: int, r: int) -> FamilyGraph:
    """n vertices, mu(n, r) edges, md exactly r.

    A sparse md = 1 core with a long path welded between two of its vertices;
    for even n with r = n/2 the construction degenerates to the n-cycle.
    """
    return FamilyGraph(_threshold_witness_parts(n, r)[0])


def threshold_witness_coloring(n: int, r: int) -> EdgeColoring:
    """The canonical r-coloring of threshold_witness(n, r): path edges cycle
    through 1..r; core edges take 1 for even n and r for odd n."""
    g, path_edges, core_edges = _threshold_witness_parts(n, r)
    by_edge = dict.fromkeys(core_edges, 1 if n % 2 == 0 else r)
    for i, e in enumerate(path_edges):
        by_edge[e] = i % r + 1
    return EdgeColoring(g, tuple(by_edge[e] for e in g.edges))


def clique_lollipop(n: int, tail: int) -> FamilyGraph:
    """K_{n-tail} with a pendant path of `tail` edges on vertex 0.

    One clique block plus `tail` bridges: md = tail + 1 when the clique has
    at least two vertices.  Edge count C(n-tail, 2) + tail.
    """
    _need(tail >= 0, f"tail must be >= 0, got {tail}")
    _need(n - tail >= 1, f"clique lollipop needs n - tail >= 1, got n={n}, tail={tail}")
    b = n - tail
    edges = [(i, j) for i in range(b) for j in range(i + 1, b)]
    walk = [0, *range(b, n)]
    return FamilyGraph(graph(n, edges + list(zip(walk, walk[1:]))))


def near_clique_lollipop(n: int, tail: int) -> FamilyGraph:
    """A near-complete block with a pendant path of `tail` edges.

    The block has b = n - tail vertices: a clique on the first b - 1 plus one
    extra vertex adjacent to vertices 0 and 1 only, giving C(b-1, 2) + 2
    edges and md = 1.  Total md = tail + 1.
    """
    _need(tail >= 0, f"tail must be >= 0, got {tail}")
    b = n - tail
    _need(b >= 3, f"near-clique lollipop needs n - tail >= 3, got n={n}, tail={tail}")
    edges = [(i, j) for i in range(b - 1) for j in range(i + 1, b - 1)]
    edges += [(0, b - 1), (1, b - 1)]
    walk = [0, *range(b, n)]
    return FamilyGraph(graph(n, edges + list(zip(walk, walk[1:]))))
