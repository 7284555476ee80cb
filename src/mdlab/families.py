"""Deterministic constructors for the named graph families and their colorings.

Every builder returns a FamilyGraph carrying the graph plus a label map from
structural vertex names (hub, path positions, subdivision vertices, ...) to
ids, so callers can locate the vertices a construction talks about.  Builds
are fully deterministic: same parameters, same graph, same labels.

The md-extremal families:

* sparsest_md_one(n): the sparsest known connected graphs with md = 1, built
  from fans with subdivided inner spokes; ceil(3(n-1)/2) edges.
* threshold_witness(n, r): n vertices, mu(n, r) edges, md exactly r; realizes
  the lower density threshold g(n, r) with equality.
* clique_lollipop / near_clique_lollipop: a clique-like block plus a pendant
  tail; these witness both sides of the upper density threshold f(n, r).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mdlab.coloring import EdgeColoring
from mdlab.graph import Graph, graph


@dataclass(frozen=True)
class FamilyGraph:
    graph: Graph
    labels: dict[str, int] = field(default_factory=dict)


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def cycle_graph(n: int) -> FamilyGraph:
    _need(n >= 3, f"cycle needs n >= 3, got {n}")
    return FamilyGraph(graph(n, [(i, (i + 1) % n) for i in range(n)]))


def complete_graph(n: int) -> FamilyGraph:
    _need(n >= 1, f"complete graph needs n >= 1, got {n}")
    return FamilyGraph(
        graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    )


def complete_minus_edge(n: int) -> FamilyGraph:
    """K_n minus the edge (0, 1); connected for n >= 3."""
    _need(n >= 3, f"complete-minus-edge needs n >= 3, got {n}")
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)
    ]
    return FamilyGraph(graph(n, edges))


def subdivided_fan(n: int) -> FamilyGraph:
    """Fan on n path vertices with every inner spoke subdivided.

    The two end spokes hub-p1 and hub-pn stay intact; the spoke to p_i
    (1 < i < n) runs through a fresh vertex s_i.  2n-1 vertices, 3(n-1) edges.
    """
    _need(n >= 3, f"subdivided fan needs n >= 3, got {n}")
    edges = [(i, i + 1) for i in range(1, n)]
    edges += [(0, 1), (0, n)]
    labels = {"hub": 0}
    labels.update({f"p{i}": i for i in range(1, n + 1)})
    nxt = n + 1
    for i in range(2, n):
        edges += [(0, nxt), (nxt, i)]
        labels[f"s{i}"] = nxt
        nxt += 1
    return FamilyGraph(graph(nxt, edges), labels)


def near_subdivided_fan(n: int) -> FamilyGraph:
    """Fan on n path vertices with spokes to p2..p_{n-2} subdivided.

    Spokes to p1, p_{n-1} and p_n stay intact, leaving one triangle at the
    far end.  2n-2 vertices, 3n-4 edges.
    """
    _need(n >= 4, f"near-subdivided fan needs n >= 4, got {n}")
    edges = [(i, i + 1) for i in range(1, n)]
    edges += [(0, 1), (0, n - 1), (0, n)]
    labels = {"hub": 0}
    labels.update({f"p{i}": i for i in range(1, n + 1)})
    nxt = n + 1
    for i in range(2, n - 1):
        edges += [(0, nxt), (nxt, i)]
        labels[f"s{i}"] = nxt
        nxt += 1
    return FamilyGraph(graph(nxt, edges), labels)


def sparsest_md_one(n: int) -> FamilyGraph:
    """The sparsest family with md = 1: ceil(3(n-1)/2) edges for n >= 3.

    Small orders are complete graphs (K_4 loses an edge); from five vertices
    on, fans with subdivided spokes take over, odd orders keeping both end
    spokes and even orders keeping a triangle at one end.  The labels include
    "attach1"/"attach2", the default endpoints used when a path is welded on.
    """
    _need(n >= 1, f"sparsest-md-one needs n >= 1, got {n}")
    if n <= 3:
        fam = complete_graph(n)
        labels = dict(fam.labels)
        if n >= 2:
            labels.update({"attach1": 0, "attach2": 1})
        return FamilyGraph(fam.graph, labels)
    if n == 4:
        fam = complete_minus_edge(4)
        return FamilyGraph(fam.graph, {"attach1": 0, "attach2": 1})
    if n % 2 == 1:
        fam = subdivided_fan((n + 1) // 2)
        size = (n + 1) // 2
    else:
        fam = near_subdivided_fan((n + 2) // 2)
        size = (n + 2) // 2
    labels = dict(fam.labels)
    labels["attach1"] = labels["p1"]
    labels["attach2"] = labels[f"p{size}"]
    return FamilyGraph(fam.graph, labels)


def _weld_path(core: FamilyGraph, t: int) -> tuple[Graph, dict[str, int], list[tuple[int, int]]]:
    """Join a t-edge path to the core's two attachment vertices.

    Returns the graph, labels, and the path edges in walking order.
    """
    g0 = core.graph
    u = core.labels["attach1"]
    w = core.labels["attach2"]
    walk = [u]
    nxt = g0.n
    for _ in range(t - 1):
        walk.append(nxt)
        nxt += 1
    walk.append(w)
    path_edges = [
        (min(a, b), max(a, b)) for a, b in zip(walk, walk[1:])
    ]
    g = graph(nxt, list(g0.edges) + path_edges)
    labels = {f"core:{k}": v for k, v in core.labels.items()}
    labels.update({f"t{i}": v for i, v in enumerate(walk)})
    return g, labels, path_edges


def _threshold_witness_parts(
    n: int, r: int
) -> tuple[Graph, dict[str, int], list[tuple[int, int]], tuple[tuple[int, int], ...]]:
    """Graph, labels, ordered path edges, core edges for threshold_witness."""
    _need(n >= 6, f"threshold witness needs n >= 6, got {n}")
    _need(3 <= r <= n // 2, f"threshold witness needs 3 <= r <= n//2, got r={r}")
    if n % 2 == 0 and r == n // 2:
        fam = cycle_graph(n)
        return fam.graph, dict(fam.labels), [], ()
    if n % 2 == 0:
        core = sparsest_md_one(n - 2 * r + 1)
        t = 2 * r
    else:
        core = sparsest_md_one(n - 2 * r + 2)
        t = 2 * r - 1
    g, labels, path_edges = _weld_path(core, t)
    return g, labels, path_edges, core.graph.edges


def threshold_witness(n: int, r: int) -> FamilyGraph:
    """n vertices, mu(n, r) edges, md exactly r.

    A sparse md = 1 core with a long path welded between two of its vertices;
    for even n with r = n/2 the construction degenerates to the n-cycle.
    """
    g, labels, _, _ = _threshold_witness_parts(n, r)
    return FamilyGraph(g, labels)


def threshold_witness_coloring(n: int, r: int) -> EdgeColoring:
    """The canonical r-coloring of threshold_witness(n, r): path edges cycle
    through 1..r; core edges take 1 for even n and r for odd n."""
    g, _, path_edges, core_edges = _threshold_witness_parts(n, r)
    if not path_edges:  # the cycle case
        return cycle_md_coloring(n)
    by_edge: dict[tuple[int, int], int] = {}
    core_color = 1 if n % 2 == 0 else r
    for e in core_edges:
        by_edge[e] = core_color
    for i, e in enumerate(path_edges, start=1):
        by_edge[e] = (i - 1) % r + 1
    return EdgeColoring(g, tuple(by_edge[e] for e in g.edges))


def cycle_md_coloring(n: int) -> EdgeColoring:
    """floor(n/2)-coloring of C_n: walking the cycle, colors repeat 1..k."""
    _need(n >= 3, f"cycle coloring needs n >= 3, got {n}")
    g = cycle_graph(n).graph
    k = n // 2
    by_edge = {}
    for i in range(1, n + 1):
        a, b = i - 1, i % n
        by_edge[(min(a, b), max(a, b))] = (i - 1) % k + 1
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
    prev = 0
    for t in range(tail):
        nxt = b + t
        edges.append((min(prev, nxt), max(prev, nxt)))
        prev = nxt
    return FamilyGraph(graph(n, edges), {"tail_end": n - 1 if tail else 0})


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
    prev = 0
    for t in range(tail):
        nxt = b + t
        edges.append((min(prev, nxt), max(prev, nxt)))
        prev = nxt
    return FamilyGraph(graph(n, edges), {"block_extra": b - 1})
