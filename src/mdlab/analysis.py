"""Structural analyses feeding the md solver: blocks and soft-layer
reduction.

md adds over blocks, so the solver works block by block; one depth-first
search both checks connectivity and yields the blocks and cut vertices, and a
block's sorted vertex tuple is the only map between its local and original
vertex ids.  soft_layer_reduce yields the smaller graph whose md the solver's
soft-layer rule uses as an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from mdlab.graph import Graph, graph


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs and bridges) with cut vertices.

    Attributes:
        blocks: vertex set of each block, sorted; blocks ordered by smallest
            contained vertex (then lexicographically).
        cut_vertices: sorted tuple of cut vertices.
        block_graphs: for each block, the induced Graph on local ids, where
            local vertex i of block b is original vertex blocks[b][i].  The
            map is increasing, so a block edge (a, c) is the original edge
            (blocks[b][a], blocks[b][c]) and the edge order is kept.
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    block_graphs: tuple[Graph, ...]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan biconnected components of a connected graph.

    One depth-first search from vertex 0; a vertex it leaves undiscovered
    means g is disconnected, which raises ValueError.  Every edge lands in
    exactly one block; K_0 and K_1 have no blocks.
    """
    n = g.n
    if n == 0:
        return BlockDecomposition((), (), ())
    disc = [-1] * n
    low = [0] * n
    parent_edge = [-1] * n
    edge_stack: list[tuple[int, int]] = []
    block_edge_lists: list[list[tuple[int, int]]] = []
    cut: set[int] = set()
    # Iterative DFS; each frame is (vertex, neighbor iterator index).
    stack = [(0, 0)]
    disc[0] = 0
    timer = 1
    root_children = 0
    while stack:
        v, i = stack[-1]
        nbrs = g.adjacency[v]
        if i < len(nbrs):
            stack[-1] = (v, i + 1)
            w = nbrs[i]
            if disc[w] == -1:
                edge_stack.append((min(v, w), max(v, w)))
                parent_edge[w] = v
                disc[w] = low[w] = timer
                timer += 1
                stack.append((w, 0))
                if v == 0:
                    root_children += 1
            elif w != parent_edge[v] and disc[w] < disc[v]:
                edge_stack.append((min(v, w), max(v, w)))
                low[v] = min(low[v], disc[w])
        else:
            stack.pop()
            if stack:
                u = stack[-1][0]
                low[u] = min(low[u], low[v])
                if low[v] >= disc[u]:
                    # u closes a block containing the tree edge (u, v).
                    blk: list[tuple[int, int]] = []
                    marker = (min(u, v), max(u, v))
                    while True:
                        e = edge_stack.pop()
                        blk.append(e)
                        if e == marker:
                            break
                    block_edge_lists.append(blk)
                    if u != 0 or root_children > 1:
                        cut.add(u)
    if timer < n:
        raise ValueError("block decomposition requires a connected graph")

    local = [0] * n
    records = []
    for blk in block_edge_lists:
        verts = tuple(sorted({x for e in blk for x in e}))
        for i, v in enumerate(verts):
            local[v] = i
        records.append((verts, graph(len(verts), [(local[a], local[b]) for a, b in blk])))
    records.sort(key=lambda r: r[0])
    return BlockDecomposition(
        blocks=tuple(r[0] for r in records),
        cut_vertices=tuple(sorted(cut)),
        block_graphs=tuple(r[1] for r in records),
    )


# ---------------------------------------------------------------------------
# Degree-two layer reduction


def _neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def _spans_connected(masks: list[int], vertex_set: int) -> bool:
    """True when the vertices in the bitmask induce a connected subgraph
    (the empty set counts as connected)."""
    seen = frontier = vertex_set & -vertex_set
    while frontier:
        reach = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            reach |= masks[bit.bit_length() - 1]
        frontier = reach & vertex_set & ~seen
        seen |= frontier
    return seen == vertex_set


def soft_layer_reduce(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Greedily strip vertices of current degree >= 2 that are not cut vertices.

    A vertex is eligible when it is alive, has at least two alive neighbors,
    and the alive set without it stays connected.  Each round removes the
    smallest eligible id, so every prefix of the returned sequence (original
    ids) is a valid layer.  The survivors keep their relative order in the
    reduced graph.
    """
    masks = _neighbor_masks(g)
    alive = (1 << g.n) - 1
    if not _spans_connected(masks, alive):
        raise ValueError("layer reduction requires a connected graph")
    removed: list[int] = []
    while True:
        for v in range(g.n):
            bit = 1 << v
            if (
                alive & bit
                and (masks[v] & alive).bit_count() >= 2
                and _spans_connected(masks, alive ^ bit)
            ):
                removed.append(v)
                alive ^= bit
                break
        else:
            break
    keep = [v for v in range(g.n) if (alive >> v) & 1]
    local = {v: i for i, v in enumerate(keep)}
    reduced = graph(
        len(keep), [(local[u], local[v]) for u, v in g.edges if u in local and v in local]
    )
    return reduced, tuple(removed)
