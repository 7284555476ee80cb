"""Structural analyses feeding the md solver: blocks and soft-layer
reduction.

md adds over blocks, so the solver works block by block; one depth-first
search both checks connectivity and yields the blocks and cut vertices, and a
block's sorted vertex tuple is the only map between its local and original
vertex ids.  soft_layer_reduce strips a soft layer of non-cut vertices; the
solver's soft-layer rule bounds md by the vertex bound of what survives.
"""

from __future__ import annotations

from dataclasses import dataclass

from mdlab.graph import Graph


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

    One iterative depth-first search from vertex 0; a vertex it leaves
    undiscovered means g is disconnected, which raises ValueError.  Every
    edge is pushed once on an edge stack, and each vertex but the root on a
    vertex stack, as it is reached.  When the tree edge (u, v) is pushed, both
    stack heights are stored for v.  A block closes when the search backs out
    of v with low[v] >= disc[u]: its edges are the edge stack from v's height
    up, its vertices u and the vertex stack from v's height up, and both
    stacks are cut back to those heights.  Every edge lands in exactly one
    block; K_0 and K_1 have no blocks.

    When g (n >= 2) is a single block, g itself is returned as its only block
    graph: the local map is then the identity, and Graph is immutable, so the
    caller's graph is shared rather than copied.
    """
    n = g.n
    if n == 0:
        return BlockDecomposition((), (), ())
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    edge_height = [0] * n
    vertex_height = [0] * n
    edge_stack: list[tuple[int, int]] = []
    vertex_stack: list[int] = []
    found: list[tuple[list[int], list[tuple[int, int]]]] = []
    cut: set[int] = set()
    disc[0] = 0
    timer = 1
    root_children = 0
    stack = [(0, iter(adj[0]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if disc[w] < 0:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                edge_height[w] = len(edge_stack)
                vertex_height[w] = len(vertex_stack)
                edge_stack.append((v, w))
                vertex_stack.append(w)
                stack.append((w, iter(adj[w])))
                if v == 0:
                    root_children += 1
                break
            if disc[w] < disc[v] and w != parent[v]:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                break
            u = parent[v]
            if low[v] >= disc[u]:
                # u closes a block containing the tree edge (u, v).
                h = edge_height[v]
                edges = edge_stack[h:]
                del edge_stack[h:]
                h = vertex_height[v]
                verts = vertex_stack[h:]
                del vertex_stack[h:]
                verts.append(u)
                found.append((verts, edges))
                if u != 0 or root_children > 1:
                    cut.add(u)
            elif low[v] < low[u]:
                low[u] = low[v]
    if timer < n:
        raise ValueError("block decomposition requires a connected graph")
    if len(found) == 1:
        return BlockDecomposition((tuple(range(n)),), (), (g,))

    local = [0] * n
    records = []
    for verts, edges in found:
        verts.sort()
        for i, x in enumerate(verts):
            local[x] = i
        pairs = []
        for a, b in edges:
            a, b = local[a], local[b]
            pairs.append((a, b) if a < b else (b, a))
        pairs.sort()
        records.append((tuple(verts), Graph(len(verts), tuple(pairs))))
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


def soft_layer_reduce(g: Graph) -> tuple[int, ...]:
    """Greedily strip vertices of current degree >= 2 that are not cut vertices.

    A vertex is eligible when it is alive, has at least two alive neighbors,
    and the alive set without it stays connected.  Each round removes the
    smallest eligible id and the stripped vertices are returned in that
    order, so every prefix of the sequence is a valid layer.
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
            return tuple(removed)
