"""Structural analyses feeding the md solver: blocks, matching cuts, and
degree-two layer reductions.

md adds over blocks, so the solver works block by block; a matching cut gives
a two-color separating coloring; and soft_layer_reduce yields the smaller
graph whose md the solver's soft-layer rule uses as an upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from mdlab.graph import Graph, VertexMap, delete_vertex, graph, is_connected

MATCHING_CUT_CAP = 16


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (maximal 2-connected subgraphs and bridges) with cut vertices.

    Attributes:
        blocks: vertex set of each block, sorted; blocks ordered by smallest
            contained vertex (then lexicographically).
        cut_vertices: sorted tuple of cut vertices.
        block_graphs: for each block, the induced Graph and the old -> local
            vertex relabeling.
    """

    blocks: tuple[tuple[int, ...], ...]
    cut_vertices: tuple[int, ...]
    block_graphs: tuple[tuple[Graph, VertexMap], ...]

    @property
    def block_edge_sets(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Edges of the original graph belonging to each block."""
        out = []
        for g_block, vmap in self.block_graphs:
            inv = {new: old for old, new in vmap.items()}
            out.append(
                tuple(
                    sorted(
                        tuple(sorted((inv[a], inv[b]))) for a, b in g_block.edges
                    )
                )
            )
        return tuple(out)


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan biconnected components of a connected graph.

    Every edge lands in exactly one block; K_1 has no blocks.
    """
    if not is_connected(g):
        raise ValueError("block decomposition requires a connected graph")
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent_edge = [-1] * n
    edge_stack: list[tuple[int, int]] = []
    block_edge_lists: list[list[tuple[int, int]]] = []
    cut: set[int] = set()
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        # Iterative DFS; each frame is (vertex, neighbor iterator index).
        stack = [(root, 0)]
        disc[root] = low[root] = timer
        timer += 1
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
                    if v == root:
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
                        if u != root or root_children > 1:
                            cut.add(u)
        # A lone root with leftover edges should be impossible; the loop above
        # pops every block at its articulation frame.
        assert not edge_stack

    records = []
    for blk in block_edge_lists:
        verts = tuple(sorted({x for e in blk for x in e}))
        vmap: VertexMap = {v: i for i, v in enumerate(verts)}
        sub = graph(len(verts), [(vmap[a], vmap[b]) for a, b in blk])
        records.append((verts, sub, vmap))
    records.sort(key=lambda r: r[0])
    return BlockDecomposition(
        blocks=tuple(r[0] for r in records),
        cut_vertices=tuple(sorted(cut)),
        block_graphs=tuple((r[1], r[2]) for r in records),
    )


def is_two_connected(g: Graph) -> bool:
    """Connected, at least 3 vertices, and no cut vertex."""
    return g.n >= 3 and is_connected(g) and not block_decomposition(g).cut_vertices


# ---------------------------------------------------------------------------
# Matching cuts


def find_matching_cuts(
    g: Graph, minimal_only: bool = False
) -> list[tuple[tuple[int, int], ...]]:
    """All matching cuts (edge cuts that are matchings), deduplicated.

    Enumerates vertex bipartitions; with minimal_only the search is restricted
    to bipartitions with both sides connected, which yields exactly the
    matching bonds, i.e. the minimal matching cuts.  Results are sorted by
    size then lexicographically.
    """
    if not is_connected(g):
        raise ValueError("matching cuts are defined for connected graphs")
    if g.n > MATCHING_CUT_CAP:
        raise ValueError(
            f"refusing matching-cut enumeration for n={g.n} > cap {MATCHING_CUT_CAP}"
        )
    if g.n < 2:
        return []
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    full = (1 << g.n) - 1

    def side_connected(side_mask: int) -> bool:
        start = side_mask & -side_mask
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                f ^= b
                nxt |= masks[b.bit_length() - 1]
            frontier = nxt & side_mask & ~seen
            seen |= frontier
        return seen == side_mask

    found: set[tuple[tuple[int, int], ...]] = set()
    # Vertex 0 always on the S side; complements give the same cut.
    for t in range(1 << (g.n - 1)):
        s_mask = (t << 1) | 1
        if s_mask == full:
            continue
        cross = []
        endpoints = 0
        ok = True
        for u, v in g.edges:
            if ((s_mask >> u) & 1) != ((s_mask >> v) & 1):
                pair = (1 << u) | (1 << v)
                if endpoints & pair:
                    ok = False
                    break
                endpoints |= pair
                cross.append((u, v))
        if not ok or not cross:
            continue
        if minimal_only and not (
            side_connected(s_mask) and side_connected(full & ~s_mask)
        ):
            continue
        found.add(tuple(sorted(cross)))
    return sorted(found, key=lambda cut: (len(cut), cut))


# ---------------------------------------------------------------------------
# Degree-two layer reduction


def soft_layer_reduce(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Greedily strip vertices of current degree >= 2 that are not cut vertices.

    Every removal keeps the graph connected, so each prefix of the returned
    sequence is a valid layer.  Always removes the smallest eligible id; the
    sequence reports original ids.
    """
    if not is_connected(g):
        raise ValueError("layer reduction requires a connected graph")
    current = g
    to_orig = list(range(g.n))
    removed: list[int] = []
    while current.n > 1:
        cuts = set(block_decomposition(current).cut_vertices)
        victim = -1
        for v in range(current.n):
            if current.degree(v) >= 2 and v not in cuts:
                victim = v
                break
        if victim == -1:
            break
        removed.append(to_orig[victim])
        del to_orig[victim]
        current, _ = delete_vertex(current, victim)
    return current, tuple(removed)
