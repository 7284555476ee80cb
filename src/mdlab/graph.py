"""Immutable simple undirected graphs and the queries used everywhere else.

Vertices are the integers 0..n-1.  Edges are stored as a lexicographically
sorted tuple of pairs (u, v) with u < v, so two graphs are equal iff they have
the same vertex count and the same edge tuple (canonical form).  All operations
are pure functions returning fresh Graph values; instances are safe to share
between workers.

Held graphs share their pairs.  `graph()`, which from_graph6, the
enumeration, the products and the family builders go through, takes each pair
with both ends below 62 (the short-form graph6 range) from one table of shared
tuples, so an equal pair is one object in all of those graphs.  The table
fills as pairs are first seen and holds at most 62 * 61 / 2 = 1,891 entries; a
pair with an end of 62 or more is a new tuple each time.  It stores only pairs
of plain ints, so a caller's bools or numpy ints never become the pair that
later graphs get, and a negative pair, which Graph rejects, is never stored.  Graph is slotted, so
a held graph is its two fields, and nothing can be cached on it.

The block decomposition lives here beside is_connected because it is a
connectivity query too: md adds over blocks, so the solver works block by
block, and one depth-first search both checks connectivity and yields the
blocks.  A block's sorted vertex tuple is the only map between its local and
original vertex ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class Graph6Error(ValueError):
    """Raised for malformed or unsupported graph6 text."""


@dataclass(frozen=True, slots=True)
class Graph:
    """A simple undirected graph in canonical form.

    Slotted and frozen: an instance holds its two fields and no __dict__.

    Attributes:
        n: number of vertices (vertex ids are 0..n-1).
        edges: sorted tuple of (u, v) pairs with u < v, duplicate-free.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be non-negative, got {self.n}")
        prev = None
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {e} out of range for n={self.n}")
            if prev is not None and e <= prev:
                raise ValueError(f"edge list not sorted and duplicate-free at {e}")
            prev = e

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists, one per vertex, sorted because the edges are: x's
        edges (u, x), u < x, come before its edges (x, v); built per read."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @property
    def edge_index(self) -> dict[tuple[int, int], int]:
        """Edge -> position in the canonical edge order; built per read."""
        return {e: i for i, e in enumerate(self.edges)}

    def __repr__(self) -> str:  # compact, the edge list can be long
        return f"Graph(n={self.n}, m={self.m})"


_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


def _shared(pair: tuple[int, int]) -> tuple[int, int]:
    got = _PAIRS.get(pair)
    if got is None:
        u, v = pair
        if type(u) is int and type(v) is int and 0 <= u < v < 62:
            _PAIRS[pair] = pair
        got = pair
    return got


def graph(n: int, edges) -> Graph:
    """Build a Graph from any iterable of pairs, canonicalizing order.

    Loops are rejected; duplicate and reversed pairs collapse to one edge.
    Each pair with both ends below 62 is the one shared tuple for it.
    """
    canon = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u} not allowed")
        canon.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(map(_shared, sorted(canon))))


def min_degree(g: Graph) -> int:
    return min((len(a) for a in g.adjacency), default=0)


# ---------------------------------------------------------------------------
# Connectivity


def is_connected(g: Graph) -> bool:
    """True when g has at most one component (the 0-vertex graph counts as
    connected): one `reach` from the lowest vertex gets every vertex."""
    everyone = (1 << g.n) - 1
    return reach(neighbor_masks(g), everyone & -everyone) == everyone


def neighbor_masks(g: Graph) -> list[int]:
    """Bitmask of each vertex's neighbours."""
    masks = [0] * g.n
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def reach(masks: list[int], start: int, within: int = -1) -> int:
    """Vertex bitmask a BFS from `start` reaches over the neighbour bitmasks
    `masks`, stepping only onto vertices in `within`."""
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= masks[bit.bit_length() - 1]
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks: maximal 2-connected subgraphs and bridges.

    Attributes:
        blocks: vertex set of each block, sorted; blocks ordered by smallest
            contained vertex (then lexicographically).
        block_graphs: for each block, the induced Graph on local ids, where
            local vertex i of block b is original vertex blocks[b][i].  The
            map is increasing, so a block edge (a, c) is the original edge
            (blocks[b][a], blocks[b][c]) and the edge order is kept.
    """

    blocks: tuple[tuple[int, ...], ...]
    block_graphs: tuple[Graph, ...]


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan biconnected components of a connected graph.

    One iterative depth-first search from vertex 0; a vertex it leaves
    undiscovered means g is disconnected, which raises ValueError.  Every
    edge is pushed once on an edge stack as it is reached, and when the tree
    edge (u, v) is pushed, the stack's height is stored for v.  A block
    closes when the search backs out of v with low[v] >= disc[u]: its edges
    are the stack from v's height up, which is then cut back to that height,
    and its vertices are the ends of those edges.  Every edge lands in
    exactly one block; K_0 and K_1 have no blocks.

    When g (n >= 2) is a single block, g itself is returned as its only block
    graph: the local map is then the identity, and Graph is immutable, so the
    caller's graph is shared rather than copied.
    """
    n = g.n
    if n == 0:
        return BlockDecomposition((), ())
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    edge_height = [0] * n
    edge_stack: list[tuple[int, int]] = []
    found: list[list[tuple[int, int]]] = []
    disc[0] = 0
    timer = 1
    stack = [(0, iter(adj[0]))]
    while stack:
        v, nbrs = stack[-1]
        for w in nbrs:
            if disc[w] < 0:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                edge_height[w] = len(edge_stack)
                edge_stack.append((v, w))
                stack.append((w, iter(adj[w])))
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
                found.append(edge_stack[h:])
                del edge_stack[h:]
            elif low[v] < low[u]:
                low[u] = low[v]
    if timer < n:
        raise ValueError("block decomposition requires a connected graph")
    if len(found) == 1:
        return BlockDecomposition((tuple(range(n)),), (g,))

    local = [0] * n
    records = []
    for edges in found:
        verts = sorted({x for edge in edges for x in edge})
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
        block_graphs=tuple(r[1] for r in records),
    )


# ---------------------------------------------------------------------------
# Odd girth


def odd_girth(g: Graph) -> int | float:
    """Length of a shortest odd cycle, or math.inf when the graph is bipartite.

    For every start vertex a BFS level labeling is computed; an edge joining
    two vertices on the same level closes an odd walk of length 2*level + 1,
    and the minimum of those over all starts is attained by a shortest odd
    cycle.
    """
    best = math.inf
    adj = g.adjacency
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = [s]
        head = 0
        while head < len(queue):
            x = queue[head]
            head += 1
            for y in adj[x]:
                if dist[y] == -1:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        for u, v in g.edges:
            if dist[u] != -1 and dist[u] == dist[v]:
                cand = dist[u] + dist[v] + 1
                if cand < best:
                    best = cand
    return best


# ---------------------------------------------------------------------------
# graph6


def from_graph6(text: str) -> Graph:
    """Decode a graph6 line (short form, n <= 62).

    The format is one length byte (n + 63) followed by the upper triangle of
    the adjacency matrix, column by column, packed into 6-bit groups, each
    group + 63.  The body decodes into one int, as to_graph6 encodes it.
    Any nonzero padding bit is an error.
    """
    if not isinstance(text, str):
        raise Graph6Error(f"graph6 text must be a string, got {text!r}")
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("offset 0: long-form graph6 (n > 62) is not supported")
    if not 63 <= first <= 125:
        raise Graph6Error(f"offset 0: invalid length byte {s[0]!r}")
    n = first - 63
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = s[1:]
    if len(body) != nchars:
        raise Graph6Error(f"expected {nchars} content characters for n={n}, got {len(body)}")
    bits = 0
    for i, ch in enumerate(body):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"offset {i + 1}: character {ch!r} out of range")
        bits = bits << 6 | val
    if bits & ((1 << (6 * nchars - nbits)) - 1):
        raise Graph6Error(
            f"offset {nbits // 6 + 1}: nonzero padding bits after the {nbits} data bits"
        )
    top = 6 * nchars - 1  # edge (u, v) is bit top - v(v-1)/2 - u, as to_graph6 sets it
    return graph(
        n,
        [(u, v) for v in range(1, n) for u in range(v) if bits >> (top - v * (v - 1) // 2 - u) & 1],
    )


def to_graph6(g: Graph) -> str:
    """Encode as a graph6 line (short form); n must be at most 62.  Edge
    (u, v) is data bit v(v-1)/2 + u, counted from the top of one int."""
    if g.n > 62:
        raise Graph6Error(f"n={g.n} exceeds the short-form graph6 limit of 62")
    nchars = (g.n * (g.n - 1) // 2 + 5) // 6
    top = 6 * nchars - 1
    bits = 0
    for u, v in g.edges:
        bits |= 1 << (top - v * (v - 1) // 2 - u)
    return chr(g.n + 63) + "".join(
        chr((bits >> shift & 63) + 63) for shift in range(top - 5, -1, -6)
    )
