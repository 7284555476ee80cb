"""Exact md computation with certificates.

md(G) of a connected graph is the largest color count over edge colorings in
which every vertex pair is separated by deleting one color class.  The solver
decomposes into blocks (md adds over blocks), bounds each block from above,
and finds each block's md with one branch-and-bound search that maximizes
the number of colors opened.  Merging color classes keeps a coloring
separating, so md_feasible(g, k) merges the extremal coloring to k colors.
The block decomposition is also the connectivity check: md_exact and
md_upper_bound raise ValueError through it on a disconnected graph.

The upper bound is the least of four closed-form rules: n - 1
(vertex-bound), n/2 for a 2-connected block (half-order), the number of
forced-monochromatic edge classes (mono-classes), and the vertex bound of the
graph left after stripping a soft layer of non-cut vertices (soft-layer).  No
bound solves anything, so md_exact never calls itself.  The lower bound is
closed-form too (one, tree, unicyclic-half) and is reported in the bound
trail only.

Each block is class-closed once: the block's _SepTable is built first and
handed to md_upper_bound, which reads the mono-classes count from it and,
since only a block gets a table, applies half-order without a second block
decomposition.  The search then runs on the same table.

md_exact's node_budget keyword is the solver's one setting: every search node
of a solve, over all its blocks, is charged to it, and passing it raises
SearchBudgetExceeded.  Every other entry point solves on NODE_BUDGET.

The search assigns whole edge classes rather than edges: restricted to any
triangle a separating coloring is monochromatic, and restricted to any 4-cycle
it makes opposite edges equal, so the union-closure of those constraints is
monochromatic under every separating coloring.  This refines nothing away and
shrinks the search space a lot on dense or product-shaped inputs.

Classes are assigned in the table's search order, so the unassigned classes
U are always a suffix.  That order puts the classes largest first and then
groups them by component of P, the graph of class pairs that are
self-separating together (see _SepTable.packing), so a wrong pairing dies
near the node that made it.  With sep(S) the mask of vertex pairs split by
deleting every class in S, and A_j the classes of color j, a node is dead
iff OR_{j < opened} sep(A_j | U) misses a pair: no completion can then split
that pair.  sep is memoized once per block, keyed by class bitmask in the
current order (the grouping moves the bits of the keys the packing walk
made), and shared by every branch of the search, so a node costs at most one
table lookup per opened color.

The search cuts a node when its open colors plus pack[i] cannot beat the best
leaf, where pack[i] bounds the colors that the suffix U alone can make: every
color is self-separating, so U packs into at most s + B + (|U| - s - 2B) // 3
new ones (see _SepTable.packing).  pack[0] also caps the color count.  A cut
subtree holds no leaf better than the best one, so the search records the
same improving leaves in the same order and returns the same certificate as
a search without the cut; only the node count falls.

md_oracle is the independent cross-check: it enumerates raw set partitions of
the edge set, no quotient, no blocks, and prunes only by counting parts, so it
shares no pruning with md_exact.

Each layer (block_decomposition, mono_classes, md_upper_bound, md_lower_bound,
is_md_coloring, md_exact) is called through this module's globals, so a
wrapper installed on the module attribute, as the benchmark's tracer does,
sees every call, md_feasible's solve included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from mdlab.analysis import block_decomposition, soft_layer_reduce
from mdlab.coloring import EdgeColoring, is_md_coloring, merge_to_k
from mdlab.graph import Graph, is_connected


class SearchBudgetExceeded(RuntimeError):
    """md_exact's node_budget ran out; best-known bounds are attached."""

    def __init__(self, message: str, *, nodes: int = 0,
                 lower: int | None = None, upper: int | None = None):
        super().__init__(message)
        self.nodes = nodes
        self.lower = lower
        self.upper = upper


#: Search nodes one md_exact call may spend over all its blocks.
NODE_BUDGET = 500_000_000


@dataclass(frozen=True)
class MdResult:
    """Exact value plus a verified extremal coloring and the bound trail."""

    value: int
    certificate: EdgeColoring
    bounds_trail: tuple[tuple[str, int], ...]
    stats: dict = field(default_factory=dict)


class _Budget:
    __slots__ = ("node_budget", "nodes")

    def __init__(self, node_budget: int):
        if type(node_budget) is not int or node_budget < 1:  # bools refused too
            raise ValueError(f"node budget must be an int >= 1, got {node_budget!r}")
        self.node_budget = node_budget
        self.nodes = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise SearchBudgetExceeded(
                f"node budget {self.node_budget} exhausted", nodes=self.nodes
            )


# ---------------------------------------------------------------------------
# Forced-monochromatic edge classes


def mono_classes(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Edge classes forced monochromatic in every separating coloring.

    Union-closure of: the three edges of each triangle, and each pair of
    opposite edges of each 4-cycle.  (The 4-cycle rule subsumes the K_{2,3}
    bundles: crossing pairs inside a double star chain together.)

    Order contract: classes come by least edge index, and each class lists
    its edges in edge order.  _SepTable's first order (largest first) breaks
    ties on it before its grouping by component, and the tests compare
    against it.

    Each edge maps to its class's list of edge indices, and a union moves
    the shorter list into the longer, so a union of two edges already in
    one class costs one identity test.  Only vertex pairs with a common
    neighbour are visited, and the closure stops once a single class is
    left.
    """
    m = g.m
    cls_of = [[i] for i in range(m)]
    count = m

    def merge(a: int, b: int) -> None:
        nonlocal count
        big, small = cls_of[a], cls_of[b]
        if len(big) < len(small):
            big, small = small, big
        big.extend(small)
        for i in small:
            cls_of[i] = big
        count -= 1

    n = g.n
    eid = [[-1] * n for _ in range(n)]
    nbrs = [0] * n
    for i, (u, v) in enumerate(g.edges):
        eid[u][v] = eid[v][u] = i
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    for u in range(n - 1):
        eu = eid[u]
        nu = nbrs[u]
        for v in range(u + 1, n):
            w = nu & nbrs[v]
            if not w:
                continue
            xs = []
            while w:
                bit = w & -w
                w ^= bit
                xs.append(bit.bit_length() - 1)
            ev = eid[v]
            e = eu[v]
            if e >= 0:
                # Triangle u-v-x: all three edges share a color.
                for x in xs:
                    if cls_of[e] is not cls_of[eu[x]]:
                        merge(e, eu[x])
                    if cls_of[e] is not cls_of[ev[x]]:
                        merge(e, ev[x])
            if len(xs) == 2:
                # 4-cycle u-x-v-y: opposite edges share a color.
                x, y = xs
                if cls_of[eu[x]] is not cls_of[ev[y]]:
                    merge(eu[x], ev[y])
                if cls_of[ev[x]] is not cls_of[eu[y]]:
                    merge(ev[x], eu[y])
            elif len(xs) > 2:
                # With three or more common neighbors the opposite-edge pairs
                # of all those 4-cycles chain every u-x and v-x edge together.
                e = eu[xs[0]]
                for x in xs:
                    if cls_of[e] is not cls_of[eu[x]]:
                        merge(e, eu[x])
                    if cls_of[e] is not cls_of[ev[x]]:
                        merge(e, ev[x])
            if count == 1:
                return [g.edges]
    # Keyed by identity, the first edge seen of each class orders the classes.
    classes = {id(cls): cls for cls in cls_of}
    edges = g.edges
    return [tuple(edges[i] for i in sorted(cls)) for cls in classes.values()]


# ---------------------------------------------------------------------------
# Bounds


def md_upper_bound(g: Graph, _table: _SepTable | None = None) -> tuple[int, str]:
    """Smallest applicable upper bound with the name of the rule that won.

    The soft-layer rule strips a soft layer (see soft_layer_reduce) and takes
    the vertex bound of the graph R that survives: md(G) <= md(R) <= |V(R)| - 1.
    Every rule is closed-form, so this never solves.  Without `_table`, one block decomposition checks
    connectivity (it raises ValueError on a disconnected graph) and, when it
    finds no cut vertex, admits the half-order rule.

    md_exact passes each block's _SepTable as `_table`: the mono-classes
    count is then its class count, and half-order applies without a block
    decomposition, because a table is only built for a block.  The result
    equals that of the call without it.

    The search's packing value (_SepTable.packing, pack[0]) is often tighter
    than every rule here, but it is deliberately not a rule yet: it would
    change the winning rule and the bound trail, which the benchmark's tests
    pin on C5 box C5.
    """
    if g.n < 2:
        raise ValueError("bounds are defined for connected graphs on >= 2 vertices")
    best, name = g.n - 1, "vertex-bound"
    two_connected = _table is not None or not block_decomposition(g).cut_vertices
    if two_connected and g.n // 2 < best:
        best, name = g.n // 2, "half-order"
    if best > 1:
        count = len(_table.classes if _table is not None else mono_classes(g))
        if count < best:
            best, name = count, "mono-classes"
    if best > 1:
        value = g.n - len(soft_layer_reduce(g)) - 1
        if value < best:
            best, name = value, "soft-layer"
    return best, name


def md_lower_bound(g: Graph, _block: bool = False) -> tuple[int, str]:
    """Largest closed-form lower bound with the name of the rule that won.

    md_exact passes `_block=True` for a block of its decomposition, which
    is connected already, so the connectivity search is skipped; the bound
    is the same.  Called alone, a disconnected graph raises ValueError.
    """
    if g.n < 2 or not (_block or is_connected(g)):
        raise ValueError("bounds are defined for connected graphs on >= 2 vertices")
    best, name = 1, "one"
    if g.m == g.n - 1 and g.n - 1 > best:
        best, name = g.n - 1, "tree"
    if g.m == g.n and g.n // 2 > best:
        best, name = g.n // 2, "unicyclic-half"
    return best, name


# ---------------------------------------------------------------------------
# Feasibility search


class _SepTable:
    """One block's mono classes in search order and its memo from a class
    bitmask S to sep(S), with pair (u, v) at bit u*n + v; `full` holds every
    pair with u != v.  Built once per block of three or more vertices and
    hit across the branches of its one search.

    The classes start largest first, ties by first edge index; packing()
    then groups them by component of the pair graph P (see there), and the
    search reads them in that final order.  Each class also keeps its
    incidences, (vertex, neighbour bits) per vertex it touches, so a memo
    miss ORs them into an adjacency without walking edge tuples."""

    __slots__ = ("classes", "full", "_n", "_inc", "_memo")

    def __init__(self, g: Graph):
        classes = mono_classes(g)
        classes.sort(key=lambda cls: (-len(cls), g.edge_index[cls[0]]))
        self.classes = classes
        n = self._n = g.n
        self.full = ((1 << (n * n)) - 1) ^ sum(1 << (u * n + u) for u in range(n))
        self._inc: list[tuple[tuple[int, int], ...]] | None = None
        self._memo: dict[int, int] = {}

    def sep(self, deleted: int) -> int:
        """Pairs split by deleting the classes in `deleted`.  A miss runs one
        BFS per component C and adds C's block of joined pairs as the single
        product comp * spread, spread = sum of 1 << (n*x) over x in C: comp <
        2^n and the bits of spread lie n apart, so no carry crosses a block
        and the product is sum of comp << (n*x)."""
        mask = self._memo.get(deleted)
        if mask is not None:
            return mask
        n = self._n
        if self._inc is None:
            self._inc = [_incidences(cls) for cls in self.classes]
        adj = [0] * n
        for ci, inc in enumerate(self._inc):
            if not (deleted >> ci) & 1:
                for x, bits in inc:
                    adj[x] |= bits
        joined = 0
        todo = (1 << n) - 1
        while todo:
            comp = frontier = todo & -todo
            spread = 0
            while frontier:
                reach = 0
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    x = bit.bit_length() - 1
                    reach |= adj[x]
                    spread |= 1 << (n * x)
                frontier = reach & ~comp
                comp |= frontier
            todo &= ~comp
            joined |= comp * spread
        mask = self._memo[deleted] = self.full & ~joined
        return mask

    def packing(self) -> list[int]:
        """pack[i] bounds the colors a separating coloring can make of the
        classes i..t-1 alone; pack[t] = 0.  Puts the classes in component
        order first, so read self.classes after calling it.

        Every color is self-separating: deleting it splits the ends of each of
        its edges.  Of the suffix U, s classes are self-separating alone; the
        others need a partner, and a color of exactly two of them is an edge
        of P, the graph of self-separating pairs on them, so such colors form
        a matching of P, at most B = sum over P's components C of |C| // 2.
        Every further color takes three classes or more, which gives
        pack = s + B + (|U| - s - 2B) // 3.

        The walk's union-find ends with P's components.  The classes are then
        stably sorted by the least index in their component (a self-separating
        class is a component of its own), so classes that can pair up sit
        together and a wrong pairing dies near the node that made it; and the
        walk is rerun in that order, where a pair from two components is
        known not to be an edge of P and is never tested.
        """
        pack, root = self._walk(None)
        t = len(self.classes)
        first: dict[int, int] = {}
        for i in range(t):
            first.setdefault(root[i], i)
        order = sorted(range(t), key=lambda i: first[root[i]])
        if order == list(range(t)):
            return pack
        self._reorder(order)
        pack, _ = self._walk([first[root[i]] for i in order])
        return pack

    def _walk(self, component: list[int] | None) -> tuple[list[int], list[int]]:
        """pack for the current order and each class's union-find root.

        Walking i down with one union-find tests each class once alone and
        each pair at most once; with `component` given, only pairs with equal
        labels are tested.
        """
        t, n = len(self.classes), self._n
        sep = self.sep
        own = [sum(1 << (u * n + v) for u, v in cls) for cls in self.classes]
        parent = list(range(t))
        size = [1] * t

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        pack = [0] * (t + 1)
        in_p: list[int] = []
        s = b = 0
        for i in range(t - 1, -1, -1):
            if sep(1 << i) & own[i] == own[i]:
                s += 1
            else:
                for j in in_p:
                    if component is not None and component[i] != component[j]:
                        continue
                    ri, rj = find(i), find(j)
                    both = own[i] | own[j]
                    if ri != rj and sep((1 << i) | (1 << j)) & both == both:
                        b += (size[ri] + size[rj]) // 2 - size[ri] // 2 - size[rj] // 2
                        parent[rj] = ri
                        size[ri] += size[rj]
                in_p.append(i)
            pack[i] = s + b + (t - i - s - 2 * b) // 3
        return pack, [find(i) for i in range(t)]

    def _reorder(self, order: list[int]) -> None:
        """Make class order[k] the k-th class; the memo is re-keyed by moving
        the bits of each key, not cleared."""
        self.classes = [self.classes[i] for i in order]
        if self._inc is not None:
            self._inc = [self._inc[i] for i in order]
        bit_of = [0] * len(order)
        for k, i in enumerate(order):
            bit_of[i] = 1 << k
        memo = {}
        for key, mask in self._memo.items():
            new = 0
            while key:
                low = key & -key
                key ^= low
                new |= bit_of[low.bit_length() - 1]
            memo[new] = mask
        self._memo = memo


def _incidences(cls: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """(x, OR of 1 << y over the class's edges xy) for each vertex x of the class."""
    bits: dict[int, int] = {}
    for u, v in cls:
        bits[u] = bits.get(u, 0) | 1 << v
        bits[v] = bits.get(v, 0) | 1 << u
    return tuple(bits.items())


def _search(table: _SepTable, upper: int, budget: _Budget) -> list[int]:
    """Per-class colors (0-based) of a separating leaf opening the most colors.

    Each class tries a new color first (while fewer than `upper` are open),
    then the open colors from the highest down.  A node dies when
    OR_{j < opened} sep(A_j | U) misses a pair.  An unopened color could add
    only sep(U), which every term contains as sep is monotone, so the test is
    the same for every final color count and every leaf reached separates; an
    edge of color c lies in every term but sep(A_c | U), so adjacent pairs
    need no test of their own.

    A node is cut when opened + pack[i] <= the best leaf's color count.  The
    colors opened so far number `opened`, and every other color of a leaf
    below lies wholly in the suffix i..t-1, which makes at most pack[i] of
    them; so a cut subtree holds no strictly better leaf, the search records
    the same improving leaves, and its result does not depend on the cut.
    Since pack[0] bounds every separating coloring, the color count is capped
    at min(upper, pack[0]), and a leaf reaching the cap ends the search.
    """
    pack = table.packing()  # first: it fixes the class order
    t = len(table.classes)
    sep, full = table.sep, table.full
    upper = min(upper, pack[0])
    members = [0] * upper
    color_of_class = [0] * t
    best: list[int] = []
    best_opened = 0

    def dfs(i: int, opened: int) -> bool:
        nonlocal best, best_opened
        budget.tick()
        if opened + pack[i] <= best_opened:
            return False
        if i == t:
            best, best_opened = color_of_class[:], opened
            return opened == upper
        bit = 1 << i
        rest = (1 << t) - (bit << 1)
        for color in range(min(opened, upper - 1), -1, -1):
            members[color] |= bit
            new_opened = max(opened, color + 1)
            covered = 0
            for j in range(new_opened):
                covered |= sep(members[j] | rest)
                if covered == full:
                    break
            if covered == full:
                color_of_class[i] = color
                if dfs(i + 1, new_opened):
                    return True
            members[color] ^= bit
        return False

    dfs(0, 0)
    return best


def md_feasible(g: Graph, k: int) -> EdgeColoring | None:
    """A separating coloring of g with exactly k colors, or None.

    One exists exactly for k <= md, so this merges md_exact's certificate down
    to k colors.  Raises SearchBudgetExceeded instead of returning None when
    the default node budget runs out, so an unknown outcome is never silently
    conflated with infeasibility.
    """
    if k < 1:
        raise ValueError("color count must be >= 1")
    result = md_exact(g)
    if k > result.value:
        return None
    coloring = merge_to_k(result.certificate, k)
    if not is_md_coloring(g, coloring)[0]:
        raise RuntimeError("merged coloring fails verification; this is a solver bug")
    return coloring


def _solve_connected(
    g: Graph, budget: _Budget
) -> tuple[int, list[int], list[tuple[str, int]]]:
    """md of a 2-connected block on >= 3 vertices, the 0-based color of each
    of its edges in edge order, and its bound trail."""
    table = _SepTable(g)
    upper, upper_name = md_upper_bound(g, _table=table)
    lower, lower_name = md_lower_bound(g, _block=True)
    trail = [(upper_name, upper), (lower_name, lower)]
    colors = [0] * g.m
    if upper == 1:
        return 1, colors, trail
    class_colors = _search(table, upper, budget)
    for cls, col in zip(table.classes, class_colors):
        for e in cls:
            colors[g.edge_index[e]] = col
    return len(set(class_colors)), colors, trail


def md_exact(g: Graph, *, node_budget: int = NODE_BUDGET) -> MdResult:
    """Exact md with a verified extremal coloring.

    Splits into blocks (md adds over blocks, and bridges contribute 1 each),
    solves each non-trivial block by one branch-and-bound, then assembles a
    whole-graph coloring from the block colorings on disjoint palettes, each
    block edge mapped back through the block's sorted vertex tuple.  The
    assembled certificate, the only EdgeColoring a solve builds, is
    re-verified before returning.  Spending more than node_budget search
    nodes (an int >= 1) over all blocks raises SearchBudgetExceeded.
    """
    started = time.perf_counter()
    budget = _Budget(node_budget)
    if g.n <= 1:
        return MdResult(
            value=0,
            certificate=EdgeColoring(g, ()),
            bounds_trail=(("single-vertex", 0),),
            stats={"nodes": 0, "time_ms": 0.0},
        )
    dec = block_decomposition(g)
    multi = len(dec.blocks) > 1
    total = 0
    trail: list[tuple[str, int]] = []
    colors = [0] * g.m
    solved: list[int] = []
    for bi, (verts, bg) in enumerate(zip(dec.blocks, dec.block_graphs)):
        prefix = f"block{bi}:" if multi else ""
        if bg.n == 2:
            colors[g.edge_index[verts]] = total + 1
            solved.append(1)
            trail.append((prefix + "bridge", 1))
            total += 1
            continue
        try:
            value, block_colors, block_trail = _solve_connected(bg, budget)
        except SearchBudgetExceeded as exc:
            done = sum(solved)
            remaining = len(dec.blocks) - len(solved)
            raise SearchBudgetExceeded(
                str(exc),
                nodes=budget.nodes,
                lower=done + remaining,
                upper=done + sum(len(b) - 1 for b in dec.blocks[len(solved):]),
            ) from exc
        solved.append(value)
        trail.extend((prefix + name, val) for name, val in block_trail)
        for (u, v), c in zip(bg.edges, block_colors):
            colors[g.edge_index[(verts[u], verts[v])]] = c + total + 1
        total += value
    if multi:
        trail.append(("block-sum", total))
    certificate = EdgeColoring(g, tuple(colors))
    ok, _ = is_md_coloring(g, certificate)
    if not ok or certificate.k != total:
        raise RuntimeError(
            "assembled block certificate failed verification; this is a solver bug"
        )
    elapsed = (time.perf_counter() - started) * 1000.0
    return MdResult(
        value=total,
        certificate=certificate,
        bounds_trail=tuple(trail),
        stats={"nodes": budget.nodes, "time_ms": elapsed},
    )


# ---------------------------------------------------------------------------
# Independent oracle


def md_oracle(g: Graph) -> int:
    """Exhaustive md over every set partition of the raw edge set.

    No edge quotient, no block splitting, no shared pruning with md_exact:
    edges are placed one at a time into an existing part or a new one, and
    every complete partition is tested for the separation property,
    memoizing the separated-pair bitmask of each edge subset.  A prefix is
    skipped when its parts plus the edges left cannot beat the best value
    found; that is counting only, so it cannot change the maximum.  Capped
    at 10 edges.
    """
    if not is_connected(g):
        raise ValueError("md is defined for connected graphs")
    if g.m > 10:
        raise ValueError(f"oracle is capped at 10 edges, got {g.m}")
    m = g.m
    if m == 0:
        return 0
    n = g.n
    pair_index: dict[tuple[int, int], int] = {}
    for u in range(n):
        for v in range(u + 1, n):
            pair_index[(u, v)] = len(pair_index)
    full = (1 << len(pair_index)) - 1
    edges = g.edges
    mask_memo: dict[int, int] = {}

    def separation_mask(subset: int) -> int:
        """Bitmask of pairs split by deleting the edges in `subset`."""
        cached = mask_memo.get(subset)
        if cached is not None:
            return cached
        adj = [0] * n
        for i, (u, v) in enumerate(edges):
            if not (subset >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        comp = [-1] * n
        nc = 0
        for s in range(n):
            if comp[s] != -1:
                continue
            frontier = 1 << s
            seen = frontier
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    bit = f & -f
                    f ^= bit
                    nxt |= adj[bit.bit_length() - 1]
                frontier = nxt & ~seen
                seen |= frontier
            w = seen
            while w:
                bit = w & -w
                w ^= bit
                comp[bit.bit_length() - 1] = nc
            nc += 1
        mask = 0
        for (u, v), pi in pair_index.items():
            if comp[u] != comp[v]:
                mask |= 1 << pi
        mask_memo[subset] = mask
        return mask

    best = 0
    parts: list[int] = []  # edge-subset bitmask of each part

    def place(i: int) -> None:
        nonlocal best
        if len(parts) + (m - i) <= best:
            return
        if i == m:
            got = 0
            for s in parts:
                got |= separation_mask(s)
                if got == full:
                    best = len(parts)
                    return
            return
        bit = 1 << i
        for j in range(len(parts)):
            parts[j] |= bit
            place(i + 1)
            parts[j] ^= bit
        parts.append(bit)
        place(i + 1)
        parts.pop()

    place(0)
    return best
