"""Exact md computation with certificates.

md(G) of a connected graph is the largest color count over edge colorings in
which every vertex pair is separated by deleting one color class.  The solver
decomposes into blocks (md adds over blocks), bounds each block from above,
and finds each block's md with one branch-and-bound search that maximizes
the number of colors opened.  The certificate uses exactly the colors
1..md, and merging color classes keeps a coloring separating, so
md_feasible(g, k) caps every color of the certificate at k.  The block
decomposition is also the connectivity check: md_exact and md_upper_bound
raise ValueError through it on a disconnected graph.

The upper bound is the least of four closed-form rules: n - 1
(vertex-bound), n/2 for a 2-connected block (half-order), the number of
forced-monochromatic edge classes (mono-classes), and the vertex bound of the
graph left after stripping a soft layer of non-cut vertices (soft-layer).  No
bound solves anything, so md_exact never calls itself.  Each block's trail
entry is its upper bound; md_lower_bound is a standalone check that no solve
calls (see its docstring).

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

A block's table keeps its classes in mono_classes' order for its whole
life, and class c is bit c of every class bitmask.  The search assigns them
in the order _SepTable.packing returns, so the unassigned classes U are
always a suffix of it.  That order puts the classes largest first and then
groups them by component of P, the graph of class pairs that are
self-separating together, so a wrong pairing dies near the node that made
it.  With sep(S) the mask of vertex pairs split by deleting every class in
S, and A_j the classes of color j, a node is dead iff
OR_{j < opened} sep(A_j | U) misses a pair: no completion can then split
that pair.  sep is memoized once per block, keyed by class bitmask, and
shared by every branch of the search, so a node costs at most one table
lookup per opened color.  The memo starts with rests[0], every class
deleted, whose sep is every pair; each other key is derived from its parent,
the same set plus one class, by joining the components that class's edges
span.  Each key the search tests is a superset of a suffix of the order, so
adding back the missing classes from the highest position down reaches a
memoized key.  The packing walks ask only whether one or two classes are
self-separating, which a search from one end of each deleted edge answers
on neighbour masks, stopping at the other end; their verdicts are booleans
kept apart from the memo.

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

Each layer a solve uses (block_decomposition, mono_classes, md_upper_bound,
is_md_coloring, md_exact) is called through this module's globals, so a
wrapper installed on the module attribute, as the benchmark's tracer does,
sees every call, md_feasible's solve included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from mdlab.coloring import EdgeColoring, is_md_coloring
from mdlab.graph import Graph, block_decomposition, is_connected, neighbor_masks, reach


class SearchBudgetExceeded(RuntimeError):
    """md_exact's node_budget ran out; `nodes` is the count that overran it."""

    def __init__(self, message: str, *, nodes: int = 0):
        super().__init__(message)
        self.nodes = nodes


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
    its edges in edge order.  _SepTable keeps this order, so class c is bit
    c of its memo keys; its search order (largest first) breaks ties on the
    class index, which is first-edge order, and the tests compare against
    it.

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

    The soft-layer rule strips a soft layer (see _soft_layer) and takes the
    vertex bound of the graph R that survives: md(G) <= md(R) <= |V(R)| - 1.
    Every rule is closed-form, so this never solves.  Without `_table`, one
    block decomposition checks connectivity (it raises ValueError on a
    disconnected graph) and, when g is one block, admits the half-order
    rule.

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
    two_connected = _table is not None or len(block_decomposition(g).blocks) == 1
    if two_connected and g.n // 2 < best:
        best, name = g.n // 2, "half-order"
    if best > 1:
        count = len(_table.classes if _table is not None else mono_classes(g))
        if count < best:
            best, name = count, "mono-classes"
    if best > 1:
        value = g.n - len(_soft_layer(g)) - 1
        if value < best:
            best, name = value, "soft-layer"
    return best, name


def _soft_layer(g: Graph) -> tuple[int, ...]:
    """Strip, in one pass in id order, each vertex with at least two alive
    neighbors whose removal leaves the alive set connected.

    g must be connected; md_upper_bound has checked that, or holds a block.
    The pass equals rescanning from vertex 0 after each strip, since a vertex
    w ineligible once stays so: stripping only lowers degrees, and stripping
    an eligible x cannot reconnect G[alive - w], as x alone in a component of
    it would have w as its only alive neighbor.  So every prefix of the
    sequence is a valid layer.
    """
    masks = neighbor_masks(g)
    alive = (1 << g.n) - 1
    removed: list[int] = []
    for v in range(g.n):
        rest = alive ^ (1 << v)
        if (masks[v] & alive).bit_count() >= 2 and reach(masks, rest & -rest, rest) == rest:
            removed.append(v)
            alive = rest
    return tuple(removed)


def md_lower_bound(g: Graph) -> tuple[int, str]:
    """Largest closed-form lower bound with the name of the rule that won.

    Standalone only: md_exact does not call it, since on a block of three or
    more vertices the rule is `one`, or `unicyclic-half` on a cycle, which
    equals the half-order upper bound already in the trail.  A disconnected
    graph raises ValueError.
    """
    if g.n < 2 or not is_connected(g):
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
    """One block's mono classes and its search's memo from a class bitmask S
    to sep(S), with pair (u, v) at bit u*n + v.  Built once per block of
    three or more vertices; only a block whose upper bound exceeds 1 is
    searched, so only such a block builds neighbour masks, `full` (every
    pair with u != v) or a memo entry.  `classes` is mono_classes(g) as
    returned, never reordered, and class c is bit c of every key."""

    __slots__ = ("classes", "full", "_g", "_order", "_memo")

    def __init__(self, g: Graph):
        self.classes = mono_classes(g)
        self._g = g
        self._memo: dict[int, int] = {}

    def sep(self, key: int) -> int:
        """Pairs split by deleting the classes in `key`, once _search has
        seeded the memo.  A missing key is derived from its parent, the key
        plus the class at the highest position of the search order it lacks,
        up to the first memoized key; the way back down adds one class at a
        time to J, the joined pairs full & ~sep.  u's component is row u of
        J, (J >> n*u) & row | 1 << u, its spread is column u,
        (J >> u) & col0 | 1 << n*u, with col0 the bits n*x, and an edge uv of
        the class with u, v apart joins the two components by
        J |= cv * su | cu * sv; a component is < 2^n and a spread's bits lie
        n apart, so no carry crosses a row."""
        memo, order, classes, n, full = self._memo, self._order, self.classes, self._g.n, self.full
        chain = []
        i = len(order) - 1
        while key not in memo:
            while key >> order[i] & 1:
                i -= 1
            chain.append((key, order[i]))
            key |= 1 << order[i]
        joined = full ^ memo[key]
        row, col0 = (1 << n) - 1, ((1 << n * n) - 1) // ((1 << n) - 1)
        for key, c in reversed(chain):
            for u, v in classes[c]:
                if not joined >> n * u + v & 1:
                    cu, cv = joined >> n * u & row | 1 << u, joined >> n * v & row | 1 << v
                    su, sv = joined >> u & col0 | 1 << n * u, joined >> v & col0 | 1 << n * v
                    joined |= cv * su | cu * sv
            memo[key] = full ^ joined
        return full ^ joined

    def packing(self) -> tuple[list[int], list[int]]:
        """The search order, a list of class indices, and pack, where pack[i]
        bounds the colors a separating coloring can make of the classes at
        positions i..t-1 of that order alone; pack[t] = 0.  Changes nothing
        in the table.

        Every color is self-separating: deleting it splits the ends of each of
        its edges.  Of the suffix U, s classes are self-separating alone; the
        others need a partner, and a color of exactly two of them is an edge
        of P, the graph of self-separating pairs on them, so such colors form
        a matching of P, at most B = sum over P's components C of |C| // 2.
        Every further color takes three classes or more, which gives
        pack = s + B + (|U| - s - 2B) // 3.

        The first order is largest class first, ties by class index.  Its
        walk's union-find ends with P's components.  The order is then
        stably sorted by the least position in each class's component (a
        self-separating class is a component of its own), so classes that
        can pair up sit together and a wrong pairing dies near the node that
        made it; and the walk is rerun in that order.  Both walks share one
        dict of verdicts keyed by class mask, and the first tested every
        pair from two components, so each such pair is a hit in the second.
        """
        classes = self.classes
        nbrs = neighbor_masks(self._g)
        verdicts: dict[int, bool] = {}

        def splits(c: int, d: int) -> bool:
            # Self-separation of classes c and d together (c == d: c alone).
            key = 1 << c | 1 << d
            verdict = verdicts.get(key)
            if verdict is None:
                cut = classes[c] if c == d else classes[c] + classes[d]
                verdict = verdicts[key] = _self_separating(nbrs, cut)
            return verdict

        order = sorted(range(len(classes)), key=lambda c: (-len(classes[c]), c))
        pack, root = self._walk(order, splits)
        first: dict[int, int] = {}
        for i, c in enumerate(order):
            first.setdefault(root[c], i)
        grouped = sorted(order, key=lambda c: first[root[c]])
        if grouped == order:
            return pack, order
        pack, _ = self._walk(grouped, splits)
        return pack, grouped

    @staticmethod
    def _walk(order: list[int], splits) -> tuple[list[int], list[int]]:
        """pack for `order` and each class's union-find root, by class index.

        Walking the positions down with one union-find asks splits(c, c),
        whether class c is self-separating, once per class, and splits(c, d)
        at most once per pair, skipping pairs already joined."""
        t = len(order)
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
            c = order[i]
            if splits(c, c):
                s += 1
            else:
                for d in in_p:
                    rc, rd = find(c), find(d)
                    if rc != rd and splits(c, d):
                        b += (size[rc] + size[rd]) // 2 - size[rc] // 2 - size[rd] // 2
                        parent[rd] = rc
                        size[rc] += size[rd]
                in_p.append(c)
            pack[i] = s + b + (t - i - s - 2 * b) // 3
        return pack, [find(c) for c in range(t)]


def _self_separating(nbrs: list[int], cut: tuple[tuple[int, int], ...]) -> bool:
    """Whether deleting the edges `cut` from the graph with neighbour bitmasks
    `nbrs` puts the ends of each of them in different components.  For each
    edge uv, a search from u expands one frontier at a time and stops as
    soon as it reaches v; a component searched to the end is kept for the
    later edges."""
    adj = nbrs[:]
    for u, v in cut:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    done: list[int] = []
    for u, v in cut:
        ub, vb = 1 << u, 1 << v
        for comp in done:
            if comp & ub:
                break
        else:
            comp = frontier = ub
            while frontier and not comp & vb:
                nxt = 0
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    nxt |= adj[bit.bit_length() - 1]
                frontier = nxt & ~comp
                comp |= frontier
            done.append(comp)
        if comp & vb:
            return False
    return True


def _search(table: _SepTable, upper: int, budget: _Budget) -> list[int]:
    """Per-class colors (0-based), in table.classes order, of a separating
    leaf opening the most colors.

    The classes are assigned in the order packing() returns, so U, the
    classes after position i, is the suffix mask rests[i + 1].  Each class
    tries a new color first (while fewer than `upper` are open), then the
    open colors from the highest down.  A node dies when
    OR_{j < opened} sep(A_j | U) misses a pair.  An unopened color could add
    only sep(U), which every term contains as sep is monotone, so the test is
    the same for every final color count and every leaf reached separates; an
    edge of color c lies in every term but sep(A_c | U), so adjacent pairs
    need no test of their own.

    A node is cut when opened + pack[i] <= the best leaf's color count.  The
    colors opened so far number `opened`, and every other color of a leaf
    below lies wholly in the classes at positions i..t-1, which make at
    most pack[i] of them; so a cut subtree holds no strictly better leaf, the
    search records the same improving leaves, and its result does not depend
    on the cut.  Since pack[0] bounds every separating coloring, the color
    count is capped at min(upper, pack[0]), and a leaf reaching the cap ends
    the search.

    A key missing from the memo, members[j] | rests[i + 1], goes to
    table.sep; for j other than the color of the class at position i, its
    parent members[j] | rests[i] was looked up one node higher.
    """
    pack, order = table.packing()
    t, n = len(order), table._g.n
    bits = [1 << c for c in order]
    rests = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        rests[i] = rests[i + 1] | bits[i]
    full = ((1 << n * n) - 1) ^ ((1 << n * (n + 1)) - 1) // ((1 << n + 1) - 1)
    table._order, table.full = order, full
    memo, sep = table._memo, table.sep
    memo[rests[0]] = full
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
        bit, rest = bits[i], rests[i + 1]
        for color in range(min(opened, upper - 1), -1, -1):
            members[color] |= bit
            new_opened = max(opened, color + 1)
            covered = 0
            for j in range(new_opened):
                mask = memo.get(key := members[j] | rest)
                covered |= sep(key) if mask is None else mask
                if covered == full:
                    break
            if covered == full:
                color_of_class[order[i]] = color
                if dfs(i + 1, new_opened):
                    return True
            members[color] ^= bit
        return False

    dfs(0, 0)
    del dfs  # it holds itself through its closure; freed now, not by the collector
    return best


def md_feasible(g: Graph, k: int) -> EdgeColoring | None:
    """A separating coloring of g with exactly k colors, or None.

    One exists exactly for k <= md, since merging color classes keeps a
    coloring separating.  md_exact's certificate uses exactly the colors
    1..md, so capping every color at k merges the classes k..md into one and
    leaves exactly k colors.  The result is re-verified, and a certificate
    off that palette raises RuntimeError rather than return fewer colors.
    Raises SearchBudgetExceeded instead of returning None when the default
    node budget runs out, so an unknown outcome is never silently conflated
    with infeasibility.
    """
    if k < 1:
        raise ValueError("color count must be >= 1")
    result = md_exact(g)
    if k > result.value:
        return None
    coloring = EdgeColoring(g, tuple(min(c, k) for c in result.certificate.colors))
    if coloring.k != k or not is_md_coloring(g, coloring)[0]:
        raise RuntimeError("merged coloring fails verification; this is a solver bug")
    return coloring


def _solve_connected(g: Graph, budget: _Budget) -> tuple[int, list[int], tuple[str, int]]:
    """md of a 2-connected block on >= 3 vertices, the 0-based color of each
    of its edges in edge order, and its trail entry, the upper bound."""
    table = _SepTable(g)
    upper, upper_name = md_upper_bound(g, _table=table)
    if upper == 1:
        return 1, [0] * g.m, (upper_name, upper)
    class_colors = _search(table, upper, budget)
    color_of = {e: col for cls, col in zip(table.classes, class_colors) for e in cls}
    return len(set(class_colors)), [color_of[e] for e in g.edges], (upper_name, upper)


def md_exact(g: Graph, *, node_budget: int = NODE_BUDGET) -> MdResult:
    """Exact md with a verified extremal coloring.

    Splits into blocks (md adds over blocks, and bridges contribute 1 each),
    solves each non-trivial block by one branch-and-bound, then assembles a
    whole-graph coloring from the block colorings on disjoint palettes, each
    block edge mapped back through the block's sorted vertex tuple; a graph
    that is one block takes its block colors as they are.  Each block takes
    the next run of colors, so the certificate uses exactly the colors
    1..md, which md_feasible relies on.  The assembled certificate,
    the only EdgeColoring a solve builds, is re-verified before returning.
    Spending more than node_budget search nodes (an int >= 1) over all
    blocks raises SearchBudgetExceeded.
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
    index = g.edge_index if multi else None
    total = 0
    trail: list[tuple[str, int]] = []
    colors = [0] * g.m
    for bi, (verts, bg) in enumerate(zip(dec.blocks, dec.block_graphs)):
        prefix = f"block{bi}:" if multi else ""
        if bg.n == 2:
            value, block_colors, (name, bound) = 1, [0], ("bridge", 1)
        else:
            value, block_colors, (name, bound) = _solve_connected(bg, budget)
        trail.append((prefix + name, bound))
        if multi:
            for (u, v), c in zip(bg.edges, block_colors):
                colors[index[(verts[u], verts[v])]] = c + total + 1
        else:
            colors = [c + 1 for c in block_colors]
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
