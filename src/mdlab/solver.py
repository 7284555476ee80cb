"""Exact md computation with certificates.

md(G) of a connected graph is the largest color count over edge colorings in
which every vertex pair is separated by deleting one color class.  The solver
decomposes into blocks (md adds over blocks), bounds each block from above,
and finds each block's md with one branch-and-bound search that maximizes
the number of colors opened.  Merging color classes keeps a coloring
separating, so md_feasible(g, k) merges the extremal coloring to k colors.
The block decomposition is also the connectivity check: md_exact and
md_upper_bound raise ValueError through it on a disconnected graph.

The upper bound is the least of four rules: n - 1 (vertex-bound), n/2 for a
2-connected block (half-order), the number of forced-monochromatic edge
classes (mono-classes), and the md of the graph left after stripping a soft
layer of non-cut vertices (soft-layer), solved recursively on the caller's
budget.  The lower bound is closed-form (one, tree, unicyclic-half) and is
reported in the bound trail only.

The search assigns whole edge classes rather than edges: restricted to any
triangle a separating coloring is monochromatic, and restricted to any 4-cycle
it makes opposite edges equal, so the union-closure of those constraints is
monochromatic under every separating coloring.  This refines nothing away and
shrinks the search space a lot on dense or product-shaped inputs.

Classes are assigned in index order, so the unassigned classes U are always a
suffix.  With sep(S) the mask of vertex pairs split by deleting every class in
S, and A_j the classes of color j, a node is dead iff
OR_{j < opened} sep(A_j | U) misses a pair: no completion can then split that
pair.  sep is memoized once per block and shared by every branch of its
search, so a node costs at most one table lookup per opened color.

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
sees every call, nested sub-solves and md_feasible's solve included.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from mdlab.analysis import block_decomposition, soft_layer_reduce
from mdlab.coloring import EdgeColoring, is_md_coloring, merge_to_k, trivial_coloring
from mdlab.graph import Graph, is_connected


class SearchBudgetExceeded(RuntimeError):
    """The node budget ran out; best-known bounds are attached."""

    def __init__(self, message: str, *, nodes: int = 0,
                 lower: int | None = None, upper: int | None = None):
        super().__init__(message)
        self.nodes = nodes
        self.lower = lower
        self.upper = upper


@dataclass
class SearchConfig:
    """The node budget for one whole solve, sub-solves included.

    Every search node of the solve, and of the soft-layer rule's sub-solves,
    is charged to one count; passing the budget raises SearchBudgetExceeded.
    """

    node_budget: int = 500_000_000

    def __post_init__(self) -> None:
        if self.node_budget <= 0:
            raise ValueError("node budget must be positive")


DEFAULT_CONFIG = SearchConfig()


@dataclass(frozen=True)
class MdResult:
    """Exact value plus a verified extremal coloring and the bound trail."""

    value: int
    certificate: EdgeColoring
    bounds_trail: tuple[tuple[str, int], ...]
    stats: dict = field(default_factory=dict)


class _Budget:
    __slots__ = ("node_budget", "nodes")

    def __init__(self, cfg: SearchConfig):
        self.node_budget = cfg.node_budget
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
    """
    m = g.m
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    n = g.n
    eid = [[-1] * n for _ in range(n)]
    nbrs = [0] * n
    for i, (u, v) in enumerate(g.edges):
        eid[u][v] = eid[v][u] = i
        nbrs[u] |= 1 << v
        nbrs[v] |= 1 << u
    for u in range(n):
        eu = eid[u]
        for v in range(u + 1, n):
            w = nbrs[u] & nbrs[v]
            xs = []
            while w:
                bit = w & -w
                w ^= bit
                xs.append(bit.bit_length() - 1)
            ev = eid[v]
            if eu[v] >= 0:
                # Triangle u-v-x: all three edges share a color.
                for x in xs:
                    union(eu[v], eu[x])
                    union(eu[v], ev[x])
            if len(xs) == 2:
                # 4-cycle u-x-v-y: opposite edges share a color.
                x, y = xs
                union(eu[x], ev[y])
                union(ev[x], eu[y])
            elif len(xs) > 2:
                # With three or more common neighbors the opposite-edge pairs
                # of all those 4-cycles chain every u-x and v-x edge together.
                for x in xs:
                    union(eu[xs[0]], eu[x])
                    union(eu[xs[0]], ev[x])
    groups: dict[int, list[int]] = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [
        tuple(g.edges[i] for i in cls) for cls in sorted(groups.values())
    ]


# ---------------------------------------------------------------------------
# Bounds


def md_upper_bound(
    g: Graph, cfg: SearchConfig | None = None, _budget: _Budget | None = None
) -> tuple[int, str]:
    """Smallest applicable upper bound with the name of the rule that won.

    The soft-layer rule solves a smaller graph exactly; its search nodes are
    charged to `_budget` (the caller's solve) or, without one, to a fresh
    budget from cfg.  Running out raises SearchBudgetExceeded rather than
    loosening the bound.  One block decomposition checks connectivity (it
    raises ValueError on a disconnected graph) and, when it finds no cut
    vertex, admits the half-order rule.

    The search's packing value (_SepTable.packing, pack[0]) is often tighter
    than every rule here, but it is deliberately not a rule yet: it would
    change the winning rule and the bound trail, which the benchmark's tests
    pin on C5 box C5.
    """
    if g.n < 2:
        raise ValueError("bounds are defined for connected graphs on >= 2 vertices")
    best, name = g.n - 1, "vertex-bound"
    if not block_decomposition(g).cut_vertices and g.n // 2 < best:
        best, name = g.n // 2, "half-order"
    if best > 1:
        count = len(mono_classes(g))
        if count < best:
            best, name = count, "mono-classes"
    if best > 1:
        reduced, seq = soft_layer_reduce(g)
        if seq:
            value = md_exact(reduced, cfg, _budget=_budget).value
            if value < best:
                best, name = value, "soft-layer"
    return best, name


def md_lower_bound(g: Graph) -> tuple[int, str]:
    """Largest closed-form lower bound with the name of the rule that won."""
    if not is_connected(g) or g.n < 2:
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
    """One block's mono classes in search order (largest first, ties by first
    edge index) and its memo from a class bitmask S to sep(S), with pair
    (u, v) at bit u*n + v; `full` holds every pair with u != v.  Built once
    per searched block and hit across the branches of its one search."""

    __slots__ = ("classes", "full", "_n", "_memo")

    def __init__(self, g: Graph):
        classes = mono_classes(g)
        classes.sort(key=lambda cls: (-len(cls), g.edge_index[cls[0]]))
        self.classes = classes
        n = self._n = g.n
        self.full = ((1 << (n * n)) - 1) ^ sum(1 << (u * n + u) for u in range(n))
        self._memo: dict[int, int] = {}

    def sep(self, deleted: int) -> int:
        mask = self._memo.get(deleted)
        if mask is not None:
            return mask
        n = self._n
        adj = [0] * n
        for ci, cls in enumerate(self.classes):
            if not (deleted >> ci) & 1:
                for u, v in cls:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        joined = 0
        todo = (1 << n) - 1
        while todo:
            comp = frontier = todo & -todo
            while frontier:
                reach = 0
                while frontier:
                    bit = frontier & -frontier
                    frontier ^= bit
                    reach |= adj[bit.bit_length() - 1]
                frontier = reach & ~comp
                comp |= frontier
            todo &= ~comp
            w = comp
            while w:
                bit = w & -w
                w ^= bit
                joined |= comp << (n * (bit.bit_length() - 1))
        mask = self._memo[deleted] = self.full & ~joined
        return mask

    def packing(self) -> list[int]:
        """pack[i] bounds the colors a separating coloring can make of the
        classes i..t-1 alone; pack[t] = 0.

        Every color is self-separating: deleting it splits the ends of each of
        its edges.  Of the suffix U, s classes are self-separating alone; the
        others need a partner, and a color of exactly two of them is an edge
        of P, the graph of self-separating pairs on them, so such colors form
        a matching of P, at most B = sum over P's components C of |C| // 2.
        Every further color takes three classes or more, which gives
        pack = s + B + (|U| - s - 2B) // 3.  Walking i down with one
        union-find tests each class once alone and each pair at most once.
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
                    ri, rj = find(i), find(j)
                    both = own[i] | own[j]
                    if ri != rj and sep((1 << i) | (1 << j)) & both == both:
                        b += (size[ri] + size[rj]) // 2 - size[ri] // 2 - size[rj] // 2
                        parent[rj] = ri
                        size[ri] += size[rj]
                in_p.append(i)
            pack[i] = s + b + (t - i - s - 2 * b) // 3
        return pack


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
    t = len(table.classes)
    sep, full = table.sep, table.full
    pack = table.packing()
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


def md_feasible(
    g: Graph, k: int, cfg: SearchConfig | None = None
) -> EdgeColoring | None:
    """A separating coloring of g with exactly k colors, or None.

    One exists exactly for k <= md, so this merges md_exact's certificate down
    to k colors.  Raises SearchBudgetExceeded instead of returning None when
    the budget runs out, so an unknown outcome is never silently conflated
    with infeasibility.
    """
    if k < 1:
        raise ValueError("color count must be >= 1")
    result = md_exact(g, cfg)
    if k > result.value:
        return None
    coloring = merge_to_k(result.certificate, k)
    if not is_md_coloring(g, coloring)[0]:
        raise RuntimeError("merged coloring fails verification; this is a solver bug")
    return coloring


def _solve_connected(
    g: Graph, cfg: SearchConfig, budget: _Budget
) -> tuple[int, EdgeColoring, list[tuple[str, int]]]:
    """Exact md of a connected graph on >= 2 vertices, no block splitting."""
    upper, upper_name = md_upper_bound(g, cfg, _budget=budget)
    lower, lower_name = md_lower_bound(g)
    trail = [(upper_name, upper), (lower_name, lower)]
    if upper == 1:
        return 1, trivial_coloring(g), trail
    table = _SepTable(g)
    colors = [0] * g.m
    for cls, col in zip(table.classes, _search(table, upper, budget)):
        for e in cls:
            colors[g.edge_index[e]] = col + 1
    coloring = EdgeColoring(g, tuple(colors))
    return coloring.k, coloring, trail


def md_exact(
    g: Graph, cfg: SearchConfig | None = None, _budget: _Budget | None = None
) -> MdResult:
    """Exact md with a verified extremal coloring.

    Splits into blocks (md adds over blocks, and bridges contribute 1 each),
    solves each non-trivial block by one branch-and-bound, then assembles a
    whole-graph coloring from the block colorings on disjoint palettes.  The
    assembled certificate is re-verified before returning.  A bound's
    sub-solve passes its caller's budget as `_budget`, so stats["nodes"] and
    the node budget cover the whole solve.
    """
    cfg = cfg or DEFAULT_CONFIG
    started = time.perf_counter()
    budget = _budget if _budget is not None else _Budget(cfg)
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
    offset = 0
    trail: list[tuple[str, int]] = []
    colors = [0] * g.m
    solved: list[int] = []
    for bi, (verts, bg) in enumerate(zip(dec.blocks, dec.block_graphs)):
        prefix = f"block{bi}:" if multi else ""
        try:
            if bg.n == 2:
                value, block_col = 1, trivial_coloring(bg)
                block_trail = [("bridge", 1)]
            else:
                value, block_col, block_trail = _solve_connected(bg, cfg, budget)
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
        for (u, v), c in zip(bg.edges, block_col.colors):
            colors[g.edge_index[(verts[u], verts[v])]] = c + offset
        offset += value
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
