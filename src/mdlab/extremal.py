"""Density thresholds for md and their exhaustive verification.

f(n, r) is the least edge count that forces md <= r on connected n-vertex
graphs; g(n, r) is the largest edge count that guarantees md >= r.  Both have
closed forms, verified here by sweeping every isomorphism class of connected
graphs at desk scale.  Sharpness is checked on the same census: a threshold is
sharp at n when some connected n-vertex graph one edge past it breaks the
implication, and the first such census row is the reported witness.  The
census covers every graph of the order, so no construction is needed to find
one.

The enumeration is canonical augmentation (McKay 1998): a graph grows by a
vertex on one subset per orbit of its automorphisms, kept when that vertex is
canonical to delete, and one pure-Python refinement search (`_least_code`)
gives each kept graph its canonical form and its automorphisms.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterator

# md_exact is looked up on the module at each call, so a wrapper installed on
# solver.md_exact sees every census solve.
from mdlab import solver
from mdlab.graph import Graph, graph, reach, to_graph6

ENUMERATION_CAP = 8


def f(n: int, r: int) -> int:
    """Least edge count forcing md <= r (piecewise closed form)."""
    if n < 2 or not 1 <= r <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= r <= n-1, got n={n}, r={r}")
    if r <= n - 2:
        return math.comb(n - r + 1, 2) - n + 2 * r + 1
    return n - 1


def g(n: int, r: int) -> int:
    """Largest edge count guaranteeing md >= r (piecewise closed form)."""
    if n < 2 or not 1 <= r <= n - 1:
        raise ValueError(f"need n >= 2 and 1 <= r <= n-1, got n={n}, r={r}")
    if r == 1:
        return math.comb(n, 2)
    if r == 2:
        return math.ceil(3 * (n - 1) / 2) - 1
    if r >= n // 2 + 1:
        return n - 1
    # Here 3 <= r <= n//2, so n >= 6 and the parity picks the formula.
    if n % 2 == 1:
        return (3 * n + 1) // 2 - r
    return 3 * n // 2 - r


def mu(n: int, r: int) -> int:
    """Edge count of threshold_witness(n, r)."""
    if n < 6 or not 3 <= r <= n // 2:
        raise ValueError(f"need n >= 6 and 3 <= r <= n//2, got n={n}, r={r}")
    if n % 2 == 0:
        return math.ceil(3 * (n - 2 * r) / 2) + 2 * r
    return math.ceil(3 * (n - 2 * r + 1) / 2) + 2 * r - 1


# ---------------------------------------------------------------------------
# Connected-graph enumeration, one representative per isomorphism class


def _pair_pos(u: int, v: int) -> int:
    """Index of pair (u, v), u < v, in the column-major upper triangle."""
    return v * (v - 1) // 2 + u


def _adjacency(bits: int, k: int) -> list[int]:
    """Neighbour bitmask of each vertex of a graph in the `_pair_pos` encoding."""
    adj = [0] * k
    pos = 0
    for v in range(1, k):
        for u in range(v):
            if bits >> pos & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos += 1
    return adj


def _least_code(adj: list[int]) -> tuple[int, list[int], list[list[int]]]:
    """Least bit-string over the leaves of a refinement search from the unit
    partition, the labels that give it, and generators of the automorphisms.

    The search follows McKay & Piperno, "Practical graph isomorphism II"
    (2014).  Each node is an ordered partition, refined until equitable:
    every cell splits by neighbour counts into a splitter (the whole vertex
    set, each individualized vertex and each new piece), pieces in
    decreasing count.  Each vertex of the first non-singleton cell is then
    individualized in turn, as a singleton just before the rest of its cell.
    A discrete partition is a leaf and relabels the graph: the vertex in
    cell i becomes vertex i.  No step reads a vertex id, so the least
    bit-string depends only on the graph up to isomorphism.  When every
    vertex of the target cell is a twin of its first (equal neighbourhoods,
    ignoring each other), swapping two maps one subtree onto the other, so
    only the first is branched on; this keeps stars and cliques at one leaf.

    labels[u] is u's cell in one least leaf.  The generators permute
    labels (perm[i] is i's image): the twin swaps, and the map from that leaf
    to each other least leaf.  They generate every automorphism: without the
    twin rule the least leaves would be one orbit of the automorphism group,
    and a pruned subtree is a twin swap's image.
    """
    k = len(adj)
    leaves, swaps = [], set()  # (code, vertex order) per leaf; twin pairs

    def search(cells: list[tuple[int, ...]], splitters: list[int]) -> None:
        for w in splitters:
            if len(cells) == k:
                break
            split = []
            for cell in cells:
                if len(cell) == 1:
                    split.append(cell)
                    continue
                pieces: dict[int, list[int]] = {}
                for v in cell:
                    pieces.setdefault((adj[v] & w).bit_count(), []).append(v)
                if len(pieces) == 1:
                    split.append(cell)
                    continue
                # Higher counts first, so at the root denser vertices take lower
                # labels; md_exact searches fewer nodes on such graphs.
                for count in sorted(pieces, reverse=True):
                    split.append(tuple(pieces[count]))
                    # Each new piece joins the splitters this loop still reads.
                    splitters.append(sum(1 << v for v in pieces[count]))
            cells = split
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
            code, pos = 0, 0  # pos runs through _pair_pos(i, j) in order
            for j in range(1, k):
                row = adj[order[j]]
                for i in range(j):
                    code |= (row >> order[i] & 1) << pos
                    pos += 1
            leaves.append((code, order))
            return
        cell = cells[target]
        first = cell[0]
        twins = all(adj[first] & ~(1 << w) == adj[w] & ~(1 << first) for w in cell[1:])
        if twins:
            swaps.update((first, w) for w in cell[1:])
        head, tail = cells[:target], cells[target + 1 :]
        for v in cell[:1] if twins else cell:
            search(head + [(v,), tuple(w for w in cell if w != v)] + tail, [1 << v])

    search([tuple(range(k))], [(1 << k) - 1])
    del search  # it holds itself through its closure; freed now, not by the collector
    code, least = min(leaves)
    others = [order for leaf_code, order in leaves if leaf_code == code and order != least]
    # Swapping twins a and b maps the least leaf to its order with a, b swapped.
    others += [[{a: b, b: a}.get(u, u) for u in least] for a, b in swaps]
    labels = sorted(range(k), key=least.__getitem__)  # the inverse of least
    return code, labels, [[labels[u] for u in order] for order in others]


def _orbit_minima(size: int, maps: list[list[int]]) -> list[int]:
    """Least point of each point's orbit in the group `maps` generate (x -> map[x])."""
    least = list(range(size))
    for x in range(size):
        frontier = [x] if least[x] == x else []
        while frontier:
            y = frontier.pop()
            for image in maps:
                if least[image[y]] == image[y] != x:
                    least[image[y]] = x
                    frontier.append(image[y])
    return least


def _subset_representatives(k: int, generators: list[list[int]]) -> list[int]:
    """Least nonempty vertex bitmask of each orbit of `generators`, in order."""
    maps = []
    for perm in generators:
        image = [0]  # image[s] of each subset s of the vertices before u
        for u in range(k):
            image += [s | 1 << perm[u] for s in image]
        maps.append(image)
    least = _orbit_minima(1 << k, maps)
    return [s for s in range(1, 1 << k) if least[s] == s]


def _components_without(adj: list[int], w: int) -> list[int]:
    """Vertex bitmasks of the components of the graph minus w."""
    left = (1 << len(adj)) - 1 & ~(1 << w)
    components = []
    while left:
        part = reach(adj, left & -left, left)
        components.append(part)
        left ^= part
    return components


def _canonical_children(
    parent_adj: list[int], generators: list[list[int]]
) -> Iterator[tuple[int, list[list[int]]]]:
    """Form and automorphisms of each child P + v, one per orbit of subsets S,
    whose new vertex v is canonical (see `enumerate_connected`).

    The keys are tried cheapest first.  The first reads only P: a vertex w
    of P is a cut vertex of the child exactly when some component of P - w
    misses S, and its degree is its degree in P plus one if it is in S.
    Each child that survives the second costs one search, which gives its
    form and the orbits that settle a tie.  v is non-cut, as P is connected.
    """
    v = len(parent_adj)
    degrees = [a.bit_count() for a in parent_adj]
    parts = [_components_without(parent_adj, w) for w in range(v)]
    for subset in _subset_representatives(v, generators):
        degree = subset.bit_count()
        ties = []
        for w in range(v):
            dw = degrees[w] + (subset >> w & 1)
            if dw <= degree and all(part & subset for part in parts[w]):
                if dw < degree:
                    break
                ties.append(w)
        else:
            adj = [a | (subset >> u & 1) << v for u, a in enumerate(parent_adj)]
            adj.append(subset)
            deg = [a.bit_count() for a in adj]
            keys = {w: sorted(d for x, d in enumerate(deg) if adj[w] >> x & 1) for w in (*ties, v)}
            if min(keys.values()) < keys[v]:
                continue
            code, labels, automorphisms = _least_code(adj)
            # The candidates are whole orbits, so the least is least in its own.
            least = min(labels[w] for w in keys if keys[w] == keys[v])
            if least == labels[v] or _orbit_minima(v + 1, automorphisms)[labels[v]] == least:
                yield code, automorphisms


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected n-vertex graphs.

    Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 1998).  Level k attaches a new vertex v to the least
    subset of each orbit of nonempty subsets of each representative P on
    k - 1 vertices, under P's automorphisms, and keeps a child when v is
    canonical: of its least non-cut vertices by degree, then by the sorted
    degrees of their neighbours, v is in the orbit of the one with the least
    `_least_code` label.  That orbit is chosen invariantly, as canonical
    labellings of isomorphic graphs give these candidates the same labels.

    Nothing is lost: for a canonical vertex m of a connected graph C, an
    isomorphism maps C - m onto some P and m's neighbours into the orbit of
    a least subset S, and v is canonical in the child of P on S, which is
    isomorphic to C.  Nothing is repeated: C - v is one class for every
    canonical v, so C has one parent P, and an isomorphism between two kept
    children of P can be chosen to fix v, which makes it an automorphism of
    P between their subsets: both are one least subset.  So the forms come
    out distinct, and one met twice is a bug.  The levels are grown
    depth-first from K1, and the n-vertex forms are sorted and checked for
    repeats once, so they come out in increasing order.  n is checked at the
    call; the work runs as the iterator is read.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_CAP}, got {n}")
    return _enumerate(n)


def _enumerate(n: int) -> Iterator[Graph]:
    forms: list[int] = []  # canonical edge bitmask of each graph on n vertices

    def grow(bits: int, k: int, generators: list[list[int]]) -> None:
        # Depth-first, so only the graphs on the path from K1 hold their
        # automorphisms, and those of the n-vertex graphs are never kept.
        if k == n:
            forms.append(bits)
            return
        for child, automorphisms in _canonical_children(_adjacency(bits, k), generators):
            grow(child, k + 1, automorphisms)

    grow(0, 1, [])
    del grow  # it holds itself and `forms` through its closure
    forms.sort()
    if any(a == b for a, b in zip(forms, forms[1:])):
        raise RuntimeError(f"a graph on {n} vertices was kept twice; this is an enumeration bug")
    for bits in forms:
        adj = _adjacency(bits, n)
        yield graph(n, [(u, v) for v in range(1, n) for u in range(v) if adj[v] >> u & 1])


# ---------------------------------------------------------------------------
# md census over the enumeration


def _census_row(g: Graph) -> tuple[str, int, int]:
    return to_graph6(g), g.m, solver.md_exact(g).value


# Keyed by n <= ENUMERATION_CAP, so it holds at most one census per order.
# The rows are a tuple, so a caller cannot change what later calls return.
_CENSUS_CACHE: dict[int, tuple[tuple[str, int, int], ...]] = {}


def md_census(n: int, jobs: int = 1) -> tuple[tuple[str, int, int], ...]:
    """(graph6, edge count, md) for every connected n-vertex graph.

    The graphs are enumerate_connected(n), in its order, and the rows are
    cached per n.  _census_row maps each graph to its row as the enumeration
    yields it, on md_exact's default node budget: in this process for
    jobs = 1, and for jobs > 1 by that many workers, which receive Graphs.
    """
    if type(jobs) is not int or jobs < 1:  # bools refused too
        raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
    if n in _CENSUS_CACHE:
        return _CENSUS_CACHE[n]
    graphs = enumerate_connected(n)
    if jobs > 1:
        # Imported here so that importing this module, and every serial
        # census, skips loading concurrent.futures and multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            rows = tuple(ex.map(_census_row, graphs, chunksize=32))
    else:
        rows = tuple(map(_census_row, graphs))
    _CENSUS_CACHE[n] = rows
    return rows


# ---------------------------------------------------------------------------
# Threshold verification


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of one exhaustive threshold check.

    witness is the graph6 of the first census row one edge past the threshold
    that breaks the implication (None if no row does); notes says when no
    connected graph has that edge count, which makes sharpness vacuous.
    """

    kind: str  # "f" or "g"
    n: int
    r: int
    threshold: int
    verified: bool
    counterexamples: tuple[str, ...]
    witness: str | None
    notes: tuple[str, ...] = ()
    stats: dict = field(default_factory=dict)


def _verify(kind: str, n: int, r: int) -> ThresholdReport:
    started = time.perf_counter()
    threshold = f(n, r) if kind == "f" else g(n, r)
    rows = md_census(n)

    if kind == "f":
        bad = sorted(g6 for g6, m, v in rows if m >= threshold and v > r)
        boundary = threshold - 1
        sharp = lambda v: v > r  # noqa: E731
    else:
        bad = sorted(g6 for g6, m, v in rows if m <= threshold and v < r)
        boundary = threshold + 1
        sharp = lambda v: v < r  # noqa: E731

    witness: str | None = None
    notes: tuple[str, ...] = ()
    if not n - 1 <= boundary <= math.comb(n, 2):
        notes = ("sharpness-vacuous: no connected graph has the boundary edge count",)
    else:
        witness = next((g6 for g6, m, v in rows if m == boundary and sharp(v)), None)

    return ThresholdReport(
        kind=kind,
        n=n,
        r=r,
        threshold=threshold,
        verified=not bad and (witness is not None or bool(notes)),
        counterexamples=tuple(bad),
        witness=witness,
        notes=notes,
        stats={
            "graphs_checked": len(rows),
            "time_ms": (time.perf_counter() - started) * 1000.0,
        },
    )


def verify_f(n: int, r: int) -> ThresholdReport:
    """Exhaustively check that e >= f(n, r) forces md <= r, plus sharpness."""
    return _verify("f", n, r)


def verify_g(n: int, r: int) -> ThresholdReport:
    """Exhaustively check that e <= g(n, r) guarantees md >= r, plus sharpness."""
    return _verify("g", n, r)
