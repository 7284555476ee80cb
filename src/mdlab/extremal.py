"""Density thresholds for md and their exhaustive verification.

f(n, r) is the least edge count that forces md <= r on connected n-vertex
graphs; g(n, r) is the largest edge count that guarantees md >= r.  Both have
closed forms, verified here by sweeping every isomorphism class of connected
graphs at desk scale.  Sharpness is checked on the same census: a threshold is
sharp at n when some connected n-vertex graph one edge past it breaks the
implication, and the first such census row is the reported witness.  The
census covers every graph of the order, so no construction is needed to find
one.

The enumeration is augmentation with canonical-form rejection: graphs grow one
vertex at a time (attached to a nonempty subset, so every prefix stays
connected), and duplicates are rejected by a canonical form: the least
adjacency bit-string over the leaves of a partition-refinement search
(`_canonical`), in pure Python.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator

# md_exact is looked up on the module at each call, so a wrapper installed on
# solver.md_exact sees every census solve.
from mdlab import solver
from mdlab.graph import Graph, from_graph6, graph, is_connected, to_graph6
from mdlab.solver import SearchConfig

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
    if n % 2 == 1 and n >= 7:
        return (3 * n + 1) // 2 - r
    if n % 2 == 0 and n >= 6:
        return 3 * n // 2 - r
    raise ValueError(f"no closed-form branch covers n={n}, r={r}")


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


def _canonical(bits: int, k: int) -> int:
    """Least bit-string over the leaves of a refinement search on a graph.

    `bits` holds a k-vertex graph in the `_pair_pos` encoding.  The search
    follows McKay & Piperno, "Practical graph isomorphism II" (2014).  Each
    node is an ordered partition of the vertices, refined until equitable:
    every cell splits by its vertices' neighbour counts into a splitter (the
    vertex set, then each individualized vertex and each new piece), and the
    pieces are ordered by decreasing count.  Each vertex of the first
    non-singleton cell is then individualized in turn, as a singleton cell
    just before the rest of its cell.  A discrete partition is a leaf and
    relabels the graph: the vertex in cell i becomes vertex i.

    The minimum depends only on the isomorphism class because no step reads
    a vertex id: splits, piece order and the target cell follow from
    adjacency counts and cell positions.  Relabelling the input therefore
    relabels the whole search tree the same way, and each leaf gives the same
    bit-string as its image.  If every vertex of the target cell is a twin of
    its first vertex (equal neighbourhoods, ignoring each other), swapping
    two of them is an automorphism that fixes the partition and maps one
    subtree onto the other, so branching on the first vertex alone leaves
    the set of leaf bit-strings unchanged.  This keeps stars and cliques at
    one leaf.
    """
    adj = [0] * k
    for v in range(1, k):
        for u in range(v):
            if bits >> _pair_pos(u, v) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u

    def search(cells: list[tuple[int, ...]], splitters: list[int]) -> int:
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
                # Higher counts first, so at the root denser vertices take
                # lower labels; md_exact searches fewer nodes on such graphs.
                for count in sorted(pieces, reverse=True):
                    split.append(tuple(pieces[count]))
                    # Each new piece joins the splitters this loop still reads.
                    splitters.append(sum(1 << v for v in pieces[count]))
            cells = split
        target = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if target is None:
            code, pos = 0, 0  # pos runs through _pair_pos(i, j) in order
            for j in range(1, k):
                row = adj[cells[j][0]]
                for i in range(j):
                    code |= (row >> cells[i][0] & 1) << pos
                    pos += 1
            return code
        cell = cells[target]
        first = cell[0]
        twins = all(adj[first] & ~(1 << w) == adj[w] & ~(1 << first) for w in cell[1:])
        head, tail = cells[:target], cells[target + 1 :]
        return min(
            search(head + [(v,), tuple(w for w in cell if w != v)] + tail, [1 << v])
            for v in (cell[:1] if twins else cell)
        )

    return search([tuple(range(k))], [(1 << k) - 1])


def _graph_from_bits(n: int, bits: int) -> Graph:
    edges = []
    for v in range(1, n):
        for u in range(v):
            if (bits >> _pair_pos(u, v)) & 1:
                edges.append((u, v))
    return graph(n, edges)


def enumerate_connected(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected n-vertex graphs.

    Each level attaches a new vertex to every nonempty subset of every
    representative of the level below and keeps the distinct `_canonical`
    forms.  Representatives come out in increasing canonical bit-string order.
    """
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_CAP}, got {n}")
    level = [0]  # canonical edge bitmasks of connected graphs on k vertices
    for k in range(2, n + 1):
        base = (k - 1) * (k - 2) // 2
        children = {
            parent | (subset << base)
            for parent in level
            for subset in range(1, 1 << (k - 1))
        }
        level = sorted({_canonical(child, k) for child in children})
    for bits in level:
        yield _graph_from_bits(n, bits)


# ---------------------------------------------------------------------------
# md census over the enumeration


def _md_of_graph6(g6: str, cfg: SearchConfig | None) -> int:
    return solver.md_exact(from_graph6(g6), cfg).value


# Keyed by n <= ENUMERATION_CAP, so it holds at most one census per order.
# The rows are a tuple, so a caller cannot change what later calls return.
_CENSUS_CACHE: dict[int, tuple[tuple[str, int, int], ...]] = {}


def md_census(
    n: int,
    graphs: Iterable[Graph] | None = None,
    jobs: int = 1,
    cfg: SearchConfig | None = None,
) -> tuple[tuple[str, int, int], ...]:
    """(graph6, edge count, md) for every connected n-vertex graph.

    Sourced from the built-in enumeration unless `graphs` substitutes an
    external catalog (each must be connected on n vertices).  Built-in runs
    are cached per n.
    """
    if graphs is None and n in _CENSUS_CACHE:
        return _CENSUS_CACHE[n]
    if graphs is None:
        pool = list(enumerate_connected(n))
    else:
        pool = list(graphs)
        for gg in pool:
            if gg.n != n or not is_connected(gg):
                raise ValueError(
                    f"external catalog entry is not a connected {n}-vertex graph: "
                    f"{to_graph6(gg)}"
                )
    g6s = [to_graph6(gg) for gg in pool]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            values = list(
                ex.map(_md_of_graph6, g6s, [cfg] * len(g6s), chunksize=32)
            )
    else:
        values = [solver.md_exact(gg, cfg).value for gg in pool]
    rows = tuple((g6, gg.m, v) for g6, gg, v in zip(g6s, pool, values))
    if graphs is None:
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
