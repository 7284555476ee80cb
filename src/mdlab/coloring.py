"""Edge colorings and the separation verifier: the certificate type and the
one check every certificate passes.

An edge coloring here is total on the canonical edge order and allows adjacent
edges to share a color; edge i of graph.edges has color colors[i].  Colors
are never renumbered: md_exact's certificates already use exactly the colors
1..md.  The verifier decides whether every vertex pair can be separated by
deleting one color class, which is the property all md values in this package
are measured against, by refining vertex groups on bitmasks, and returns the
pairs that no color separates.  A coloring has no wire format of its own:
`mdlab md` prints the graph6 text and the color list in its JSON lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from mdlab.graph import Graph, reach


@dataclass(frozen=True)
class EdgeColoring:
    """Colors aligned with the graph's canonical edge order, integers >= 1
    (bools are rejected)."""

    graph: Graph
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.colors) != self.graph.m:
            raise ValueError(
                f"{len(self.colors)} colors for {self.graph.m} edges"
            )
        for c in self.colors:
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ValueError(f"colors must be integers >= 1, got {c!r}")

    @property
    def k(self) -> int:
        """Number of distinct colors used."""
        return len(set(self.colors))


def is_md_coloring(
    g: Graph, c: EdgeColoring
) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Decide whether deleting some color class separates every vertex pair.

    One pass over the edges builds neighbour bitmasks for g, whose BFS
    checks connectivity, and for each color.  Each color splits the groups
    of not yet separated vertices (at first, all of them) by the components
    of g minus its edges, found by BFS; a group of one is dropped, and no
    group left ends the loop.  Returns (ok, unseparated): the sorted pairs
    (u, v), u < v, left in a group.
    """
    if c.graph != g:
        raise ValueError("coloring was built for a different graph")
    n = g.n
    adj = [0] * n
    by_color: dict[int, list[int]] = {}
    for (u, v), col in zip(g.edges, c.colors):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        own = by_color.get(col)
        if own is None:
            own = by_color[col] = [0] * n
        own[u] |= 1 << v
        own[v] |= 1 << u
    everyone = (1 << n) - 1
    if reach(adj, everyone & -everyone) != everyone:
        raise ValueError("the separation property is defined for connected graphs")
    groups = [everyone]
    for own in by_color.values():
        if not groups:
            break
        rest = [a & ~b for a, b in zip(adj, own)]
        refined = []
        for group in groups:
            while group & (group - 1):
                part = group & reach(rest, group & -group)
                if part & (part - 1):
                    refined.append(part)
                group ^= part
        groups = refined
    unseparated = []
    for group in groups:
        members = [v for v in range(n) if group >> v & 1]
        unseparated.extend(combinations(members, 2))
    unseparated.sort()
    return not unseparated, tuple(unseparated)
