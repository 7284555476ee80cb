"""Edge colorings and the separation verifier: the certificate type and the
one check every certificate passes.

An edge coloring here is total on the canonical edge order and allows adjacent
edges to share a color; edge (u, v), u < v, has color
colors[graph.edge_index[(u, v)]].  Colors are never renumbered: md_exact's
certificates already use exactly the colors 1..md.  The verifier decides
whether every vertex pair can be separated by deleting one color class, which
is the property all md values in this package are measured against, and
returns the pairs that no color separates.  A coloring has no wire format of
its own: `mdlab md` prints the graph6 text and the color list in its JSON
lines.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from mdlab.graph import Graph, is_connected


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


def _component_labels(g: Graph, keep_edges) -> list[int]:
    label = list(range(g.n))

    def find(x: int) -> int:
        while label[x] != x:
            label[x] = label[label[x]]
            x = label[x]
        return x

    for u, v in keep_edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            label[max(ru, rv)] = min(ru, rv)
    return [find(x) for x in range(g.n)]


def is_md_coloring(
    g: Graph, c: EdgeColoring
) -> tuple[bool, tuple[tuple[int, int], ...]]:
    """Decide whether deleting some color class separates every vertex pair.

    For each color the components of the graph minus that color's edges are
    labeled once, which gives every vertex a vector of labels, one per color.
    A pair is separated by some color exactly when its two vectors differ, so
    the unseparated pairs are the pairs inside one group of equal vectors.
    Returns (ok, unseparated): the sorted pairs (u, v), u < v, that no color
    separates, empty exactly when ok is true.
    """
    if c.graph != g:
        raise ValueError("coloring was built for a different graph")
    if not is_connected(g):
        raise ValueError("the separation property is defined for connected graphs")
    labels = [
        _component_labels(g, [e for e, col in zip(g.edges, c.colors) if col != color])
        for color in set(c.colors)
    ]
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, vector in enumerate(zip(*labels)):
        groups.setdefault(vector, []).append(v)
    unseparated = tuple(
        sorted(pair for members in groups.values() for pair in combinations(members, 2))
    )
    return not unseparated, unseparated
