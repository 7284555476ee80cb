"""Edge colorings and the separation verifier.

An edge coloring here is total on the canonical edge order and allows adjacent
edges to share a color.  The verifier decides whether every vertex pair can be
separated by deleting one color class, which is the property all md values in
this package are measured against, and returns a per-pair witness certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from mdlab.analysis import find_matching_cuts
from mdlab.graph import Graph, from_graph6, is_connected, to_graph6


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

    def color_of(self, edge: tuple[int, int]) -> int:
        u, v = edge
        if u > v:
            u, v = v, u
        return self.colors[self.graph.edge_index[(u, v)]]

@dataclass(frozen=True)
class SeparationCertificate:
    """Per-pair separation witnesses.

    witness maps each unordered vertex pair (u, v), u < v, to the smallest
    color whose class separates the pair, or None when no color does.
    """

    witness: dict[tuple[int, int], int | None] = field(default_factory=dict)

    @property
    def separated_all(self) -> bool:
        return all(c is not None for c in self.witness.values())

    def unseparated_pairs(self) -> list[tuple[int, int]]:
        return sorted(p for p, c in self.witness.items() if c is None)


def trivial_coloring(g: Graph) -> EdgeColoring:
    """Everything gets color 1; separates all pairs of any connected graph."""
    return EdgeColoring(g, (1,) * g.m)


def normalize(c: EdgeColoring) -> EdgeColoring:
    """Renumber colors to 1..k by first occurrence in canonical edge order."""
    remap: dict[int, int] = {}
    out = []
    for col in c.colors:
        if col not in remap:
            remap[col] = len(remap) + 1
        out.append(remap[col])
    return EdgeColoring(c.graph, tuple(out))


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


def is_md_coloring(g: Graph, c: EdgeColoring) -> tuple[bool, SeparationCertificate]:
    """Decide whether deleting some color class separates every vertex pair.

    For each color i the components of the graph minus the i-colored edges are
    labeled once; a pair is separated by i when its labels differ.  The
    certificate records the smallest witness color per pair.
    """
    if c.graph != g:
        raise ValueError("coloring was built for a different graph")
    if not is_connected(g):
        raise ValueError("the separation property is defined for connected graphs")
    palette = sorted(set(c.colors))
    labels: list[list[int]] = []
    for color in palette:
        keep = [e for e, col in zip(g.edges, c.colors) if col != color]
        labels.append(_component_labels(g, keep))
    witness: dict[tuple[int, int], int | None] = {}
    ok = True
    for u in range(g.n):
        for v in range(u + 1, g.n):
            w = None
            for color, lab in zip(palette, labels):
                if lab[u] != lab[v]:
                    w = color
                    break
            witness[(u, v)] = w
            if w is None:
                ok = False
    return ok, SeparationCertificate(witness)


def matching_cut_coloring(g: Graph, cut) -> EdgeColoring:
    """Color a verified matching cut 1 and the remaining edges 2.

    The result always passes is_md_coloring: a pair joined by a cut edge falls
    apart when the cut is removed, every other pair falls apart when the rest
    is removed.  Note the degenerate K_2 case uses a single color.
    """
    cut_set = set()
    for u, v in cut:
        e = (u, v) if u < v else (v, u)
        if e not in g.edge_index:
            raise ValueError(f"{e} is not an edge of the graph")
        cut_set.add(e)
    cut_key = tuple(sorted(cut_set))
    if cut_key not in set(find_matching_cuts(g)):
        raise ValueError("the given edge set is not a matching cut")
    return EdgeColoring(
        g, tuple(1 if e in cut_set else 2 for e in g.edges)
    )


def merge_to_k(c: EdgeColoring, r: int) -> EdgeColoring:
    """Collapse the top colors so exactly r remain.

    The palette is first normalized to 1..k; colors >= r then all become r.
    Merging color classes can only coarsen removals, so the separation
    property survives.
    """
    norm = normalize(c)
    if not 1 <= r <= norm.k:
        raise ValueError(f"need 1 <= r <= {norm.k}, got r={r}")
    return EdgeColoring(
        norm.graph, tuple(min(col, r) for col in norm.colors)
    )


# ---------------------------------------------------------------------------
# JSON wire format: {"graph6": "...", "colors": [...]} with colors aligned to
# the canonical edge order.


def coloring_to_json(c: EdgeColoring) -> str:
    return json.dumps(
        {"graph6": to_graph6(c.graph), "colors": list(c.colors)},
        sort_keys=True,
    )


def coloring_from_json(text: str) -> EdgeColoring:
    data = json.loads(text)
    try:
        g6 = data["graph6"]
        colors = data["colors"]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"coloring JSON needs graph6 and colors fields: {exc}")
    if not isinstance(colors, list):
        raise ValueError(f"colors must be a JSON list of integers, got {colors!r}")
    return EdgeColoring(from_graph6(g6), tuple(colors))
