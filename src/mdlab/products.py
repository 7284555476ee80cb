"""The four standard graph products and the Cartesian product coloring.

Vertex (u, v) of a product maps to id u * |H| + v (row-major).  The product
operation itself is definitional and total; the theorem-shaped helper
(tensor_md_upper) enforces its own preconditions.

tests/test_products.py confirms, for each of the 465 unordered pairs of
connected factors on 2-5 vertices, that md(G box H) = md(G) + md(H), with the
factor values from md_oracle; that cartesian_md_coloring of the factors'
md_exact certificates separates G box H with exactly the colors
1..md(G) + md(H); and that the strong and lexicographic products have md 1.
For each of the 117 connected tensor products of factors on 3-5 vertices with
minimum degree >= 2 it confirms md(G x H) < tensor_md_upper(G, H): the bound is
never reached on any pair checked.  For odd p, (i, j) -> ((i+j)/2, (i-j)/2)
mod p maps C_p x C_p onto C_p box C_p, so both have md p - 1 (pinned for
p = 5, 7, 9).

The lexicographic product G o H is connected whenever G is, even when H is
not.  For every connected G on 2-4 vertices and H in {2K1, 3K1, K2+K1} the
tests find md(G o H) = 1, except K2 o 2K1, which is the 4-cycle C4 with md 2.
"""

from __future__ import annotations

from enum import Enum

from mdlab.coloring import EdgeColoring, is_md_coloring
from mdlab.graph import Graph, graph, is_connected, min_degree, odd_girth


class ProductKind(Enum):
    CARTESIAN = "cartesian"
    STRONG = "strong"
    LEXICOGRAPHIC = "lexicographic"
    TENSOR = "tensor"


def product(g: Graph, h: Graph, kind: ProductKind) -> Graph:
    """Product of g and h; vertex (u, v) becomes u * h.n + v."""
    if not isinstance(kind, ProductKind):
        raise TypeError(f"kind must be a ProductKind, got {kind!r}")
    if g.n < 1 or h.n < 1:
        raise ValueError("products need at least one vertex per factor")
    hn = h.n
    edges: list[tuple[int, int]] = []
    if kind in (ProductKind.CARTESIAN, ProductKind.STRONG, ProductKind.LEXICOGRAPHIC):
        for u, up in g.edges:
            for v in range(hn):
                edges.append((u * hn + v, up * hn + v))
        for v, vp in h.edges:
            for u in range(g.n):
                edges.append((u * hn + v, u * hn + vp))
    if kind in (ProductKind.STRONG, ProductKind.TENSOR):
        for u, up in g.edges:
            for v, vp in h.edges:
                edges.append((u * hn + v, up * hn + vp))
                edges.append((u * hn + vp, up * hn + v))
    if kind is ProductKind.LEXICOGRAPHIC:
        for u, up in g.edges:
            for v in range(hn):
                for vp in range(hn):
                    if v != vp:
                        edges.append((u * hn + v, up * hn + vp))
    return graph(g.n * hn, edges)


def cartesian_md_coloring(
    g: Graph, cg: EdgeColoring, h: Graph, ch: EdgeColoring
) -> EdgeColoring:
    """Color G x H by projecting every edge to its factor edge.

    Each product edge lies in exactly one fiber of a factor edge; fibers of
    G-edges inherit cg, fibers of H-edges inherit ch shifted past cg's
    largest color.  With separating inputs the result separates: any path
    between vertices differing in the H coordinate walks an H-projection
    that must cross the color class separating them in H, and likewise for
    G.  Uses cg.k + ch.k colors; on md_exact certificates, which use exactly
    1..md, the palette is exactly 1..md(G) + md(H).
    """
    ok_g, _ = is_md_coloring(g, cg)
    if not ok_g:
        raise ValueError("the first factor's coloring does not separate it")
    ok_h, _ = is_md_coloring(h, ch)
    if not ok_h:
        raise ValueError("the second factor's coloring does not separate it")
    offset = max(cg.colors, default=0)
    prod = product(g, h, ProductKind.CARTESIAN)
    hn = h.n
    g_index, h_index = g.edge_index, h.edge_index
    colors = []
    # Product edge (a, b) has a < b, so its factor edge is already ordered:
    # ua < ub on a G-fiber and va < vb on an H-fiber.
    for a, b in prod.edges:
        ua, va = divmod(a, hn)
        ub, vb = divmod(b, hn)
        if va == vb:
            colors.append(cg.colors[g_index[(ua, ub)]])
        else:
            colors.append(ch.colors[h_index[(va, vb)]] + offset)
    return EdgeColoring(prod, tuple(colors))


def tensor_md_upper(g: Graph, h: Graph) -> int:
    """Upper bound min(odd girth of g, odd girth of h) for md of the tensor.

    Requires connected factors without pendent edges and at least one
    non-bipartite factor (otherwise the product is disconnected and both odd
    girths are infinite).  No pair checked attains it (see the module docstring).
    """
    for name, x in (("first", g), ("second", h)):
        if not is_connected(x) or x.n < 2:
            raise ValueError(f"{name} factor must be connected on >= 2 vertices")
        if min_degree(x) < 2:
            raise ValueError(f"{name} factor has a pendent edge")
    og, oh = odd_girth(g), odd_girth(h)
    if og == oh == float("inf"):
        raise ValueError("both factors are bipartite; the tensor product is disconnected")
    return int(min(og, oh))
