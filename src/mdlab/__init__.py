"""Exact monochromatic disconnection numbers for small graphs.

md(G) is the largest number of colors an edge coloring of a connected graph G
can use while every vertex pair stays separable by removing a single color
class.  The package computes md exactly with certificates, builds the named
extremal families, verifies the density thresholds f(n, r) and g(n, r) by
exhaustive enumeration, and covers the four standard graph products.
"""

from mdlab.graph import (
    Graph,
    Graph6Error,
    from_graph6,
    graph,
    is_connected,
    min_degree,
    odd_girth,
    to_graph6,
)

__all__ = [
    "Graph",
    "Graph6Error",
    "from_graph6",
    "graph",
    "is_connected",
    "min_degree",
    "odd_girth",
    "to_graph6",
]

__version__ = "0.1.0"
