"""Exact monochromatic disconnection numbers for small graphs.

md(G) is the largest number of colors an edge coloring of a connected graph G
can use while every vertex pair stays separable by removing a single color
class.  The package computes md exactly with certificates, builds the named
extremal families, verifies the density thresholds f(n, r) and g(n, r) by
exhaustive enumeration, and covers the four standard graph products.  The API
lives in the submodules graph, coloring, solver, families, extremal, products
and cli.
"""

__version__ = "0.1.0"
