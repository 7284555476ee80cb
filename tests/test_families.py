"""The md values and edge counts that the families docstrings claim, n <= 12."""

import hashlib
import math

import pytest

from mdlab.coloring import is_md_coloring
from mdlab.extremal import f, g, mu
from mdlab.families import (
    clique_lollipop,
    cycle_graph,
    near_clique_lollipop,
    sparsest_md_one,
    threshold_witness,
    threshold_witness_coloring,
)
from mdlab.solver import md_exact


def md(fam):
    return md_exact(fam.graph).value


def family_builds():
    """(builder, parameters, graph, colors or None) for every pinned build."""
    for n in range(3, 13):
        yield "cycle_graph", (n,), cycle_graph(n).graph, None
    for n in range(1, 13):
        yield "sparsest_md_one", (n,), sparsest_md_one(n).graph, None
    for n in range(1, 13):
        for tail in range(n):
            yield "clique_lollipop", (n, tail), clique_lollipop(n, tail).graph, None
    for n in range(3, 13):
        for tail in range(n - 2):
            yield "near_clique_lollipop", (n, tail), near_clique_lollipop(n, tail).graph, None
    for n in range(6, 13):
        for r in range(3, n // 2 + 1):
            colors = threshold_witness_coloring(n, r).colors
            yield "threshold_witness", (n, r), threshold_witness(n, r).graph, colors


# sha256 over one line per build of family_builds(): builder, parameters,
# order, edge list and, for threshold_witness, its coloring's colors.  The
# md and edge-count tests below read no vertex id, so a weld end or a tail
# moved to another vertex shows only here.
FAMILY_DIGEST = "4b4e2a22899b3748d9b40469d67778112522e26fa65595ec5a94070076e96b9c"


def test_family_graphs_match_the_pinned_digest():
    digest = hashlib.sha256()
    for name, params, g, colors in family_builds():
        digest.update(f"{name} {params} {g.n} {list(g.edges)} {colors}\n".encode())
    assert digest.hexdigest() == FAMILY_DIGEST


@pytest.mark.parametrize("n", range(3, 13))
def test_sparsest_md_one(n):
    fam = sparsest_md_one(n)
    assert fam.graph.n == n
    assert fam.graph.m == math.ceil(3 * (n - 1) / 2)
    assert md(fam) == 1


def check_threshold_witness(n):
    for r in range(3, n // 2 + 1):
        fam = threshold_witness(n, r)
        assert fam.graph.n == n
        assert fam.graph.m == mu(n, r)
        assert md(fam) == r, (n, r)
        coloring = threshold_witness_coloring(n, r)
        assert coloring.graph == fam.graph
        assert coloring.k == r
        assert is_md_coloring(fam.graph, coloring)[0], (n, r)


@pytest.mark.parametrize("n", range(6, 11))
def test_threshold_witness(n):
    check_threshold_witness(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [11, 12])
def test_threshold_witness_large(n):
    check_threshold_witness(n)


@pytest.mark.parametrize("n", range(2, 13))
def test_clique_lollipop(n):
    for tail in range(n - 1):
        fam = clique_lollipop(n, tail)
        assert fam.graph.m == math.comb(n - tail, 2) + tail
        assert md(fam) == tail + 1, (n, tail)


@pytest.mark.parametrize("n", range(3, 13))
def test_near_clique_lollipop(n):
    for tail in range(n - 2):
        fam = near_clique_lollipop(n, tail)
        assert fam.graph.m == math.comb(n - tail - 1, 2) + 2 + tail
        assert md(fam) == tail + 1, (n, tail)


def sharpness_cases():
    """(kind, n, r, name, family) with the family one edge past the threshold.

    f(n, r) is sharp when a graph on f(n, r) - 1 edges has md > r, and
    g(n, r) when a graph on g(n, r) + 1 edges has md < r.  No family is
    claimed where the boundary edge count is out of range (f at r = n - 1,
    g at r = 1) or for g(n, 3) at even n.
    """
    for n in range(2, 13):
        for r in range(1, n - 1):
            yield "f", n, r, "clique_lollipop", clique_lollipop(n, r)
        for r in range(2, n):
            if r >= n // 2 + 1:
                yield "g", n, r, "cycle_graph", cycle_graph(n)
            elif r == 2 or (r == 3 and n % 2 == 1):
                yield "g", n, r, "sparsest_md_one", sparsest_md_one(n)
            elif r >= 4:
                yield "g", n, r, "threshold_witness", threshold_witness(n, r - 1)


SHARPNESS_CASES = list(sharpness_cases())


@pytest.mark.parametrize(
    "kind, n, r, name, fam",
    SHARPNESS_CASES,
    ids=[f"{kind}-n{n}-r{r}-{name}" for kind, n, r, name, _ in SHARPNESS_CASES],
)
def test_family_is_sharp_at_the_threshold(kind, n, r, name, fam):
    assert fam.graph.n == n
    if kind == "f":
        assert fam.graph.m == f(n, r) - 1
        assert md(fam) > r
    else:
        assert fam.graph.m == g(n, r) + 1
        assert md(fam) < r
