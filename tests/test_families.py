"""The md values and edge counts that the families docstrings claim, n <= 12."""

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
