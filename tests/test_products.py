from functools import cache
from itertools import combinations_with_replacement

import pytest

from mdlab.coloring import is_md_coloring
from mdlab.extremal import enumerate_connected
from mdlab.families import cycle_graph
from mdlab.graph import graph, is_connected, min_degree
from mdlab.products import (
    ProductKind,
    cartesian_md_coloring,
    product,
    tensor_md_upper,
)
from mdlab.solver import md_exact, md_oracle

C5 = cycle_graph(5).graph
C6 = cycle_graph(6).graph
C7 = cycle_graph(7).graph
C8 = cycle_graph(8).graph
C9 = cycle_graph(9).graph

# Every unordered pair of connected factors on 2-5 vertices (30 graphs, 465
# pairs), and every pair of connected factors on 3-5 vertices with minimum
# degree >= 2 (15 graphs) whose tensor product is connected (117 pairs).
FACTORS = [g for n in (2, 3, 4, 5) for g in enumerate_connected(n)]
SMALL_PAIRS = list(combinations_with_replacement(FACTORS, 2))
TENSOR_PAIRS = [
    (g, h)
    for g, h in combinations_with_replacement(
        [g for n in (3, 4, 5) for g in enumerate_connected(n) if min_degree(g) >= 2], 2
    )
    if is_connected(product(g, h, ProductKind.TENSOR))
]


# Every connected G on 2-4 vertices with each disconnected H in DISCONNECTED
# (27 pairs); the lexicographic product G o H is connected all the same.
DISCONNECTED = {"2K1": graph(2, []), "3K1": graph(3, []), "K2+K1": graph(3, [(0, 1)])}
LEX_DISCONNECTED_PAIRS = [
    (g, name) for n in (2, 3, 4) for g in enumerate_connected(n) for name in DISCONNECTED
]


def pair_id(pair):
    """Edge lists of the two factors, e.g. "01.12_01.02.12"."""
    return "_".join(".".join(f"{u}{v}" for u, v in x.edges) for x in pair)


# The search node counts pin the search order as well as the values: a change
# to the pruning or to the class order that keeps md but explores a different
# tree shows here.  A packing cut that stops pruning turns the last three into
# millions of nodes.
@pytest.mark.parametrize(
    "g, h, kind, md, nodes",
    [
        (C5, C5, ProductKind.CARTESIAN, 4, 17),
        (C6, C6, ProductKind.CARTESIAN, 6, 32),
        (C5, C5, ProductKind.TENSOR, 4, 18),
        (C7, C7, ProductKind.CARTESIAN, 6, 66),
        (C8, C8, ProductKind.CARTESIAN, 8, 204),
        (C7, C7, ProductKind.TENSOR, 6, 57),
    ],
    ids=["c5_box_c5", "c6_box_c6", "c5_x_c5", "c7_box_c7", "c8_box_c8", "c7_x_c7"],
)
def test_product_md_and_search_nodes(g, h, kind, md, nodes):
    p = product(g, h, kind)
    result = md_exact(p)
    assert result.value == md
    assert result.stats["nodes"] == nodes
    assert is_md_coloring(p, result.certificate)[0]
    # md_feasible relies on this palette: exactly the colors 1..md.
    assert set(result.certificate.colors) == set(range(1, md + 1))


# Each 81-vertex product solves under a budget of about three times its node
# count.  Without the component order of the classes, C9 x C9 runs past
# 300,000 nodes, so a lost order fails here in seconds through
# SearchBudgetExceeded.
@pytest.mark.parametrize(
    "kind, nodes",
    [(ProductKind.CARTESIAN, 485), (ProductKind.TENSOR, 370)],
    ids=["c9_box_c9", "c9_x_c9"],
)
def test_c9_products_within_a_tight_budget(kind, nodes):
    p = product(C9, C9, kind)
    result = md_exact(p, node_budget=3 * nodes)
    assert result.value == 8
    assert result.stats["nodes"] == nodes


def test_cartesian_coloring_uses_md_plus_md_colors():
    factor = md_exact(C5).certificate
    assert factor.k == 2
    cert = cartesian_md_coloring(C5, factor, C5, factor)
    assert cert.graph == product(C5, C5, ProductKind.CARTESIAN)
    assert cert.k == 4
    assert is_md_coloring(cert.graph, cert)[0]


def test_tensor_upper_bound_holds():
    assert tensor_md_upper(C5, C5) >= 4


def test_sweep_sizes():
    assert len(FACTORS) == 30
    assert len(SMALL_PAIRS) == 465
    assert len(TENSOR_PAIRS) == 117
    assert len(LEX_DISCONNECTED_PAIRS) == 27


# Each factor is solved once by the oracle and once by md_exact, not once per
# pair it takes part in.
factor_oracle = cache(md_oracle)


@cache
def factor_certificate(g):
    return md_exact(g).certificate


@pytest.mark.parametrize("g, h", SMALL_PAIRS, ids=[pair_id(p) for p in SMALL_PAIRS])
def test_cartesian_md_adds(g, h):
    # Factor values come from the independent oracle.
    want = factor_oracle(g) + factor_oracle(h)
    assert md_exact(product(g, h, ProductKind.CARTESIAN)).value == want
    cert = cartesian_md_coloring(g, factor_certificate(g), h, factor_certificate(h))
    assert set(cert.colors) == set(range(1, want + 1))
    assert is_md_coloring(cert.graph, cert)[0]


@pytest.mark.parametrize("g, h", SMALL_PAIRS, ids=[pair_id(p) for p in SMALL_PAIRS])
@pytest.mark.parametrize("kind", [ProductKind.STRONG, ProductKind.LEXICOGRAPHIC])
def test_strong_and_lexicographic_md_is_one(g, h, kind):
    assert md_exact(product(g, h, kind)).value == 1


@pytest.mark.parametrize("g, h", TENSOR_PAIRS, ids=[pair_id(p) for p in TENSOR_PAIRS])
def test_tensor_md_within_odd_girth_bound(g, h):
    # Strict: no pair of the sweep reaches the bound.
    assert md_exact(product(g, h, ProductKind.TENSOR)).value < tensor_md_upper(g, h)


@pytest.mark.parametrize("p", [3, 5, 7, 9, 11])
def test_odd_cycle_tensor_square_is_the_cartesian_square(p):
    # (i, j) -> ((i+j)/2, (i-j)/2) mod p, where 1/2 is (p+1)/2 mod p, maps
    # each tensor edge (i, j)(i+1, j+-1) onto a Cartesian edge.
    cp, half = cycle_graph(p).graph, (p + 1) // 2

    def image(x):
        i, j = divmod(x, p)
        return (i + j) * half % p * p + (i - j) * half % p

    assert sorted(map(image, range(p * p))) == list(range(p * p))
    tensor = product(cp, cp, ProductKind.TENSOR)
    mapped = graph(p * p, [(image(a), image(b)) for a, b in tensor.edges])
    assert mapped == product(cp, cp, ProductKind.CARTESIAN)


@pytest.mark.parametrize(
    "g, name",
    LEX_DISCONNECTED_PAIRS,
    ids=[f"{pair_id((g,))}_{name}" for g, name in LEX_DISCONNECTED_PAIRS],
)
def test_lexicographic_with_disconnected_second_factor(g, name):
    p = product(g, DISCONNECTED[name], ProductKind.LEXICOGRAPHIC)
    assert is_connected(p)
    if g.n == 2 and name == "2K1":
        # K2 o 2K1 is the 4-cycle; every other pair has md 1.
        assert p == graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert md_exact(p).value == 2
    else:
        assert md_exact(p).value == 1


@pytest.mark.parametrize("kind", ["cartesian", "tensor", None])
def test_product_rejects_a_kind_that_is_not_a_product_kind(kind):
    with pytest.raises(TypeError, match="ProductKind"):
        product(C5, C5, kind)
