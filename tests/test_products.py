import pytest

from mdlab.coloring import is_md_coloring
from mdlab.families import cycle_graph
from mdlab.products import (
    ProductKind,
    cartesian_md_coloring,
    product,
    tensor_md_upper,
)
from mdlab.solver import md_exact

C5 = cycle_graph(5).graph
C6 = cycle_graph(6).graph


# The search node counts pin the search order as well as the values: a change
# to the pruning that keeps md but explores a different tree shows here.
@pytest.mark.parametrize(
    "g, h, kind, md, nodes",
    [
        (C5, C5, ProductKind.CARTESIAN, 4, 1221),
        (C6, C6, ProductKind.CARTESIAN, 6, 8319),
        (C5, C5, ProductKind.TENSOR, 4, 6030),
    ],
    ids=["c5_box_c5", "c6_box_c6", "c5_x_c5"],
)
def test_product_md_and_search_nodes(g, h, kind, md, nodes):
    p = product(g, h, kind)
    result = md_exact(p)
    assert result.value == md
    assert result.stats["nodes"] == nodes
    ok, _ = is_md_coloring(p, result.certificate)
    assert ok and result.certificate.k == md


def test_cartesian_coloring_uses_md_plus_md_colors():
    factor = md_exact(C5).certificate
    assert factor.k == 2
    cert = cartesian_md_coloring(C5, factor, C5, factor)
    assert cert.graph == product(C5, C5, ProductKind.CARTESIAN)
    assert cert.k == 4
    assert is_md_coloring(cert.graph, cert)[0]


def test_tensor_upper_bound_holds():
    assert tensor_md_upper(C5, C5) >= 4
