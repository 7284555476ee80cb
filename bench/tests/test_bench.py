"""The benchmark's own tests: inputs, tiny workload runs, checks and tracing.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys

import pytest

import workloads
from conftest import BENCH
from mdlab import extremal, solver
from mdlab.products import ProductKind, product
from mdlab.families import cycle_graph
from tracer import Tracer


def test_same_seed_same_inputs():
    first = workloads.random_inputs(7, count=60)
    assert first == workloads.random_inputs(7, count=60)
    other = workloads.random_inputs(8, count=60)
    assert first != other
    # Another seed relabels the same graphs.
    degrees = lambda g: sorted(len(a) for a in g.adjacency)  # noqa: E731
    assert [degrees(g) for g in first] == [degrees(g) for g in other]
    lo, hi = workloads.RANDOM_ORDERS
    assert all(lo <= g.n <= hi and g.m <= g.n - 1 + 2 * g.n for g in first)


def test_tiny_census_passes():
    out = workloads.Outcome()
    workloads.run_census(5, out)
    assert out.problems == []
    assert out.attempted == 2 * 2 * 4 and out.graphs == 21
    assert out.latencies_ms


@pytest.fixture(scope="module")
def tiny_products():
    instances, c5 = workloads.product_inputs()
    del instances["c6_box_c6"]
    return instances, c5


def test_tiny_products_pass(tiny_products):
    out = workloads.Outcome()
    workloads.run_products(tiny_products, out)
    assert out.problems == []
    assert out.attempted == 2 * 2 + 2 and out.graphs == 2


def test_tiny_small_random_passes():
    graphs = workloads.random_inputs(workloads.DEFAULT_SEED, count=40)
    out = workloads.Outcome()
    workloads.run_small_random(graphs, out)
    assert out.problems == []
    assert out.attempted == out.graphs == 40
    again = workloads.Outcome()
    workloads.run_small_random(graphs, again, digest=out.digest)
    assert again.failed == 0 and again.attempted == 41


def test_corrupted_expectations_are_caught(tiny_products):
    census = workloads.Outcome()
    workloads.run_census(5, census, expected_graphs=20)
    assert census.failed == 8
    assert "checked 21 graphs, expected 20" in census.problems[0]

    instances, c5 = tiny_products
    prods = workloads.Outcome()
    wrong = dict(workloads.PRODUCT_MD, c5_box_c5=5)
    workloads.run_products(({"c5_box_c5": instances["c5_box_c5"]}, c5), prods, expected=wrong)
    assert "md(c5_box_c5) = 4, expected 5" in prods.problems
    assert any("Cartesian coloring" in p for p in prods.problems)

    rand = workloads.Outcome()
    workloads.run_small_random(workloads.random_inputs(1, count=5), rand, digest="0" * 64)
    assert rand.failed == 1 and "digest" in rand.problems[0]


def test_md_exact_matches_oracle_on_sparse_random_graphs():
    sparse = [g for g in workloads.random_inputs(workloads.DEFAULT_SEED) if g.m <= 10][:8]
    assert len(sparse) == 8
    for g in sparse:
        assert solver.md_exact(g).value == solver.md_oracle(g)


def test_tracer_counts_a_product_solve():
    c5 = cycle_graph(5).graph
    g = product(c5, c5, ProductKind.CARTESIAN)
    original = solver.md_exact
    tracer = Tracer()
    tracer.install()
    try:
        result = solver.md_exact(g)
    finally:
        tracer.uninstall()
    assert solver.md_exact is original
    layers = tracer.layers()
    assert layers["solver.search_nodes"] == result.stats["nodes"]
    assert layers["solver.solves"] == 1
    assert layers["solver.upper_rule.soft-layer"] == 1
    # The soft-layer bound is 6 on C5 box C5, whose md is 4.
    assert layers["solver.upper_gap"] == 2
    assert 0 < layers["solver.search_s"] < result.stats["time_ms"] / 1000.0


def test_tracer_counts_an_enumeration():
    tracer = Tracer()
    tracer.install()
    try:
        report = extremal.verify_f(4, 1)
    finally:
        tracer.uninstall()
    layers = tracer.layers()
    assert report.verified
    assert layers["extremal.graphs"] == 6 and layers["extremal.enumerate_s"] > 0
    assert layers["solver.solves"] >= 1  # md_value may answer some from its cache


def test_run_fails_without_mdlab_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census7", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_spec_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    layer_names = {m["name"] for m in spec["per_layer"]}
    traced = set(Tracer().layers()) | {f"solver.exact_s.{name}" for name in workloads.PRODUCT_MD} | {"trace.wall_s"}
    assert layer_names == traced
