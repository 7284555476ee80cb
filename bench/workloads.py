"""The benchmark's workloads: input generation, the measured body, and output checks.

Each workload has a setup step (inputs from the seed) and a run step that
returns an Outcome.  The run step calls mdlab through module attributes
(``solver.md_exact``, ``extremal.verify_f``, ...) so that the tracer in
``tracer.py`` can wrap those public functions from outside the package.

Why each workload exists (see README.md for the per-layer mapping):

* ``census7``: verify_f/verify_g at n = 7 for every r from a cold process.
  Most of its time is the brute-force canonical form inside
  ``enumerate_connected``; a canonical-labelling change moves it, a search
  rewrite barely does.
* ``products``: md_exact on C5 box C5, C6 box C6 and the C5 x C5 tensor.
  Almost all of its time is the feasibility search, and the soft-layer rule
  sets the upper bound on all three, so search and bound changes show here
  while enumeration changes cannot.
* ``small_random``: 5,000 small connected graphs, relabelled by the seed.  Per
  solve overhead, the block, class and bound layers and short searches
  dominate, so bound removal or a search that is slow to start shows here.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from dataclasses import dataclass, field

from mdlab import coloring, extremal, products, solver
from mdlab.families import cycle_graph
from mdlab.graph import Graph, graph, to_graph6

WORKLOADS = ("census7", "products", "small_random")

#: Connected graphs on n unlabeled vertices, OEIS A001349.
CONNECTED_GRAPHS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
CENSUS_ORDER = 7

#: Known md of each product instance.
PRODUCT_MD = {"c5_box_c5": 4, "c6_box_c6": 6, "c5_x_c5": 4}

RANDOM_GRAPHS = 5000
RANDOM_ORDERS = (8, 10)
POPULATION_SEED = 0
DEFAULT_SEED = 0

#: sha256 of the (graph6, md) list of small_random for seeds 0-15 (0 is the
#: default), recorded from md_exact when the benchmark was introduced.  md is
#: exact, so no correct change to the solver can alter these; other seeds are
#: checked by their certificates alone.
RANDOM_DIGESTS = {
    0: "4aea58346368f04b331454632d71839ba624098671fd8e469d865c8d373d3fe1",
    1: "1dae4a2d6ea3960028f9d815b407a0c4d3695ffd0093517c1949c70b63fbf4aa",
    2: "d12b6b5b1b917f0b19e7f287ce30c595a9d8d368ab09d30cb612d61ac35337ac",
    3: "72075c11c5d419c034f6aad15546f1451521e31b1b3eb327e6878778d0ef4d38",
    4: "59f6dcd6209e876c49f4614ea01aaf312421b8245758f945a470388b804978e3",
    5: "ed9ce1b2caf5281a0fbff919577b9ee96a38e51d9a2edd68812dc12041da2716",
    6: "442e450a5a8c359c96af2d79796b511f49c6532c31adf8702b71fdc3c3946c0c",
    7: "5aa010fe356372a528b84d7a1401705bc0ca7b2e3d4c76105142f67d234a8fef",
    8: "44a3fda9fc96d1203f83073a52890f587c9f77af9f1b55b3ba3c5a3ffeec751f",
    9: "4ab4564836545d5dbc23e501ceb45c7400fb198dc94663035df62e43f2fba46b",
    10: "1644bfba64df605bbb7d0b95cefbd054675cce623404f7af60caf951fd6ca92b",
    11: "4e6070e9f7ec0849bf0e413d8b50c0cf96e3655d836e5382bf3047d86b0397cc",
    12: "9604e0b625f74e5264dc5b366fbcd82fe1f7974ae77e79313b456b7b6e9d4c49",
    13: "095bdcc8072e874b4d4d9f837ee504c758166243a6b40a934a9ea2e027282cc8",
    14: "505edfccef423e6c58b5f1638020f484ff28729c607c606c87cc09e386ea7bfe",
    15: "9d28aa0977bde3a6bbb83fa384c473ecfe0a4467df6c6035238c19d076dd935f",
}


@dataclass
class Outcome:
    """What one measured run did: checked operations, solves and their latency."""

    attempted: int = 0
    failed: int = 0
    graphs: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    instance_s: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def rows_digest(rows) -> str:
    """sha256 over (graph6, value) rows, one per line."""
    text = "\n".join(f"{g6} {value}" for g6, value in rows)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# census7


def run_census(n: int, out: Outcome, expected_graphs: int | None = None) -> None:
    """verify_f(n, r) and verify_g(n, r) for every r, with per-solve latency.

    The solves happen inside the census, so their latency is taken by a thin
    wrapper around solver.md_exact that times top-level calls only (a bound's
    sub-solve runs inside the call that needs it).
    """
    expected = CONNECTED_GRAPHS[n] if expected_graphs is None else expected_graphs
    inner = solver.md_exact
    depth = 0

    def timed_md_exact(*args, **kwargs):
        nonlocal depth
        depth += 1
        started = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            depth -= 1
            if depth == 0:
                out.latencies_ms.append((time.perf_counter() - started) * 1000.0)

    solver.md_exact = timed_md_exact
    try:
        for kind in ("f", "g"):
            verify = getattr(extremal, f"verify_{kind}")
            for r in range(1, n):
                label = f"verify_{kind}({n}, {r})"
                try:
                    report = verify(n, r)
                except Exception as exc:  # any failure counts against the run
                    out.check(False, f"{label} raised {exc!r}")
                    continue
                out.check(report.verified, f"{label} not verified: {report}")
                checked = report.stats.get("graphs_checked")
                out.check(checked == expected, f"{label} checked {checked} graphs, expected {expected}")
    finally:
        solver.md_exact = inner
    out.graphs = expected
    out.digest = census_digest(n)


def census_digest(n: int, jobs: int = 1) -> str:
    """Digest of md_census(n) rows; a cache hit after a census in this process."""
    return rows_digest((g6, f"{m} {v}") for g6, m, v in extremal.md_census(n, jobs=jobs))


# ---------------------------------------------------------------------------
# products


def product_inputs() -> tuple[dict[str, Graph], Graph]:
    """The three product instances and their C5 factor."""
    c5, c6 = cycle_graph(5).graph, cycle_graph(6).graph
    cart, tensor = products.ProductKind.CARTESIAN, products.ProductKind.TENSOR
    instances = {
        "c5_box_c5": products.product(c5, c5, cart),
        "c6_box_c6": products.product(c6, c6, cart),
        "c5_x_c5": products.product(c5, c5, tensor),
    }
    return instances, c5


def run_products(
    inputs: tuple[dict[str, Graph], Graph],
    out: Outcome,
    expected: dict[str, int] = PRODUCT_MD,
) -> None:
    """md_exact on each instance, the Cartesian coloring and the tensor bound."""
    instances, c5 = inputs
    values: dict[str, int] = {}
    for name, g in instances.items():
        started = time.perf_counter()
        try:
            result = solver.md_exact(g)
        except Exception as exc:
            out.check(False, f"md_exact({name}) raised {exc!r}")
            continue
        elapsed = time.perf_counter() - started
        out.latencies_ms.append(elapsed * 1000.0)
        out.instance_s[name] = elapsed
        out.graphs += 1
        values[name] = result.value
        out.check(result.value == expected[name], f"md({name}) = {result.value}, expected {expected[name]}")
        ok, _ = coloring.is_md_coloring(g, result.certificate)
        out.check(ok and result.certificate.k == result.value, f"certificate of {name} fails")
    try:
        factor = solver.md_exact(c5).certificate
        cert = products.cartesian_md_coloring(c5, factor, c5, factor)
        ok, _ = coloring.is_md_coloring(cert.graph, cert)
        want = expected["c5_box_c5"]
        out.check(ok and cert.k == want, f"Cartesian coloring of C5 box C5: {cert.k} colors, expected {want}")
        upper = products.tensor_md_upper(c5, c5)
        got = values.get("c5_x_c5")
        out.check(got is not None and upper >= got, f"tensor_md_upper(C5, C5) = {upper} below md {got}")
    except Exception as exc:
        out.check(False, f"product certificate checks raised {exc!r}")


# ---------------------------------------------------------------------------
# small_random


def random_population(count: int = RANDOM_GRAPHS) -> list[Graph]:
    """Connected graphs on 8-10 vertices: a random tree plus up to 2n extra edges."""
    rng = random.Random(POPULATION_SEED)
    lo, hi = RANDOM_ORDERS
    out = []
    for _ in range(count):
        n = rng.randint(lo, hi)
        order = list(range(n))
        rng.shuffle(order)
        edges = set()
        for i in range(1, n):
            u, v = order[i], order[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        absent = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        edges.update(rng.sample(absent, min(rng.randint(0, 2 * n), len(absent))))
        out.append(graph(n, edges))
    return out


def random_inputs(seed: int, count: int = RANDOM_GRAPHS) -> list[Graph]:
    """The population, each graph under a vertex relabelling drawn from the seed.

    The relabelling changes the edge order, and with it the block, class and
    search order, but not the mix of easy and hard graphs.  Fresh graphs per
    seed would move the slowest 1% of solves by about a quarter from seed to
    seed (the 99th percentile of search nodes spread about 25% between
    quartiles over ten seeds, against about 7% for relabellings), more than the bound on
    solve_ms_p99.
    """
    rng = random.Random(seed)
    out = []
    for g in random_population(count):
        perm = list(range(g.n))
        rng.shuffle(perm)
        out.append(graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
    return out


def run_small_random(graphs: list[Graph], out: Outcome, digest: str | None = None) -> None:
    """md_exact on every graph; each certificate re-verified, rows digested."""
    rows = []
    for g in graphs:
        g6 = to_graph6(g)
        started = time.perf_counter()
        try:
            result = solver.md_exact(g)
        except Exception as exc:
            out.check(False, f"md_exact({g6}) raised {exc!r}")
            rows.append((g6, None))
            continue
        out.latencies_ms.append((time.perf_counter() - started) * 1000.0)
        out.graphs += 1
        ok, _ = coloring.is_md_coloring(g, result.certificate)
        out.check(
            ok and result.certificate.k == result.value and 1 <= result.value <= g.n - 1,
            f"md_exact({g6}) = {result.value} with a certificate that fails",
        )
        rows.append((g6, result.value))
    out.digest = rows_digest(rows)
    if digest is not None:
        out.check(out.digest == digest, f"(graph6, md) digest {out.digest} != recorded {digest}")


# ---------------------------------------------------------------------------
# Dispatch


def setup(workload: str, seed: int):
    """Inputs for one run of the workload; everything here counts as set-up."""
    if workload == "census7":
        return CENSUS_ORDER
    if workload == "products":
        return product_inputs()
    if workload == "small_random":
        return random_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def run(workload: str, inputs, seed: int) -> Outcome:
    """The measured body of the workload, checks included."""
    out = Outcome()
    if workload == "census7":
        run_census(inputs, out)
    elif workload == "products":
        run_products(inputs, out)
    elif workload == "small_random":
        run_small_random(inputs, out, RANDOM_DIGESTS.get(seed))
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0 when every solve failed."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]
