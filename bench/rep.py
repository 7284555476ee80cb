"""One measured repetition of a workload, in the fresh interpreter it runs in.

    python3 bench/rep.py --workload small_random --seed 0 --trace 0 --spawned <t>

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this interpreter; set-up time runs from there until the inputs are ready, so
it covers interpreter start, ``import mdlab`` and input generation.  Prints
one JSON object.  A fresh interpreter per repetition keeps mdlab's in-process
caches (the census cache, the md value cache, the permutation tables) from
turning a repeat into a cache hit.

With ``--parallel-check`` it instead prints the digest of
``md_census(7, jobs=2)``, computed cold, for comparison with a serial census.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NO_SOURCE = 3


def import_mdlab() -> None:
    """Import mdlab from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import mdlab
    except ImportError as exc:
        print(f"cannot import mdlab from {src}: {exc}", file=sys.stderr)
        sys.exit(NO_SOURCE)
    if not Path(mdlab.__file__).resolve().is_relative_to(src):
        print(f"mdlab was imported from {mdlab.__file__}, not from {src}", file=sys.stderr)
        sys.exit(NO_SOURCE)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--parallel-check", action="store_true")
    args = parser.parse_args()

    import_mdlab()
    import numpy
    import workloads

    if args.parallel_check:
        print(json.dumps({"digest": workloads.census_digest(workloads.CENSUS_ORDER, jobs=2)}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inputs = workloads.setup(args.workload, args.seed)
    setup_s = time.monotonic() - args.spawned
    started = time.perf_counter()
    out = workloads.run(args.workload, inputs, args.seed)
    wall_s = time.perf_counter() - started

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "graphs": out.graphs,
        "solves": len(out.latencies_ms),
        "solve_ms_p50": workloads.percentile(out.latencies_ms, 50),
        "solve_ms_p99": workloads.percentile(out.latencies_ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "failed": out.failed,
        "problems": out.problems[:10],
        "instance_s": out.instance_s,
        "digest": out.digest,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layers()
        for name in workloads.PRODUCT_MD:
            layers[f"solver.exact_s.{name}"] = out.instance_s.get(name, 0.0)
        layers["trace.wall_s"] = wall_s
        report["layers"] = layers
    print(json.dumps(report))


if __name__ == "__main__":
    main()
