"""mdlab benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload census7 --seed 0 --seconds 30 --trace 0

Runs repetitions of the workload one after another, each in a fresh
interpreter (see rep.py), until --seconds have passed and at least three have
run; the last one may run past --seconds by up to its own length.  All load
is serial: one repetition at a time, one process each.  Every metric is the
median over the repetitions.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer metrics of a traced run.  A traced run also makes one
untraced repetition first, so the tracing overhead (traced minus untraced
wall_s) is on the metadata line.  census7 also checks, untimed, that
md_census(7, jobs=2) gives the rows of the serial census.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds the run's metadata.  Exits
non-zero without a result if mdlab's source is not in src/ beside bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: A run must end within this many seconds, repetitions included.
RUN_LIMIT_S = 170.0
#: Fewest repetitions a run makes, however long each takes, so that every
#: metric is a median of at least three.
MIN_REPETITIONS = 3


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def spawn(args: list[str], deadline: float) -> dict:
    """Run rep.py in a fresh interpreter and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before starting rep.py {' '.join(args)}")
    cmd = [sys.executable, str(BENCH / "rep.py"), *args, "--spawned", repr(time.monotonic())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"rep.py {' '.join(args)} ran past the {RUN_LIMIT_S:.0f} s limit") from exc
    if done.returncode != 0:
        raise BenchError(f"rep.py {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def end_to_end(reps: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median_of(reps, "setup_s"),
        "wall_s": median_of(reps, "wall_s"),
        "graphs_per_s": statistics.median(rep["graphs"] / rep["wall_s"] for rep in reps),
        "solve_ms_p50": median_of(reps, "solve_ms_p50"),
        "solve_ms_p99": median_of(reps, "solve_ms_p99"),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    # median_low picks a measured value, so exact counts stay integers.
    names = reps[0]["layers"]
    return {name: statistics.median_low(rep["layers"][name] for rep in reps) for name in names}


def measure(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run the repetitions and checks; return (result line, metadata)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    if workload not in known:
        raise BenchError(f"unknown workload {workload!r}; choose from {known}")
    if not (ROOT / "src" / "mdlab" / "__init__.py").is_file():
        raise BenchError(f"no mdlab source under {ROOT / 'src'}")
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    rep_args = ["--workload", workload, "--seed", str(seed), "--trace"]
    baseline = spawn(rep_args + ["0"], deadline) if trace else None
    reps = []
    while len(reps) < MIN_REPETITIONS or time.monotonic() - started < seconds:
        reps.append(spawn(rep_args + [str(trace)], deadline))
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    problems = [p for rep in reps for p in rep["problems"]]
    digests = sorted({rep["digest"] for rep in reps})
    if len(digests) > 1:
        attempted, failed = attempted + 1, failed + 1
        problems.append(f"repetitions disagree on their outputs: {digests}")
    if workload == "census7":
        parallel = spawn(["--workload", workload, "--seed", str(seed), "--parallel-check"], deadline)
        attempted += 1
        if parallel["digest"] not in digests:
            failed += 1
            problems.append(f"md_census(7, jobs=2) digest {parallel['digest']} != serial {digests}")

    kind = "per_layer" if trace else "end_to_end"
    values = per_layer(reps) if trace else end_to_end(reps)
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {kind} {sorted(units)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "tracing": bool(trace),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": reps[0]["numpy"],
        "commit": git_commit(),
        "repetitions": len(reps),
        "solves_per_repetition": reps[0]["solves"],
        "fail_frac": failed / attempted,
        "wall_s": [rep["wall_s"] for rep in reps],
        "setup_s": [rep["setup_s"] for rep in reps],
        "instance_s": [rep["instance_s"] for rep in reps],
        "problems": problems[:20],
    }
    if baseline is not None:
        meta["untraced_wall_s"] = baseline["wall_s"]
        meta["tracing_overhead_s"] = statistics.median(rep["wall_s"] for rep in reps) - baseline["wall_s"]
    return result, meta


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result, meta = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
