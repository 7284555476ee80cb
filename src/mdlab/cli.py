"""Command line: ``mdlab md GRAPH6...`` prints one JSON line per graph.

Each line holds the graph6 text, the exact md value, the certificate colors
(aligned with the sorted edge list of the graph), the bound trail, the search
nodes and the solve time in milliseconds.  Every graph is decoded and checked
for connectivity before any is solved; bad graph6 text or a disconnected graph
ends the run with exit code 1 and a message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from mdlab.graph import Graph6Error, from_graph6, is_connected
from mdlab.solver import md_exact


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="mdlab", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    md = commands.add_parser("md", help="exact md of each graph, with its certificate")
    md.add_argument("graph6", nargs="+", help="graph6 text of a connected graph")
    args = parser.parse_args(argv)

    graphs = []
    for text in args.graph6:
        try:
            g = from_graph6(text)
        except Graph6Error as exc:
            print(f"mdlab: bad graph6 {text!r}: {exc}", file=sys.stderr)
            return 1
        if not is_connected(g):
            print(f"mdlab: graph {text!r} is not connected", file=sys.stderr)
            return 1
        graphs.append((text, g))
    for text, g in graphs:
        result = md_exact(g)
        print(json.dumps({
            "graph6": text,
            "value": result.value,
            "colors": list(result.certificate.colors),
            "bounds_trail": [list(step) for step in result.bounds_trail],
            "nodes": result.stats["nodes"],
            "time_ms": round(result.stats["time_ms"], 3),
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
