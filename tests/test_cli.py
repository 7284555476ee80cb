import json
import os
import subprocess
import sys
from pathlib import Path

from mdlab.cli import main
from mdlab.coloring import EdgeColoring, is_md_coloring
from mdlab.graph import from_graph6


def test_md_prints_one_json_line_per_graph(capsys):
    # K3 and C5.
    assert main(["md", "Bw", "Dhc"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    rows = [json.loads(line) for line in lines]
    assert [row["graph6"] for row in rows] == ["Bw", "Dhc"]
    assert [row["value"] for row in rows] == [1, 2]
    for row in rows:
        assert set(row) == {"graph6", "value", "colors", "bounds_trail", "nodes", "time_ms"}
        g = from_graph6(row["graph6"])
        coloring = EdgeColoring(g, tuple(row["colors"]))
        assert coloring.k == row["value"]
        assert is_md_coloring(g, coloring)[0]
    # Each block's trail entry is its upper bound alone.
    assert [row["bounds_trail"] for row in rows] == [[["half-order", 1]], [["half-order", 2]]]
    assert rows[1]["nodes"] > 0


def test_bad_graph6_fails(capsys):
    assert main(["md", "Bw", "B~~"]) != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "B~~" in captured.err


def test_disconnected_graph_fails(capsys):
    # Three vertices, no edges.
    assert main(["md", "B?"]) != 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not connected" in captured.err


def test_module_entry_point_refuses_disconnected_graph():
    # The `python -m mdlab.cli` path must turn main()'s failure into an exit code.
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "mdlab.cli", "md", "Bw", "B?"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "not connected" in done.stderr
