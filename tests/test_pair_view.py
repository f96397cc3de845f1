"""Only calab.sphere builds the half grid out of the full one.

Bodies, states and target measures hold one row per antipodal pair, at the
grid's pair nodes, and SphereGrid's pair view (pair_nodes, pair_weights,
tangent_frames(), pair_rows) is the one way to those rows.  Anywhere else in
src/calab, reading `antipodal_index`, computing `node_count // 2` or slicing
a grid's full `nodes` or `weights` array rebuilds that view by hand.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "calab"


def half_grid_rebuilds(source: str) -> list[str]:
    """'line: pattern' for each place the source rebuilds the half grid."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "antipodal_index":
            found.append((node.lineno, "reads antipodal_index"))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
              and isinstance(node.left, ast.Attribute)
              and node.left.attr == "node_count"
              and isinstance(node.right, ast.Constant) and node.right.value == 2):
            found.append((node.lineno, "node_count // 2"))
        elif (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
              and isinstance(node.value, ast.Attribute)
              and node.value.attr in ("nodes", "weights")):
            found.append((node.lineno, f"slices .{node.value.attr}"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_only_sphere_rebuilds_the_half_grid():
    found = {p.name: half_grid_rebuilds(p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.name != "sphere.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_each_rebuild_pattern_is_seen():
    # the three patterns, and the pair view that replaces them
    assert half_grid_rebuilds("f[grid.antipodal_index]") == [
        "1: reads antipodal_index"]
    assert half_grid_rebuilds("first = slice(0, grid.node_count // 2)") == [
        "1: node_count // 2"]
    assert half_grid_rebuilds("w = 2.0 * grid.weights[:len(B)]\nu = g.nodes[:4]") == [
        "1: slices .weights", "2: slices .nodes"]
    assert half_grid_rebuilds("w = grid.pair_weights\nu = grid.pair_nodes[idx]\n"
                              "n = grid.node_count\nx = grid.nodes @ A") == []
