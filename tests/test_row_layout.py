"""Only calab.sphere knows how the grid's basis rows are laid out.

Every grid is a product grid, and its pair rows are rings times longitudes.
SphereGrid owns that layout: it writes a ring range's rows (ring_rows) and
streams them in chunks of whole rings (row_chunks, at most CHUNK_ROWS rows).
Anywhere else in src/calab, reading `product_factors`, `ring_rows` or
`CHUNK_ROWS` counts rings and longitudes, sizes chunks or fills buffers by
hand.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "calab"
LAYOUT_NAMES = ("product_factors", "ring_rows", "CHUNK_ROWS")


def row_layout_reads(source: str) -> list[str]:
    """'line: name' for each place the source reads a row-layout name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in LAYOUT_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in LAYOUT_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in LAYOUT_NAMES]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_only_sphere_reads_the_row_layout():
    found = {p.name: row_layout_reads(p.read_text())
             for p in sorted(SRC.glob("*.py")) if p.name != "sphere.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_each_row_layout_read_is_seen():
    # the three names, read as attributes, imported or as bare names, and
    # the grid's own streaming that replaces them
    assert row_layout_reads("n_ring = len(grid.product_factors[0][0])") == [
        "1: product_factors"]
    assert row_layout_reads("grid.ring_rows(basis, 0, 0, slice(0, 2), out)") == [
        "1: ring_rows"]
    assert row_layout_reads("from calab.sphere import CHUNK_ROWS\n"
                            "per = CHUNK_ROWS // 4\nm = sphere.CHUNK_ROWS") == [
        "1: CHUNK_ROWS", "2: CHUNK_ROWS", "3: CHUNK_ROWS"]
    assert row_layout_reads("for rows, views in grid.row_chunks(8, (0, 1), (0,)):\n"
                            "    pass\nT = grid.basis_tables(8)") == []
