"""Every public name in src/calab feeds a command, a check or the benchmark.

A module-level public function, class or constant, or a public method of a
public class, counts as used when another module of the package refers to it
(an AST Name or Attribute), when its own module uses it beyond its
definition, or when bench/ names it (also as a string, which is how
bench/tracing.py picks the functions it wraps).  Re-exports in
calab/__init__.py do not count.  A name that only tests reach belongs in the
tests (tests/oracles.py) or nowhere.
"""

import ast
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "calab"

# Public names kept although nothing in src or bench reads them yet, each
# with its reason.
ALLOWED = {
    # isomorphic: the headline report block of the isomorphic command is to
    # read it (ROADMAP item 3)
    "geometric_distance",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of the module's public definitions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _public(node.name):
                yield node.name, node.name
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            yield node.name, node.name
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _public(item.name)):
                    yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _public(target.id):
                    yield target.id, target.id


def _references(tree: ast.AST, strings: bool = False) -> set[str]:
    """Names read in the tree: Name ids and Attribute attrs in load context,
    and with `strings` every string constant too."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unused_public_names() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = {mod: _references(tree) for mod, tree in trees.items()
            if mod != "__init__"}
    bench = set()
    for p in sorted((ROOT / "bench").glob("*.py")):
        bench |= _references(ast.parse(p.read_text()), strings=True)
    unused = []
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        for qual, name in _definitions(tree):
            if name in ALLOWED or name in bench:
                continue
            if any(name in r for r in refs.values()):
                continue
            unused.append(f"{mod}.{qual}")
    return unused


def test_every_public_name_is_read_outside_the_tests():
    assert unused_public_names() == []


def test_package_root_exports_the_quick_start_names():
    import calab

    # submodules appear as package attributes once imported; they are not exports
    exported = {name for name, value in vars(calab).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == {"build_grid", "ellipsoid", "evaluate_on_grid",
                        "build_state", "GalerkinBasis", "assemble",
                        "solve_spectrum"}
    assert calab.__version__
