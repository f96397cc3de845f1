"""Every public name in src/calab feeds a command, a check or the benchmark.

A module-level public function, class or constant, or a public method of a
public class, counts as used when another module of the package refers to it
(an AST Name or Attribute), when its own module uses it beyond its
definition, or when bench/ names it (also as a string, which is how
bench/tracing.py picks the functions it wraps); the names that only bench/
names are pinned in TRACER_ONLY.  Re-exports in
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

# Public names that only bench/ reads: bench/tracing.py wraps them by name,
# and no workload calls them, so their metrics read 0.  ROADMAP item 7's
# benchmark change drops or re-aims those metrics, and then these names go
# or gain a reader in src.  The set is pinned so that no other name leans on
# bench/ naming it.
TRACER_ONLY = {
    "HarmonicBasis.eval_derivs",
    "hbm_apply",
    "tangential_gradient",
    "tangential_hessian",
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


def unread_in_src() -> tuple[list[str], set[str]]:
    """The public names outside ALLOWED that nothing in src reads: those
    bench/ does not name either ('module.qualified name'), and those it does
    (qualified names)."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    refs = {mod: _references(tree) for mod, tree in trees.items()
            if mod != "__init__"}
    bench = set()
    for p in sorted((ROOT / "bench").glob("*.py")):
        bench |= _references(ast.parse(p.read_text()), strings=True)
    unused, bench_only = [], set()
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        for qual, name in _definitions(tree):
            if name in ALLOWED or any(name in r for r in refs.values()):
                continue
            if name in bench:
                bench_only.add(qual)
            else:
                unused.append(f"{mod}.{qual}")
    return unused, bench_only


def test_every_public_name_is_read_outside_the_tests():
    assert unread_in_src()[0] == []


def test_only_the_pinned_names_lean_on_bench():
    assert unread_in_src()[1] == TRACER_ONLY


def test_package_root_exports_the_quick_start_names():
    import calab

    # submodules appear as package attributes once imported; they are not exports
    exported = {name for name, value in vars(calab).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == {"build_grid", "ellipsoid", "evaluate_on_grid",
                        "build_state", "GalerkinBasis", "assemble",
                        "solve_spectrum"}
    assert calab.__version__
