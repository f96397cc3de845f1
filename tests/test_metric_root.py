"""Only calculus.build_state factors D2h_frame.

The state's row roots K = sqrt(h) C^{-1}, with C the Cholesky factor of
R = D2h_frame, and p = K grad log h are computed once, by build_state, and
every quadratic form reads them.  Anywhere else in src/calab, an
np.linalg.cholesky or np.linalg.inv whose argument reads D2h_frame is a
second home for the metric root.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "calab"


def metric_factorizations(source: str) -> list[str]:
    """'owner: call', sorted, for each cholesky or inv of an expression
    reading D2h_frame (inv(cholesky(R)) counts twice), the owner being the
    enclosing top-level function or class ('<module>' outside one)."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in ("cholesky", "inv") and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "D2h_frame"
                    for arg in node.args for sub in ast.walk(arg)):
                found.append(f"{owner}: {name}")
    return sorted(found)


def test_only_build_state_factors_the_metric():
    found = {p.name: metric_factorizations(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {
        "calculus.py": ["build_state: cholesky", "build_state: inv"]}


def test_each_factorization_pattern_is_seen():
    assert metric_factorizations(
        "def f(bg):\n    return np.linalg.cholesky(bg.D2h_frame)") == ["f: cholesky"]
    assert metric_factorizations(
        "G = np.linalg.inv(state.bg.D2h_frame / h[:, None, None])") == ["<module>: inv"]
    assert metric_factorizations(
        "class A:\n    def g(self):\n        return inv(self.bg.D2h_frame)") == ["A: inv"]
    # reading the metric, or factoring something else, is no factorization
    assert metric_factorizations(
        "g = bg.D2h_frame / h\nL = np.linalg.cholesky(B)\n"
        "e = np.linalg.eigvalsh(bg.D2h_frame)") == []
