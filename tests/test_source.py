"""Static checks over the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pnk"


def test_no_assert_statements():
    # Invariants raise PnkError subclasses: an assert vanishes under -O.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SRC.glob("*.py"))
    assert found == []


def _reads_environment(node) -> bool:
    """Whether ``node`` is ``os.environ`` or ``os.getenv``, or imports one."""
    names = ("environ", "getenv")
    if isinstance(node, ast.ImportFrom):
        return node.module == "os" and any(a.name in names for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in names
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def test_the_package_reads_no_environment_variables():
    # Every setting comes in through the arguments: no hidden knobs.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _reads_environment(node)]
    assert list(SRC.glob("*.py"))
    assert found == []


def _calls(tree, name: str) -> list:
    """(enclosing top-level definition, line) of each call of ``name`` or
    ``<module>.name`` in ``tree``."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.append((getattr(top, "name", None), node.lineno))
    return found


def test_exact_rows_are_mixed_only_by_row_mixture():
    # Summing exact rows brings them to the lcm of their denominators:
    # ``row.mixture`` does that.  An lcm anywhere else is a second mix.
    found, in_row = [], []
    for path in sorted(SRC.glob("*.py")):
        calls = _calls(ast.parse(path.read_text(), filename=str(path)), "lcm")
        if path.name == "row.py":
            in_row += calls
            continue
        found += [f"{path.name}:{line}" for _, line in calls]
    assert any(where == "mixture" for where, _ in in_row)
    assert found == []


ORACLES = ("mat_mul", "convex", "power_series_absorption", "dist_leq_bruteforce")


def test_the_oracles_call_no_pnk_function():
    # The oracles of the matrix laws and of the order share no code with
    # what they check.  Each call in them, and in the local definitions
    # they call (the test matrix's methods among them), must not reach a
    # name imported from ``pnk``; an error class of ``pnk.errors`` may be
    # raised.  The matrix they build inherits only ``__init__`` from the
    # solve's carrier.
    path = Path(__file__).resolve().parent / "oracles.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    from_pnk = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "pnk":
            if node.module != "pnk.errors":
                from_pnk.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            from_pnk.update((a.asname or a.name).split(".")[0] for a in node.names
                            if a.name.split(".")[0] == "pnk")
    local = {node.name: node for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    todo, seen, found = [*ORACLES, "SparseMatrix"], set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(local[name]):
            if isinstance(node, ast.Call):
                root = node.func
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name):
                    if root.id in from_pnk:
                        found.append(f"{name}:{node.lineno}")
                    elif root.id in local:
                        todo.append(root.id)
    assert found == []
    assert {"SparseMatrix", "mat_mul"} < seen

    import oracles
    from pnk import linalg
    assert oracles.SparseMatrix.__bases__ == (linalg.SparseMatrix,)
    assert [k for k, v in vars(linalg.SparseMatrix).items() if callable(v)] == ["__init__"]
