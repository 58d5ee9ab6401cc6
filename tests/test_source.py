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
    # ``row.mixture`` does that for the engine, and ``linalg.integer_form``
    # for the Fraction oracle.  An lcm anywhere else is a second mix.
    found, in_row = [], []
    for path in sorted(SRC.glob("*.py")):
        calls = _calls(ast.parse(path.read_text(), filename=str(path)), "lcm")
        if path.name == "row.py":
            in_row += calls
            continue
        found += [f"{path.name}:{line}" for where, line in calls
                  if (path.name, where) != ("linalg.py", "integer_form")]
    assert any(where == "mixture" for where, _ in in_row)
    assert found == []
