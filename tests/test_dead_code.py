"""No dead code in the package: every import is used, and every private
module-level function is called from somewhere in ``src/``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qincompat"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _used_names(tree):
    """Names read in a module: bare names, and the attributes of any object."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    assert imported, "no imports found: the parse is broken"
    assert [name for name in imported if name not in used] == []


def test_every_private_function_is_referenced():
    trees = {p: _tree(p) for p in MODULES}
    used = set().union(*map(_used_names, trees.values()))
    private = [f"{p.name}:{node.name}" for p, tree in trees.items() for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__")]
    assert private, "no private functions found: the parse is broken"
    assert [f for f in private if f.split(":")[1] not in used] == []
