"""The names ``perfbench`` reads from the package must exist in it.

The tracer rebinds each ``(module, function)`` of its ``TARGETS`` list and
reads a few ``SdpProblem`` fields after every solve, so renaming one of them
breaks ``--trace 1``; the workloads and the ceiling call the package as
``q.<name>``.  The scripts are parsed, not imported or run.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from qincompat.sdp import SdpProblem

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
RUN = BENCH / "run.py"


@pytest.fixture(scope="module")
def script():
    if not RUN.exists():
        pytest.skip("perfbench/ is not in this checkout")
    return ast.parse(RUN.read_text())


def test_every_traced_function_exists(script):
    (targets,) = [node.value for node in script.body if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)]
    names = [tuple(ast.literal_eval(e) for e in item.elts[:2]) for item in targets.elts]
    assert names
    for module, fn in names:
        assert callable(getattr(importlib.import_module(f"qincompat.{module}"), fn, None)), (module, fn)


def test_solve_hook_reads_problem_fields(script):
    # the fields of ``problem`` read by ``_after_solve`` and the module's
    # functions it calls
    defs = {node.name: node for node in script.body if isinstance(node, ast.FunctionDef)}
    todo, seen, reads = ["_after_solve"], set(), set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "problem":
                reads.add(node.attr)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in defs.keys() - seen:
                todo.append(node.func.id)
    assert reads
    assert reads <= {f.name for f in dataclasses.fields(SdpProblem)}, reads


def test_every_package_name_the_workloads_read_exists():
    # ``q`` is the package as ``run.import_package`` returns it, after
    # ``import qincompat.cli``
    import qincompat
    import qincompat.cli  # noqa: F401

    if not BENCH.exists():
        pytest.skip("perfbench/ is not in this checkout")
    trees = [ast.parse((BENCH / f).read_text()) for f in ("workloads.py", "ceiling.py")]
    names = {node.attr for tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "q"}
    assert names
    missing = sorted(n for n in names if not hasattr(qincompat, n))
    assert not missing, missing
