"""Every halolab module imports at its top, bar one import that breaks a
cycle: ``groups.make_group`` imports ``descriptor``, which imports
``groups``.
"""
import ast
import pathlib

import halolab

MODULES = sorted(pathlib.Path(halolab.__file__).parent.glob("*.py"))
ALLOWED = {("groups.py", "make_group")}


def _function_imports(source: str):
    """(line, function name) of each import inside a function body, nested
    functions and methods included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend((inner.lineno, node.name) for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return sorted(set(found))


def test_the_scan_sees_a_function_level_import():
    planted = ("import os\n\nclass A:\n    def f(self):\n        def g():\n"
               "            from typing import List\n        return os\n")
    assert _function_imports(planted) == [(6, "f"), (6, "g")]
    assert _function_imports("import os\n\ndef f():\n    return os\n") == []


def test_no_module_imports_inside_a_function_but_the_cycle_breaker():
    assert len(MODULES) > 10
    found = {(p.name, name): line for p in MODULES
             for line, name in _function_imports(p.read_text())}
    assert set(found) == ALLOWED, found
