"""Every name a halolab module imports is read somewhere in that module.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""
import ast
import pathlib

import halolab

MODULES = sorted(p for p in pathlib.Path(halolab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import os\nfrom typing import List, Tuple\nx: List = []\n") == \
        [(1, "os"), (2, "Tuple")]


def test_no_module_imports_a_name_it_never_reads():
    assert len(MODULES) > 10
    unused = {p.name: _unused_imports(p.read_text()) for p in MODULES}
    assert {name: found for name, found in unused.items() if found} == {}
