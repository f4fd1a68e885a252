"""Every private function a halolab module defines at module or class level
is read somewhere in the package, outside its own body.

A private function has a name with one leading underscore (Python itself
calls the dunder methods).  A read is a loaded name or attribute: a call,
a reference passed on, ``self._helper``.  A read inside the function's own
body (recursion) does not count.
"""
import ast
import pathlib
from collections import defaultdict

import halolab

MODULES = sorted(pathlib.Path(halolab.__file__).parent.glob("*.py"))


def _unread_private_functions(sources):
    """Sorted (module, line, name) of every unread private function, for
    sources mapping a module name to its text."""
    defs = []
    reads = defaultdict(list)  # name -> [(module, line)]
    for module, source in sources.items():
        tree = ast.parse(source)
        bodies = [tree.body] + [node.body for node in tree.body
                                if isinstance(node, ast.ClassDef)]
        defs += [(module, node) for body in bodies for node in body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id].append((module, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr].append((module, node.lineno))
    return sorted((module, node.lineno, node.name) for module, node in defs
                  if all(m == module and node.lineno <= line <= node.end_lineno
                         for m, line in reads[node.name]))


def test_the_scan_sees_an_unread_helper():
    source = ("def _used():\n"
              "    return 1\n"
              "\n"
              "def _recursive(n):\n"
              "    return _recursive(n - 1) if n else _used()\n"
              "\n"
              "class K:\n"
              "    def __init__(self):\n"
              "        self._read()\n"
              "\n"
              "    def _read(self):\n"
              "        pass\n"
              "\n"
              "    def _unread(self):\n"
              "        pass\n")
    assert _unread_private_functions({"m": source}) == [("m", 4, "_recursive"),
                                                         ("m", 14, "_unread")]


def test_every_private_function_is_read_in_the_package():
    assert len(MODULES) > 10
    sources = {p.name: p.read_text() for p in MODULES}
    assert _unread_private_functions(sources) == []
