"""Every module under src/croprl and tests reads each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).parents[1]
TREES = (ROOT / "src" / "croprl", ROOT / "tests")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import binds and the module never reads.
    Names listed in ``__all__`` count as read, and ``from __future__``
    imports are exempt."""
    bound, read = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_check_flags_only_unread_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import json as js\n"
              "from math import pi, tau\n"
              "from .x import exported\n"
              "__all__ = ['exported']\n"
              "print(pi, os.path.sep)\n")
    assert unused_imports(source) == [(3, "js"), (4, "tau")]


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for tree in TREES for path in sorted(tree.glob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
