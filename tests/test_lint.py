"""Static checks over the package source, in place of a linter.

Every imported name is used, or re-exported through `__all__`, and every
`__all__` entry names something the module defines or imports.
"""

import ast
from pathlib import Path

import pytest

import fracsolve

MODULES = sorted(Path(fracsolve.__file__).parent.glob("*.py"))


def module_names(tree):
    """(imported, defined, used, exported) names of a module's AST."""
    imported, defined, used, exported = {}, set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            (used if isinstance(node.ctx, ast.Load) else defined).add(node.id)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            exported = ast.literal_eval(node.value)
    return imported, defined | set(imported), used, exported


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_used_and_all_is_defined(path):
    imported, defined, used, exported = module_names(ast.parse(path.read_text()))
    unused = [f"{name} (line {line})" for name, line in imported.items()
              if name not in used and name not in exported]
    assert not unused, f"unused imports in {path.name}: {unused}"
    missing = [name for name in exported if name not in defined]
    assert not missing, f"__all__ of {path.name} names undefined {missing}"


def test_checks_catch_an_unused_import_and_a_stale_export():
    source = ("import math\nimport numpy as np\n__all__ = ['f', 'g']\n"
              "def f():\n    return np\n")
    imported, defined, used, exported = module_names(ast.parse(source))
    assert [name for name in imported if name not in used] == ["math"]
    assert [name for name in exported if name not in defined] == ["g"]
