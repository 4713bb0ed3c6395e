"""Static checks over the package source, in place of a linter.

Every imported name is used, or re-exported through `__all__`, every
`__all__` entry names something the module defines or imports, and every
module-level private name is referenced somewhere in the package.
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


def private_definitions(tree):
    """Module-level private functions, classes and constants of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def references(tree):
    """Names a module loads, reads as attributes or imports from another."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def unreferenced_private_names(trees):
    defined = set().union(*map(private_definitions, trees))
    return sorted(defined - set().union(*map(references, trees)))


def test_private_names_are_referenced():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    unused = unreferenced_private_names(trees)
    assert not unused, f"private names that no module references: {unused}"


def test_check_catches_an_unreferenced_private_name():
    source = ("import numpy as np\n_GUARD = 1e5\n_USED = 2\n_TOLD: float = 3\n"
              "def _orphan():\n    return _USED\n"
              "class _Rule:\n    pass\n"
              "def f():\n    return np._helper\n")
    other = "from m import _TOLD\n"
    trees = [ast.parse(source), ast.parse(other)]
    assert unreferenced_private_names(trees) == ["_GUARD", "_Rule", "_orphan"]


def process_wide_state(tree):
    """(functions under a functools cache decorator, ContextVar calls) of a
    module's AST: the state that outlives a call in every thread of a
    process, and the per-thread state that a solve scope lives in."""
    cached, context_vars = [], 0

    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(
            node, "id", None)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(name(getattr(decorator, "func", decorator))
                   in ("lru_cache", "cache")
                   for decorator in node.decorator_list):
                cached.append(node.name)
        elif isinstance(node, ast.Call) and name(node.func) == "ContextVar":
            context_vars += 1
    return cached, context_vars


def test_no_process_wide_cache_and_one_context_variable():
    """Weights and transforms live in one solve scope, set through one
    ContextVar: no cache outlives the call that filled it."""
    found = [process_wide_state(ast.parse(path.read_text()))
             for path in MODULES]
    assert [name for cached, _ in found for name in cached] == []
    assert sum(count for _, count in found) <= 1


def test_check_catches_a_cache_and_a_second_context_variable():
    source = ("import contextvars\nimport functools\n"
              "from contextvars import ContextVar\n"
              "from functools import cache, lru_cache\n"
              "A = contextvars.ContextVar('A')\n"
              "B = ContextVar('B', default=None)\n"
              "@functools.lru_cache(maxsize=2)\ndef f(x):\n    return x\n"
              "@lru_cache\ndef g(x):\n    return x\n"
              "@functools.cache\ndef h(x):\n    return x\n"
              "@cache\ndef k(x):\n    return x\n"
              "@staticmethod\ndef plain(x):\n    return cache(x)\n")
    assert process_wide_state(ast.parse(source)) == (["f", "g", "h", "k"], 2)
