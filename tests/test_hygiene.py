"""Source hygiene: no module imports a name it never uses, and the package
version agrees with pyproject.toml."""

import ast
import re
from pathlib import Path

import otlab

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "otlab").glob("*.py")) + sorted(
    (ROOT / "tests").rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that no other node reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nimport numpy as np\n"
                     "from a import b, c\nprint(os, c)\n")
    assert unused_imports(tree) == ["np (line 3)", "b (line 4)"]


def test_no_module_imports_an_unused_name():
    found = {str(path.relative_to(ROOT)): unused
             for path in SOURCES
             if (unused := unused_imports(ast.parse(path.read_text())))}
    assert found == {}


def test_package_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^version = "(.*)"$', text, re.M) == [otlab.__version__]
