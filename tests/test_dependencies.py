"""The declared dependencies match what ``src/`` imports.

A third-party module imported at module level is needed to import the
package at all, so it must be in ``[project].dependencies``; one imported
only inside a function or a ``try`` block is optional and must be named
in ``[project.optional-dependencies]``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _requirement_names(requirements: list[str]) -> set[str]:
    return {re.split(r"[\s<>=!~\[;]", req, maxsplit=1)[0] for req in requirements}


def _third_party_imports() -> tuple[set[str], set[str]]:
    """(module-level, nested) third-party import roots under src/."""
    module_level: set[str] = set()
    nested: set[str] = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = set(map(id, tree.body))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                roots = {node.module.split(".")[0]}
            else:
                continue
            roots -= set(sys.stdlib_module_names) | {"repro"}
            (module_level if id(node) in top else nested).update(roots)
    return module_level, nested


def test_declared_dependencies_cover_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))[
        "project"
    ]
    required = _requirement_names(project["dependencies"])
    optional = set().union(
        *(_requirement_names(reqs) for reqs in project["optional-dependencies"].values())
    )
    module_level, nested = _third_party_imports()
    assert "numpy" in module_level  # the check sees real imports
    assert module_level <= required, module_level - required
    assert nested <= required | optional, nested - required - optional
