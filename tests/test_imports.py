"""Every name a library module imports is used in that module: no linter runs
here, so an import that a change leaves behind is caught by this test."""

import ast
from pathlib import Path

import pytest

import nightbev

MODULES = sorted(p for p in Path(nightbev.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by `source`'s imports that no other code in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds `a`
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_finds_an_orphaned_import():
    source = "from typing import Iterator\nimport numpy as np\nimport os.path\nnp.zeros(os.sep)\n"
    assert unused_imports(source) == ["Iterator"]
