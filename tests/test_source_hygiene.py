"""Source hygiene, checked with the standard library only.

* Every module-level import of a package module (``__init__.py`` re-exports
  its imports, so it is left out) is used in that module.
* No line of Python source under ``src/`` or ``tests/`` is longer than 100
  columns.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "cdgalab").glob("*.py") if p.name != "__init__.py")
MAX_COLUMNS = 100


def unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "import json\nfrom typing import Dict, List\n\nx: Dict = json.loads('{}')\n"
    assert unused_imports(source) == [(2, "List")]


def test_no_line_is_longer_than_100_columns():
    long_lines = [f"{path.relative_to(ROOT)}:{n}"
                  for top in ("src", "tests") for path in sorted((ROOT / top).rglob("*.py"))
                  for n, line in enumerate(path.read_text().splitlines(), start=1)
                  if len(line) > MAX_COLUMNS]
    assert long_lines == []
