"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this stands in for pyflakes' F401 on
``src/opial``.  ``__init__.py`` re-exports by importing, ``from __future__``
imports are directives, and a line marked ``# noqa: F401`` re-exports a name
on purpose.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "opial"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports and never reads, in import order."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_accumulate_is_the_leaf_module():
    # distributions and functionals both import the passes, so the pass
    # module imports nothing from the package: no import cycle can form.
    tree = ast.parse((PACKAGE / "accumulate.py").read_text(encoding="utf-8"))
    relative = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "opial"))
        or (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "opial" for alias in node.names))
    ]
    assert relative == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from dataclasses import asdict, fields\n"
        "from math import pi  # noqa: F401\n"
        "import numpy as np\n"
        "np.zeros(fields)\n"
    )
    assert unused_imports(source) == ["os", "asdict"]
