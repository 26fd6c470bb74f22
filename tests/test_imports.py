"""A stdlib lint: every module-level import in the package is used.

``__init__.py`` is skipped because its imports are the public re-exports.
A name counts as used when it appears anywhere in the module as a bare name
(attribute chains start from one), including inside annotations.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qriemann"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda t: t[1])
            if name not in used]


def test_package_modules_are_found():
    assert {"cli.py", "evaluator.py", "stencil.py", "verify.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_unused_and_keeps_used_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from .x import used, unused\n"
        "def f(a: F) -> int:\n"
        "    return used(os.path.sep)\n"
    )
    assert unused_imports(source) == ["line 2: math", "line 5: unused"]
