"""A stdlib lint: every module-level import in the package is used, every
module-level private name is read, every private name a docstring or
comment mentions is one the package defines, and ``qriemann.__all__``
lists exactly the package's public names.

``__init__.py`` is skipped by the import check because its imports are the
public re-exports.  A name counts as used when it appears anywhere in the
module as a bare name (attribute chains start from one), including inside
annotations.  A private function, class or constant (``_name``) counts as
read when any module of the package loads it, as a bare name or as an
attribute, outside its own definition.  A mention in prose is a ``_name``
that follows no letter, digit, ``]`` or ``)``, so that math subscripts
such as ``a_k`` or ``[N k]_r`` are not read as names.
"""

import ast
import io
import re
import tokenize
import types
from pathlib import Path

import pytest

import qriemann

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


def _bound_names(stmt) -> list[str]:
    """Names a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names in {module: source} that no module reads."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = {n for n in _bound_names(stmt) if n.startswith("_") and not n.startswith("__")}
            defined += [(module, stmt.lineno, name) for name in sorted(own)]
            nodes = list(ast.walk(stmt))
            loads = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            loads |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            read |= loads - own
    return [f"{module} line {line}: {name}" for module, line, name in defined
            if name not in read]


PRIVATE_MENTION = re.compile(r"(?<![\w\])])_[A-Za-z]\w*")


def defined_names(sources: dict[str, str]) -> set[str]:
    """Every name any of the sources binds: defs, classes, arguments,
    assignment targets (attributes included) and imports."""
    names = set()
    for source in sources.values():
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(n.name)
            elif isinstance(n, ast.arg):
                names.add(n.arg)
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                names.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store):
                names.add(n.attr)
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                names |= {alias.asname or alias.name for alias in n.names}
    return names


def prose(source: str):
    """(line, text) for each docstring and comment of the source."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string


def dangling_mentions(sources: dict[str, str]) -> list[str]:
    """Private names that a docstring or comment of {module: source}
    mentions and no source defines."""
    defined = defined_names(sources)
    return [f"{module} line {line}: {name}" for module, source in sources.items()
            for line, text in sorted(prose(source))
            for name in PRIVATE_MENTION.findall(text) if name not in defined]


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


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_private_name_detector_flags_unread_and_keeps_read_names():
    sources = {
        "a.py": (
            "_ATTR = 1\n"
            "_DEAD: int = 2\n"
            "def _self_only(n):\n"
            "    return _self_only(n - 1)\n"
            "class _Imported:\n"
            "    pass\n"
            "def _local():\n"
            "    return 0\n"
            "__all__ = [_local()]\n"
        ),
        "b.py": "import a\nfrom a import _Imported\nx = a._ATTR\ny = _Imported()\n",
    }
    assert unread_private_names(sources) == ["a.py line 2: _DEAD", "a.py line 3: _self_only"]


def test_no_docstring_or_comment_names_a_missing_private_name():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert dangling_mentions(sources) == []
    assert len([1 for s in sources.values() for _, text in prose(s)
                for _ in PRIVATE_MENTION.findall(text)]) > 10


def test_mention_detector_flags_missing_and_keeps_defined_names():
    sources = {
        "a.py": (
            '"""Module prose: _kept, a_k, [N k]_r, (1 + x)_q and _gone."""\n'
            "import b\n"
            "def _kept(_arg):\n"
            '    """Reads _arg and b._attr, not _missing."""\n'
            "    return _arg  # see _helper and _moved\n"
        ),
        "b.py": "from c import _helper\nclass B:\n    def f(self):\n        self._attr = 1\n",
    }
    assert dangling_mentions(sources) == [
        "a.py line 1: _gone", "a.py line 4: _missing", "a.py line 5: _moved"]


def test_all_lists_exactly_the_public_bindings():
    # a name removed from the package cannot stay behind in __all__
    public = {name for name, value in vars(qriemann).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(qriemann.__all__) == sorted(public | {"__version__"})
