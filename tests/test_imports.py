"""A stdlib lint: every module-level import in the package is used, every
module-level private name is read, every private name a docstring or
comment mentions is one the package defines, every name the CLI reads
from the evaluator or counterexample is one it defers, and
``qriemann.__all__`` lists exactly the package's public names.  No module
writes ``__all__`` out as a literal of strings: the package computes it
from its imports and ``_DEFERRED``, where each public name is written once.

``__init__.py`` is skipped by the import check because its imports are the
public re-exports.  A name counts as used when it appears anywhere in the
module as a bare name (attribute chains start from one), including inside
annotations.  A private function, class or constant (``_name``) counts as
read when any module of the package loads it, as a bare name or as an
attribute, outside its own definition.  A mention in prose is a ``_name``
that follows no letter, digit, ``]`` or ``)``, so that math subscripts
such as ``a_k`` or ``[N k]_r`` are not read as names.

A stencil's node integers (D, P_k) are read from ``node_ints``, which
``Stencil`` forms once: no module calls ``_over_common_denominator`` on an
expression's ``.nodes``.

The package and its CLI import the evaluator and counterexample modules,
and mpmath with them, only when one of their names is first used; fresh
interpreters check that stencil and verify work never loads them.
"""

import ast
import builtins
import importlib
import io
import os
import re
import subprocess
import sys
import textwrap
import tokenize
import types
from pathlib import Path

import pytest

import qriemann
from qriemann import cli

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


def deferred_name_problems(source: str, deferred: set[str]) -> list[str]:
    """How a module's reads break its deferred names: a name it reads but
    binds nowhere that is neither a builtin nor deferred; a top-level
    statement that reads a deferred name, unless it is a function whose
    first statement (after any docstring) is ``_bind_deferred()``; and a
    deferred name it never reads."""
    tree = ast.parse(source)
    bound = defined_names({"": source}) | set(dir(builtins))
    bound |= {n.name for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler) and n.name}
    problems, read = [], set()
    for stmt in tree.body:
        free = {n.id for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} - bound
        read |= free
        problems += [f"line {stmt.lineno}: {name} is bound nowhere" for name in sorted(free - deferred)]
        if isinstance(stmt, ast.FunctionDef):
            body = stmt.body[1:] if ast.get_docstring(stmt) is not None else stmt.body
            binds_first = bool(body) and ast.unparse(body[0]) == "_bind_deferred()"
        else:
            binds_first = False
        if free & deferred and not binds_first:
            problems.append(f"line {stmt.lineno}: reads {', '.join(sorted(free & deferred))} "
                            "before _bind_deferred()")
    return problems + [f"{name} is deferred but never read" for name in sorted(deferred - read)]


def node_form_rederivations(source: str) -> list[str]:
    """Calls _over_common_denominator(<expr>.nodes) in the source, which
    form a stencil's node integers again instead of reading node_ints."""
    return [f"line {n.lineno}: {ast.unparse(n)}" for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
            and n.func.id == "_over_common_denominator"
            and any(isinstance(a, ast.Attribute) and a.attr == "nodes" for a in n.args)]


def literal_all_assignments(source: str) -> list[str]:
    """Statements of the source that assign, annotate or extend __all__
    with a list or tuple literal of strings."""
    found = []
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Assign):
            targets = n.targets
        elif isinstance(n, (ast.AnnAssign, ast.AugAssign)):
            targets = [n.target]
        else:
            continue
        if (any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
                and isinstance(n.value, (ast.List, ast.Tuple)) and n.value.elts
                and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in n.value.elts)):
            found.append(f"line {n.lineno}: {type(n).__name__}")
    return found


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


def test_only_stencil_construction_forms_the_node_integers():
    assert [f"{p.name} {call}" for p in sorted(PACKAGE.glob("*.py"))
            for call in node_form_rederivations(p.read_text())] == []


def test_node_form_detector_flags_calls_on_nodes_and_keeps_others():
    source = (
        "def f(s, nodes, coeffs):\n"
        "    d, ps = _over_common_denominator(s.nodes)\n"
        "    e, cs = _over_common_denominator(s.coeffs)\n"
        "    _, qs = _over_common_denominator(nodes)\n"
        "    return _over_common_denominator(stencil(1).nodes), s.node_ints\n"
    )
    assert node_form_rederivations(source) == [
        "line 2: _over_common_denominator(s.nodes)",
        "line 5: _over_common_denominator(stencil(1).nodes)",
    ]


def test_cli_reads_only_names_it_binds_or_defers():
    deferred = {name for names in cli._DEFERRED.values() for name in names}
    assert deferred_name_problems((PACKAGE / "cli.py").read_text(), deferred) == []


def test_deferred_name_detector_flags_unbound_unread_and_unbound_first_reads():
    source = (
        "import json\n"
        "_DEFERRED = {}\n"
        "def _bind_deferred():\n"
        "    pass\n"
        "def fine(x):\n"
        '    """Docstring first."""\n'
        "    _bind_deferred()\n"
        "    return json.dumps(Handle(x), default=str)\n"
        "def late():\n"
        "    value = estimate()\n"
        "    _bind_deferred()\n"
        "    return value\n"
        "TABLE = [Handle]\n"
        "def typo():\n"
        "    return Handel\n"
    )
    assert deferred_name_problems(source, {"Handle", "estimate", "unused"}) == [
        "line 9: reads estimate before _bind_deferred()",
        "line 13: reads Handle before _bind_deferred()",
        "line 14: Handel is bound nowhere",
        "unused is deferred but never read",
    ]


@pytest.mark.parametrize("owner", [qriemann, cli], ids=["package", "cli"])
def test_every_deferred_name_exists_in_its_module(owner):
    for module, names in owner._DEFERRED.items():
        source = importlib.import_module(f"qriemann.{module}")
        assert [name for name in names if not hasattr(source, name)] == []


def test_no_module_writes_all_out_as_a_literal():
    assert [f"{p.name} {found}" for p in sorted(PACKAGE.glob("*.py"))
            for found in literal_all_assignments(p.read_text())] == []


def test_all_literal_detector_flags_literals_and_keeps_comprehensions():
    source = (
        "import os\n"
        "__all__ = ['a', 'b']\n"
        "__all__: tuple = ('c',)\n"
        "__all__ += ['d']\n"
        "__all__ = [name for name in dir() if not name.startswith('_')]\n"
        "__all__ += [n for n in ('e', 'f')] + ['__version__']\n"
        "__all__ = []\n"
        "__all__ = [os.sep, 'g']\n"
        "names = ['h', 'i']\n"
    )
    assert literal_all_assignments(source) == [
        "line 2: Assign", "line 3: AnnAssign", "line 4: AugAssign"]


def test_all_lists_exactly_the_public_bindings():
    # every name in __all__ resolves, to the object its defining module holds,
    # so a name removed from the package cannot stay behind in __all__; and
    # every public binding, imported or deferred, is listed
    for name in qriemann.__all__:
        value = getattr(qriemann, name)
        home = getattr(value, "__module__", None) or ""
        if home.startswith("qriemann."):
            assert getattr(sys.modules[home], name) is value, name
    imported = {name for name, value in vars(qriemann).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    deferred = {name for names in qriemann._DEFERRED.values() for name in names}
    assert sorted(qriemann.__all__) == sorted(imported | deferred | {"__version__"})


# -- what a fresh interpreter imports ------------------------------------------

DEFERRED_MODULES = ("mpmath", "qriemann.evaluator", "qriemann.counterexample")


def run_fresh(*args: str) -> subprocess.CompletedProcess:
    """python args in a new interpreter that imports qriemann from this checkout."""
    pythonpath = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath})


def loaded_after(code: str) -> list[str]:
    """Which of DEFERRED_MODULES a fresh interpreter holds after running code."""
    proc = run_fresh("-c", textwrap.dedent(code) + "\nimport sys\n"
                     f"print([m for m in {DEFERRED_MODULES!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_importing_the_cli_and_building_its_parser_loads_no_mpmath():
    assert loaded_after("import qriemann.cli; qriemann.cli.build_parser()") == []


def test_stencil_and_verify_commands_load_no_mpmath():
    assert loaded_after("""
        import contextlib, io
        from qriemann.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["stencil", "--kind=forward", "-n3", "-q2"]) == 0
            assert main(["stencil", "--kind=custom", "-n2", "--nodes=0,1,3", "--output=text"]) == 0
            assert main(["verify", "--max-n", "2"]) == 0
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["stencil", "--kind=forward", "-n3", "-q1"]) == 2
            assert main(["stencil", "--kind=forward", "-nx"]) == 2
        """) == []


def test_module_execution_of_stencil_imports_no_mpmath():
    proc = run_fresh("-X", "importtime", "-m", "qriemann", "stencil", "--kind=forward", "-n3", "-q2")
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "qriemann.stencil" in imported and imported.isdisjoint(DEFERRED_MODULES)


def test_package_names_resolve_on_first_use():
    assert loaded_after("""
        import qriemann
        assert qriemann.Stencil and qriemann.run_all
        try:
            qriemann.no_such_name
        except AttributeError:
            pass
        from qriemann import cli
        assert not hasattr(cli, "__path__") and not hasattr(cli, "no_such_name")
        """) == []
    assert loaded_after("""
        import qriemann
        assert qriemann.evaluator.estimate_derivative is qriemann.estimate_derivative
        """) == ["mpmath", "qriemann.evaluator"]
    assert loaded_after("from qriemann.cli import find_exponent") == list(DEFERRED_MODULES)


def test_no_sign_change_exits_3_from_a_fresh_interpreter():
    # the trivial character makes phi vanish on the whole window: a strict
    # sign-change failure, which main reports as a verdict
    proc = run_fresh("-m", "qriemann", "counterexample", "--custom", "--nodes=1,2,3", "-n2",
                     "--generators=2,3", "--character=0,0", "--interval=1,3", "--lower-order=1")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
