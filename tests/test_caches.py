"""Source scans of the package: no cache grows without bound for the life of a process,
no module binds a ``numpy.linalg`` name at import, no module imports a name it never
reads but the ones perfbench's tracer patches, and the kept-state names stay deleted."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qubitbath"


def _unbounded_caches(tree: ast.AST) -> list:
    """Line numbers of ``functools.cache`` and ``lru_cache(maxsize=None)`` in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "cache":
            found.append(node.lineno)
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [node.lineno for alias in node.names if alias.name == "cache"]
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "attr", None) or getattr(func, "id", None)
            if name == "lru_cache":
                bounds = [kw.value for kw in node.keywords if kw.arg == "maxsize"]
                bounds += node.args[:1]
                if any(isinstance(b, ast.Constant) and b.value is None for b in bounds):
                    found.append(node.lineno)
    return found


def test_src_holds_no_unbounded_cache():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _unbounded_caches(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_scan_finds_each_unbounded_form():
    source = (
        "import functools\n"
        "from functools import cache\n"
        "a = functools.lru_cache(maxsize=None)(f)\n"
        "b = functools.lru_cache(None)(f)\n"
        "c = functools.cache(f)\n"
        "d = functools.lru_cache(maxsize=32)(f)\n"
    )
    assert sorted(_unbounded_caches(ast.parse(source))) == [2, 3, 4, 5]


def _import_time_nodes(tree: ast.AST):
    """Every node a module runs on import: function bodies are skipped, not their defaults."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            stack += getattr(node, "decorator_list", []) + args.defaults
            stack += [default for default in args.kw_defaults if default is not None]
        else:
            stack.extend(ast.iter_child_nodes(node))


def _linalg_bindings(tree: ast.AST) -> list:
    """Line numbers where a module binds a ``numpy.linalg`` name when it is imported.

    perfbench's tracer counts solves by patching ``np.linalg.eigvalsh``: a name bound
    before it patches would keep the unpatched function, and its solves would read 0.
    """
    nodes = list(_import_time_nodes(tree))
    called = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    found = []
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.append(node.lineno)
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
            and id(node) not in called
        ):
            found.append(node.lineno)
    return found


def test_src_binds_no_linalg_name_at_import():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _linalg_bindings(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_scan_finds_each_linalg_binding():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eigvalsh\n"
        "from numpy.linalg import norm as size\n"
        "eig = np.linalg.eigvalsh\n"
        "class Solver:\n"
        "    solve = numpy.linalg.solve\n"
        "def spectrum(mat, eig=np.linalg.eigvalsh):\n"
        "    local = np.linalg.eigvalsh\n"
        "    from numpy.linalg import eigh\n"
        "    return np.linalg.eigvalsh(mat)\n"
        "lam = np.linalg.eigvalsh(np.eye(2))\n"
        "from numpy import linalg\n"
    )
    assert sorted(_linalg_bindings(ast.parse(source))) == [2, 3, 4, 6, 7]


def _unused_imports(tree: ast.AST) -> list:
    """(line, name) of each name a module imports and never reads.

    A name is read when it is loaded anywhere in the module or listed in ``__all__``.
    """
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            read.update(item.value for item in node.value.elts)
    return sorted((line, name) for name, line in imported.items() if name not in read)


# unused at home, but perfbench/tracing.py patches these names on these modules
PINNED_BY_TRACING = {("cli", "parse_config"), ("dynamics", "log_negativity")}


def test_src_imports_nothing_unused():
    found = {
        (path.stem, name)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"  # the package imports its names to re-export them
        for _, name in _unused_imports(ast.parse(path.read_text(), str(path)))
    }
    assert found == PINNED_BY_TRACING
    tracing = (PACKAGE.parents[1] / "perfbench" / "tracing.py").read_text()
    for module, name in PINNED_BY_TRACING:
        assert f'self._patch({module}, "{name}"' in tracing


def test_scan_finds_each_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy as np\n"
        "from math import pi, tau as full_turn\n"
        "from .errors import ConfigError\n"
        "import xml.dom\n"
        "__all__ = ['ConfigError']\n"
        "def area(r: np.ndarray):\n"
        "    from json import dumps\n"
        "    from csv import writer\n"
        "    return dumps(pi * r)\n"
    )
    found = _unused_imports(ast.parse(source))
    assert found == [(2, "os"), (3, "osp"), (5, "full_turn"), (7, "xml"), (11, "writer")]


# the kept-state machinery: evolve keeps no state, so none of these may come back
DELETED_NAMES = {"record_states", "state_times"}
DELETED_METHODS = {"current"}


def _deleted_bindings(tree: ast.AST) -> list:
    """(line, name) of each binding of a ``DELETED_NAMES`` name and each ``DELETED_METHODS``
    method: an assignment or field, an attribute set, a parameter, a keyword argument, an
    import or a definition."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            found += [
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and item.name in DELETED_METHODS
            ]
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            name = node.attr
        elif isinstance(node, (ast.arg, ast.keyword)):
            name = node.arg
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in DELETED_NAMES:
            found.append((node.lineno, name))
    return sorted(found)


def test_src_binds_no_deleted_name():
    found = [
        f"{path.name}:{line}:{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _deleted_bindings(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def test_scan_finds_each_deleted_binding():
    source = (
        "from dataclasses import dataclass\n"
        "from .dynamics import state_times\n"
        "@dataclass\n"
        "class Options:\n"
        "    record_states: bool = True\n"
        "    def current(self):\n"
        "        self.state_times = []\n"
        "def evolve(psi, record_states=True):\n"
        "    state_times = []\n"
        "    for state_times in []:\n"
        "        pass\n"
        "    return Options(record_states=False)\n"
        "def current():\n"
        "    return stepper.current(), options.record_states\n"
        "class Stepper:\n"
        "    async def current(self):\n"
        "        pass\n"
    )
    found = _deleted_bindings(ast.parse(source))
    assert found == [
        (2, "state_times"),
        (5, "record_states"),
        (6, "current"),
        (7, "state_times"),
        (8, "record_states"),
        (9, "state_times"),
        (10, "state_times"),
        (12, "record_states"),
        (16, "current"),
    ]
