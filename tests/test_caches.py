"""No cache in the package grows without bound for the life of a process."""

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
