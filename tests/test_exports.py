"""The package's declared public names all resolve."""

import ast
import importlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qubitbath"


def test_every_exported_and_reexported_name_resolves():
    # a stale name would otherwise fail only ``from qubitbath.<module> import *``
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "qubitbath" if path.stem == "__init__" else f"qubitbath.{path.stem}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", ())
        missing += [f"{name}.__all__: {item}" for item in exported if not hasattr(module, item)]
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in ast.walk(init):
        if isinstance(node, ast.ImportFrom):
            source = importlib.import_module("." * node.level + (node.module or ""), "qubitbath")
            missing += [
                f"qubitbath imports {source.__name__}.{alias.name}"
                for alias in node.names
                if not hasattr(source, alias.name)
            ]
    assert missing == []
