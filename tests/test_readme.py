"""README's library example runs against the package as it stands."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_usage_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library usage", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_usage_block_runs():
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(library_usage_block(), str(README), "exec"), namespace)
    report = namespace["report"]
    assert report.saturated
    assert report.value == pytest.approx(0.339, abs=1e-3)  # the plateau the comment states
    assert out.getvalue() == f"True {report.value}\n"
