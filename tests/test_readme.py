"""README's library example runs, and its flags parse, against the package as it stands."""

import argparse
import contextlib
import io
import re
from pathlib import Path

import pytest

from qubitbath import cli

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


def readme_flags(text: str) -> set:
    """Every ``--flag`` the text names, except on lines that run pip."""
    lines = [line for line in text.splitlines() if not line.lstrip().startswith("pip ")]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", "\n".join(lines)))


def cli_flags() -> set:
    """Every option string some subcommand of ``qubitbath`` accepts."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = (action for sub in commands.choices.values() for action in sub._actions)
    return {flag for action in actions for flag in action.option_strings}


def test_readme_names_only_flags_the_cli_accepts():
    assert readme_flags(README.read_text(encoding="utf-8")) <= cli_flags()
    # the check catches a flag the parser dropped
    assert readme_flags("Common flags: `--kappa {1.0,0.25}`, `--out`") - cli_flags() == {"--kappa"}
