"""The demos and the README's Python example import only names the package exports,
and the README's `explore` example shows that command's real output.

The scripts are parsed, not run: running all the demos takes over half a
minute, and a removed name would otherwise break one silently.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import rcmperc
from rcmperc.cli import run_cli

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [*sorted(ROOT.glob("demos/*.py")), ROOT / "README.md"]


def _python_source(path: Path) -> str:
    """The file's Python code: the whole script, or a README's python blocks."""
    text = path.read_text()
    if path.suffix == ".md":
        return "\n".join(re.findall(r"```python\n(.*?)```", text, re.S))
    return text


def _rcmperc_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every `from rcmperc... import name` in the source."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and (node.module or "").split(".")[0] == "rcmperc"
        for alias in node.names
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imported_names_are_exported(path):
    imports = _rcmperc_imports(_python_source(path))
    assert imports, f"{path.name} imports nothing from rcmperc"
    missing = [
        f"{module}.{attr}"
        for module, attr in imports
        if attr not in (
            rcmperc.__all__ if module == "rcmperc" else dir(importlib.import_module(module))
        )
    ]
    assert not missing, missing


def test_readme_explore_example_is_real_output(capsys):
    # the ```sh block with the command, then the ``` block with its first lines
    command, shown = re.search(
        r"```sh\nrcmperc (explore [^\n]*)\n```\n\n```\n(.*?)```", (ROOT / "README.md").read_text(),
        re.S,
    ).groups()
    assert run_cli(command.split()) == 0
    assert capsys.readouterr().out.startswith(shown)
