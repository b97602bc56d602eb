"""The package's public surface: every exported name resolves, every CLI
example in the README parses with the current option set, and only the CLI
touches files."""

import ast
import importlib
import pkgutil
import shlex
from pathlib import Path

import pytest

import bentchain
from bentchain import cli

MODULES = ["bentchain"] + [
    f"bentchain.{m.name}" for m in pkgutil.iter_modules(bentchain.__path__)
]
SOURCES = sorted(Path(bentchain.__file__).parent.glob("*.py"))
FILE_MODULES = {"json", "csv", "os", "pathlib", "hashlib"}


def _readme_cli_lines() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return [line for line in section.splitlines() if line.startswith("bentchain ")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


def test_readme_has_cli_examples():
    assert len(_readme_cli_lines()) >= 11


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_parses(line):
    # parse only: the commands are not run
    argv = shlex.split(line)[1:]
    args = cli.build_parser().parse_args(argv)
    assert args.command in cli.COMMANDS


def _file_access(tree: ast.AST) -> list[str]:
    """The file-handling imports and ``open`` calls in a module's tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        found += [f"line {node.lineno}: import {m}" for m in modules
                  if m.split(".")[0] in FILE_MODULES]
        if isinstance(node, ast.Call) and "open" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            found.append(f"line {node.lineno}: open()")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_only_cli_touches_files(path):
    found = _file_access(ast.parse(path.read_text()))
    if path.stem == "cli":
        assert found  # the check sees the one module that does write
    else:
        assert found == [], f"{path.name} handles files: {found}"
