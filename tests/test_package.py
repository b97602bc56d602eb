"""The package's public surface: every exported name resolves, and every
CLI example in the README parses with the current option set."""

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
