"""The package's public surface: every exported name resolves, every CLI
example in the README parses with the current option set, the README's
library example runs, only the CLI touches files, and the benchmark script
still finds the internals it times."""

import ast
import importlib
import importlib.util
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


def _readme_section(title: str) -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_cli_lines() -> list[str]:
    section = _readme_section("CLI")
    return [line for line in section.splitlines() if line.startswith("bentchain ")]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"{name}.__all__ lists missing {attr!r}"


def test_package_exports():
    # one first-arrival entry point, first_arrivals, on raw matrices
    assert set(bentchain.__all__) == {
        "AmplitudeTrace", "BendSpec", "ChainSpec", "DeviceParams", "FitDivergedError",
        "FitReport", "Hamiltonian", "OptimizationResult", "ParasiticReport", "Protocol",
        "ReferencePoint", "SpectrumReport", "SweepTable", "TransferResult",
        "WaveguideLayout", "build_couplings", "build_hamiltonian", "calibrate_protocol1",
        "coupling_from_separation", "design_layout", "detuning_curve", "evolve",
        "first_arrivals", "fit_gaussian", "fit_linear", "omega_max", "optimize_detuning",
        "overlap_profile", "parasitic_check", "perfect_transfer_time", "reference",
        "separation_from_coupling", "spectrum_report", "sweep_alpha", "sweep_kappa",
        "transfer_metrics",
    }
    assert len(bentchain.__all__) == len(set(bentchain.__all__))


def test_readme_has_cli_examples():
    assert len(_readme_cli_lines()) >= 11


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_example_parses(line):
    # parse only: the commands are not run
    argv = shlex.split(line)[1:]
    args = cli.build_parser().parse_args(argv)
    assert args.command in cli.COMMANDS


def test_readme_library_example_runs(capsys):
    code = _readme_section("Library example").split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert [line.split("(", 1)[0] for line in printed] == [
        "TransferResult", "OptimizationResult"]


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


def test_kernel_bench_imports(tmp_path):
    # the script imports library internals; load it without running main,
    # and run its refine count once
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "kernel_bench.py"
    spec = importlib.util.spec_from_file_location("kernel_bench", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert callable(bench.main)
    # the count's spies stand in for first_arrivals, the followed step and
    # eigh, so they must take the same arguments
    one_row, one_eigh, followed, points = bench.refine_evaluations("fig5", tmp_path)
    assert one_row > 0 and followed > 0 and points == 0  # fig5 writes spectra, not optima
    assert one_eigh > 0
