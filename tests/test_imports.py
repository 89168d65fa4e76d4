import ast
import os
import subprocess
import sys
from pathlib import Path

import deepcate


def test_package_and_cli_import_no_scipy():
    # a fresh interpreter, so modules the test session already holds do not count
    src = str(Path(deepcate.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # nor the process machinery, which only a parallel sweep imports
    code = (
        "import sys, deepcate, deepcate.cli\n"
        "roots = ('scipy', 'concurrent', 'multiprocessing')\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in roots))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_csv_writer_only_in_metrics():
    # the table format lives behind metrics.write_csv
    callers = []
    for path in sorted(Path(deepcate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "writer"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "csv"
            ):
                callers.append(path.name)
    assert callers == ["metrics.py"]


def calls_of(module: str, attr: str) -> list[str]:
    """The package files that call module.attr, once per call."""
    callers = []
    for path in sorted(Path(deepcate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == module
            ):
                callers.append(path.name)
    return callers


def test_csv_reader_only_in_metrics():
    # every table is parsed by metrics.read_table
    assert calls_of("csv", "reader") == ["metrics.py"]


GENERATOR_DRAWS = {"random", "standard_normal", "normal", "binomial", "integers", "permutation"}


def test_harness_draws_nothing_from_a_generator():
    # the generating process lives in dgp: the harness builds and seeds
    # generators, and dgp's draw functions draw from them
    path = Path(deepcate.__file__).parent / "harness.py"
    draws = [
        node.func.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in GENERATOR_DRAWS
    ]
    assert draws == []
