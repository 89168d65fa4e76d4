import ast
import os
import subprocess
import sys
from pathlib import Path

import deepcate
from deepcate import harness


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


def test_package_and_cli_import_no_numpy_random():
    # numpy.random loads with the first fit or draw, not with the package,
    # so a process that imports deepcate pays for it only when it uses it
    src = str(Path(deepcate.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, deepcate, deepcate.cli\nprint('numpy.random' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


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


def test_argparse_only_in_cli():
    # cli parses arguments; analysis, harness and the rest take settings
    importers = []
    for path in sorted(Path(deepcate.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "argparse" for name in names):
                importers.append(path.name)
    assert importers == ["cli.py"]


def test_package_imports_neither_cli_nor_analysis():
    # a sweep process imports deepcate, and never compiles the entry point
    # or the analysis pipeline it does not run
    src = str(Path(deepcate.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, deepcate\n"
        "print(sorted(m for m in sys.modules if m in ('deepcate.cli', 'deepcate.analysis')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def method_literals(path: Path, tables: tuple[str, ...]) -> list[str]:
    """The string constants of path that equal a method's name, outside the
    assignments to the names in tables."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in tables for t in node.targets)
        for inner in ast.walk(node)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and node.value in harness.METHODS
        and id(node) not in skipped
    ]


def test_method_names_only_in_the_method_table():
    # what a method is lives in its row of harness.METHOD_TABLE (and the
    # model-file kinds in models.MODEL_KINDS); only the analysis names
    # bcf, the moderator tree's headline method
    found = {}
    for path in sorted(Path(deepcate.__file__).parent.glob("*.py")):
        names = method_literals(path, ("METHOD_TABLE", "MODEL_KINDS"))
        if names:
            found[path.name] = names
    assert found == {"analysis.py": ["bcf", "bcf"]}


SUBMODULES = ("dgp", "harness", "metrics", "models", "nn")


def test_package_init_binds_only_submodules_and_version():
    # every name is reached through the module that defines it, so the
    # package holds no second copy of the API
    tree = ast.parse(Path(deepcate.__file__).read_text(encoding="utf-8"))
    bound = []
    for node in tree.body[1:]:  # after the docstring
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            bound += [ast.unparse(target) for target in node.targets]
        else:
            bound.append(ast.unparse(node))
    assert sorted(bound) == sorted((*SUBMODULES, "__version__"))


def test_package_import_loads_exactly_its_five_submodules():
    # the whole program a sweep needs loads with the package, so a process
    # that imports deepcate before it starts work has paid for it; the
    # entry point and the analysis pipeline stay out
    src = str(Path(deepcate.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, deepcate\nprint(sorted(m for m in sys.modules if m.startswith('deepcate.')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == str(sorted(f"deepcate.{name}" for name in SUBMODULES))
