"""The scripts under ``scripts/`` import stringsheet by name.  A renamed or
moved name fails here, rather than when a script is next run."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def package_imports(tree):
    """(module, name) of every ``from stringsheet... import name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stringsheet":
            for alias in node.names:
                yield node.module, alias.name


def test_scripts_import_only_names_the_package_has():
    imported, missing = set(), []
    for path in sorted(SCRIPTS.glob("*.py")):
        for module, name in package_imports(ast.parse(path.read_text())):
            imported.add(name)
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{path.name}: {module}.{name}")
    assert {"build_grid", "staged_solution"} <= imported
    assert not missing, missing


def test_code_size_prints_its_four_labelled_counts():
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_size.py")], capture_output=True, text=True, check=True
    ).stdout
    pairs = [line.split(":") for line in out.splitlines()]
    labels = [label.strip() for label, _ in pairs]
    assert labels == ["src lines", "settable parameters", "tests lines", "src+tests lines"]
    src, params, tests, total = (int(value) for _, value in pairs)
    assert min(src, params, tests) > 0
    assert total == src + tests
