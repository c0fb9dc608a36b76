"""The scripts under ``scripts/`` import stringsheet by name.  A renamed or
moved name fails here, rather than when a script is next run."""
import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import golden

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


def test_golden_outputs_names_each_changed_pair(tmp_path, monkeypatch, capsys):
    # in-process, with every pair's pin made up: a pin that differs from the
    # file's and one the file lacks are "changed", the others "unchanged"
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    spec = importlib.util.spec_from_file_location("golden_outputs_script", SCRIPTS / "golden_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    pins = {f"{c} {n}": {"exit": 0, "sha256": f"{c} {n}"} for c in golden.COMMANDS for n in golden.SCENARIOS}
    old = dict(pins, **{"check ori_smooth": {"exit": 0, "sha256": "before"}})
    del old["speeds ori_global"]
    path = tmp_path / "golden_outputs.json"
    path.write_text(json.dumps(old))
    monkeypatch.setattr(golden, "GOLDEN_PATH", path)
    monkeypatch.setattr(golden, "run_pair", lambda command, name, out_dir: (0, "", "", pins[f"{command} {name}"]))
    script.main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(pins)
    assert [line for line in lines if not line.endswith(": exit 0, unchanged")] == [
        "check ori_smooth: exit 0, changed",
        "speeds ori_global: exit 0, changed",
    ]
    assert json.loads(path.read_text()) == pins
