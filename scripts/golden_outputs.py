"""Rewrite tests/golden_outputs.json: the exit code and output digest of
every shipped scenario under every command, as ``tests/golden.py`` takes
them (about 10 s).  Each pair is printed with its exit code and whether
its pin ``changed`` or stayed ``unchanged`` against the file replaced.

    python3 scripts/golden_outputs.py

Regenerate only when an output changes on purpose, and name each changed
pair and the reason with the change.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden  # noqa: E402


def main() -> None:
    path = golden.GOLDEN_PATH
    old = json.loads(path.read_text()) if path.exists() else {}
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in golden.SCENARIOS:
            for command in golden.COMMANDS:
                pins[f"{command} {name}"] = golden.run_pair(command, name, Path(tmp) / "out")[3]
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    for key, pin in sorted(pins.items()):
        print(f"{key}: exit {pin['exit']}, {'unchanged' if old.get(key) == pin else 'changed'}")


if __name__ == "__main__":
    main()
