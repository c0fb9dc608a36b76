"""Print the size of the library: lines in src/ and settable parameters,
and lines in tests/ with the src+tests total, so that code moved between
the library and the tests shows as a move.

A settable parameter is a function parameter with a default value or a
dataclass field with a default value, counted over every module under
src/ with ``ast``.

    python3 scripts/code_size.py
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_parameters(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                for stmt in node.body
            )
    return count


def lines_under(directory: str) -> int:
    return sum(len(f.read_text().splitlines()) for f in (ROOT / directory).rglob("*.py"))


def main() -> None:
    src, tests = lines_under("src"), lines_under("tests")
    params = sum(settable_parameters(ast.parse(f.read_text())) for f in (ROOT / "src").rglob("*.py"))
    print(f"src lines            : {src}")
    print(f"settable parameters  : {params}")
    print(f"tests lines          : {tests}")
    print(f"src+tests lines      : {src + tests}")


if __name__ == "__main__":
    main()
