"""The README's library tour runs as written, and each expression it marks
``# True`` or ``# False`` evaluates to that value."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MARK = re.compile(r"#\s*(True|False)\b")


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    return re.search(r"^```python\n(.*?)^```", text, re.S | re.M).group(1)


def test_library_tour_runs_as_written():
    source = _tour()
    lines = source.splitlines()
    namespace: dict = {}
    marked = 0
    for node in ast.parse(source).body:
        mark = MARK.search(lines[node.end_lineno - 1])
        if not (mark and isinstance(node, ast.Expr)):
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        assert value is (mark.group(1) == "True"), ast.unparse(node)
        marked += 1
    assert marked == len(MARK.findall(source)) > 0
