import ast
import contextlib
import io
import pathlib
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path: pathlib.Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            assert exc.code in (None, 0), f"{path.name} exited with {exc.code!r}"
    assert out.getvalue()


def test_readme_quick_tour():
    """Run the README's quick tour; a line ending in ``# value`` must give a result whose repr is value."""
    tour = (ROOT / "README.md").read_text().split("## Quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        rest = lines[stmt.end_lineno - 1][stmt.end_col_offset :].strip()
        if not isinstance(stmt, ast.Expr):
            assert not rest, f"line {stmt.end_lineno} states a value but is not an expression"
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        if rest:
            assert rest.startswith("#")
            assert repr(value) == rest[1:].strip(), f"line {stmt.end_lineno}"
            checked += 1
    assert checked == 5
