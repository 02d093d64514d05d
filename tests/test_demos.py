import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
