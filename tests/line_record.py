"""A pytest plugin that fails the run when a line of the arbor package never runs.

Run the suite under it with ``PYTHONPATH=src:tests python -m pytest -p line_record``.
pytest loads it before any test module imports arbor, so it records every
line run in ``src/arbor``, module bodies and worker threads included. A
line that compiles to code and never ran must be in ``ALLOWED``, with the
reason the suite cannot run it; an entry for a line that ran fails too.
"""

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "arbor"
# (file, function, line text): why no test runs it
ALLOWED = {
    ("__main__.py", "<module>", "from .cli import main_entry"): "python -m arbor; CI's console-script step runs it",
    ("__main__.py", "<module>", "main_entry()"): "python -m arbor; CI's console-script step runs it",
    ("cli.py", "main_entry", "sys.exit(main())"): "the console script; CI's console-script step runs it",
    ("cli.py", "<module>", "main_entry()"): "cli.py run as a script",
    ("galton_watson.py", "_exp", "prec *= 2"): "no float found yet whose exp needs more than 40 digits to round",
    ("galton_watson.py", "extinction_probability", "return x"): "the million-step exit; ROADMAP item 3 removes it",
}
ran: set = set()


def _lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    return _lines if frame.f_code.co_filename.startswith(str(SRC)) else None


sys.settrace(_calls)
threading.settrace(_calls)


def _code_lines(code):
    """(function name, line) for each line of ``code`` and the code nested in it."""
    yield from ((code.co_name, line) for _, _, line in code.co_lines() if line)
    for const in code.co_consts:
        if isinstance(const, type(code)):
            yield from _code_lines(const)


def pytest_sessionfinish(session):
    sys.settrace(None)
    missed, allowed_ran = [], set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        for name, line in sorted(set(_code_lines(compile(source, str(path), "exec")))):
            key = (path.name, name, text[line - 1].strip())
            if (str(path), line) in ran:
                allowed_ran.add(key)
            elif key not in ALLOWED:
                missed.append(f"{path.name}:{line} ({name}): {key[2]}")
    stale = sorted(set(ALLOWED) & allowed_ran)
    if missed or stale:
        print("\nlines no test ran:", *missed, "allowed lines that ran:", *map(str, stale), sep="\n  ", file=sys.stderr)
        session.exitstatus = 1
