"""CLI byte identity: each row of cli_golden.json is an argv with its exit code and the sha256 of its stdout.

The rows cover ``gw events`` and ``gw growth`` in every format, on dyadic,
non-dyadic, Poisson and geometric laws, plus their input errors. Law files
are written to a temporary directory; ``{law:NAME}`` in an argv stands for
the path of law NAME, which no output contains.

Re-record the table only when an output changes on purpose, and list each
changed row with its reason in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from arbor.cli import main

TABLE = Path(__file__).with_name("cli_golden.json")

LAWS = {
    "half": {"p": ["1/2", "1/2"]},
    "37": {"p": ["3/10", "7/10"]},
    "quarter": {"p": ["1/4", "1/4", "1/2"]},
    "binary": {"p": ["1/2", "0", "1/2"]},
    "third": {"p": ["1/3", "1/3", "1/3"]},
    "deathless": {"p": ["0", "1/2", "1/2"]},
    "ternary": {"p": ["0", "0", "0", "1"]},
    "poisson": {"family": "poisson", "lambda": 1.5},
    "geometric": {"family": "geometric", "ratio": "1/2"},
}

# (law, event, seed, trials)
EVENTS = [
    ("half", "path(2)", 1, 400),
    ("37", "path(3)", 2, 350),
    ("binary", "sary(2,1)", 3, 500),
    ("poisson", "sary(8,3)", 1, 20),
    ("quarter", "path(1)", 0, 300),
    ("quarter", "sary(2,2)", 2**32 + 5, 2000),
    ("third", "sary(1,2)", 7, 1000),
    ("geometric", "path(0)", 2**64 + 1, 50),
    ("poisson", "sary(2,2)", 11, 3000),
]
# (law, generation, seed, trials)
GROWTH = [
    ("deathless", 6, 1, 150),
    ("quarter", 4, 5, 300),
    ("poisson", 3, 9, 200),
    ("geometric", 5, 3, 200),
    ("half", 8, 4, 500),
    ("ternary", 4, 2, 40),
    ("deathless", 1, 0, 1),
]


def rows() -> list:
    out = []
    for fmt in ("json", "csv", "text"):
        for law, event, seed, trials in EVENTS:
            out.append(["gw", "events", "--input", f"{{law:{law}}}", "--seed", str(seed),
                        "--event", event, "--trials", str(trials), "--format", fmt])
        for law, gen, seed, trials in GROWTH:
            out.append(["gw", "growth", "--input", f"{{law:{law}}}", "--seed", str(seed),
                        "--generation", str(gen), "--trials", str(trials), "--format", fmt])
    # more trials than one batch of the sampler holds
    out.append(["gw", "events", "--input", "{law:half}", "--seed", "5", "--event", "path(2)", "--trials", "20000"])
    out.append(["gw", "growth", "--input", "{law:quarter}", "--seed", "6", "--generation", "3", "--trials", "17000"])
    # input errors
    out.append(["gw", "events", "--input", "{law:quarter}", "--seed", "-1", "--event", "path(1)", "--trials", "5"])
    out.append(["gw", "events", "--input", "{law:quarter}", "--seed", "1", "--event", "path(1)", "--trials", "0"])
    out.append(["gw", "events", "--input", "{law:quarter}", "--seed", "1", "--event", "path(x)"])
    out.append(["gw", "events", "--input", "{law:quarter}", "--event", "path(1)"])
    out.append(["gw", "growth", "--input", "{law:quarter}", "--seed", "1", "--generation", "0"])
    out.append(["gw", "growth", "--input", "{law:quarter}", "--seed", "1", "--generation", "2", "--format", "yaml"])
    return out


def write_laws(directory: Path) -> dict:
    paths = {}
    for name, doc in LAWS.items():
        path = directory / f"law_{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths[f"{{law:{name}}}"] = str(path)
    return paths


def run(argv: list, paths: dict) -> tuple:
    out = io.StringIO()
    code = main([paths.get(a, a) for a in argv], stdout=out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def load_table() -> list:
    return json.loads(TABLE.read_text(encoding="utf-8"))["rows"]


@pytest.fixture(scope="module")
def law_paths(tmp_path_factory):
    return write_laws(tmp_path_factory.mktemp("laws"))


def test_table_lists_every_row():
    assert [row["argv"] for row in load_table()] == rows()


# Without the table there are no rows here; test_table_lists_every_row fails instead.
@pytest.mark.parametrize("row", load_table() if TABLE.exists() else [], ids=lambda row: " ".join(row["argv"]))
def test_cli_output_matches_table(row, law_paths, capsys):
    assert run(row["argv"], law_paths) == (row["code"], row["sha256"])
    capsys.readouterr()  # argparse's usage errors go to stderr, which no row records


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_laws(Path(tmp))
        table = []
        for argv in rows():
            code, digest = run(argv, paths)
            table.append({"argv": argv, "code": code, "sha256": digest})
    TABLE.write_text(json.dumps({"rows": table}, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} rows in {TABLE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    record()
