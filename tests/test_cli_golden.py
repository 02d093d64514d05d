"""CLI byte identity: each row of cli_golden.json is an argv with its exit code and the sha256 of its stdout.

The rows cover every command in each format it has: ``gw events``,
``gw growth``, ``gw sample`` and ``gw dichotomy`` on dyadic, non-dyadic,
Poisson and geometric laws; ``trim``, ``cheeger`` and ``classify`` on every
fixture and on tree files, with budget hits at several ``--max-vertices``,
declared bounds both certified and refuted, and rejected inputs; and
``fixtures list``. Law and tree files are written to a temporary directory
that the rows run in; ``{law:NAME}`` and ``{tree:NAME}`` in an argv stand for
the file name of law or tree NAME.

Re-record the table only when an output changes on purpose, and list each
changed row with its reason in CHANGES.md:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import arbor
import brute
from arbor import Tree, path_tree, sary_tree, serialize_child_list
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


def _random_tree(seed: int, n: int, root: int | None = None) -> Tree:
    return Tree.from_edges(brute.random_tree_edges(random.Random(seed), n), root=root)


# name -> (tree, file format); random trees come from fixed seeds
TREES = {
    "path9": (Tree(path_tree(9).adjacency, root=4), "edges"),
    "star6": (brute.star_tree(6), "edges"),
    "binary3": (sary_tree(2, 3), "children"),
    "rand12": (_random_tree(12, 12), "edges"),
    "rand30": (_random_tree(30, 30), "edges"),
    "rand60": (_random_tree(60, 60, root=7), "children"),
    "rand140": (_random_tree(140, 140, root=11), "edges"),  # the classify workload's largest tree size
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
FIXTURES = [
    "regular(3)", "regular(4)", "sary(2)", "sary(3)", "staircase", "staircase_n(2)",
    "staircase_n(3)", "threereg_plus_ray", "zline_pendant",
]
TRIM_SHAPES = [("2", "5"), ("4", "3")]  # (--radius, --steps)
BUDGETS = [None, "50", "100", "400", "2000"]  # --max-vertices; None keeps the default
# (law, seed, depth, extra flags)
SAMPLES = [
    ("half", 1, 6, []),
    ("quarter", 2, 5, ["--trial", "3"]),
    ("poisson", 4, 4, []),
    ("deathless", 3, 4, ["--max-vertices", "10"]),
    ("ternary", 5, 3, []),
    # generations past 32 and past 128 vertices, under a law that fixes every count and one that draws them
    ("ternary", 5, 5, []),
    ("deathless", 2, 14, []),
    # a seed of three 32-bit words, and a trial id of two
    ("deathless", 18446744073709551621, 9, []),
    ("deathless", 2, 9, ["--trial", "4294967299"]),
    # budgets that cut a generation drawn from more than 32 vertices
    ("ternary", 5, 5, ["--max-vertices", "100"]),
    ("deathless", 7, 14, ["--max-vertices", "800"]),
]


def _gw_rows() -> list:
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

    for fmt in ("json", "text"):
        for law, seed, depth, extra in SAMPLES:
            out.append(["gw", "sample", "--input", f"{{law:{law}}}", "--seed", str(seed),
                        "--depth", str(depth), *extra, "--format", fmt])
    for fmt in ("json", "csv", "text"):
        out.append(["gw", "dichotomy", "--input", "{law:half}", "--seed", "3", "--trials", "3",
                    "--d-list", "2,3", "--format", fmt])
        out.append(["gw", "dichotomy", "--input", "{law:ternary}", "--seed", "2", "--trials", "2",
                    "--subsets", "12", "--subset-size", "4", "--cheeger-max-size", "3",
                    "--truncate-depth", "3", "--format", fmt])
    # the gw-deep mix; at --max-vertices 200, d=3 mixes trials cut at generations 10-12 with full-depth ones
    for fmt in ("json", "csv"):
        for cap in ([], ["--max-vertices", "200"]):
            out.append(["gw", "dichotomy", "--input", "{law:quarter}", "--seed", "3", "--trials", "12",
                        "--d-list", "3,5", *cap, "--format", fmt])
            out.append(["gw", "dichotomy", "--input", "{law:poisson}", "--seed", "3", "--trials", "12",
                        "--d-list", "3", *cap, "--format", fmt])
    out.append(["gw", "sample", "--input", "{law:half}", "--seed", "1", "--depth", "-1"])
    out.append(["gw", "sample", "--input", "{law:half}", "--depth", "3"])
    out.append(["gw", "dichotomy", "--input", "{law:half}", "--seed", "1", "--trials", "0"])
    return out


def _trim_rows() -> list:
    out = []
    for fixture in FIXTURES:
        for radius, steps in TRIM_SHAPES:
            for budget in BUDGETS:
                cap = [] if budget is None else ["--max-vertices", budget]
                out.append(["trim", "--fixture", fixture, "--radius", radius, "--steps", steps, *cap])
        out.append(["trim", "--fixture", fixture, "--radius", "3", "--steps", "4", "--format", "text"])
    for budget in BUDGETS:
        cap = [] if budget is None else ["--max-vertices", budget]
        out.append(["trim", "--fixture", "regular(3)", "--radius", "4", "--steps", "6", *cap])
    # budgets that trip whichever way the survival queries are answered
    out.append(["trim", "--fixture", "regular(3)", "--radius", "2", "--steps", "9", "--max-vertices", "200"])
    out.append(["trim", "--fixture", "regular(3)", "--radius", "8", "--max-vertices", "500"])
    out.append(["trim", "--fixture", "zline_pendant"])
    out.append(["trim", "--fixture", "staircase"])
    for name in TREES:
        for fmt in ("json", "text"):
            out.append(["trim", "--input", f"{{tree:{name}}}", "--format", fmt])
        out.append(["trim", "--input", f"{{tree:{name}}}", "--steps", "1"])
        out.append(["trim", "--input", f"{{tree:{name}}}", "--steps", "2"])
    # input errors
    out.append(["trim", "--fixture", "regular(3)", "--radius", "-1"])
    out.append(["trim", "--fixture", "regular(3)", "--steps", "-1"])
    out.append(["trim", "--fixture", "nosuch"])
    out.append(["trim", "--fixture", "regular(x)"])
    out.append(["trim", "--fixture", "zline_pendant", "--input", "{tree:path9}"])
    out.append(["trim"])
    out.append(["trim", "--input", "{tree:path9}", "--steps", "0"])
    out.append(["trim", "--input", "missing.txt"])
    out.append(["trim", "--fixture", "staircase", "--format", "csv"])
    return out


def _cheeger_rows() -> list:
    out = []
    for fixture in FIXTURES:
        out.append(["cheeger", "--fixture", fixture, "--radius", "4", "--max-size", "5"])
    out.append(["cheeger", "--fixture", "staircase", "--radius", "5", "--max-size", "5", "--format", "text"])
    out.append(["cheeger", "--fixture", "zline_pendant", "--radius", "6", "--max-size", "6", "--format", "text"])
    out.append(["cheeger", "--fixture", "sary(2)", "--radius", "4"])
    for name in TREES:
        out.append(["cheeger", "--input", f"{{tree:{name}}}", "--max-size", "4"])
        out.append(["cheeger", "--input", f"{{tree:{name}}}", "--max-size", "4", "--format", "text"])
    out.append(["cheeger", "--input", "{tree:rand12}"])
    # larger subsets, many tied optima (226 and 52), one optimum on the staircase
    out.append(["cheeger", "--fixture", "regular(3)", "--radius", "7", "--max-size", "10"])
    out.append(["cheeger", "--fixture", "regular(4)", "--radius", "5", "--max-size", "9"])
    out.append(["cheeger", "--fixture", "staircase_n(2)", "--radius", "12", "--max-size", "9"])
    # the default --max-size is the vertex count: past 10^7 subsets, the work budget trips
    out.append(["cheeger", "--input", "{tree:rand60}"])
    out.append(["cheeger", "--fixture", "regular(3)", "--radius", "10", "--max-vertices", "100"])
    out.append(["cheeger", "--fixture", "regular(3)", "--radius", "-1"])
    return out


def _classify_rows() -> list:
    out = []
    for fixture in FIXTURES:
        out.append(["classify", "--fixture", fixture, "--radius", "5"])
    out.append(["classify", "--fixture", "zline_pendant", "--d-target", "8"])
    out.append(["classify", "--fixture", "zline_pendant", "--d-target", "8", "--format", "text"])
    out.append(["classify", "--fixture", "zline_pendant", "--k-max", "3", "--path-target", "6", "--d-target", "3"])
    out.append(["classify", "--fixture", "staircase", "--radius", "8", "--d-target", "6"])
    out.append(["classify", "--fixture", "staircase_n(2)", "--radius", "8", "--d-target", "4", "--format", "text"])
    out.append(["classify", "--fixture", "regular(3)", "--radius", "5", "--format", "text"])
    out.append(["classify", "--fixture", "regular(4)", "--radius", "4"])
    # declared bounds: certified, then refuted
    out.append(["classify", "--fixture", "regular(3)", "--declared-k", "0", "--declared-d", "1", "--declared-R", "1"])
    out.append(["classify", "--fixture", "regular(3)", "--radius", "5", "--declared-k", "0", "--declared-d", "1",
                "--declared-R", "1", "--format", "text"])
    out.append(["classify", "--fixture", "threereg_plus_ray", "--radius", "5", "--declared-k", "0",
                "--declared-d", "2", "--declared-R", "1"])
    out.append(["classify", "--fixture", "zline_pendant", "--declared-k", "0", "--declared-d", "1", "--declared-R", "1"])
    out.append(["classify", "--fixture", "staircase", "--radius", "6", "--declared-k", "1", "--declared-d", "3",
                "--declared-R", "4"])
    out.append(["classify", "--input", "{tree:rand30}", "--declared-k", "9", "--declared-d", "30", "--declared-R", "30"])
    # refuted by R alone: k and d hold, and an inessential subtree is larger than R
    for fmt in ("json", "text"):
        out.append(["classify", "--fixture", "staircase", "--radius", "6", "--declared-k", "9", "--declared-d", "30",
                    "--declared-R", "4", "--format", fmt])
    out.append(["classify", "--input", "{tree:rand12}", "--declared-k", "9", "--declared-d", "30", "--declared-R", "3"])
    for name in TREES:
        out.append(["classify", "--input", f"{{tree:{name}}}"])
        out.append(["classify", "--input", f"{{tree:{name}}}", "--d-target", "3", "--format", "text"])
    out.append(["classify", "--fixture", "regular(3)", "--radius", "12", "--max-vertices", "100"])
    # the classify workload's scale; staircase at radius 40 has many witnesses of equal ratio
    out.append(["classify", "--fixture", "staircase", "--radius", "25", "--d-target", "23"])
    out.append(["classify", "--fixture", "staircase", "--radius", "40", "--d-target", "10"])
    out.append(["classify", "--fixture", "staircase_n(2)", "--radius", "16", "--d-target", "10"])
    out.append(["classify", "--input", "{tree:rand140}", "--format", "text"])
    # input errors
    out.append(["classify", "--fixture", "regular(3)", "--declared-k", "1"])
    out.append(["classify", "--fixture", "regular(3)", "--format", "csv"])
    # thresholds below 1
    out.append(["classify", "--fixture", "staircase", "--d-target", "0"])
    out.append(["classify", "--fixture", "staircase", "--d-target", "-3"])
    out.append(["classify", "--fixture", "staircase", "--k-max", "-1"])
    out.append(["classify", "--fixture", "staircase", "--path-target", "0"])
    out.append(["classify", "--input", "{tree:path9}", "--d-target", "0"])
    return out


def rows() -> list:
    out = _gw_rows() + _trim_rows() + _cheeger_rows() + _classify_rows()
    for fmt in ("json", "text"):
        out.append(["fixtures", "list", "--format", fmt])
    # a budget must hold at least one vertex
    for budget in ("0", "-5"):
        out.append(["trim", "--fixture", "regular(3)", "--radius", "2", "--steps", "3", "--max-vertices", budget])
        out.append(["cheeger", "--fixture", "regular(3)", "--radius", "2", "--max-vertices", budget])
        out.append(["classify", "--fixture", "zline_pendant", "--max-vertices", budget])
        out.append(["classify", "--input", "{tree:path9}", "--max-vertices", budget])
        out.append(["trim", "--input", "{tree:path9}", "--max-vertices", budget])
        out.append(["cheeger", "--input", "{tree:path9}", "--max-vertices", budget])
        out.append(["gw", "sample", "--input", "{law:half}", "--seed", "1", "--depth", "3", "--max-vertices", budget])
    return out


def write_inputs(directory: Path) -> dict:
    """Write every law and tree file into directory; map each placeholder to its file name there."""
    names = {}
    for name, doc in LAWS.items():
        names[f"{{law:{name}}}"] = f"law_{name}.json"
        (directory / names[f"{{law:{name}}}"]).write_text(json.dumps(doc), encoding="utf-8")
    for name, (tree, form) in TREES.items():
        if form == "children":
            names[f"{{tree:{name}}}"] = f"tree_{name}.json"
            text = json.dumps(serialize_child_list(tree))
        else:
            names[f"{{tree:{name}}}"] = f"tree_{name}.txt"
            text = brute.serialize_tree(tree)
        (directory / names[f"{{tree:{name}}}"]).write_text(text, encoding="utf-8")
    return names


def run(argv: list, names: dict) -> tuple:
    out = io.StringIO()
    code = main([names.get(a, a) for a in argv], stdout=out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


def load_table() -> list:
    return json.loads(TABLE.read_text(encoding="utf-8"))["rows"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    return directory, write_inputs(directory)


def test_table_lists_every_row():
    assert [row["argv"] for row in load_table()] == rows()


# Without the table there are no rows here; test_table_lists_every_row fails instead.
@pytest.mark.parametrize("row", load_table() if TABLE.exists() else [], ids=lambda row: " ".join(row["argv"]))
def test_cli_output_matches_table(row, inputs, capsys, monkeypatch):
    directory, names = inputs
    monkeypatch.chdir(directory)  # tree outputs name their input file
    assert run(row["argv"], names) == (row["code"], row["sha256"])
    capsys.readouterr()  # argparse's usage errors go to stderr, which no row records


# Run in a fresh interpreter: argv[1] is a JSON list of CLI argvs, the last a gw command.
LAZY_PROBE = """
import hashlib, io, json, sys
import arbor, arbor.cli
*before, gw = json.loads(sys.argv[1])
codes = [arbor.cli.main(argv, stdout=io.StringIO()) for argv in before]
unlisted = sorted({*arbor.__all__, "galton_watson"} - set(dir(arbor)))  # dir() lists the layer's names unloaded
loaded = [name for name in ("numpy", "arbor.galton_watson") if name in sys.modules]
unbound = sorted(set(arbor.__all__) - set(vars(arbor)))
spec = arbor.GWSpec  # binds all of the layer's names, so later reads skip the module __getattr__
lazy = unbound == sorted(arbor.galton_watson.__all__) and set(unbound) <= set(vars(arbor))
from arbor import verify_dichotomy
same = spec is arbor.galton_watson.GWSpec and verify_dichotomy is arbor.galton_watson.verify_dichotomy
out = io.StringIO()
codes.append(arbor.cli.main(gw, stdout=out))
print(json.dumps({"codes": codes, "unlisted": unlisted, "loaded": loaded, "lazy": lazy, "same": same,
                  "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}))
"""


def test_gw_layer_and_numpy_load_on_first_use(inputs):
    # classify, trim, cheeger, fixtures and dir(arbor) never import them; the first read of a GW name does
    directory, names = inputs
    row = next(row for row in load_table() if row["argv"][:2] == ["gw", "sample"])
    argvs = [
        ["classify", "--fixture", "staircase", "--radius", "8", "--d-target", "6"],
        ["trim", "--fixture", "staircase"],
        ["cheeger", "--fixture", "sary(2)", "--radius", "4"],
        ["fixtures", "list"],
        [names.get(a, a) for a in row["argv"]],
    ]
    src = str(Path(arbor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE, json.dumps(argvs)], cwd=directory, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(proc.stdout) == {
        "codes": [0, 0, 0, 0, row["code"]], "unlisted": [], "loaded": [], "lazy": True, "same": True, "sha256": row["sha256"],
    }


def record() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        names = write_inputs(Path(tmp))
        here = os.getcwd()
        os.chdir(tmp)
        try:
            table = []
            for argv in rows():
                code, digest = run(argv, names)
                table.append({"argv": argv, "code": code, "sha256": digest})
        finally:
            os.chdir(here)
    TABLE.write_text(json.dumps({"rows": table}, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(table)} rows in {TABLE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_cli_golden.py --record")
    record()
