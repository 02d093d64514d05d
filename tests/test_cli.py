import csv
import io
import json

import pytest

from arbor import path_tree, serialize_tree
from arbor.cli import main


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), stdout=out)
    return code, out.getvalue()


def run_json(*argv):
    code, text = run(*argv)
    return code, json.loads(text)


@pytest.fixture
def tree_file(tmp_path):
    p = tmp_path / "p5.txt"
    p.write_text(serialize_tree(path_tree(5)))
    return str(p)


@pytest.fixture
def quarter_law(tmp_path):
    p = tmp_path / "law.json"
    p.write_text(json.dumps({"p": ["1/4", "1/4", "1/2"]}))
    return str(p)


@pytest.fixture
def doubling_law(tmp_path):
    p = tmp_path / "law2.json"
    p.write_text(json.dumps({"p": ["0", "0", "1"]}))
    return str(p)


def test_fixtures_list():
    code, doc = run_json("fixtures", "list")
    assert code == 0
    names = {e["name"] for e in doc["fixtures"]}
    assert "regular(d)" in names or any("regular" in n for n in names)

    code, text = run("fixtures", "list", "--format", "text")
    assert code == 0 and len(text.splitlines()) == len(doc["fixtures"])


def test_trim_file(tree_file):
    code, doc = run_json("trim", "--input", tree_file)
    assert code == 0
    assert doc["stages"] == [5, 3, 1]
    assert doc["status"] == "stabilized"

    code, text = run("trim", "--input", tree_file, "--format", "text")
    assert code == 0
    assert text.splitlines()[0] == "stages: 5 3 1"


def test_trim_fixture_periodicity():
    code, doc = run_json(
        "trim", "--fixture", "staircase_n(2)", "--radius", "6", "--steps", "6"
    )
    assert code == 0
    assert doc["periodic"] is True
    assert doc["period"] == 2
    assert len(doc["codes"]) == 7


def test_cheeger_file(tree_file):
    code, doc = run_json("cheeger", "--input", tree_file, "--max-size", "2")
    assert code == 0
    assert doc["value"] == "1/2"
    assert doc["argmin"]["size"] == 2
    assert doc["argmin"]["members"] == [0, 1]


def test_cheeger_fixture():
    code, doc = run_json(
        "cheeger", "--fixture", "regular(3)", "--radius", "4", "--max-size", "4"
    )
    assert code == 0
    # best size-4 subset is a claw: only its center avoids the boundary
    assert doc["value"] == "3/4"
    assert len(doc["argmin"]["members"]) == 4
    assert doc["scope"]["radius"] == 4


def test_cheeger_has_no_csv():
    code, doc = run_json(
        "cheeger", "--fixture", "regular(3)", "--radius", "3", "--format", "csv"
    )
    assert code == 2
    assert "error" in doc


def test_classify_exit_codes():
    code, doc = run_json("classify", "--fixture", "zline_pendant")
    assert code == 0
    assert doc["verdict"] == "amenable-witnessed"

    code, doc = run_json("classify", "--fixture", "regular(3)", "--radius", "6")
    assert code == 3
    assert doc["verdict"] == "inconclusive"

    code, doc = run_json(
        "classify", "--fixture", "regular(3)", "--radius", "6",
        "--declared-k", "0", "--declared-d", "1", "--declared-R", "1",
    )
    assert code == 0
    assert doc["verdict"] == "nonamenable-certified"
    assert doc["certificate"]["lower_bound"] == "1/2"

    code, doc = run_json(
        "classify", "--fixture", "zline_pendant",
        "--declared-k", "0", "--declared-d", "1", "--declared-R", "1",
    )
    assert code == 4
    assert doc["kind"] == "declared-bounds-refuted"
    assert "counterexample" in doc


def test_classify_text_table():
    code, text = run(
        "classify", "--fixture", "zline_pendant", "--format", "text", "--d-target", "3"
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "verdict: amenable-witnessed"
    assert lines[1] == "d  best_ratio  provenance"
    assert len(lines) == 5


def test_input_validation():
    code, doc = run_json("classify", "--declared-k", "1")
    assert code == 2  # neither --input nor --fixture

    code, doc = run_json(
        "classify", "--fixture", "zline_pendant", "--declared-k", "1"
    )
    assert code == 2  # partial declared trio
    assert doc["kind"] == "input"

    code, doc = run_json("cheeger", "--fixture", "nope(3)")
    assert code == 2

    code, doc = run_json("trim", "--input", "/does/not/exist.txt")
    assert code == 2

    assert main([], stdout=io.StringIO()) == 2  # argparse rejects no command


def test_gw_requires_law_file():
    code, doc = run_json("gw", "sample", "--seed", "1", "--depth", "2")
    assert code == 2
    assert "offspring-law" in doc["error"]


def test_gw_sample(doubling_law):
    code, doc = run_json(
        "gw", "sample", "--input", doubling_law, "--seed", "7", "--depth", "3"
    )
    assert code == 0
    assert doc["generation_sizes"] == [1, 2, 4, 8]
    assert doc["vertex_count"] == 15
    assert not doc["extinct"] and not doc["budget_hit"]
    assert "tree" in doc


def test_gw_events(quarter_law):
    args = (
        "gw", "events", "--input", quarter_law, "--seed", "3",
        "--event", "path(1)", "--trials", "400",
    )
    code, doc = run_json(*args)
    assert code == 0
    assert doc["exact"] == "1/16"
    assert doc["trials"] == 400

    code, text = run(*args, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "event"
    assert rows[1][1] == "400"


def test_gw_growth(quarter_law):
    code, doc = run_json(
        "gw", "growth", "--input", quarter_law, "--seed", "5",
        "--generation", "3", "--trials", "200",
    )
    assert code == 0
    assert doc["within_4se"] is True
    assert doc["target"] == pytest.approx(float(5) ** 3 / 4**3)


def test_gw_dichotomy_both_sides(quarter_law, tmp_path):
    args = (
        "gw", "dichotomy", "--input", quarter_law, "--seed", "5",
        "--d-list", "2", "--trials", "20",
    )
    code, doc = run_json(*args)
    assert code == 0
    assert doc["side"] == "amenable"
    assert doc["per_d"][0]["floor_ok"] is True

    code, text = run(*args, "--format", "csv")
    rows = list(csv.reader(io.StringIO(text)))
    assert len(rows) == 1 + 20

    ternary = tmp_path / "law3.json"
    ternary.write_text(json.dumps({"p": ["0", "0", "0", "1"]}))
    code, doc = run_json(
        "gw", "dichotomy", "--input", str(ternary), "--seed", "9",
        "--trials", "2", "--subsets", "10", "--truncate-depth", "3",
        "--subset-size", "5", "--cheeger-max-size", "4",
    )
    assert code == 0
    assert doc["side"] == "nonamenable"
    assert doc["check"]["bound_violations"] == 0


def test_gw_dichotomy_vertex_budget(quarter_law):
    args = ("gw", "dichotomy", "--input", quarter_law, "--seed", "5", "--d-list", "2", "--trials", "3")
    code, doc = run_json(*args)
    assert code == 0
    assert doc["params"]["max_vertices"] == 20000

    code, doc = run_json(*args, "--max-vertices", "0")
    assert code == 2
    assert doc["kind"] == "input"


def test_gw_dichotomy_bound_side_inputs(tmp_path):
    ternary = tmp_path / "law3.json"
    ternary.write_text(json.dumps({"p": ["0", "0", "0", "1"]}))
    args = ("gw", "dichotomy", "--input", str(ternary), "--seed", "9", "--trials", "2")
    for flag, name in (("--truncate-depth", "truncate_depth"), ("--subset-size", "subset_size"),
                       ("--subsets", "n_subsets")):
        code, doc = run_json(*args, flag, "0")
        assert code == 2, flag
        assert doc["kind"] == "input"
        assert name in doc["error"]


def test_json_outputs_are_reproducible(quarter_law):
    args = (
        "gw", "dichotomy", "--input", quarter_law, "--seed", "5",
        "--d-list", "2", "--trials", "10",
    )
    first = run(*args)
    second = run(*args)
    assert first == second

    a = run("classify", "--fixture", "staircase")
    b = run("classify", "--fixture", "staircase")
    assert a == b
