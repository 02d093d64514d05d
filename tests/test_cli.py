import contextlib
import csv
import io
import json
import math
import random
import sys
import time
from collections import OrderedDict, defaultdict, namedtuple
from enum import IntEnum
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from arbor import (
    ClassifyBudgets,
    DeclaredBounds,
    FolnerCandidate,
    GWSpec,
    TreeAsOracle,
    cheeger_exact,
    classify,
    event_sary_prob,
    explore_ball,
    jsonable,
    make_fixture,
    parse_tree,
    path_tree,
    sary_tree,
)
from arbor.cli import _classify_lines, _render, main
from arbor.galton_watson import _fraction_str
from brute import serialize_tree


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


def test_trim_fixture_rejects_negative_radius_and_steps():
    for flag, value in (("--radius", "-1"), ("--steps", "-2")):
        code, doc = run_json("trim", "--fixture", "staircase", flag, value)
        assert code == 2, flag
        assert doc["kind"] == "input"
        assert "nonnegative" in doc["error"]


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


def test_csv_only_for_table_commands(capsys):
    # Commands without a table reject csv while parsing, before any work.
    for argv in (
        ("cheeger", "--fixture", "regular(3)", "--radius", "3"),
        ("classify", "--fixture", "zline_pendant"),
        ("trim", "--fixture", "staircase"),
        ("gw", "sample", "--input", "law.json", "--seed", "1", "--depth", "2"),
        ("fixtures", "list"),
    ):
        code, text = run(*argv, "--format", "csv")
        assert code == 2, argv
        assert text == "", argv
        assert "invalid choice: 'csv'" in capsys.readouterr().err, argv


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


def _per_d_lines(report, d_target):
    """The text table's rows with the least eligible witness sought afresh at every d."""
    rows = []
    for d in range(1, d_target + 1):
        eligible = [w for w in report.witnesses if w.ratio <= Fraction(1, d)]
        if eligible:
            best = min(eligible, key=lambda w: (w.ratio, w.size))
            rows.append(f"{d}  {best.ratio}  {best.provenance}")
        else:
            rows.append(f"{d}  -  -")
    return rows


def _tied_report():
    """Witnesses tied on (ratio, size) whose provenances differ, behind a larger one of the same ratio."""
    def candidate(size, boundary, provenance):
        return FolnerCandidate(frozenset(range(size)), frozenset(range(boundary)), provenance)

    witnesses = [candidate(8, 2, "larger"), candidate(12, 5, "worse"), candidate(4, 1, "first"), candidate(4, 1, "second")]
    return SimpleNamespace(verdict="amenable-witnessed", certificate=None, witnesses=witnesses)


@pytest.mark.parametrize(
    "make_report",
    [
        lambda: classify(make_fixture("staircase"), ClassifyBudgets(radius=25, max_vertices=30000)),  # least ratio 1/300
        lambda: classify(make_fixture("zline_pendant"), ClassifyBudgets(radius=10, max_vertices=30000)),
        lambda: classify(make_fixture("regular(3)"), ClassifyBudgets(radius=4, max_vertices=30000)),  # no witness
        lambda: classify(
            make_fixture("regular(3)"), ClassifyBudgets(radius=4, max_vertices=30000), declared=DeclaredBounds(0, 1, 1)
        ),
        _tied_report,
    ],
    ids=["staircase", "zline_pendant", "regular3", "regular3-certified", "ties"],
)
def test_classify_text_lines_match_the_per_d_reference(make_report):
    report = make_report()
    d_target = 400
    lines = _classify_lines(report, d_target)
    assert lines[-d_target - 1] == "d  best_ratio  provenance"
    assert lines[-d_target:] == _per_d_lines(report, d_target)


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


@pytest.mark.parametrize(
    "name, text, error",
    [
        ("root.txt", "root 0 1\n0 1\n", "line 1: malformed root line"),
        ("negative.txt", "0 1\n1 -2\n", "line 2: negative vertex id"),
        ("lone.json", '{"root": 1, "children": {}}', "a one-vertex tree must use id 0"),
    ],
)
def test_malformed_tree_files_are_input_errors(tmp_path, name: str, text: str, error: str):
    path = tmp_path / name
    path.write_text(text)
    for command in ("trim", "cheeger", "classify"):
        code, doc = run_json(command, "--input", str(path))
        assert code == 2, command
        assert doc["kind"] == "input"
        assert error in doc["error"]


def test_gw_negative_seed_is_an_input_error(quarter_law):
    code, doc = run_json(
        "gw", "events", "--input", quarter_law, "--seed", "-1", "--event", "path(1)", "--trials", "5"
    )
    assert code == 2
    assert doc["kind"] == "input"
    assert "non-negative" in doc["error"]


def test_main_reuses_one_parser(quarter_law, capsys):
    from arbor.cli import build_parser

    events = ("gw", "events", "--input", quarter_law, "--event", "path(1)")
    cases = [
        (events, 2),  # no --seed: argparse exits 2
        (("--version",), 0),
        ((*events, "--seed", "1", "--format", "yaml"), 2),
        ((*events, "--seed", "3", "--trials", "50"), 0),
    ]
    seen = {}
    for _ in range(3):
        for argv, code in cases:
            result = run(*argv)
            streams = capsys.readouterr()
            assert result[0] == code, argv
            # stdout given to main, then the process's stdout (--version) and stderr (usage errors)
            assert seen.setdefault(argv, (result, streams.out, streams.err)) == (result, streams.out, streams.err)
    assert seen[cases[1][0]][1].startswith("arbor ")
    assert "required: --seed" in seen[cases[0][0]][2]
    assert json.loads(seen[cases[3][0]][0][1])["trials"] == 50
    assert build_parser() is build_parser()


def test_gw_requires_law_file():
    code, doc = run_json("gw", "sample", "--seed", "1", "--depth", "2")
    assert code == 2
    assert "offspring-law" in doc["error"]


def test_gw_poisson_law_past_float_range_is_an_input_error(tmp_path):
    law = tmp_path / "poisson100.json"
    law.write_text(json.dumps({"family": "poisson", "lambda": 100}))
    code, doc = run_json("gw", "sample", "--input", str(law), "--seed", "1", "--depth", "2")
    assert code == 2
    assert doc == {"error": "lambda too large to truncate sensibly", "kind": "input"}


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


@contextlib.contextmanager
def no_int_digit_limit():
    """Lift the int/str digit limit for parsing; interpreters before 3.10.7 have none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    if get is None:
        yield
        return
    old = get()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_gw_events_exact_past_int_digit_limit(tmp_path):
    law = tmp_path / "poisson.json"
    law.write_text(json.dumps({"family": "poisson", "lambda": 1.5}))
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    args = ("gw", "events", "--input", str(law), "--seed", "1", "--event", "sary(8,3)", "--trials", "20")
    code, doc = run_json(*args)
    assert code == 0
    assert len(doc["exact"]) > 4300
    with no_int_digit_limit():
        assert Fraction(doc["exact"]) == event_sary_prob(GWSpec.from_json(json.loads(law.read_text())), 8, 3)
    code, text = run(*args, "--format", "csv")
    assert code == 0 and list(csv.reader(io.StringIO(text)))[1][5] == doc["exact"]
    code, text = run(*args, "--format", "text")
    assert code == 0 and text.splitlines()[1].startswith(f"exact: {doc['exact']} = ")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_fraction_str_matches_str():
    rng = random.Random(7)
    cases = [Fraction(0), Fraction(1, 16), Fraction(-3, 7), Fraction(2**128), Fraction(2**129 - 1, 3**90), Fraction(-(10**200))]
    for bits in (1, 127, 128, 129, 1000, 332_193):  # 332_193 bits is about 10^5 decimal digits
        num, den = rng.getrandbits(bits), rng.getrandbits(bits) | 1
        cases += [Fraction(num), Fraction(num, den), Fraction(-num, den)]
    with no_int_digit_limit():
        for q in cases:
            assert _fraction_str(q) == str(q)


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


@pytest.mark.parametrize(
    "law, d_list",
    [({"family": "poisson", "lambda": 1.5}, ("--d-list", "4,5")), ({"family": "poisson", "lambda": 1.2}, ())],
)
def test_gw_dichotomy_poisson_floors_are_quick(tmp_path, law, d_list):
    # Exact powers p(s)^(s^i) of every s would take minutes on these laws,
    # so the floors must come from the pruned max. Few trials keep the
    # bound about the floors rather than the sampling.
    path = tmp_path / "poisson.json"
    path.write_text(json.dumps(law))
    start = time.perf_counter()
    code, doc = run_json("gw", "dichotomy", "--input", str(path), "--seed", "3", "--trials", "20", *d_list)
    assert time.perf_counter() - start < 2
    assert code == 0
    assert doc["side"] == "amenable"
    assert all(0 < e["collapse_event_prob"] < 0.01 for e in doc["per_d"])


def test_gw_dichotomy_vertex_budget(quarter_law):
    args = ("gw", "dichotomy", "--input", quarter_law, "--seed", "5", "--d-list", "2", "--trials", "3")
    code, doc = run_json(*args)
    assert code == 0
    assert doc["params"]["max_vertices"] == 20000

    code, doc = run_json(*args, "--max-vertices", "0")
    assert code == 2
    assert doc["kind"] == "input"


def test_gw_dichotomy_bound_side_vertex_budget(doubling_law):
    # the doubling law's depth-4 tree has 31 vertices
    args = ("gw", "dichotomy", "--input", doubling_law, "--seed", "1", "--trials", "1", "--subsets", "10")
    code, doc = run_json(*args, "--max-vertices", "31")
    assert code == 0
    assert doc["check"]["subsets_checked"] == 10
    code, text = run(*args, "--max-vertices", "10")
    assert code == 3
    assert json.loads(text) == {"error": "trial 0's tree to depth 4 needs more than 10 vertices", "kind": "budget"}
    assert run(*args, "--max-vertices", "30")[0] == 3


def test_gw_input_help_names_an_offspring_law(capsys):
    assert run("gw", "dichotomy", "--help") == (0, "")  # argparse prints help to sys.stdout
    text = " ".join(capsys.readouterr().out.split())
    assert "--input INPUT path to an offspring-law JSON file: a 'p' list or a 'family'" in text
    assert "tree file" not in text


def test_gw_dichotomy_rejects_bad_d_list(quarter_law):
    for d_list in ("0", ",", "2,-1"):
        code, doc = run_json(
            "gw", "dichotomy", "--input", quarter_law, "--seed", "5", "--d-list", d_list, "--trials", "3"
        )
        assert code == 2, d_list
        assert doc["kind"] == "input"
        assert "d_list" in doc["error"]


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


# Handles of mixed shapes, so a set of them falls back to sorted_handles' repr order.
_handles = st.one_of(
    st.integers(-50, 50),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.tuples(st.sampled_from("ptz"), st.integers(-5, 5)),
    st.text(max_size=3),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    st.floats(),  # NaN, both infinities and -0.0 among them
    st.text(),
    st.text(alphabet='"\\\x00\x1f\x7f\n\t/\u00e9\u2713\U0001d11e', max_size=8),
    st.fractions(),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.float64, st.floats()),
    st.builds(np.bool_, st.booleans()),
)
_keys = st.one_of(st.text(max_size=4), st.integers(-20, 20), st.sampled_from([1, "1", 2, 10, "10", 1.5, True]))
_documents = st.recursive(
    st.one_of(
        _scalars,
        st.frozensets(_handles, max_size=6),
        st.sets(_handles, max_size=6),
        st.frozensets(st.integers(-50, 50), max_size=6),  # sorted by value, where repr would put 10 before 9
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(_keys, inner, max_size=5),
        # lists of handle-like lists, with bools, empty items and scalars mixed in
        st.lists(st.one_of(_handles, st.lists(st.one_of(st.integers(), st.text(max_size=2), st.booleans()))), max_size=5),
    ),
    max_leaves=25,
)


# Subclasses of the types documents are made of, which _render hands to jsonable.
_Pair = namedtuple("_Pair", "first second")


class _Level(IntEnum):
    LOW = 1
    HIGH = 10


class _Name(str):
    pass


class _Renamed(str):
    def __str__(self):
        return "zz"


_subclassed = st.one_of(
    st.builds(_Pair, _documents, _documents),
    st.dictionaries(_keys, _documents, max_size=3).map(OrderedDict),
    st.dictionaries(_keys, _documents, max_size=3).map(lambda d: defaultdict(list, d)),
    st.sampled_from(list(_Level)),
    st.text(max_size=4).map(_Name),
)


# One handle object, which a document may list at more than one indentation.
_HANDLE = (3, "z")


def _nested(depth: int):
    doc = [Fraction(1, 3)]
    for i in range(depth):
        doc = {i: (doc, frozenset()), "": []} if i % 2 else [doc, ()]
    return doc


@given(_documents | _subclassed | st.lists(_subclassed, max_size=4))
@example({2: "a", 10: "b"})
@example({1: "int", "1": "str"})
@example({"1": "str", 1: "int"})
@example([True, 1, False, 0])
@example([[1, True], (0, "z"), [], ()])
@example(frozenset({3, ("z", 1), "a", (0, 0)}))
@example({10, 9, -1})
@example([math.nan, math.inf, -math.inf, -0.0])
@example(_nested(40))
@example(_Pair(Fraction(1, 3), frozenset({(1, "z"), 2})))
@example(OrderedDict([(10, _Pair((), [])), (2, "b"), ("1", None)]))
@example(defaultdict(list, {_Level.HIGH: [_Level.LOW], 1: {"k": _Name("v")}}))
@example([_Level.LOW, _Name("a\"b"), {_Name("key"): _Level.HIGH}])
@example({"a": [_HANDLE, _HANDLE], "b": {"c": [_HANDLE, [0, "z"]]}})
@example([(1, 0), (True, 0), [1, 0], (1, 0)])  # equal and hashing alike, but written differently
@example([_Pair((i, 0), [i, 1]) for i in range(8)])  # each _Pair's jsonable lists are dropped before the next
@example([{"a": 1, "b": 2}, {_Renamed("a"): 1, "b": 2}])  # equal key tuples, but jsonable writes the subclass "zz"
@example([{"b": 1, "a": [2]}, {"a": {"b": 3, "a": 4}, "b": 5}])  # one key tuple in two insertion orders
@example([[-1, 0, 10**30, -(10**30), -1], (7, 2**63, -(2**64)), {"n": -5, "big": 10**40}])
@example({"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0, "x": 1e-7, "y": 1e16})
def test_render_matches_json_dumps_of_jsonable(doc):
    assert _render(doc) == json.dumps(jsonable(doc), sort_keys=True, indent=2)


def test_render_keeps_no_handle_text_between_calls():
    handle = [0, "z"]
    shared = (1, 2)
    # an int past the small-int cache and a key built at run time, so a memo kept after the call would hold them
    big, key = 10**30 + 1, "".join(["ke", "y"])
    first = {"members": [handle, shared], key: [big, -1], "sizes": {key: big}}
    held = [sys.getrefcount(x) for x in (handle, shared, big, key)]
    assert _render(first) == json.dumps(jsonable(first), sort_keys=True, indent=2)
    assert [sys.getrefcount(x) for x in (handle, shared, big, key)] == held
    handle[0] = 5
    second = {"members": [shared, handle], "inner": {"members": [handle, shared]}, key: [big], "sizes": {key: -1}}
    for doc in (second, first):
        assert _render(doc) == json.dumps(jsonable(doc), sort_keys=True, indent=2)


def test_render_of_a_staircase_classify_document_is_json_dumps():
    code, text = run("classify", "--fixture", "staircase", "--radius", "25", "--d-target", "23")
    assert code == 0
    doc = _library_classify(make_fixture("staircase"), {"fixture": "staircase"}, 25, 23)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _library_classify(oracle, source, radius=10, d_target=10, declared=None):
    """The document ``arbor classify`` prints, built from the library's report."""
    report = classify(oracle, ClassifyBudgets(radius=radius, max_vertices=30000), declared=declared, d_target=d_target)
    return {"command": "classify", **source, **report.to_json()}


@pytest.mark.parametrize(
    "fixture, radius, d_target, declared",
    [
        ("staircase", 12, 10, None),
        ("zline_pendant", 10, 12, None),
        ("regular(3)", 6, 10, DeclaredBounds(0, 1, 1)),
    ],
)
def test_classify_cli_document_is_the_library_report(fixture, radius, d_target, declared):
    argv = ["classify", "--fixture", fixture, "--radius", str(radius), "--d-target", str(d_target)]
    if declared is not None:
        argv += ["--declared-k", str(declared.k), "--declared-d", str(declared.d), "--declared-R", str(declared.R)]
    code, doc = run_json(*argv)
    assert code == 0
    assert doc == _library_classify(make_fixture(fixture), {"fixture": fixture}, radius, d_target, declared)


def test_classify_cli_document_is_the_library_report_on_a_tree_file(tmp_path):
    path = tmp_path / "binary4.txt"
    path.write_text(serialize_tree(sary_tree(2, 4)))
    code, doc = run_json("classify", "--input", str(path))
    assert code == 0
    tree = parse_tree(path.read_text())
    assert doc == _library_classify(TreeAsOracle(tree), {"input": str(path)})
    assert doc["witnesses"]


def test_cheeger_cli_scope_is_the_library_scope():
    code, doc = run_json("cheeger", "--fixture", "regular(3)", "--radius", "4", "--max-size", "5")
    assert code == 0
    host = explore_ball(make_fixture("regular(3)"), 4, max_vertices=30000)
    result = cheeger_exact(host, 5)
    assert doc["scope"] == {**jsonable(result.scope), "fixture": "regular(3)", "radius": 4}
    assert doc["value"] == str(result.value)
    assert doc["argmin"]["members"] == [jsonable(host.handle_of(v)) for v in sorted(result.argmin.members)]
