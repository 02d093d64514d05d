import ast
import importlib
import inspect
import json
import pkgutil
import random
import re
from contextlib import contextmanager
from functools import cached_property
from itertools import islice, product
from pathlib import Path
from types import FunctionType

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arbor
import brute
from arbor import (
    GWSpec,
    InvalidVertexError,
    NotATreeError,
    Tree,
    TreeAsOracle,
    canonical_form,
    explore_ball,
    make_fixture,
    parse_child_list,
    parse_tree,
    path_tree,
    sample,
    sary_tree,
    serialize_child_list,
    subdivide_tree,
)
from arbor.trees import bfs_layers, peel, reach, rooted_order
from brute import serialize_tree, star_tree


@st.composite
def random_trees(draw: st.DrawFn, min_size: int = 1, max_size: int = 12) -> Tree:
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    t = Tree.from_edges(brute.random_tree_edges(rng, n))
    if draw(st.booleans()):
        t = Tree(t.adjacency, root=draw(st.integers(min_value=0, max_value=n - 1)))
    return t


def test_rejects_cycle():
    with pytest.raises(NotATreeError, match="cycle"):
        Tree([[1, 2], [0, 2], [0, 1]])


def test_rejects_disconnected():
    with pytest.raises(NotATreeError, match="disconnected"):
        Tree([[1], [0], [3], [2]])


def test_rejects_self_loop():
    with pytest.raises(NotATreeError, match="self-loop"):
        Tree([[0, 1], [0]])


def test_rejects_duplicate_edge():
    with pytest.raises(NotATreeError, match="duplicate"):
        Tree([[1, 1], [0, 0]])


def test_rejects_asymmetric_adjacency():
    with pytest.raises(NotATreeError, match="asymmetric"):
        Tree([[1], []])


def test_rejects_empty():
    with pytest.raises(NotATreeError):
        Tree([])


def test_rejects_out_of_range_neighbor():
    with pytest.raises(NotATreeError, match="neighbor 5 of vertex 1 is out of range"):
        Tree([[1], [0, 5]])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: path_tree(0), "n must be at least 1"),
        (lambda: sary_tree(0, 1), "s must be at least 1"),
        (lambda: sary_tree(2, -1), "depth must be nonnegative"),
    ],
    ids=["path_tree(0)", "sary_tree(0, 1)", "sary_tree(2, -1)"],
)
def test_builders_reject_bad_shapes(build, error: str):
    with pytest.raises(ValueError, match=re.escape(error)):
        build()


def test_rejects_bad_root():
    with pytest.raises(InvalidVertexError):
        Tree([[1], [0]], root=5)


@contextmanager
def trusted_calls():
    """Every Tree._trusted call inside the block, as (adjacency lists as given, root, result)."""
    calls = []
    build = Tree._trusted.__func__

    def recording(cls, adjacency, root=None):
        calls.append(([list(ns) for ns in adjacency], root, build(cls, adjacency, root)))
        return calls[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tree, "_trusted", classmethod(recording))
        yield calls


def assert_trusted_matches_tree(calls, expected: int):
    assert len(calls) == expected
    for adjacency, root, t in calls:
        assert all(type(u) is int for ns in t.adjacency for u in ns)
        checked = Tree(adjacency, root)
        assert (t.adjacency, t.root, t.vertex_count) == (checked.adjacency, checked.root, checked.vertex_count)


@pytest.mark.parametrize(
    "name",
    ["regular(3)", "regular(4)", "sary(1)", "sary(2)", "zline_pendant", "threereg_plus_ray", "staircase", "staircase_n(3)"],
)
def test_trusted_builder_matches_tree_on_fixture_balls(name: str):
    with trusted_calls() as calls:
        for radius in range(7):
            explore_ball(make_fixture(name), radius)
    assert_trusted_matches_tree(calls, 7)


@given(random_trees(), st.integers(min_value=0, max_value=12))
def test_trusted_builder_matches_tree_on_tree_balls(t: Tree, radius: int):
    with trusted_calls() as calls:
        for center in range(t.vertex_count):
            explore_ball(TreeAsOracle(t), radius, center=center)
    assert_trusted_matches_tree(calls, t.vertex_count)


@pytest.mark.parametrize("spec", [GWSpec(("1/4", "1/4", "1/2")), GWSpec.poisson(1.5)], ids=["quarter", "poisson1.5"])
def test_trusted_builder_matches_tree_on_gw_samples(spec: GWSpec):
    with trusted_calls() as calls:
        for trial in range(12):
            sample(spec, 7, 9, 3000, trial=trial).to_tree()
    assert_trusted_matches_tree(calls, 12)
    assert max(t.vertex_count for _, _, t in calls) > 100


def test_trusted_builder_counts_edges():
    assert Tree._trusted([[]], root=0) == Tree([[]], root=0)
    assert Tree._trusted([[1, 2], [0], [0]], root=0) == Tree([[1, 2], [0], [0]], root=0)
    with pytest.raises(NotATreeError, match="cycle"):
        Tree._trusted([[1, 2], [0, 2], [0, 1]])


def test_single_vertex():
    t = Tree([[]])
    assert t.vertex_count == 1
    assert t.neighbors(0) == ()
    assert len(t.neighbors(0)) == 0


def test_from_edges_counts_the_vertices_its_edges_name():
    assert Tree.from_edges([(0, 1)]).vertex_count == 2
    assert Tree.from_edges([]).vertex_count == 1
    with pytest.raises(NotATreeError, match="out of range"):
        Tree.from_edges([(0, 1), (1, -1)])
    with pytest.raises(NotATreeError):
        Tree.from_edges([(0, 2)])  # vertex 1 disconnected


def test_neighbors_sorted_and_range_checked():
    t = Tree.from_edges([(2, 0), (0, 1)])
    assert t.neighbors(0) == (1, 2)
    with pytest.raises(InvalidVertexError):
        t.neighbors(3)


def test_immutable():
    t = path_tree(3)
    with pytest.raises(AttributeError):
        t.root = 1


def test_equality_respects_root():
    a = path_tree(3)
    assert a == path_tree(3)
    assert a != Tree(a.adjacency, root=0)
    assert hash(Tree(a.adjacency, root=1)) == hash(Tree(path_tree(3).adjacency, root=1))


def test_repr_names_the_size_and_any_root():
    assert repr(path_tree(3)) == "Tree(3 vertices)"
    assert repr(Tree(path_tree(3).adjacency, root=1)) == "Tree(3 vertices, root=1)"


def degrees(t: Tree) -> list[int]:
    return [len(t.neighbors(v)) for v in range(t.vertex_count)]


def test_leaves_and_branches():
    assert degrees(star_tree(4)) == [4, 1, 1, 1, 1]
    assert degrees(path_tree(5)) == [1, 2, 2, 2, 1]


def test_sary_tree_counts():
    t = sary_tree(2, 3)
    assert t.vertex_count == 15
    assert t.root == 0
    assert len(t.neighbors(0)) == 2
    assert degrees(t).count(1) == 8
    assert sary_tree(1, 4).vertex_count == 5
    assert sary_tree(3, 0).vertex_count == 1


def test_subdivide_keeps_original_ids():
    t = star_tree(3)
    s = subdivide_tree(t)
    assert s.vertex_count == 7
    assert len(s.neighbors(0)) == 3
    for mid in range(4, 7):
        assert len(s.neighbors(mid)) == 2
    # original edges are gone, replaced by two-step paths
    assert 1 not in s.neighbors(0)


@given(random_trees())
def test_parse_serialize_roundtrip(t: Tree):
    if t.root is None and t.vertex_count == 1:
        with pytest.raises(ValueError):
            serialize_tree(t)
        return
    assert parse_tree(serialize_tree(t)) == t


def test_parse_tree_format():
    t = parse_tree("# comment\nroot 2\n0 1\n1 2\n\n")
    assert t.root == 2
    assert t.vertex_count == 3
    with pytest.raises(NotATreeError, match="duplicate"):
        parse_tree("0 1\n1 0\n")
    with pytest.raises(NotATreeError, match="two vertex ids"):
        parse_tree("0 1 2\n")
    with pytest.raises(NotATreeError, match="non-integer"):
        parse_tree("a b\n")
    with pytest.raises(NotATreeError, match="empty"):
        parse_tree("# nothing\n")


def test_parse_tree_single_vertex_via_root_line():
    t = parse_tree("root 0\n")
    assert t.vertex_count == 1 and t.root == 0


@given(random_trees())
def test_child_list_roundtrip(t: Tree):
    rooted = t if t.root is not None else Tree(t.adjacency, root=0)
    doc = serialize_child_list(rooted)
    back = parse_child_list(json.loads(json.dumps(doc)))
    assert canonical_form(back) == canonical_form(rooted)
    assert back.vertex_count == rooted.vertex_count


def test_child_list_requires_root():
    with pytest.raises(ValueError):
        serialize_child_list(path_tree(3))
    with pytest.raises(NotATreeError):
        parse_child_list({"children": {}})
    assert parse_child_list({"root": 0, "children": {}}).vertex_count == 1


def check_peel(adj, known):
    ours = list(peel(adj, known))
    assert ours == list(brute.peel_by_rescan(adj, known, max(known)))
    assert all(dead == sorted(dead) for _, dead in ours)


@given(random_trees(), st.data())
def test_peel_matches_rescan(t: Tree, data):
    known = data.draw(st.lists(st.integers(min_value=0, max_value=7), min_size=t.vertex_count, max_size=t.vertex_count))
    check_peel(t.adjacency, known)


def test_peel_on_one_and_two_vertices():
    for known in ([0], [1], [5]):
        check_peel(Tree([[]]).adjacency, known)
    for known in product(range(3), repeat=2):
        check_peel(path_tree(2).adjacency, list(known))
    assert list(peel(path_tree(2).adjacency, [1, 1])) == [(1, [0, 1])]
    assert list(peel(path_tree(2).adjacency, [1, 0])) == [(1, [0])]  # vertex 1 is held back


@st.composite
def rooted_trees(draw: st.DrawFn, min_size: int = 1, max_size: int = 12) -> Tree:
    t = draw(random_trees(min_size, max_size))
    return Tree(t.adjacency, root=draw(st.integers(min_value=0, max_value=t.vertex_count - 1)))


@given(rooted_trees())
def test_canonical_form_relabel_invariant(t: Tree):
    rng = random.Random(17)
    perm = list(range(t.vertex_count))
    rng.shuffle(perm)
    r = brute.relabel_tree(t, perm)
    assert canonical_form(r) == canonical_form(t)
    assert brute.ahu_rooted(r, r.root) == brute.ahu_rooted(t, t.root)


@given(rooted_trees(max_size=9), rooted_trees(max_size=9))
def test_canonical_form_agrees_with_reference(a: Tree, b: Tree):
    ours = canonical_form(a) == canonical_form(b)
    ref = brute.ahu_rooted(a, a.root) == brute.ahu_rooted(b, b.root)
    assert ours == ref


def test_canonical_form_needs_a_root():
    p = path_tree(3)
    assert canonical_form(Tree(p.adjacency, root=0)) != canonical_form(Tree(p.adjacency, root=1))
    assert canonical_form(Tree(p.adjacency, root=0)) == canonical_form(Tree(p.adjacency, root=2))
    with pytest.raises(ValueError):
        canonical_form(p)


def test_distinct_shapes_distinct_codes():
    assert canonical_form(Tree(path_tree(4).adjacency, root=1)) != canonical_form(Tree(star_tree(3).adjacency, root=0))


@given(rooted_trees())
def test_rooted_order_matches_brute(t: Tree):
    order, parent = rooted_order(t.adjacency, t.root)
    dist = brute.bfs_distances(t, t.root)
    # brute fills its distance map in breadth-first order, in adjacency order
    assert order == list(dist)
    assert parent[t.root] == -1
    for v in order[1:]:
        assert parent[v] in t.neighbors(v) and dist[parent[v]] == dist[v] - 1


@given(random_trees(min_size=4, max_size=10))
def test_edge_complement_matches_component_count(t: Tree):
    mem = set()
    queue = [0]
    while queue and len(mem) < 3:
        v = queue.pop()
        if v in mem:
            continue
        mem.add(v)
        queue.extend(t.neighbors(v))
    if len(mem) < 2 or len(mem) == t.vertex_count:
        return
    assert brute.edge_complement_is_connected(t, mem) == brute.inessential_by_components(t, mem)


@given(random_trees(min_size=1, max_size=12), st.data())
def test_reach_matches_brute(t: Tree, data):
    n = t.vertex_count
    start = data.draw(st.integers(min_value=0, max_value=n - 1))
    dist = brute.bfs_distances(t, start)
    # brute fills its distance map in breadth-first order, in adjacency order
    assert reach(t.neighbors, start) == list(dist)

    within = {v for v in range(n) if data.draw(st.booleans())} | {start}
    comp = reach(t.neighbors, start, within=within)
    assert set(comp) <= within and brute.is_connected_subset(t, comp)
    assert not any(u in within and u not in comp for v in comp for u in t.neighbors(v))
    assert (len(comp) == len(within)) == brute.is_connected_subset(t, within)


@given(random_trees(), st.data())
def test_bfs_layers_match_brute(t: Tree, data):
    start = data.draw(st.integers(min_value=0, max_value=t.vertex_count - 1))
    dist = brute.bfs_distances(t, start)
    expected = [sorted(v for v in dist if dist[v] == d) for d in range(max(dist.values()) + 1)]
    assert list(bfs_layers(t.neighbors, start)) == expected

    asked = []

    def neighbors(v):
        asked.append(v)
        return t.neighbors(v)

    # a layer's neighbors are asked for only when the next layer is requested
    assert list(islice(bfs_layers(neighbors, start), 1)) == [[start]]
    assert asked == []
    assert list(islice(bfs_layers(neighbors, start), 2)) == expected[:2]
    assert asked == [start]


def test_exports_resolve_once():
    assert len(arbor.__all__) == len(set(arbor.__all__))
    for name in arbor.__all__:
        assert hasattr(arbor, name), name
    lists = []
    for info in pkgutil.iter_modules(arbor.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"arbor.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"arbor.{info.name}.{name}"
        if hasattr(module, "__all__"):
            lists.append(module.__all__)
    # the package surface is the library modules' lists joined, each one a contiguous slice
    lists.sort(key=lambda names: arbor.__all__.index(names[0]) if names[0] in arbor.__all__ else -1)
    assert arbor.__all__ == ["__version__", *(name for names in lists for name in names)]
    assert {*arbor.__all__, "galton_watson"} <= set(dir(arbor))


REPO = Path(__file__).resolve().parents[1]
# Where a public method or property may be read: the library, the demos, the
# README, the benchmark and the acceptance tests. A unit test alone does not count.
READERS = [
    *sorted((REPO / "src" / "arbor").glob("*.py")),
    *sorted((REPO / "demos").glob("*.py")),
    REPO / "README.md",
    *sorted((REPO / "perfbench").glob("*.py")),
    REPO / "tests" / "test_acceptance.py",
]
MEMBER_KINDS = (FunctionType, property, cached_property, classmethod, staticmethod)


def _source_span(member) -> tuple:
    fn = getattr(member, "fget", None) or getattr(member, "func", None) or getattr(member, "__func__", None) or member
    lines, first = inspect.getsourcelines(fn)
    return Path(inspect.getsourcefile(fn)).resolve(), range(first, first + len(lines))


def test_every_public_member_of_an_export_has_a_reader():
    # A read counts as ``.name`` outside the member's own def and outside its
    # class's private members: a public name that only private code reads is
    # a private helper.
    texts = {path.resolve(): path.read_text(encoding="utf-8").splitlines() for path in READERS}
    unread = []
    for export in arbor.__all__:
        cls = getattr(arbor, export)
        if not isinstance(cls, type):
            continue
        members = {name: m for name, m in vars(cls).items() if isinstance(m, MEMBER_KINDS)}
        private = [_source_span(m) for name, m in members.items() if name.startswith("_") and not name.startswith("__")]
        for name, member in members.items():
            if name.startswith("_"):
                continue
            skip = [_source_span(member), *private]
            read = re.compile(rf"\.{name}\b")
            if not any(
                read.search(line)
                for path, lines in texts.items()
                for i, line in enumerate(lines, 1)
                if not any(path == where and i in span for where, span in skip)
            ):
                unread.append(f"{export}.{name}")
    assert unread == []


def _reader_trees() -> list:
    """The syntax trees of READERS: each python file, and each python block of the README."""
    trees = []
    for path in READERS:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".md":
            trees += [ast.parse(part.split("```", 1)[0]) for part in text.split("```python\n")[1:]]
        else:
            trees.append(ast.parse(text))
    return trees


def test_every_optional_parameter_of_an_export_has_a_reader():
    # A call counts by its callee's name, bare or after a dot, and ``cls(...)``
    # inside a class counts as a call of that class. It passes a parameter by
    # that keyword, or by position up to the parameter's place.
    owner = {}  # id of a cls(...) call -> the name of the class around it
    calls = []
    for tree in _reader_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for c in ast.walk(node):
                    if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "cls":
                        owner[id(c)] = node.name
            elif isinstance(node, ast.Call):
                calls.append(node)
    most, keywords = {}, {}  # callee name -> most positional arguments, and keywords passed
    for call in calls:
        name = owner.get(id(call)) or getattr(call.func, "id", None) or getattr(call.func, "attr", None)
        most[name] = max(most.get(name, 0), len(call.args))
        keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    unpassed = []
    for export in arbor.__all__:
        obj = getattr(arbor, export)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        for place, p in enumerate(inspect.signature(obj).parameters.values()):
            if p.default is p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                continue
            by_place = p.kind is not p.KEYWORD_ONLY and place < most.get(export, 0)
            if not by_place and p.name not in keywords.get(export, ()):
                unpassed.append(f"{export}.{p.name}")
    assert unpassed == []
