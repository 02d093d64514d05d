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
from arbor.trees import bfs_layers, centers, peel, reach
from brute import serialize_tree, star_tree


@st.composite
def random_trees(draw: st.DrawFn, min_size: int = 1, max_size: int = 12) -> Tree:
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    t = Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)
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
    assert centers(t) == (0,)


def test_from_edges_isolated_padding():
    t = Tree.from_edges([(0, 1)], vertex_count=2)
    assert t.vertex_count == 2
    with pytest.raises(NotATreeError):
        Tree.from_edges([(0, 1)], vertex_count=3)  # vertex 2 disconnected


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
    assert a != path_tree(3, root=0)
    assert hash(path_tree(3, root=1)) == hash(path_tree(3, root=1))


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
    assert canonical_form(back, rooted=True) == canonical_form(rooted, rooted=True)
    assert back.vertex_count == rooted.vertex_count


def test_child_list_requires_root():
    with pytest.raises(ValueError):
        serialize_child_list(path_tree(3))
    with pytest.raises(NotATreeError):
        parse_child_list({"children": {}})
    assert parse_child_list({"root": 0, "children": {}}).vertex_count == 1


@given(random_trees(min_size=2))
def test_centers_match_eccentricity(t: Tree):
    assert set(centers(t)) == brute.eccentricity_centers(t)


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


@given(random_trees())
def test_canonical_form_relabel_invariant(t: Tree):
    rng = random.Random(17)
    perm = list(range(t.vertex_count))
    rng.shuffle(perm)
    r = brute.relabel_tree(t, perm)
    assert canonical_form(r, rooted=False) == canonical_form(t, rooted=False)
    assert brute.ahu_unrooted(r) == brute.ahu_unrooted(t)


@given(random_trees(min_size=2, max_size=9), random_trees(min_size=2, max_size=9))
def test_canonical_form_agrees_with_reference(a: Tree, b: Tree):
    ours = canonical_form(a, rooted=False) == canonical_form(b, rooted=False)
    ref = brute.ahu_unrooted(a) == brute.ahu_unrooted(b)
    assert ours == ref


def test_canonical_form_rooted_vs_unrooted():
    p = path_tree(3)
    assert canonical_form(path_tree(3, root=0), rooted=True) != canonical_form(path_tree(3, root=1), rooted=True)
    with pytest.raises(ValueError):
        canonical_form(p, rooted=True)
    # default follows the root flag
    assert canonical_form(path_tree(3, root=0)) == canonical_form(path_tree(3, root=0), rooted=True)
    assert canonical_form(p) == canonical_form(p, rooted=False)


def test_distinct_shapes_distinct_codes():
    assert canonical_form(path_tree(4)) != canonical_form(star_tree(3))


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

    avoid = ()
    if n > 1:
        cut = data.draw(st.sampled_from([v for v in range(n) if v != start]))
        avoid = (cut,)
        beyond = brute.bfs_distances(t, cut)
        # v is cut off from start exactly when cut lies on the path between them
        cut_off = {v for v in range(n) if dist[cut] + beyond[v] == dist[v]}
        assert set(reach(t.neighbors, start, avoid=avoid)) == set(range(n)) - cut_off

    full = reach(t.neighbors, start, avoid=avoid)
    cap = data.draw(st.integers(min_value=1, max_value=n + 1))
    assert reach(t.neighbors, start, avoid=avoid, cap=cap) == (None if len(full) > cap else full)


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
    for info in pkgutil.iter_modules(arbor.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"arbor.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"arbor.{info.name}.{name}"


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
