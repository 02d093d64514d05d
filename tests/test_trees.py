import importlib
import json
import pkgutil
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arbor
import brute
from arbor import (
    InvalidVertexError,
    NotATreeError,
    NULL_TREE,
    Tree,
    branches,
    canonical_form,
    centers,
    induced_subtree,
    leaves,
    parse_child_list,
    parse_tree,
    path_tree,
    sary_tree,
    serialize_child_list,
    serialize_tree,
    star_tree,
    subdivide_tree,
)
from arbor.trees import reach


@st.composite
def random_trees(draw: st.DrawFn, min_size: int = 1, max_size: int = 12) -> Tree:
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    t = Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)
    if draw(st.booleans()):
        t = t.with_root(draw(st.integers(min_value=0, max_value=n - 1)))
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


def test_single_vertex():
    t = Tree([[]])
    assert t.vertex_count == 1
    assert t.neighbors(0) == ()
    assert leaves(t) == frozenset()  # degree 0 is not a leaf
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


def test_leaves_and_branches():
    t = star_tree(4)
    assert leaves(t) == frozenset({1, 2, 3, 4})
    assert branches(t) == frozenset({0})
    p = path_tree(5)
    assert leaves(p) == frozenset({0, 4})
    assert branches(p) == frozenset()


def test_sary_tree_counts():
    t = sary_tree(2, 3)
    assert t.vertex_count == 15
    assert t.root == 0
    assert t.degree(0) == 2
    assert len(leaves(t)) == 8
    assert sary_tree(1, 4).vertex_count == 5
    assert sary_tree(3, 0).vertex_count == 1


def test_subdivide_keeps_original_ids():
    t = star_tree(3)
    s = subdivide_tree(t)
    assert s.vertex_count == 7
    assert s.degree(0) == 3
    for mid in range(4, 7):
        assert s.degree(mid) == 2
    # original edges are gone, replaced by two-step paths
    assert 1 not in s.neighbors(0)


def test_induced_subtree():
    t = path_tree(5)
    sub, idx = induced_subtree(t, [1, 2, 3])
    assert sub.vertex_count == 3
    assert idx == {1: 0, 2: 1, 3: 2}
    with pytest.raises(NotATreeError):
        induced_subtree(t, [0, 2])


def test_induced_subtree_carries_root():
    t = path_tree(5, root=2)
    sub, idx = induced_subtree(t, [1, 2, 3])
    assert sub.root == idx[2]
    sub2, _ = induced_subtree(t, [3, 4])
    assert sub2.root is None


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
    rooted = t if t.root is not None else t.with_root(0)
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
    assert canonical_form(NULL_TREE) == b"*"
    p = path_tree(3)
    assert canonical_form(p.with_root(0), rooted=True) != canonical_form(
        p.with_root(1), rooted=True
    )
    with pytest.raises(ValueError):
        canonical_form(p, rooted=True)
    # default follows the root flag
    assert canonical_form(p.with_root(0)) == canonical_form(p.with_root(0), rooted=True)
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
