import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from arbor import (
    SearchTooLargeError,
    SubsetSelection,
    Tree,
    boundary_of,
    connected_subsets,
    is_connected_in,
    path_tree,
    random_connected_subset,
    star_tree,
)


@st.composite
def tree_and_subset(draw: st.DrawFn):
    n = draw(st.integers(min_value=2, max_value=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    t = Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)
    members = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1))
    return t, members


@given(tree_and_subset())
def test_boundary_matches_definition(data):
    t, members = data
    assert boundary_of(t, members) == frozenset(brute.boundary(t, members))


@given(tree_and_subset())
def test_is_connected_matches_bfs(data):
    t, members = data
    assert is_connected_in(t, members) == brute.is_connected_subset(t, members)


def test_boundary_whole_tree_is_empty():
    t = path_tree(4)
    assert boundary_of(t, range(4)) == frozenset()


def test_selection_ratio():
    t = path_tree(6)
    sel = SubsetSelection(t, [1, 2, 3])
    assert sel.size == 3
    assert sel.boundary == frozenset({1, 3})
    assert sel.ratio == brute.ratio(t, [1, 2, 3])
    assert sel.is_connected


@given(tree_and_subset())
def test_selection_against_oracle(data):
    t, members = data
    sel = SubsetSelection(t, members)
    assert sel.ratio == brute.ratio(t, members)
    assert sel.is_connected == brute.is_connected_subset(t, members)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=10))
def test_connected_enumeration_is_exact_and_duplicate_free(seed: int, n: int):
    rng = random.Random(seed)
    t = Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)
    got = list(connected_subsets(t, n))
    assert len(got) == len(set(got))
    assert set(got) == brute.connected_subsets_by_filter(t, n)


def test_connected_enumeration_respects_allowed_and_size():
    t = path_tree(6)
    got = set(connected_subsets(t, 2, allowed=[1, 2, 4]))
    assert got == {
        frozenset({1}),
        frozenset({2}),
        frozenset({4}),
        frozenset({1, 2}),
    }


def test_enumeration_guard_trips():
    t = star_tree(12)
    with pytest.raises(SearchTooLargeError):
        list(connected_subsets(t, 8, guard=50))


def test_random_connected_subset_properties():
    t = path_tree(30)
    rng = random.Random(5)
    for _ in range(25):
        size = rng.randrange(1, 9)
        sub = random_connected_subset(t, size, rng)
        assert 1 <= len(sub) <= size
        assert brute.is_connected_subset(t, sub)


def test_random_connected_subset_deterministic():
    t = star_tree(9)
    a = random_connected_subset(t, 5, random.Random(42))
    b = random_connected_subset(t, 5, random.Random(42))
    assert a == b


def test_random_connected_subset_respects_allowed_and_start():
    t = path_tree(12)
    rng = random.Random(1)
    allowed = {3, 4, 5, 6}
    for _ in range(10):
        sub = random_connected_subset(t, 4, rng, allowed=allowed)
        assert sub <= allowed
    sub = random_connected_subset(t, 3, rng, start=0)
    assert 0 in sub
    with pytest.raises(ValueError):
        random_connected_subset(t, 0, rng)
    with pytest.raises(ValueError):
        random_connected_subset(path_tree(6), 1, rng, allowed=[])
