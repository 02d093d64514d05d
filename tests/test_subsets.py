import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from arbor import (
    FolnerCandidate,
    Tree,
    boundary_of,
    path_tree,
    random_connected_subset,
)
from arbor.subsets import is_connected_in
from brute import star_tree


@st.composite
def tree_and_subset(draw: st.DrawFn):
    n = draw(st.integers(min_value=2, max_value=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    t = Tree.from_edges(brute.random_tree_edges(rng, n))
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


def test_candidate_ratio():
    t = path_tree(6)
    members = frozenset({1, 2, 3})
    cand = FolnerCandidate(members, boundary_of(t, members), "enumerated", {"note": 1})
    assert cand.size == 3
    assert cand.boundary == frozenset({1, 3})
    assert cand.ratio == brute.ratio(t, members)
    assert cand.to_json() == {
        "members": [1, 2, 3], "size": 3, "boundary_size": 2, "ratio": "2/3",
        "provenance": "enumerated", "detail": {"note": 1},
    }
    # equality is by members, boundary and provenance; detail is not compared
    assert cand == FolnerCandidate(members, frozenset({1, 3}), "enumerated")


@given(tree_and_subset())
def test_candidate_against_oracle(data):
    t, members = data
    cand = FolnerCandidate(frozenset(members), boundary_of(t, members), "enumerated")
    assert cand.size == len(members)
    assert cand.ratio == brute.ratio(t, members)


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


def test_random_connected_subset_respects_allowed():
    t = path_tree(12)
    rng = random.Random(1)
    allowed = {3, 4, 5, 6}
    for _ in range(10):
        sub = random_connected_subset(t, 4, rng, allowed=allowed)
        assert sub <= allowed
    with pytest.raises(ValueError):
        random_connected_subset(t, 0, rng)
    with pytest.raises(ValueError):
        random_connected_subset(path_tree(6), 1, rng, allowed=[])
