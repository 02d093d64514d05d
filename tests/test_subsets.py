import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arbor.subsets as subsets
import brute
from arbor import (
    FolnerCandidate,
    IncompleteKnowledgeError,
    SearchTooLargeError,
    Tree,
    boundary_of,
    connected_subsets,
    explore_ball,
    make_fixture,
    path_tree,
    random_connected_subset,
)
from arbor.subsets import is_connected_in
from brute import star_tree


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


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=10), st.data())
def test_connected_enumeration_is_exact_and_duplicate_free(seed: int, n: int, data):
    rng = random.Random(seed)
    t = Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)
    got = list(connected_subsets(t, n))
    assert len(got) == len(set(got))
    assert set(got) == brute.connected_subsets_by_filter(t, n)
    # a host that offers an interior narrows the pool to it
    region = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="region")
    got = list(connected_subsets(brute.region_host(t, region), n))
    assert len(got) == len(set(got))
    assert set(got) == brute.connected_subsets_by_filter(t, n, region)


def test_connected_enumeration_respects_the_pool_and_size():
    t = path_tree(6)
    got = set(connected_subsets(brute.region_host(t, [1, 2, 4]), 2))
    assert got == {
        frozenset({1}),
        frozenset({2}),
        frozenset({4}),
        frozenset({1, 2}),
    }


def test_enumeration_guard_trips(monkeypatch):
    monkeypatch.setattr(subsets, "_GUARD", 50)
    with pytest.raises(SearchTooLargeError, match=r"\(50\)"):
        list(connected_subsets(star_tree(12), 8))


def _until_guard(subsets) -> tuple[list, bool]:
    """The subsets yielded before the work guard trips, and whether it tripped."""
    got = []
    try:
        for sub in subsets:
            got.append(sub)
    except SearchTooLargeError:
        return got, True
    return got, False


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=7),
)
def test_enumeration_order_matches_reference_on_trees(seed: int, n: int, max_size: int):
    rng = random.Random(seed)
    t = Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)
    assert list(connected_subsets(t, max_size)) == list(brute.connected_subsets_by_closed_union(t, max_size))


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
)
def test_enumeration_order_matches_reference_on_graphs_with_cycles(seed: int, n: int, extra: int, max_size: int):
    host = brute.random_graph(random.Random(seed), n, extra)
    got = list(connected_subsets(host, max_size))
    assert got == list(brute.connected_subsets_by_closed_union(host, max_size))
    assert set(got) == brute.connected_subsets_by_filter(host, max_size)


@given(
    st.sampled_from(["regular(3)", "regular(4)", "staircase", "zline_pendant"]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=7),
    st.none() | st.integers(min_value=0, max_value=10**6),
)
def test_enumeration_order_matches_reference_on_balls(fixture: str, radius: int, max_size: int, seed):
    host = explore_ball(make_fixture(fixture), radius)
    if seed is not None:
        host = brute.region_host(host, random.Random(seed).sample(host.sorted_interior, len(host.interior) // 2 + 1))
    got = list(connected_subsets(host, max_size))
    assert got == list(brute.connected_subsets_by_closed_union(host, max_size))


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_enumeration_guard_trips_at_the_reference_work_count(seed: int, max_size: int):
    rng = random.Random(seed)
    t = Tree.from_edges(brute.random_tree_edges(rng, 9), vertex_count=9)
    ref_total = len(list(brute.connected_subsets_by_closed_union(t, max_size)))
    for guard in range(ref_total + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subsets, "_GUARD", guard)
            got = _until_guard(connected_subsets(t, max_size))
        assert got == _until_guard(brute.connected_subsets_by_closed_union(t, max_size, guard=guard))


class _CountingHost:
    """A ball that counts the neighbor lookups made through it."""

    def __init__(self, ball):
        self.ball = ball
        self.calls = 0

    def neighbors(self, v):
        self.calls += 1
        return self.ball.neighbors(v)


def test_singleton_enumeration_asks_for_no_neighbors():
    ball = explore_ball(make_fixture("regular(3)"), 2)
    host = _CountingHost(ball)
    everything = range(ball.vertex_count)  # the frontier too
    got = list(connected_subsets(brute.region_host(host, everything), 1))
    assert got == [frozenset((v,)) for v in everything]
    assert host.calls == 0
    with pytest.raises(IncompleteKnowledgeError):
        list(connected_subsets(brute.region_host(ball, everything), 2))


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
