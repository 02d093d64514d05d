import random
from collections import Counter
from functools import cache
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from arbor import (
    FolnerCandidate,
    GWSpec,
    IncompleteKnowledgeError,
    Tree,
    boundary_of,
    explore_ball,
    make_fixture,
    path_tree,
    random_connected_subset,
    sample,
)
from arbor.galton_watson import _SubsetDraws
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


def test_random_connected_subset_skips_a_vertex_drawn_twice():
    # on a triangle the third vertex enters the pool from both others, so growth past it draws it twice
    triangle = SimpleNamespace(neighbors=[(1, 2), (0, 2), (0, 1)].__getitem__, vertex_count=3)
    for seed in range(5):
        assert random_connected_subset(triangle, 5, random.Random(seed)) == frozenset({0, 1, 2})


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


# (fixture, radius): the isoperimetry benchmark's two balls, two thin ones, and one with no interior
FIXTURE_BALLS = [("regular(3)", 10), ("regular(4)", 8), ("staircase", 12), ("zline_pendant", 12), ("regular(3)", 0)]
BOUND_LAWS = [(0, 0, 1), (0, 0, 0, 1), (0, 0, "1/2", "1/2"), ("1/4", "1/4", "1/2")]


@cache
def fixture_ball(name: str, radius: int):
    return explore_ball(make_fixture(name), radius)


@st.composite
def ball_regions(draw: st.DrawFn, ball):
    """The ids out to a drawn depth, less a few; at the ball's radius the frontier's ids are in."""
    depth = draw(st.integers(min_value=0, max_value=ball.radius), label="depth")
    near = [v for v, d in enumerate(ball.depths) if d <= depth]
    return set(near) - draw(st.sets(st.sampled_from(near), max_size=8), label="dropped")


def grown(host, size: int, rng, allowed=None, grow=random_connected_subset):
    """The subset ``grow`` grows, or the type and message of what it raises."""
    try:
        return grow(host, size, rng, allowed)
    except Exception as e:
        return type(e), str(e)


def assert_same_growth(host, sizes, rng, ref, allowed=None) -> None:
    """The library and its former growth loop grow the same subsets and leave their streams in the same state."""
    for size in sizes:
        want = grown(host, size, ref, allowed, brute.random_connected_subset_by_filter)
        assert grown(host, size, rng, allowed) == want
    if isinstance(rng, random.Random):
        assert rng.getstate() == ref.getstate()
    else:
        assert [rng.randrange(2**32) for _ in range(4)] == [ref.randrange(2**32) for _ in range(4)]


@given(
    st.sampled_from(FIXTURE_BALLS), st.integers(min_value=0, max_value=10**6),
    st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=4), st.data(),
)
def test_filtered_growth_matches_on_fixture_balls(fixture, seed: int, sizes, data):
    ball = fixture_ball(*fixture)
    allowed = data.draw(st.none() | ball_regions(ball), label="allowed")
    assert_same_growth(ball, sizes, random.Random(seed), random.Random(seed), allowed)


@given(
    st.sampled_from(BOUND_LAWS), st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=5), st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=6),
)
def test_filtered_growth_matches_on_gw_balls_with_replayed_draws(law, seed: int, trial: int, depth: int, sizes):
    # the dichotomy's bound side: a truncated sample's ball, grown from the trial's replayed stream
    ball = sample(GWSpec(law), seed, depth, trial=trial).truncate_ball(depth)
    key = (trial, 65536)
    assert_same_growth(ball, sizes, _SubsetDraws(seed, key), _SubsetDraws(seed, key))


@given(
    tree_and_subset(), st.booleans(), st.integers(min_value=0, max_value=10**6),
    st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=4),
)
def test_filtered_growth_matches_on_trees(data, narrowed: bool, seed: int, sizes):
    t, members = data
    assert_same_growth(t, sizes, random.Random(seed), random.Random(seed), members if narrowed else None)


@given(
    st.sampled_from(FIXTURE_BALLS[:4]), st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=25), st.data(),
)
def test_filtered_growth_matches_on_hosts_offering_an_interior(fixture, seed: int, size: int, data):
    # not a Ball, so its own interior narrows growth, not the ball's
    ball = fixture_ball(*fixture)
    asked = Counter()

    def neighbors(v):
        asked[v] += 1
        return ball.neighbors(v)

    host = brute.region_host(SimpleNamespace(neighbors=neighbors), data.draw(ball_regions(ball), label="region"))
    host.vertex_count = ball.vertex_count
    got = grown(host, size, random.Random(seed))
    if isinstance(got, frozenset):
        assert got <= host.interior or not host.interior  # an empty interior narrows nothing
        assert asked == Counter(got)  # each member once, when it joins
    assert_same_growth(host, [size], random.Random(seed), random.Random(seed))


@pytest.mark.parametrize("make_ball", [
    lambda: explore_ball(make_fixture("regular(3)"), 0),
    lambda: sample(GWSpec((0, 0, 1)), 1, 3).truncate_ball(0),
], ids=["explore_ball", "truncate_ball"])
def test_growth_on_a_radius_0_ball_asks_its_root(make_ball):
    with pytest.raises(IncompleteKnowledgeError, match="^vertex 0 is on the exploration frontier"):
        random_connected_subset(make_ball(), 3, random.Random(1))


@pytest.mark.parametrize("fixture", FIXTURE_BALLS[:4])
def test_a_ball_keeps_one_table_of_interior_neighbors(fixture):
    ball = explore_ball(make_fixture(fixture[0]), fixture[1])
    random_connected_subset(ball, 5, random.Random(0))
    hoods = ball._interior_hoods()
    assert hoods is ball._interior_hoods()  # built on the first draw and kept
    adj = ball.tree.adjacency
    assert hoods == [tuple(u for u in adj[v] if u in ball.interior) for v in ball.sorted_interior]
    # an id with no frontier neighbor shares its adjacency tuple
    assert all(ns is adj[v] for v, ns in enumerate(hoods) if len(ns) == len(adj[v]))
