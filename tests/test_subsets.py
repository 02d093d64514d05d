import random
from functools import cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from arbor import (
    FolnerCandidate,
    GWSpec,
    IncompleteKnowledgeError,
    Tree,
    TreeAsOracle,
    boundary_of,
    explore_ball,
    make_fixture,
    path_tree,
    random_connected_subset,
    sample,
)
from arbor.exploration import _pool_table
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


def test_random_connected_subset_deterministic():
    t = star_tree(9)
    a = random_connected_subset(t, 5, random.Random(42))
    b = random_connected_subset(t, 5, random.Random(42))
    assert a == b


def test_random_connected_subset_takes_a_tree_or_a_ball():
    with pytest.raises(ValueError, match="^size must be at least 1$"):
        random_connected_subset(path_tree(6), 0, random.Random(1))
    for host in (TreeAsOracle(path_tree(6)), make_fixture("regular(3)"), brute.random_graph(random.Random(1), 5, 2)):
        rng = random.Random(1)
        with pytest.raises(TypeError, match="^the search needs a Tree or a Ball, not "):
            random_connected_subset(host, 3, rng)
        assert rng.getstate() == random.Random(1).getstate()  # refused before any draw


class CountingRandom(random.Random):
    """A ``random.Random`` that counts its ``randrange`` draws."""

    draws = 0

    def randrange(self, *args):
        self.draws += 1
        return super().randrange(*args)


# (fixture, radius): the isoperimetry benchmark's two balls, two thin ones, and one whose interior is its center
FIXTURE_BALLS = [("regular(3)", 10), ("regular(4)", 8), ("staircase", 12), ("zline_pendant", 12), ("regular(3)", 1)]
BOUND_LAWS = [(0, 0, 1), (0, 0, 0, 1), (0, 0, "1/2", "1/2"), ("1/4", "1/4", "1/2")]


@cache
def fixture_ball(name: str, radius: int):
    return explore_ball(make_fixture(name), radius)


def assert_same_growth(host, sizes, rng, ref) -> None:
    """The library and its former growth loop grow the same subsets and leave their streams in the same state."""
    for size in sizes:
        assert random_connected_subset(host, size, rng) == brute.random_connected_subset_by_filter(host, size, ref)
    if isinstance(rng, random.Random):
        assert rng.getstate() == ref.getstate()
    else:
        assert [rng.randrange(2**32) for _ in range(4)] == [ref.randrange(2**32) for _ in range(4)]


@given(
    st.sampled_from(FIXTURE_BALLS), st.integers(min_value=0, max_value=10**6),
    st.lists(st.integers(min_value=1, max_value=25), min_size=1, max_size=4),
)
def test_filtered_growth_matches_on_fixture_balls(fixture, seed: int, sizes):
    assert_same_growth(fixture_ball(*fixture), sizes, random.Random(seed), random.Random(seed))


@given(
    st.sampled_from(BOUND_LAWS), st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=5), st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=6),
)
def test_filtered_growth_matches_on_gw_balls_with_replayed_draws(law, seed: int, trial: int, depth: int, sizes):
    # the dichotomy's bound side: a truncated sample's ball, grown from the trial's replayed stream
    ball = sample(GWSpec(law), seed, depth, trial=trial).truncate_ball(depth)
    key = (trial, 65536)
    assert_same_growth(ball, sizes, _SubsetDraws(seed, key), _SubsetDraws(seed, key))


@given(
    st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6),
    st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=4),
)
def test_filtered_growth_matches_on_trees(n: int, seed: int, sizes):
    t = Tree.from_edges(brute.random_tree_edges(random.Random(seed), n))
    assert_same_growth(t, sizes, random.Random(seed), random.Random(seed))


@pytest.mark.parametrize("make_ball", [
    lambda: explore_ball(make_fixture("regular(3)"), 0),
    lambda: sample(GWSpec((0, 0, 1)), 1, 3).truncate_ball(0),
], ids=["explore_ball", "truncate_ball"])
def test_growth_on_a_radius_0_ball_asks_its_root(make_ball):
    rng = random.Random(1)
    with pytest.raises(IncompleteKnowledgeError, match="^vertex 0 is on the exploration frontier"):
        random_connected_subset(make_ball(), 3, rng)
    assert rng.getstate() == random.Random(1).getstate()  # the empty pool is refused before any draw


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


@given(
    st.one_of(
        st.sampled_from(FIXTURE_BALLS).map(lambda fixture: fixture_ball(*fixture)),
        st.builds(
            lambda n, seed: Tree.from_edges(brute.random_tree_edges(random.Random(seed), n)),
            st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=10**6),
        ),
    ),
    st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=25),
)
def test_random_connected_subset_draws_once_per_member(host, seed: int, size: int):
    rng = CountingRandom(seed)
    sub = random_connected_subset(host, size, rng)
    pool = getattr(host, "interior", range(host.vertex_count))
    assert sub <= set(pool) and brute.is_connected_subset(host, sub)
    assert len(sub) == min(size, len(pool))  # a pool is one tree, so growth stops only at the size
    assert rng.draws == len(sub)  # the start, then one draw per member: no draw repeats a member


POOL_HOSTS = {
    "tree": lambda: brute.relabel_tree(path_tree(7), [3, 0, 6, 1, 5, 2, 4]),
    "explore_ball": lambda: explore_ball(make_fixture("staircase"), 4),
    "truncate_ball": lambda: sample(GWSpec((0, 0, 1)), 1, 3).truncate_ball(3),
    "extinct_ball": lambda: sample(GWSpec((1,)), 1, 2).truncate_ball(2),  # all interior, no frontier
    "radius_0_ball": lambda: explore_ball(make_fixture("regular(3)"), 0),  # no interior
}


@pytest.mark.parametrize("make_host", POOL_HOSTS.values(), ids=POOL_HOSTS.keys())
def test_pool_table_lists_each_pool_ids_neighbors_in_the_pool(make_host):
    host = make_host()
    near, adj = _pool_table(host)
    if isinstance(host, Tree):
        assert near is adj is host.adjacency
        pool = list(range(host.vertex_count))
    else:
        assert near is host._interior_hoods() and adj is host.tree.adjacency
        pool = list(host.sorted_interior)
    assert pool == list(range(len(near)))  # a pool vertex's index is its id
    assert [set(near[v]) for v in pool] == [set(host.neighbors(v)) & set(pool) for v in pool]
    assert [len(adj[v]) for v in pool] == [len(host.neighbors(v)) for v in pool]
