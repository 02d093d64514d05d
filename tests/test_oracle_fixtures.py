import math
import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from arbor import (
    BudgetExhaustedError,
    IncompleteKnowledgeError,
    InvalidVertexError,
    Tree,
    TreeAsOracle,
    UnknownFixtureError,
    canonical_form,
    explore_ball,
    list_fixtures,
    make_fixture,
    path_tree,
)


def walk_component(oracle, r, u, cap: int = 10_000) -> int:
    """Size of u's component in the host minus r, by bounded breadth-first walk."""
    seen = {r, u}
    queue = deque([u])
    count = 1
    while queue:
        v = queue.popleft()
        for w in oracle.neighbors(v):
            if w not in seen:
                seen.add(w)
                queue.append(w)
                count += 1
                if count > cap:
                    raise AssertionError("component walk exceeded the cap")
    return count


@st.composite
def finite_oracles(draw: st.DrawFn):
    n = draw(st.integers(min_value=2, max_value=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    t = Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)
    return TreeAsOracle(t)


def test_tree_oracle_root_defaults():
    t = path_tree(4, root=2)
    assert TreeAsOracle(t).root == 2
    assert TreeAsOracle(path_tree(4)).root == 0
    assert TreeAsOracle(t, root=1).root == 1
    with pytest.raises(InvalidVertexError):
        TreeAsOracle(t, root=9)


@given(finite_oracles())
def test_tree_oracle_component_sizes(oracle: TreeAsOracle):
    t = oracle.tree
    for r, u in t.edges():
        assert oracle.hanging_component_size(r, u) == walk_component(oracle, r, u)
        assert oracle.hanging_component_size(u, r) == walk_component(oracle, u, r)
    with pytest.raises(ValueError):
        oracle.hanging_component_size(0, 0)


def test_explore_ball_matches_distances():
    t = path_tree(7, root=3)
    ball = explore_ball(TreeAsOracle(t), 2)
    assert ball.vertex_count == 5
    assert ball.root == 0
    assert ball.handle_of(0) == 3
    assert sorted(ball.handle_of(v) for v in ball.frontier) == [1, 5]
    assert ball.interior == frozenset(range(5)) - ball.frontier
    assert ball.interior is ball.interior  # built once, not rebuilt per read
    dist = brute.bfs_distances(ball.tree, 0)
    for v in range(ball.vertex_count):
        assert dist[v] == abs(ball.handle_of(v) - 3)


def test_exhausted_ball_has_empty_frontier():
    t = path_tree(5)
    ball = explore_ball(TreeAsOracle(t), 10)
    assert ball.frontier == frozenset()
    assert ball.vertex_count == 5
    assert canonical_form(ball.tree, rooted=False) == canonical_form(t, rooted=False)


def test_frontier_refuses_neighbor_queries():
    ball = explore_ball(make_fixture("regular(3)"), 2)
    assert ball.vertex_count == 10
    v = next(iter(ball.frontier))
    with pytest.raises(IncompleteKnowledgeError):
        ball.neighbors(v)
    assert len(ball.neighbors(0)) == 3


def test_ball_handle_roundtrip():
    ball = explore_ball(make_fixture("sary(2)"), 3)
    for v in range(ball.vertex_count):
        assert ball.id_of(ball.handle_of(v)) == v
    with pytest.raises(InvalidVertexError):
        ball.id_of(("nope",))
    with pytest.raises(InvalidVertexError):
        ball.handle_of(ball.vertex_count)


def test_explore_ball_budget():
    with pytest.raises(BudgetExhaustedError):
        explore_ball(make_fixture("regular(3)"), 10, max_vertices=50)


def ball_interior_degrees(fixture, radius: int):
    ball = explore_ball(fixture, radius)
    return ball, {v: ball.degree(v) for v in ball.interior}


@pytest.mark.parametrize(
    "name",
    ["regular(3)", "regular(4)", "sary(1)", "sary(2)", "zline_pendant", "threereg_plus_ray", "staircase", "staircase_n(3)"],
)
def test_fixture_neighbor_symmetry(name: str):
    fixture = make_fixture(name)
    ball = explore_ball(fixture, 4)
    for v in ball.interior:
        h = ball.handle_of(v)
        for u in fixture.neighbors(h):
            assert h in fixture.neighbors(u)


def test_regular_tree_degrees():
    _, degs = ball_interior_degrees(make_fixture("regular(3)"), 4)
    assert set(degs.values()) == {3}
    _, degs4 = ball_interior_degrees(make_fixture("regular(4)"), 3)
    assert set(degs4.values()) == {4}


def test_sary_degrees_and_parent_side():
    fix = make_fixture("sary(2)")
    ball, degs = ball_interior_degrees(fix, 4)
    assert degs[0] == 2
    assert all(d == 3 for v, d in degs.items() if v != 0)
    assert fix.hanging_component_size((0, 1), (0,)) == math.inf

    ray = make_fixture("sary(1)")
    assert ray.hanging_component_size((0, 0), (0,)) == 2
    assert ray.hanging_component_size((0,), (0, 0)) == math.inf


def test_zline_pendant_shape():
    fix = make_fixture("zline_pendant")
    assert set(fix.neighbors(("z", 0))) == {("z", -1), ("z", 1), ("p", 0)}
    assert fix.neighbors(("p", 0)) == (("z", 0),)
    assert fix.hanging_component_size(("z", 0), ("p", 0)) == 1
    assert fix.hanging_component_size(("z", 0), ("z", 1)) == math.inf
    with pytest.raises(InvalidVertexError):
        fix.neighbors(("p", 1))


def test_threereg_plus_ray_shape():
    fix = make_fixture("threereg_plus_ray")
    assert len(fix.neighbors(("t", ()))) == 4
    assert len(fix.neighbors(("t", (0,)))) == 3
    assert fix.neighbors(("r", 1)) == (("t", ()), ("r", 2))
    assert fix.neighbors(("r", 5)) == (("r", 4), ("r", 6))


def test_staircase_shape_and_component_sizes():
    fix = make_fixture("staircase_n(2)")
    assert fix.neighbors((0, 0)) == ((1, 0),)
    assert set(fix.neighbors((1, 0))) == {(0, 0), (2, 0), (1, 1)}
    assert fix.neighbors((1, 2)) == ((1, 1),)

    # column above spine position i has 2*i vertices
    assert fix.hanging_component_size((3, 0), (3, 1)) == 6
    assert walk_component(fix, (3, 0), (3, 1)) == 6
    # left side of spine position i: i spine vertices plus columns 1..i-1
    assert fix.hanging_component_size((3, 0), (2, 0)) == 3 + 2 + 4
    assert walk_component(fix, (3, 0), (2, 0)) == 9
    assert fix.hanging_component_size((3, 0), (4, 0)) == math.inf
    # partway up a column only the outward stub hangs finitely
    assert fix.hanging_component_size((3, 2), (3, 3)) == 4
    assert walk_component(fix, (3, 2), (3, 3)) == 4

    plain = make_fixture("staircase")
    assert plain.hanging_component_size((4, 0), (3, 0)) == 4 + 1 + 2 + 3
    with pytest.raises(InvalidVertexError):
        plain.neighbors((2, 5))


def test_make_fixture_parsing():
    assert repr(make_fixture(" regular(3) ")) == "RegularTree(3)"
    assert repr(make_fixture("staircase")) == "Staircase(1)"
    assert repr(make_fixture("staircase_n(4)")) == "Staircase(4)"
    with pytest.raises(UnknownFixtureError):
        make_fixture("nosuch")
    with pytest.raises(UnknownFixtureError):
        make_fixture("regular")  # missing arity
    with pytest.raises(UnknownFixtureError):
        make_fixture("zline_pendant(2)")
    with pytest.raises(UnknownFixtureError):
        make_fixture("regular(1)")  # degree too small
    with pytest.raises(UnknownFixtureError):
        make_fixture("regular(3")


def test_list_fixtures():
    names = {f["name"] for f in list_fixtures()}
    assert names == {
        "regular(N)",
        "sary(N)",
        "zline_pendant",
        "threereg_plus_ray",
        "staircase",
        "staircase_n(N)",
    }
