import math
import random
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from arbor import (
    BudgetExhaustedError,
    GWSpec,
    IncompleteKnowledgeError,
    InvalidVertexError,
    NotATreeError,
    Tree,
    TreeAsOracle,
    UnknownFixtureError,
    canonical_form,
    explore_ball,
    list_fixtures,
    make_fixture,
    path_tree,
    sample,
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
    t = Tree.from_edges(brute.random_tree_edges(rng, n))
    return TreeAsOracle(Tree(t.adjacency, root=draw(st.integers(min_value=1, max_value=n - 1))))


def test_tree_oracle_root_defaults():
    assert TreeAsOracle(Tree(path_tree(4).adjacency, root=2)).root == 2
    assert TreeAsOracle(path_tree(4)).root == 0


@given(finite_oracles(), st.randoms(use_true_random=False))
def test_tree_oracle_component_sizes(oracle: TreeAsOracle, rng: random.Random):
    t = oracle.tree
    n = t.vertex_count
    order = list(range(n))  # every leaf appears as r
    rng.shuffle(order)  # the first call builds the cached pass, whichever vertex it is
    for r in order:
        sizes = oracle.hanging_component_sizes(r)
        assert list(sizes) == list(oracle.neighbors(r))
        for u, size in sizes.items():
            assert size == walk_component(oracle, r, u)
            assert size + oracle.hanging_component_sizes(u)[r] == n
    with pytest.raises(InvalidVertexError):
        oracle.hanging_component_sizes(n)


# fixture -> invalid vertices r whose hanging_component_sizes call fails, with the error each raises
COMPONENT_SIZE_ERRORS = {
    "regular(3)": [
        ("x", InvalidVertexError, "handle 'x' is not a tuple"),
        ((9,), InvalidVertexError, "handle (9,) has an out-of-range step"),
    ],
    "sary(2)": [
        ((2,), InvalidVertexError, "handle (2,) has an out-of-range step"),
        ("x", InvalidVertexError, "handle 'x' is not a tuple"),
    ],
    "zline_pendant": [
        (("p", 1), InvalidVertexError, "handle ('p', 1) is not a vertex of this tree"),
        (("z",), InvalidVertexError, "handle ('z',) is not a vertex of this tree"),
    ],
    "threereg_plus_ray": [
        (("r", 0), InvalidVertexError, "handle ('r', 0) is not a vertex of this tree"),
        (("s", ()), InvalidVertexError, "handle ('s', ()) is not a vertex of this tree"),
        (("t",), InvalidVertexError, "handle ('t',) is not a vertex of this tree"),
        (("t", 5), InvalidVertexError, "handle ('t', 5) is not a vertex of this tree"),
        (("t", (3,)), InvalidVertexError, "handle ('t', (3,)) has an out-of-range step"),
    ],
    "staircase": [
        ((2, 5), InvalidVertexError, "handle (2, 5) is not a vertex of this tree"),
        ((0, 1), InvalidVertexError, "handle (0, 1) is not a vertex of this tree"),
    ],
}


@pytest.mark.parametrize("fixture", sorted(COMPONENT_SIZE_ERRORS))
def test_fixture_component_size_errors(fixture: str):
    fix = make_fixture(fixture)
    for r, exc, message in COMPONENT_SIZE_ERRORS[fixture]:
        with pytest.raises(exc) as info:
            fix.hanging_component_sizes(r)
        assert type(info.value) is exc
        assert str(info.value) == message


def test_explore_ball_matches_distances():
    t = Tree(path_tree(7).adjacency, root=3)
    ball = explore_ball(TreeAsOracle(t), 2)
    assert ball.vertex_count == 5
    assert ball.root == 0
    assert ball.handle_of(0) == 3
    assert sorted(ball.handle_of(v) for v in ball.frontier) == [1, 5]
    assert ball.interior == frozenset(range(5)) - ball.frontier
    assert ball.interior is ball.interior  # built once, not rebuilt per read
    assert repr(ball) == "Ball(radius=2, 5 vertices, frontier=2)"
    dist = brute.bfs_distances(ball.tree, 0)
    for v in range(ball.vertex_count):
        assert dist[v] == abs(ball.handle_of(v) - 3)


@pytest.mark.parametrize("name", ["regular(3)", "sary(2)", "zline_pendant", "threereg_plus_ray", "staircase"])
def test_ball_depths_match_bfs(name: str):
    for radius in range(5):
        ball = explore_ball(make_fixture(name), radius)
        assert ball.frontier or radius == 0
        dist = brute.bfs_distances(ball.tree, 0)
        assert ball.depths == tuple(dist[v] for v in range(ball.vertex_count))
        # the frontier is the ids at depth exactly radius, and the interior the rest
        assert ball.frontier == frozenset(v for v, d in enumerate(ball.depths) if d == radius)
        assert ball.sorted_interior == tuple(v for v, d in enumerate(ball.depths) if d < radius)
        assert ball.interior == frozenset(ball.sorted_interior)
    whole = explore_ball(TreeAsOracle(Tree(path_tree(6).adjacency, root=2)), 10)
    assert whole.depths == (0, 1, 1, 2, 2, 3)


def test_exhausted_ball_has_empty_frontier():
    t = Tree(path_tree(5).adjacency, root=0)
    ball = explore_ball(TreeAsOracle(t), 10)
    assert ball.frontier == frozenset()
    assert ball.vertex_count == 5
    assert canonical_form(ball.tree) == canonical_form(t)


def test_frontier_refuses_neighbor_queries():
    ball = explore_ball(make_fixture("regular(3)"), 2)
    assert ball.vertex_count == 10
    v = next(iter(ball.frontier))
    with pytest.raises(IncompleteKnowledgeError):
        ball.neighbors(v)
    assert len(ball.neighbors(0)) == 3


@pytest.mark.parametrize("make_ball", [
    lambda: explore_ball(make_fixture("regular(3)"), 3),
    lambda: explore_ball(make_fixture("staircase"), 6),
    lambda: explore_ball(make_fixture("regular(3)"), 0),
    lambda: explore_ball(TreeAsOracle(path_tree(5)), 10),
    lambda: sample(GWSpec(("1/4", "1/4", "1/2")), 2, 4).truncate_ball(4),
    lambda: sample(GWSpec((0, 0, 1)), 1, 3).truncate_ball(0),
], ids=["regular3", "staircase", "radius0", "exhausted", "gw", "gw_radius0"])
def test_ball_neighbors_read_the_adjacency_of_interior_ids_alone(make_ball):
    ball = make_ball()
    for v in range(ball.vertex_count):
        if v in ball.interior:
            assert ball.neighbors(v) is ball.tree.adjacency[v]
        else:
            with pytest.raises(IncompleteKnowledgeError, match=f"^vertex {v} is on the exploration frontier"):
                ball.neighbors(v)
    for v in (-1, ball.vertex_count):
        with pytest.raises(InvalidVertexError, match=f"^vertex {v} is out of range"):
            ball.neighbors(v)


def test_ball_handles_are_distinct_and_range_checked():
    ball = explore_ball(make_fixture("sary(2)"), 3)
    assert len(set(map(ball.handle_of, range(ball.vertex_count)))) == ball.vertex_count
    with pytest.raises(InvalidVertexError):
        ball.handle_of(ball.vertex_count)


def test_explore_ball_budget():
    with pytest.raises(BudgetExhaustedError):
        explore_ball(make_fixture("regular(3)"), 10, max_vertices=50)


class ListedOracle:
    """A host that answers ``neighbors`` from a fixed table, right or wrong."""

    root = 0

    def __init__(self, table: dict):
        self.table = table

    def neighbors(self, h):
        return self.table[h]


def test_explore_ball_rejects_a_cycle_oracle():
    square = ListedOracle({0: [1, 3], 1: [0, 2], 2: [1, 3], 3: [2, 0]})
    with pytest.raises(NotATreeError, match="cycle"):
        explore_ball(square, 2)


def test_explore_ball_rejects_a_repeated_neighbor():
    # Only the type is pinned: the ball's edge count catches this as a cycle.
    twice = ListedOracle({0: [1, 1], 1: [0]})
    with pytest.raises(NotATreeError):
        explore_ball(twice, 1)


def test_explore_ball_drops_an_edge_inside_a_layer():
    triangle = ListedOracle({0: [1, 2], 1: [0, 2], 2: [0, 1]})
    ball = explore_ball(triangle, 3)
    assert ball.tree == Tree([[1, 2], [0], [0]], root=0)
    assert ball.frontier == frozenset()


def ball_interior_degrees(fixture, radius: int):
    ball = explore_ball(fixture, radius)
    return ball, {v: len(ball.neighbors(v)) for v in ball.interior}


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
    assert fix.hanging_component_sizes((0, 1)) == {(0,): math.inf, (0, 1, 0): math.inf, (0, 1, 1): math.inf}
    assert fix.hanging_component_sizes(()) == {(0,): math.inf, (1,): math.inf}

    ray = make_fixture("sary(1)")
    assert ray.hanging_component_sizes((0, 0)) == {(0,): 2, (0, 0, 0): math.inf}
    assert ray.hanging_component_sizes(()) == {(0,): math.inf}


def test_zline_pendant_shape():
    fix = make_fixture("zline_pendant")
    assert set(fix.neighbors(("z", 0))) == {("z", -1), ("z", 1), ("p", 0)}
    assert fix.neighbors(("p", 0)) == (("z", 0),)
    assert fix.hanging_component_sizes(("z", 0)) == {("z", -1): math.inf, ("z", 1): math.inf, ("p", 0): 1}
    assert fix.hanging_component_sizes(("p", 0)) == {("z", 0): math.inf}
    assert fix.hanging_component_sizes(("z", 3)) == {("z", 2): math.inf, ("z", 4): math.inf}
    with pytest.raises(InvalidVertexError):
        fix.neighbors(("p", 1))


def test_threereg_plus_ray_shape():
    fix = make_fixture("threereg_plus_ray")
    assert len(fix.neighbors(("t", ()))) == 4
    assert len(fix.neighbors(("t", (0,)))) == 3
    assert fix.neighbors(("r", 1)) == (("t", ()), ("r", 2))
    assert fix.neighbors(("r", 5)) == (("r", 4), ("r", 6))
    assert set(fix.hanging_component_sizes(("t", ()))) == set(fix.neighbors(("t", ())))
    assert set(fix.hanging_component_sizes(("t", ())).values()) == {math.inf}


def test_staircase_shape_and_component_sizes():
    fix = make_fixture("staircase_n(2)")
    assert fix.neighbors((0, 0)) == ((1, 0),)
    assert set(fix.neighbors((1, 0))) == {(0, 0), (2, 0), (1, 1)}
    assert fix.neighbors((1, 2)) == ((1, 1),)

    # column above spine position i has 2*i vertices; left side of spine
    # position i: i spine vertices plus columns 1..i-1
    assert fix.hanging_component_sizes((3, 0)) == {(2, 0): 3 + 2 + 4, (3, 1): 6, (4, 0): math.inf}
    assert walk_component(fix, (3, 0), (3, 1)) == 6
    assert walk_component(fix, (3, 0), (2, 0)) == 9
    # partway up a column only the outward stub hangs finitely
    assert fix.hanging_component_sizes((3, 2)) == {(3, 1): math.inf, (3, 3): 4}
    assert walk_component(fix, (3, 2), (3, 3)) == 4
    assert fix.hanging_component_sizes((3, 6)) == {(3, 5): math.inf}
    assert fix.hanging_component_sizes((0, 0)) == {(1, 0): math.inf}

    plain = make_fixture("staircase")
    assert plain.hanging_component_sizes((4, 0))[(3, 0)] == 4 + 1 + 2 + 3
    with pytest.raises(InvalidVertexError):
        plain.neighbors((2, 5))


def test_make_fixture_parsing():
    assert repr(make_fixture(" regular(3) ")) == "RegularTree(3)"
    assert repr(make_fixture("staircase")) == "Staircase(1)"
    assert repr(make_fixture("staircase_n(4)")) == "Staircase(4)"
    assert repr(make_fixture("sary(2)")) == "SAryTree(2)"
    assert repr(make_fixture("zline_pendant")) == "ZLinePendant()"
    assert repr(make_fixture("threereg_plus_ray")) == "ThreeRegularPlusRay()"
    with pytest.raises(UnknownFixtureError):
        make_fixture("nosuch")
    with pytest.raises(UnknownFixtureError):
        make_fixture("regular")  # missing arity
    with pytest.raises(UnknownFixtureError):
        make_fixture("zline_pendant(2)")
    with pytest.raises(UnknownFixtureError):
        make_fixture("regular(1)")  # degree too small
    with pytest.raises(UnknownFixtureError, match=r"^bad fixture arguments for 'sary': child count must be at least 1$"):
        make_fixture("sary(0)")
    with pytest.raises(UnknownFixtureError, match=r"^bad fixture arguments for 'staircase_n': column slope must be at least 1$"):
        make_fixture("staircase_n(0)")
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
