import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from arbor import (
    InvalidVertexError,
    NULL_TREE,
    Tree,
    TreeAsOracle,
    TrimmedView,
    ball_code_sequence,
    boundary_of,
    canonical_form,
    connected_subsets,
    detect_period,
    explore_ball,
    hanging_components,
    is_inessential,
    lift_subset_through_trims,
    make_fixture,
    make_inessential,
    path_tree,
    removal_steps_in_ball,
    sary_tree,
    star_tree,
    trim,
    trim_depth,
    trim_orbit,
    trim_with_members,
)


class PlainOracle:
    """Neighbor oracle without the component-size capability."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def root(self):
        return self.inner.root

    def neighbors(self, h):
        return self.inner.neighbors(h)


class CountingOracle(PlainOracle):
    """Neighbor oracle that counts its neighbors calls."""

    def __init__(self, inner):
        super().__init__(inner)
        self.calls = 0

    def neighbors(self, h):
        self.calls += 1
        return self.inner.neighbors(h)


@st.composite
def random_trees(draw: st.DrawFn, min_size: int = 1, max_size: int = 12):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)


def test_trim_basics():
    t5, kept = trim_with_members(path_tree(5))
    assert kept == (1, 2, 3)
    assert canonical_form(t5, rooted=False) == canonical_form(path_tree(3), rooted=False)
    assert trim(path_tree(2)) is NULL_TREE
    assert trim(Tree([[]])).vertex_count == 1  # an isolated vertex is not a leaf
    assert trim(star_tree(5)).vertex_count == 1


@given(random_trees())
def test_trim_matches_reference(t: Tree):
    stages = brute.trim_stages(t)
    _, kept = trim_with_members(t)
    assert set(kept) == stages[1]


@given(random_trees())
def test_orbit_matches_reference(t: Tree):
    orbit = trim_orbit(t)
    stages = brute.trim_stages(t)
    if orbit.status == "stabilized":
        expected = stages[:-1]  # reference repeats the fixed point once
    else:
        assert orbit.status == "extinct"
        expected = stages
    assert [set(m) for m in orbit.members] == expected
    assert orbit.stage_sizes() == tuple(len(s) for s in expected)


def test_orbit_knowns():
    orbit = trim_orbit(path_tree(5))
    assert orbit.stage_sizes() == (5, 3, 1)
    assert orbit.status == "stabilized" and orbit.stabilized_at == 2

    k2 = trim_orbit(path_tree(2))
    assert k2.stage_sizes() == (2, 0)
    assert k2.status == "extinct" and k2.extinct_at == 1
    assert k2.stages[-1] is NULL_TREE

    binary = trim_orbit(sary_tree(2, 4))
    assert binary.stage_sizes() == (31, 15, 7, 3, 1)
    assert binary.status == "stabilized"


def test_orbit_membership_queries():
    orbit = trim_orbit(path_tree(5))
    assert orbit.membership_at(2, 0) and orbit.membership_at(2, 2)
    assert orbit.membership_at(2, 99)  # stabilized: membership persists
    assert not orbit.membership_at(0, 1)
    k2 = trim_orbit(path_tree(2))
    assert not k2.membership_at(0, 77)

    capped = trim_orbit(path_tree(9), max_steps=2)
    assert capped.status == "budget-exhausted"
    with pytest.raises(ValueError):
        capped.membership_at(0, 3)
    assert trim_orbit(path_tree(9), max_steps=4).status == "stabilized"
    with pytest.raises(ValueError):
        trim_orbit(path_tree(9), max_steps=0)


@given(random_trees(), st.integers(min_value=1, max_value=5))
def test_trim_depth_matches_reference(t: Tree, k: int):
    stages = brute.trim_stages(t)
    for v in range(t.vertex_count):
        step = brute.removal_step(stages, v)
        expected = step if step is not None and step <= k else None
        assert trim_depth(TreeAsOracle(t, root=v), v, k) == expected


def test_trim_depth_edges():
    oracle = TreeAsOracle(path_tree(5))
    assert trim_depth(oracle, 2, 0) is None
    assert trim_depth(oracle, 0, 1) == 1
    assert trim_depth(oracle, 2, 50) is None
    with pytest.raises(ValueError):
        trim_depth(oracle, 0, -1)


def test_trim_depth_on_infinite_hosts():
    z = make_fixture("zline_pendant")
    assert trim_depth(z, ("p", 0), 1) == 1
    assert trim_depth(z, ("z", 0), 6) is None
    st1 = make_fixture("staircase")
    assert trim_depth(st1, (0, 0), 3) == 1
    assert trim_depth(st1, (1, 0), 3) == 2
    assert trim_depth(st1, (5, 5), 3) == 1  # column top
    assert trim_depth(st1, (5, 0), 3) is None


@given(random_trees(min_size=2))
def test_removal_steps_whole_tree(t: Tree):
    ball = explore_ball(TreeAsOracle(t), t.vertex_count + 1)
    assert ball.frontier == frozenset()
    removed, known = removal_steps_in_ball(ball, 8)
    stages = brute.trim_stages(t)
    for v in range(ball.vertex_count):
        step = brute.removal_step(stages, ball.handle_of(v))
        assert known[v] == 8
        assert removed[v] == (step if step is not None and step <= 8 else None)


def test_removal_steps_respect_frontier():
    fix = make_fixture("staircase")
    ball = explore_ball(fix, 5)
    removed, known = removal_steps_in_ball(ball, 5)
    dist = brute.bfs_distances(ball.tree, 0)
    for v in range(ball.vertex_count):
        assert known[v] == min(5, 5 - dist[v])
        if removed[v] is not None:
            assert removed[v] == trim_depth(fix, ball.handle_of(v), removed[v])
        elif known[v] > 0:
            assert trim_depth(fix, ball.handle_of(v), known[v]) is None


def test_trimmed_view_leafless_host():
    view = TrimmedView(make_fixture("regular(3)"), 3)
    assert view.root == ()
    assert view.survives((0, 1))
    assert set(view.neighbors(())) == set(make_fixture("regular(3)").neighbors(()))


def test_trimmed_view_drops_pendant():
    view = TrimmedView(make_fixture("zline_pendant"), 1)
    assert not view.survives(("p", 0))
    assert view.root == ("z", 0)
    assert set(view.neighbors(("z", 0))) == {("z", -1), ("z", 1)}
    with pytest.raises(InvalidVertexError):
        view.neighbors(("p", 0))
    with pytest.raises(ValueError):
        TrimmedView(make_fixture("zline_pendant"), -1)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_trimmed_view_root_walks_the_spine(level: int):
    # each trim round eats one more spine prefix of the staircase
    view = TrimmedView(make_fixture("staircase"), level)
    assert view.root == (level, 0)


def test_trimmed_view_definite_emptiness():
    view = TrimmedView(TreeAsOracle(path_tree(2)), 1)
    assert view.root is None
    deep = TrimmedView(TreeAsOracle(path_tree(9, root=4)), 4)
    assert deep.root == 4
    assert TrimmedView(TreeAsOracle(path_tree(9, root=4)), 5).root == 4  # K1 persists


def test_ball_code_sequence_stabilizes():
    codes = ball_code_sequence(TreeAsOracle(path_tree(9, root=4)), 4, 6)
    assert len(codes) == 7
    assert codes[4] == codes[5] == codes[6]
    q, p = detect_period(codes)
    assert p == 1

    gone = ball_code_sequence(TreeAsOracle(path_tree(2)), 3, 4)
    assert gone[-1] == b"*"
    assert len(gone) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_staircase_codes_are_periodic(n: int):
    fix = make_fixture(f"staircase_n({n})")
    codes = ball_code_sequence(fix, 6, 3 * n)
    assert b"*" not in codes
    period = detect_period(codes)
    assert period is not None
    assert period[1] == n


def test_detect_period_units():
    a, b, c, d, x = b"a", b"b", b"c", b"d", b"x"
    assert detect_period([a, b, a, b, a]) == (0, 2)
    assert detect_period([x, a, b, a, b]) == (1, 2)
    assert detect_period([a, a, a]) == (0, 1)
    assert detect_period([a, b, c, d]) is None
    assert detect_period([a, b]) is None


@given(random_trees(min_size=4, max_size=10))
def test_inessential_agrees_with_edge_complement(t: Tree):
    for sub in connected_subsets(t, t.vertex_count - 1):
        if len(sub) < 2:
            continue
        fast = is_inessential(t, sub)
        assert fast == brute.edge_complement_is_connected(t, sub)
        assert fast == brute.inessential_by_components(t, sub)


def test_inessential_rejects_degenerates():
    t = path_tree(5)
    with pytest.raises(ValueError):
        is_inessential(t, {2})
    with pytest.raises(ValueError):
        is_inessential(t, {0, 2})
    with pytest.raises(ValueError):
        is_inessential(t, range(5))


def test_make_inessential_and_find_root():
    t = star_tree(4)
    ines = make_inessential(t, {0, 1, 2})
    assert ines.root == 0
    assert ines.size == 3
    with pytest.raises(ValueError):
        make_inessential(path_tree(5), {1, 2, 3})  # two members touch outside


@given(random_trees(min_size=3, max_size=10))
def test_make_inessential_reads_no_more_neighbors_than_is_inessential(t: Tree):
    for sub in connected_subsets(t, t.vertex_count - 1):
        if len(sub) < 2 or not is_inessential(t, sub):
            continue
        test_host, make_host = CountingOracle(t), CountingOracle(t)
        is_inessential(test_host, sub)
        ines = make_inessential(make_host, sub)
        assert make_host.calls <= test_host.calls
        assert boundary_of(t, sub) == {ines.root}


def test_hanging_components_with_capability():
    comps = hanging_components(make_fixture("zline_pendant"), ("z", 0))
    by_attach = {c.attach: c for c in comps}
    assert by_attach[("p", 0)].status == "finite"
    assert by_attach[("p", 0)].members == frozenset({("p", 0)})
    assert by_attach[("z", 1)].status == "infinite"
    assert by_attach[("z", -1)].size is None


def test_hanging_components_by_walk():
    t = path_tree(7)
    comps = hanging_components(PlainOracle(TreeAsOracle(t, root=3)), 3)
    assert {c.attach: c.size for c in comps} == {2: 3, 4: 3}
    assert all(c.status == "finite" for c in comps)

    capped = hanging_components(PlainOracle(make_fixture("regular(3)")), (), max_vertices=40)
    assert all(c.status == "unknown" and c.members is None for c in capped)


def test_hanging_components_finite_but_unwalkable():
    comps = hanging_components(make_fixture("staircase"), (9, 0), max_vertices=5)
    by_attach = {c.attach: c for c in comps}
    left = by_attach[(8, 0)]
    assert left.status == "finite" and left.size == 45 and left.members is None
    assert by_attach[(10, 0)].status == "infinite"


def test_lift_subset_through_trims_preserves_boundary():
    z = make_fixture("zline_pendant")
    members = {("z", 0), ("z", 1)}
    lifted = lift_subset_through_trims(z, members, 1)
    assert lifted == frozenset({("z", 0), ("z", 1), ("p", 0)})
    assert boundary_of(z, lifted) == frozenset(members)

    fix = make_fixture("staircase")
    lifted2 = lift_subset_through_trims(fix, {(2, 0)}, 2)
    assert lifted2 == frozenset({(2, 0), (2, 1), (2, 2), (1, 0), (1, 1), (0, 0)})
    assert boundary_of(fix, lifted2) == frozenset({(2, 0)})


@given(random_trees(min_size=2, max_size=11), st.integers(min_value=0, max_value=10**6))
def test_leaf_iff_inessential(t: Tree, seed: int):
    exterior = random.Random(seed).randrange(t.vertex_count)
    assert brute.leaf_iff_inessential_check(t, exterior)
