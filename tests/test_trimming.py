import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arbor.trimming as trimming
import brute
from arbor import (
    BudgetExhaustedError,
    InvalidVertexError,
    Tree,
    TreeAsOracle,
    TrimmedView,
    ball_code_sequence,
    boundary_of,
    detect_period,
    explore_ball,
    is_inessential,
    make_fixture,
    path_tree,
    sary_tree,
    trim_depth,
    trim_orbit,
)
from arbor.trimming import lift_subset_through_trims, removal_steps_in_ball
from brute import star_tree


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
    return Tree.from_edges(brute.random_tree_edges(rng, n))


def stage_members(orbit, n: int, k: int) -> set[int]:
    return {v for v in range(n) if orbit.membership_at(v, k)}


def test_trim_basics():
    assert stage_members(trim_orbit(path_tree(5), max_steps=1), 5, 1) == {1, 2, 3}
    assert trim_orbit(path_tree(2)).stage_sizes() == (2, 0)
    assert trim_orbit(Tree([[]])).stage_sizes() == (1,)  # an isolated vertex is not a leaf
    assert trim_orbit(star_tree(5)).stage_sizes() == (6, 1)


@given(random_trees())
def test_trim_matches_reference(t: Tree):
    stages = brute.trim_stages(t)
    assert stage_members(trim_orbit(t, max_steps=1), t.vertex_count, 1) == stages[1]


@given(random_trees())
def test_orbit_matches_reference(t: Tree):
    n = t.vertex_count
    stages = brute.trim_stages(t)
    stabilized = stages[-1] == stages[-2]  # the reference repeats a fixed point once
    last = len(stages) - 2 if stabilized else len(stages) - 1  # rounds to the fixed point
    for m in (None, *range(1, n + 2)):
        orbit = trim_orbit(t, max_steps=m)
        if m is not None and m < last:
            assert orbit.status == "budget-exhausted" and orbit.rounds == m
            assert orbit.stage_sizes() == tuple(len(s) for s in stages[: m + 1])
            assert orbit.to_json() == {"stages": list(orbit.stage_sizes()), "status": "budget-exhausted"}
            with pytest.raises(ValueError):
                orbit.membership_at(0, m + 1)
            asked = m
        else:
            status = "stabilized" if stabilized else "extinct"
            assert orbit.status == status and orbit.rounds == last
            assert orbit.stage_sizes() == tuple(len(s) for s in stages[: last + 1])
            assert orbit.to_json() == {"stages": list(orbit.stage_sizes()), "status": status, f"{status}_at": last}
            asked = n + 2
        for k in range(asked + 1):
            assert stage_members(orbit, n, k) == stages[min(k, last)]


def test_orbit_knowns():
    orbit = trim_orbit(path_tree(5))
    assert orbit.stage_sizes() == (5, 3, 1)
    assert orbit.status == "stabilized" and orbit.rounds == 2
    assert orbit.to_json() == {"stages": [5, 3, 1], "status": "stabilized", "stabilized_at": 2}

    k2 = trim_orbit(path_tree(2))
    assert k2.stage_sizes() == (2, 0)
    assert k2.status == "extinct" and k2.rounds == 1
    assert k2.to_json() == {"stages": [2, 0], "status": "extinct", "extinct_at": 1}
    assert k2.removed_at == (1, 1)
    assert stage_members(k2, 2, 1) == set()

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
    with pytest.raises(ValueError):
        orbit.membership_at(2, -1)
    for v in (-1, 5):  # ids outside 0..n-1 are an error, not "trimmed away"
        with pytest.raises(InvalidVertexError):
            orbit.membership_at(v, 0)


@given(random_trees(), st.integers(min_value=1, max_value=5))
def test_trim_depth_matches_reference(t: Tree, k: int):
    stages = brute.trim_stages(t)
    for v in range(t.vertex_count):
        step = brute.removal_step(stages, v)
        expected = step if step is not None and step <= k else None
        assert trim_depth(TreeAsOracle(Tree(t.adjacency, root=v)), v, k) == expected


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


SMALL_FIXTURES = ["regular(3)", "sary(2)", "staircase", "staircase_n(2)", "threereg_plus_ray", "zline_pendant"]


def chain(oracle, top: int, max_vertices=None) -> list:
    """The views at levels 0..top of one chain, grown with trimmed()."""
    views = [TrimmedView(oracle, 0, max_vertices)]
    for _ in range(top):
        views.append(views[-1].trimmed())
    return views


@given(random_trees(), st.integers(min_value=0, max_value=3), st.randoms(use_true_random=False))
def test_trimmed_view_levels_match_orbit_and_reference(t: Tree, extra: int, rng):
    n = t.vertex_count
    orbit = trim_orbit(t)
    oracle = TreeAsOracle(t)
    top = n // 2 + extra  # past the orbit's end, where membership stays put
    views = chain(oracle, top)
    pairs = [(k, v) for k in range(top + 1) for v in range(n)]
    rng.shuffle(pairs)  # the memos must not depend on the order of the queries
    for k, v in pairs:
        expected = orbit.membership_at(v, k)
        assert views[k].survives(v) == TrimmedView(oracle, k).survives(v) == expected
        depth = brute.trim_depth_by_ball(oracle, v, k)
        assert expected == (depth is None)
        assert trim_depth(oracle, v, k) == depth


@given(st.sampled_from(SMALL_FIXTURES), st.integers(min_value=0, max_value=4), st.randoms(use_true_random=False))
def test_trimmed_view_on_fixtures_matches_reference(name: str, top: int, rng):
    fix = make_fixture(name)
    views = chain(fix, top)
    pairs = [(k, h) for k in range(top + 1) for h in explore_ball(fix, 2).handles]
    rng.shuffle(pairs)
    for k, h in pairs:
        assert views[k].survives(h) == (brute.trim_depth_by_ball(fix, h, k) is None)


@given(random_trees(), st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=14))
def test_chain_budget_holds_wherever_the_ball_fits(t: Tree, k: int, max_vertices: int):
    oracle = TreeAsOracle(t)
    shared = TrimmedView(oracle, k, max_vertices)
    for v in range(t.vertex_count):
        try:
            depth = brute.trim_depth_by_ball(oracle, v, k, max_vertices)
        except BudgetExhaustedError:
            continue
        assert trim_depth(oracle, v, k) == depth
        assert shared.survives(v) == (depth is None)


@given(st.sampled_from(SMALL_FIXTURES), st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=60))
def test_chain_budget_holds_wherever_the_ball_fits_on_fixtures(name: str, k: int, max_vertices: int):
    fix = make_fixture(name)
    shared = TrimmedView(fix, k, max_vertices)
    for h in explore_ball(fix, 2).handles:
        try:
            depth = brute.trim_depth_by_ball(fix, h, k, max_vertices)
        except BudgetExhaustedError:
            continue
        assert trim_depth(fix, h, k) == depth
        assert shared.survives(h) == (depth is None)


def test_deep_chain_needs_no_recursion():
    oracle = TreeAsOracle(path_tree(5))
    view = TrimmedView(oracle, 5000)
    assert view.survives(2) and not view.survives(1)
    assert view.root == 2
    assert view.neighbors(2) == ()
    assert trim_depth(oracle, 1, 5000) == 2
    assert lift_subset_through_trims(view, [2]) == frozenset(range(5))


def test_survival_queries_explore_no_ball(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a survival query explored a ball or peeled one")

    for name in ("explore_ball", "peel"):
        monkeypatch.setattr(trimming, name, refuse)
    fix = make_fixture("staircase")
    view = TrimmedView(fix, 3)
    assert view.root == (3, 0)
    assert set(view.neighbors((3, 0))) == {(4, 0)}
    assert trim_depth(fix, (4, 1), 5) == 4
    assert lift_subset_through_trims(view, [(3, 0)]) == brute.lift_by_ball(fix, [(3, 0)], 3)


@pytest.mark.parametrize("max_vertices", [0, -5])
def test_budgets_below_one_vertex_are_rejected(max_vertices: int):
    fix = make_fixture("regular(3)")
    with pytest.raises(ValueError, match="max_vertices"):
        TrimmedView(fix, 2, max_vertices)
    with pytest.raises(ValueError, match="max_vertices"):
        explore_ball(fix, 2, max_vertices=max_vertices)
    with pytest.raises(ValueError, match="max_vertices"):
        ball_code_sequence(fix, 2, 2, max_vertices)


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
    deep = TrimmedView(TreeAsOracle(Tree(path_tree(9).adjacency, root=4)), 4)
    assert deep.root == 4
    assert TrimmedView(TreeAsOracle(Tree(path_tree(9).adjacency, root=4)), 5).root == 4  # K1 persists


def test_ball_code_sequence_stabilizes():
    codes = ball_code_sequence(TreeAsOracle(Tree(path_tree(9).adjacency, root=4)), 4, 6)
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
    for sub in brute.connected_subsets_by_closed_union(t, t.vertex_count - 1):
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
    members, root = brute.make_inessential(t, {0, 1, 2})
    assert root == 0
    assert members == frozenset({0, 1, 2})
    with pytest.raises(ValueError):
        brute.make_inessential(path_tree(5), {1, 2, 3})  # two members touch outside


@given(random_trees(min_size=3, max_size=10))
def test_is_inessential_reads_each_member_at_most_twice(t: Tree):
    # once to check the members are connected, once for their boundary
    for sub in brute.connected_subsets_by_closed_union(t, t.vertex_count - 1):
        if len(sub) < 2:
            continue
        host = CountingOracle(t)
        is_inessential(host, sub)
        assert host.calls <= 2 * len(sub)


def test_lift_subset_through_trims_preserves_boundary():
    z = make_fixture("zline_pendant")
    members = [("z", 0), ("z", 1)]
    lifted = lift_subset_through_trims(TrimmedView(z, 1), members)
    assert lifted == frozenset({("z", 0), ("z", 1), ("p", 0)}) == brute.lift_by_ball(z, members, 1)
    assert boundary_of(z, lifted) == frozenset(members)

    fix = make_fixture("staircase")
    lifted2 = lift_subset_through_trims(TrimmedView(fix, 2), [(2, 0)])
    assert lifted2 == frozenset({(2, 0), (2, 1), (2, 2), (1, 0), (1, 1), (0, 0)})
    assert boundary_of(fix, lifted2) == frozenset({(2, 0)})


@given(random_trees(min_size=2), st.integers(min_value=0, max_value=4), st.randoms(use_true_random=False))
def test_lift_subset_through_trims_matches_reference(t: Tree, k: int, rng):
    oracle = TreeAsOracle(t)
    view = TrimmedView(oracle, k)
    survivors = [v for v in range(t.vertex_count) if view.survives(v)]
    if survivors:
        members = rng.sample(survivors, rng.randint(1, len(survivors)))
        assert lift_subset_through_trims(view, members) == brute.lift_by_ball(oracle, members, k)


@given(random_trees(min_size=2, max_size=11), st.integers(min_value=0, max_value=10**6))
def test_leaf_iff_inessential(t: Tree, seed: int):
    exterior = random.Random(seed).randrange(t.vertex_count)
    assert brute.leaf_iff_inessential_check(t, exterior)
