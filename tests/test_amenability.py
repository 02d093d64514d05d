import io
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from functools import cmp_to_key
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import arbor.amenability as amenability
import arbor.cli as cli
import brute
from arbor import (
    BudgetExhaustedError,
    ClassifyBudgets,
    DeclaredBounds,
    DeclaredBoundsRefutedError,
    DegenerateImageError,
    GWSpec,
    IncompleteKnowledgeError,
    SearchTooLargeError,
    Tree,
    TreeAsOracle,
    TrimmedView,
    UnsupportedStructureError,
    boundary_of,
    cheeger_exact,
    classify,
    explore_ball,
    jsonable,
    make_fixture,
    min_degree3_bound_check,
    path_tree,
    random_connected_subset,
    sample,
    sandwich_check,
    subdivide_tree,
)
from arbor.amenability import (
    _FLOAT_EXACT,
    _branchless_run,
    _degree3_bound,
    _inessential_witnesses,
    _least_by_knapsack,
    _least_by_walk,
    _members_cmp,
    _path_witnesses,
    _ratio_keys,
    _spliced_component,
    _witness_order,
    contract_branchless,
)
from arbor.errors import SandwichViolationError
from arbor.exploration import _NeighborMemo
from arbor.fixtures import Staircase
from arbor.trees import reach, sorted_handles
from arbor.trimming import lift_subset_through_trims
from brute import star_tree


@st.composite
def random_trees(draw: st.DrawFn, min_size: int = 2, max_size: int = 10):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return Tree.from_edges(brute.random_tree_edges(rng, n))


@given(random_trees(min_size=1, max_size=12), st.integers(min_value=1, max_value=6), st.data())
def test_cheeger_matches_enumeration(t: Tree, max_size: int, data):
    region = data.draw(st.none() | st.sets(st.integers(0, t.vertex_count - 1), min_size=1), label="region")
    result = cheeger_exact(t if region is None else brute.region_host(t, region), max_size)
    value, argmin, count = brute.cheeger_by_enumeration(t, max_size, region)
    assert result.value == value
    assert result.argmin.members == argmin
    assert result.scope["subsets_enumerated"] == count
    assert result.argmin.ratio == result.value


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
)
def test_cheeger_matches_enumeration_on_graphs_with_cycles(seed: int, n: int, extra: int, max_size: int):
    host = brute.random_graph(random.Random(seed), n, extra)
    result = cheeger_exact(host, max_size)
    value, argmin, count = brute.cheeger_by_enumeration(host, max_size)
    assert (result.value, result.argmin.members, result.scope["subsets_enumerated"]) == (value, argmin, count)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.data(),
)
def test_cheeger_matches_enumeration_on_graphs_with_cycles_narrowed_to_a_region(
    seed: int, n: int, extra: int, max_size: int, data
):
    # the pool's neighbors outside the region still count toward the boundary
    host = brute.random_graph(random.Random(seed), n, extra)
    region = data.draw(st.sets(st.integers(0, n - 1), min_size=1), label="region")
    result = cheeger_exact(brute.region_host(host, region), max_size)
    value, argmin, count = brute.cheeger_by_enumeration(host, max_size, region)
    assert (result.value, result.argmin.members, result.scope["subsets_enumerated"]) == (value, argmin, count)


def test_cheeger_deterministic_tiebreak():
    t = path_tree(7)
    a = cheeger_exact(t, 3)
    b = cheeger_exact(t, 3)
    assert a.argmin.members == b.argmin.members
    assert a.value == Fraction(1, 3)  # an end segment beats interior ones
    assert a.argmin.members == frozenset({0, 1, 2})
    # equal ratio and size: the sorted members' repr strings decide, and "10" < "9"
    assert cheeger_exact(brute.region_host(path_tree(12), [9, 10]), 1).argmin.members == frozenset({10})
    # {3}, {4} and {3, 4} all have ratio 1 in this region: the smaller size wins first
    assert cheeger_exact(brute.region_host(path_tree(8), [3, 4]), 2).argmin.members == frozenset({3})


def test_cheeger_region_and_errors(monkeypatch):
    t = path_tree(8)
    capped = cheeger_exact(brute.region_host(t, [2, 3, 4]), 3)
    assert capped.value == Fraction(2, 3)
    assert capped.scope == {"max_size": 3, "subsets_enumerated": 6}
    with pytest.raises(ValueError):
        cheeger_exact(t, 0)
    with pytest.raises(ValueError):
        cheeger_exact(brute.region_host(t, []), 3)
    with pytest.raises(ValueError, match="^no admissible subsets: the search region is empty$"):
        cheeger_exact(explore_ball(make_fixture("regular(3)"), 0), 3)  # a lone center is all frontier
    ball = explore_ball(make_fixture("regular(3)"), 2)
    whole = brute.region_host(ball, range(ball.vertex_count))
    for max_size in (1, 3):  # a region reaching the frontier has no exact boundary
        with pytest.raises(IncompleteKnowledgeError):
            cheeger_exact(whole, max_size)
    # every pool vertex is asked for its neighbors before any subset is counted
    monkeypatch.setattr(amenability, "_GUARD", 0)
    with pytest.raises(IncompleteKnowledgeError):
        cheeger_exact(whole, 3)


def test_cheeger_on_regular_ball():
    # min over sizes <= 8 of ceil((n+2)/2)/n in the degree-3 tree
    ball = explore_ball(make_fixture("regular(3)"), 6)
    result = cheeger_exact(ball, 8)
    assert result.value == Fraction(5, 8)
    assert result.scope["subsets_enumerated"] > 1000


FIXTURES = [
    "regular(3)", "regular(4)", "sary(2)", "sary(3)", "staircase", "staircase_n(2)",
    "staircase_n(3)", "threereg_plus_ray", "zline_pendant",
]


def _small_balls(limit: int = 16) -> list:
    """Fixture balls whose interior holds at most ``limit`` vertices, few enough for the brute reference."""
    out = []
    for name in FIXTURES:
        for radius in range(1, 9):
            ball = explore_ball(make_fixture(name), radius)
            if len(ball.interior) > limit:
                break
            out.append(ball)
    return out


SMALL_BALLS = _small_balls()
# (law, deepest truncation): each truncated ball's interior stays within 15 vertices
GW_BALL_LAWS = [((0, 0, 0, 1), 3), ((0, 0, "1/2", "1/2"), 3), (("1/4", "1/4", "1/2"), 4), (("1/2", 0, "1/2"), 4)]


def check_cheeger_against_brute(host, max_size: int, region=None) -> None:
    if region is not None:
        host = brute.region_host(host, region)
    result = cheeger_exact(host, max_size)
    expected = brute.cheeger_by_enumeration(host, max_size, getattr(host, "sorted_interior", None))
    assert (result.value, result.argmin.members, result.scope["subsets_enumerated"]) == expected
    assert result.argmin.boundary == brute.boundary(host, result.argmin.members)
    assert result.argmin.ratio == result.value


@given(st.sampled_from(SMALL_BALLS), st.integers(min_value=1, max_value=5), st.data())
def test_cheeger_matches_enumeration_on_fixture_balls(ball, max_size: int, data):
    region = data.draw(st.none() | st.sets(st.sampled_from(ball.sorted_interior), min_size=1), label="region")
    check_cheeger_against_brute(ball, max_size, region)


@given(
    st.sampled_from(GW_BALL_LAWS),
    st.integers(min_value=0, max_value=2**64),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_cheeger_matches_enumeration_on_gw_sample_balls(law, seed: int, trial: int, depth: int, max_size: int, data):
    probs, deepest = law
    depth = min(depth, deepest)
    ball = sample(GWSpec(probs), seed, depth, trial=trial).truncate_ball(depth)
    region = data.draw(st.none() | st.sets(st.sampled_from(ball.sorted_interior), min_size=1), label="region")
    check_cheeger_against_brute(ball, max_size, region)


@given(random_trees(min_size=2, max_size=11), st.integers(min_value=2, max_value=6), st.data())
def test_cheeger_work_guard_trips_past_the_subset_count(t: Tree, max_size: int, data):
    region = data.draw(st.none() | st.sets(st.integers(0, t.vertex_count - 1), min_size=2), label="region")
    pool = region if region is not None else range(t.vertex_count)
    host = t if region is None else brute.region_host(t, region)
    multi = sum(1 for sub in brute.connected_subsets_by_filter(t, max_size, pool) if len(sub) >= 2)
    for guard in {0, max(0, multi - 1), multi, multi + 1}:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(amenability, "_GUARD", guard)
            if multi > guard:
                with pytest.raises(SearchTooLargeError) as exc:
                    cheeger_exact(host, max_size)
                assert str(exc.value) == f"connected-subset enumeration exceeded the work budget ({guard})"
            else:
                result = cheeger_exact(host, max_size)
                assert result.scope["subsets_enumerated"] == multi + len(set(pool))


def test_cheeger_tie_break_on_relabeled_paths():
    """A relabeled path has many tied optima, topped at vertices whose labels fall in any order."""
    rng = random.Random(0)
    for _ in range(100):
        perm = list(range(13))
        rng.shuffle(perm)
        t = brute.relabel_tree(path_tree(13), perm)
        for max_size in (2, 3, 4):
            check_cheeger_against_brute(t, max_size)


def test_cheeger_falls_back_to_the_walk_past_the_listing_cap(monkeypatch):
    """With more tied optima than the knapsack lists, the walk gives the same answer."""
    rng = random.Random(3)
    cases = [(star_tree(9), 5, None), (path_tree(9), 3, None), (path_tree(12), 1, [9, 10])]
    for _ in range(30):
        n = rng.randrange(2, 12)
        cases.append((Tree.from_edges(brute.random_tree_edges(rng, n)), rng.randrange(1, 6), None))
    monkeypatch.setattr(amenability, "_MAX_LISTED", 1)
    for t, max_size, region in cases:
        check_cheeger_against_brute(t, max_size, region)


def test_cheeger_falls_back_when_one_product_passes_the_listing_cap(monkeypatch):
    """A join of two lists of tied partial subsets passes the cap while the running total is still under it.

    Vertex 0 carries a 6-vertex tail and two hubs, each with 6 leaves and a
    neighbor outside the pool, so both hubs are on every boundary. At size
    15 the optimum leaves out 6 hub leaves in any split, and joining the two
    hubs' C(6, 3) = 20 ways each lists 400 subsets after 322 held.
    """
    edges = [(i, i + 1) for i in range(6)]
    for hub in (7, 15):
        edges += [(0, hub)] + [(hub, leaf) for leaf in range(hub + 1, hub + 8)]
    t = Tree.from_edges(edges)
    host = brute.region_host(t, set(range(t.vertex_count)) - {8, 16})
    monkeypatch.setattr(amenability, "_MAX_LISTED", 350)
    walk = mock.Mock(wraps=amenability._least_by_walk)
    monkeypatch.setattr(amenability, "_least_by_walk", walk)
    result = cheeger_exact(host, 15)
    walk.assert_called_once()
    # the ESU enumeration, since filtering all 2^21 combinations of the pool is slow
    subsets = list(brute.connected_subsets_by_closed_union(host, 15))
    best = min(subsets, key=lambda s: (brute.ratio(host, s), len(s), [repr(m) for m in sorted(s)]))
    assert (result.value, result.argmin.members, result.scope["subsets_enumerated"]) == (Fraction(2, 15), best, len(subsets))
    assert brute.ratio(host, best) == result.value


class CountingHost:
    """A host that counts the neighbors calls for each vertex."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = {}
        if hasattr(inner, "interior"):
            self.interior, self.sorted_interior = inner.interior, inner.sorted_interior
        else:
            self.vertex_count = inner.vertex_count

    def neighbors(self, v):
        self.calls[v] = self.calls.get(v, 0) + 1
        return self.inner.neighbors(v)


@given(random_trees(min_size=1, max_size=12), st.integers(min_value=1, max_value=6), st.data())
def test_cheeger_asks_each_pool_vertex_for_its_neighbors_once(t: Tree, max_size: int, data):
    region = data.draw(st.none() | st.sets(st.integers(0, t.vertex_count - 1), min_size=1), label="region")
    host = CountingHost(t if region is None else brute.region_host(t, region))
    cheeger_exact(host, max_size).to_json()  # the argmin's boundary comes from the same lists
    pool = region if region is not None else range(t.vertex_count)
    assert host.calls == {v: 1 for v in pool}


def test_cheeger_asks_once_on_balls_and_on_hosts_with_cycles():
    for inner in (explore_ball(make_fixture("regular(3)"), 6), brute.random_graph(random.Random(4), 9, 3)):
        host = CountingHost(inner)
        result = cheeger_exact(host, 6)
        result.to_json()
        assert result.argmin.boundary == brute.boundary(inner, result.argmin.members)
        pool = inner.sorted_interior if hasattr(inner, "interior") else range(inner.vertex_count)
        assert host.calls == {v: 1 for v in pool}


def _rank_lists(host) -> tuple:
    """The search's pool, each pool vertex's neighbors in the pool as ranks, and its host degree."""
    pool = amenability._pool(host)
    rank = {v: i for i, v in enumerate(pool)}
    near = [[rank[u] for u in host.neighbors(v) if u in rank] for v in pool]
    return pool, near, [len(host.neighbors(v)) for v in pool]


@st.composite
def walk_hosts(draw: st.DrawFn):
    """A random tree, fixture ball or Galton-Watson sample ball, sometimes narrowed to a region."""
    kind = draw(st.sampled_from(["tree", "fixture ball", "gw ball"]))
    if kind == "tree":
        host = draw(random_trees(min_size=1, max_size=12))
    elif kind == "fixture ball":
        host = draw(st.sampled_from(SMALL_BALLS))
    else:
        probs, deepest = draw(st.sampled_from(GW_BALL_LAWS))
        depth = draw(st.integers(1, deepest))
        smp = sample(GWSpec(probs), draw(st.integers(0, 2**64)), depth, trial=draw(st.integers(0, 50)))
        host = smp.truncate_ball(depth)
    region = draw(st.none() | st.sets(st.sampled_from(amenability._pool(host)), min_size=1), label="region")
    return host if region is None else brute.region_host(host, region)


@given(walk_hosts(), st.integers(min_value=1, max_value=5))
def test_walk_matches_the_knapsack(host, max_size: int):
    args = (*_rank_lists(host), max_size, amenability._GUARD)
    assert _least_by_walk(*args) == _least_by_knapsack(*args)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=2, max_value=6),
)
def test_walk_guard_trips_past_the_subset_count_on_graphs_with_cycles(seed: int, n: int, extra: int, max_size: int):
    host = brute.random_graph(random.Random(seed), n, extra)
    assume(sum(len(host.neighbors(v)) for v in range(n)) > 2 * (n - 1))  # a cycle, so the walk runs
    multi = sum(1 for sub in brute.connected_subsets_by_filter(host, max_size) if len(sub) >= 2)
    for guard in {0, multi // 2, multi - 1, multi, multi + 1}:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(amenability, "_GUARD", guard)
            if multi > guard:
                with pytest.raises(SearchTooLargeError) as exc:
                    cheeger_exact(host, max_size)
                assert str(exc.value) == f"connected-subset enumeration exceeded the work budget ({guard})"
            else:
                assert cheeger_exact(host, max_size).scope["subsets_enumerated"] == multi + n


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_walk_guard_trips_at_the_reference_work_count(seed: int, max_size: int):
    t = Tree.from_edges(brute.random_tree_edges(random.Random(seed), 9))
    lists = _rank_lists(t)
    ref_total = len(list(brute.connected_subsets_by_closed_union(t, max_size)))
    for guard in range(ref_total + 1):
        try:
            ref_count = len(list(brute.connected_subsets_by_closed_union(t, max_size, guard=guard)))
        except SearchTooLargeError:
            with pytest.raises(SearchTooLargeError, match=rf"\({guard}\)"):
                _least_by_walk(*lists, max_size, guard)
        else:
            assert _least_by_walk(*lists, max_size, guard)[1] == ref_count


def test_walk_breaks_ties_by_repr_in_rank_order():
    # On a path of ranks 0-1-2-3, {0, 1} and {2, 3} tie at ratio 1/2 and size 2. Their tags in
    # rank order are ("'b'", "'z'") and ("'c'", "'a'"), so {0, 1} wins; sorted by repr it would lose.
    pool, near, deg = ["b", "z", "c", "a"], [[1], [0, 2], [1, 3], [2]], [1, 2, 2, 1]
    # A star at rank 1 whose leaf 0 has a host neighbor outside the pool. The walk meets the tied
    # singletons, then {1, 3} at ratio 1/2, then {1, 2}, whose key is less than {1, 3}'s only.
    star = [14, 21, 11, 17], [[1], [0, 2, 3], [1], [1]], [2, 3, 1, 1]
    for search in (_least_by_walk, _least_by_knapsack):
        assert search(pool, near, deg, 2, amenability._GUARD) == ([0, 1], 7)
        assert search(*star, 2, amenability._GUARD) == ([1, 2], 7)


def test_folner_from_inessential_single_attach():
    fix = make_fixture("staircase")
    cand = brute.folner_from_inessential(fix, *brute.make_inessential(fix, {(3, 0), (3, 1), (3, 2), (3, 3)}))
    assert cand.provenance == "inessential-minus-root"
    assert cand.members == frozenset({(3, 1), (3, 2), (3, 3)})
    assert cand.ratio == Fraction(1, 3)
    assert cand.detail["subtree_size"] == 4


def check_witness_scan(oracle, radius: int, component_budget: int, scan_limit: int = amenability._SCAN_LIMIT) -> dict:
    """Compare classify's witness scan with the reference built from the public pieces."""
    budgets = ClassifyBudgets(radius=radius, component_budget=component_budget)
    ball = explore_ball(oracle, radius)
    cands = _inessential_witnesses(oracle, ball, budgets, scan_limit)
    ref_cands, counts = brute.inessential_witnesses_by_parts(oracle, ball, budgets, scan_limit)
    assert [(c.members, c.provenance, c.detail) for c in cands] == [
        (c.members, c.provenance, c.detail) for c in ref_cands
    ]
    # classify scans through its neighbor memo, which reads a fixture's sizes off its own answers
    assert _inessential_witnesses(_NeighborMemo(oracle), ball, budgets, scan_limit) == cands
    for c in cands:
        boundary = brute.boundary(oracle, c.members)
        assert c.boundary == boundary
        assert c.ratio == Fraction(len(boundary), c.size)
    return counts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inessential_witnesses_match_parts_on_staircases(n: int):
    counts = check_witness_scan(make_fixture(f"staircase_n({n})"), 8, 6)
    # components too large to walk, and unions of the walked ones, both occur
    assert counts["unwalked"] > 0 and counts["union"] > 0


def test_inessential_witnesses_match_parts_on_a_finite_tree():
    t = Tree.from_edges(brute.random_tree_edges(random.Random(40), 40))
    counts = check_witness_scan(TreeAsOracle(Tree(t.adjacency, root=17)), 5, 4)
    assert counts["unwalked"] > 0 and counts["union"] > 0


@given(random_trees(min_size=2, max_size=30), st.data())
def test_inessential_witnesses_match_parts_on_random_trees(t: Tree, data):
    root = data.draw(st.integers(0, t.vertex_count - 1), label="root")
    radius = data.draw(st.integers(0, 6), label="radius")
    budget = data.draw(st.integers(1, 8), label="component_budget")
    oracle = TreeAsOracle(Tree(t.adjacency, root=root))
    if data.draw(st.booleans(), label="black box"):
        # no hanging_component_sizes: components are walked up to the budget
        oracle = SimpleNamespace(root=root, neighbors=t.neighbors)
    check_witness_scan(oracle, radius, budget, scan_limit=data.draw(st.integers(1, 30), label="scan_limit"))


@given(st.integers(1, 3), st.integers(0, 25), st.integers(1, 400), st.booleans())
def test_inessential_witnesses_splice_components_on_staircases(n: int, radius: int, budget: int, black_box: bool):
    # Each spine vertex's walk to the left takes the component built at the
    # spine vertex before it whole. A black-box staircase is walked even where
    # a component is over budget, so a splice can carry a walk past the budget.
    oracle = make_fixture(f"staircase_n({n})")
    if black_box:
        oracle = SimpleNamespace(root=oracle.root, neighbors=oracle.neighbors)
    check_witness_scan(oracle, radius, budget)


@given(random_trees(min_size=2, max_size=150), st.data())
def test_inessential_witnesses_splice_components_on_random_trees(t: Tree, data):
    n = t.vertex_count
    root = data.draw(st.integers(0, n - 1), label="root")
    radius = data.draw(st.integers(1, n), label="radius")
    # budgets up to n, so that some walks stay within them and some splices carry a walk past them
    budget = data.draw(st.integers(1, n), label="component_budget")
    oracle = TreeAsOracle(Tree(t.adjacency, root=root))
    if data.draw(st.booleans(), label="black box"):
        oracle = SimpleNamespace(root=root, neighbors=t.neighbors)
    check_witness_scan(oracle, radius, budget)


def test_spliced_component_counts_a_splice_toward_the_budget():
    # the path 0-1-2-3-4, walked from 3 away from 4, with the component of 1
    # in the path minus 2 already built: the walk reads 3 and 2 and takes {0, 1} whole
    t = path_tree(5)
    asked = []

    def neighbors(v):
        asked.append(v)
        return t.neighbors(v)

    built = {2: {1: frozenset({0, 1})}}
    assert _spliced_component(neighbors, 3, 4, 4, built) == frozenset({0, 1, 2, 3})
    assert asked == [3, 2]
    assert _spliced_component(neighbors, 3, 4, 3, built) is None  # {3, 2} fit; the splice passes 3
    # u alone never exceeds the budget, as with trees.reach
    for cap in (0, -1):
        assert _spliced_component(neighbors, 0, 1, cap, {}) == frozenset(reach(neighbors, 0, avoid=(1,), cap=cap))
        assert _spliced_component(neighbors, 1, 2, cap, {}) is reach(neighbors, 1, avoid=(2,), cap=cap) is None


class ClaimingCycleHost:
    """A test-only host with cycles, given by adjacency lists, that claims component sizes.

    The size it claims for the component of u in the host minus r is what a
    walk finds, unless ``claims`` holds another for (r, u).
    """

    root = 0

    def __init__(self, adjacency: dict, claims: dict):
        self.adjacency, self.claims = adjacency, claims

    def neighbors(self, v):
        return self.adjacency[v]

    def hanging_component_sizes(self, r):
        return {u: self.claims.get((r, u)) or len(reach(self.neighbors, u, avoid=(r,))) for u in self.neighbors(r)}


def test_inessential_witnesses_refuse_a_spliced_component_that_closes_a_cycle():
    """A spliced component that meets the walk, an earlier spliced component or r raises.

    In a tree the component of w in the host minus x, taken whole at x, lies
    beyond x, so it meets nothing the walk has found. A host whose finite
    component closes a cycle breaks that, and the scan raises
    UnsupportedStructureError instead of counting a vertex twice.
    """
    # The triangle 0-1-3 with the leaf 2 at 1, as a black box. At 0 the scan
    # keeps {1, 2, 3} for both 1 and 3; at 1 the walk from 0 meets 3, and the
    # component kept for (0, 3) holds 1, the vertex the walk avoids.
    triangle = {0: [1, 3], 1: [0, 2, 3], 2: [1], 3: [0, 1]}
    host = SimpleNamespace(root=0, neighbors=triangle.__getitem__)
    with pytest.raises(UnsupportedStructureError) as info:
        _inessential_witnesses(host, explore_ball(host, 3), ClassifyBudgets(radius=3), 256)
    assert str(info.value) == (
        "the component of 3 in the host minus 0 meets the walk of the component of 0 in the host minus 1 "
        "or 1 itself, so the host is not a tree"
    )
    # The triangle 0-1-2 with the path 3-4 at 0, claiming the component of 1
    # in the host minus 0 infinite: at 0 the scan keeps {1, 2} for 2 only. At
    # 3 the walk from 0 steps onto 1, then meets 2, whose kept component holds 1.
    host = ClaimingCycleHost({0: [1, 2, 3], 1: [0, 2], 2: [0, 1], 3: [0, 4], 4: [3]}, {(0, 1): math.inf})
    with pytest.raises(UnsupportedStructureError) as info:
        _inessential_witnesses(host, explore_ball(host, 3), ClassifyBudgets(radius=3), 256)
    assert str(info.value) == (
        "the component of 2 in the host minus 0 meets the walk of the component of 0 in the host minus 3 "
        "or 3 itself, so the host is not a tree"
    )
    # Two kept components at 0 that share a vertex, which no host's own walks
    # can build, so the walk is handed them: the second meets the first.
    star = {0: [1, 2, 3], 1: [0], 2: [0], 3: [0]}
    built = {0: {1: frozenset({1, 5}), 2: frozenset({2, 5})}}
    with pytest.raises(UnsupportedStructureError, match="the component of 2 in the host minus 0 meets"):
        _spliced_component(star.__getitem__, 0, 3, 10, built)


def test_hanging_components_with_capability():
    comps = brute.hanging_components(make_fixture("zline_pendant"), ("z", 0))
    by_attach = {c.attach: c for c in comps}
    assert by_attach[("p", 0)].status == "finite"
    assert by_attach[("p", 0)].members == frozenset({("p", 0)})
    assert by_attach[("z", 1)].status == "infinite"
    assert by_attach[("z", -1)].size is None


def test_hanging_components_by_walk():
    t = path_tree(7)
    comps = brute.hanging_components(SimpleNamespace(root=3, neighbors=t.neighbors), 3)
    assert {c.attach: c.size for c in comps} == {2: 3, 4: 3}
    assert all(c.status == "finite" for c in comps)

    regular = make_fixture("regular(3)")
    capped = brute.hanging_components(SimpleNamespace(root=(), neighbors=regular.neighbors), (), max_vertices=40)
    assert all(c.status == "unknown" and c.members is None for c in capped)


def test_hanging_components_finite_but_unwalkable():
    comps = brute.hanging_components(make_fixture("staircase"), (9, 0), max_vertices=5)
    by_attach = {c.attach: c for c in comps}
    left = by_attach[(8, 0)]
    assert left.status == "finite" and left.size == 45 and left.members is None
    assert by_attach[(10, 0)].status == "infinite"


class MisreportingOracle(TreeAsOracle):
    """A finite tree whose claimed component sizes are off by ``delta``."""

    def __init__(self, tree, delta: int):
        super().__init__(tree)
        self.delta = delta

    def hanging_component_sizes(self, r):
        return {u: s + self.delta for u, s in super().hanging_component_sizes(r).items()}


MISREPORTS = pytest.mark.parametrize(
    "delta, max_vertices, walked",
    [(1, 2000, "3"), (-1, 2000, "3"), (-1, 2, "more than 2")],
)


@MISREPORTS
def test_hanging_components_refuses_a_misreported_size(delta: int, max_vertices: int, walked: str):
    # over-reporting used to return a component whose size disagreed with its
    # members, and under-reporting a bare TypeError; neither may depend on assert
    host = MisreportingOracle(path_tree(7), delta)
    with pytest.raises(UnsupportedStructureError) as info:
        brute.hanging_components(host, 3, max_vertices=max_vertices)
    assert str(info.value) == (
        f"the host claims the component of 2 in the tree minus 3 has {3 + delta} vertices, "
        f"but a walk finds {walked}"
    )


@MISREPORTS
def test_classify_refuses_a_misreported_size_behind_its_memo(delta: int, max_vertices: int, walked: str):
    # the memo reads sizes off its own neighbors only for a host's size rule;
    # an override of hanging_component_sizes is asked as it is
    host = MisreportingOracle(Tree(path_tree(7).adjacency, root=3), delta)
    with pytest.raises(UnsupportedStructureError) as info:
        classify(host, ClassifyBudgets(radius=3, component_budget=max_vertices))
    assert str(info.value) == (
        f"the host claims the component of 2 in the tree minus 3 has {3 + delta} vertices, "
        f"but a walk finds {walked}"
    )


class ColumnMisreportingStaircase(Staircase):
    """The staircase, but claiming one vertex too many in the column at spine position 3."""

    def hanging_component_sizes(self, r):
        sizes = super().hanging_component_sizes(r)
        if r == (3, 0):
            sizes[(3, 1)] += 1
        return sizes


def test_classify_asks_a_fixture_override_for_its_sizes():
    with pytest.raises(UnsupportedStructureError) as info:
        classify(ColumnMisreportingStaircase(), ClassifyBudgets(radius=6))
    assert str(info.value) == (
        "the host claims the component of (3, 1) in the tree minus (3, 0) has 4 vertices, but a walk finds 3"
    )
    assert classify(Staircase(), ClassifyBudgets(radius=6)).verdict == "amenable-witnessed"


def branchless_run(oracle, k: int, target_len: int, seed_radius: int = amenability._SEED_RADIUS):
    """The trim-level-k view and the run classify would lift from it."""
    view = TrimmedView(oracle, k)
    return view, _branchless_run(view, seed_radius, target_len)


def check_path_witnesses(oracle, k_max: int, path_target: int, seed_radius: int = amenability._SEED_RADIUS) -> list:
    """Compare classify's path witnesses with each run prefix lifted from scratch."""
    cands, chain_lengths = _path_witnesses(oracle, ClassifyBudgets(), k_max, path_target, seed_radius)
    prefixes = []
    for k in range(k_max + 1):
        view, run = branchless_run(oracle, k, path_target, seed_radius)
        if view.root is None:
            break
        assert chain_lengths[k] == len(run)
        prefixes += [(view, run[:length]) for length in range(1, len(run) + 1)]
    assert len(cands) == len(prefixes)
    for cand, (view, prefix) in zip(cands, prefixes):
        assert cand.members == lift_subset_through_trims(view, prefix)
        assert cand.boundary == boundary_of(oracle, cand.members) == {prefix[0], prefix[-1]}
        assert cand.ratio <= Fraction(2, len(prefix))
        assert (cand.provenance, cand.detail) == ("branchless-path", {"trim_level": view.level, "path_vertices": len(prefix)})
    return cands


@given(random_trees(min_size=1, max_size=14), st.data())
def test_path_witnesses_match_lifted_prefixes(t: Tree, data):
    if data.draw(st.booleans(), label="subdivide"):
        t = subdivide_tree(t)
    root = data.draw(st.integers(0, t.vertex_count - 1), label="root")
    k_max = data.draw(st.integers(0, 2), label="k_max")
    path_target = data.draw(st.integers(1, 12), label="path_target")
    oracle = TreeAsOracle(Tree(t.adjacency, root=root))
    check_path_witnesses(oracle, k_max, path_target, data.draw(st.integers(0, 6), label="seed_radius"))


@pytest.mark.parametrize("name", ["zline_pendant", "staircase", "staircase_n(2)"])
def test_path_witnesses_match_lifted_prefixes_on_fixtures(name: str):
    assert check_path_witnesses(make_fixture(name), 2, 20)


def test_path_witnesses_on_line():
    z = make_fixture("zline_pendant")
    cands = check_path_witnesses(z, 1, 10)
    assert [c.detail["trim_level"] for c in cands] == [0] * 10 + [1] * 10
    assert all(("p", 0) not in c.members for c in cands[:10])  # degree-3 origin blocks level-0 runs
    assert all((("p", 0) in c.members) == (("z", 0) in c.members) for c in cands[10:])


def test_folner_from_branchless_path_absent():
    assert branchless_run(make_fixture("regular(3)"), 0, 4)[1] == []
    assert branchless_run(TreeAsOracle(star_tree(4)), 0, 3)[1] == []


def test_contract_branchless():
    c = contract_branchless(subdivide_tree(star_tree(3)))
    assert c.tree.vertex_count == 4
    assert c.stretch == 2
    assert len(c.chains) == 3
    assert all(len(interior) == 1 for _, _, interior in c.chains)

    p = contract_branchless(path_tree(5))
    assert p.tree.vertex_count == 2
    assert p.stretch == 4
    assert p.chains == ((0, 4, (1, 2, 3)),)
    assert p.vmap == {0: 0, 4: 1}

    flat = contract_branchless(path_tree(2))
    assert flat.stretch == 1 and flat.chains == ()

    three = contract_branchless(path_tree(3))
    assert three.tree.vertex_count == 2 and three.stretch == 2


def double_star() -> Tree:
    # two degree-3 hubs joined through one chain vertex; leafless at the hubs
    return Tree.from_edges([(0, 6), (6, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def test_sandwich_exact_case():
    t = double_star()
    res = sandwich_check(t, {0, 6})
    assert res.ratio_host == Fraction(1)
    assert res.ratio_image == Fraction(1)
    assert res.stretch == 2
    assert res.boundary_host == frozenset({0, 6})

    wide = sandwich_check(t, {0, 6, 1})
    assert wide.ratio_host == Fraction(2, 3)
    assert wide.ratio_image == Fraction(1)
    assert len(wide.image_members) == 2


def test_sandwich_rejects_degenerate_and_leafy():
    t = double_star()
    with pytest.raises(DegenerateImageError):
        sandwich_check(t, {6})
    with pytest.raises(UnsupportedStructureError):
        sandwich_check(t, {0, 2})  # member 2 is a leaf
    s = subdivide_tree(star_tree(3))
    with pytest.raises(UnsupportedStructureError):
        sandwich_check(s, {0, 4})  # the touched chain ends at a leaf
    with pytest.raises(ValueError):
        sandwich_check(t, {0, 1})  # not connected
    with pytest.raises(ValueError):
        sandwich_check(t, set())


def test_sandwich_raises_when_the_contraction_understates_the_stretch(monkeypatch):
    # hubs 0 and 1, each with two leaves, joined through the chain 6..10
    t = Tree.from_edges([(0, 2), (0, 3), (0, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 1), (1, 4), (1, 5)])
    members = {0, 6, 7, 8, 9, 10}
    res = sandwich_check(t, members)
    assert (res.ratio_host, res.ratio_image, res.stretch) == (Fraction(1, 3), Fraction(1), 6)

    def short_chains(tree):
        c = contract_branchless(tree)
        return replace(c, chains=tuple((a, b, interior[:1]) for a, b, interior in c.chains))

    monkeypatch.setattr(amenability, "contract_branchless", short_chains)
    with pytest.raises(SandwichViolationError, match=r"ratio\(A\) = 1/3 .*ratio\(image\) = 1 .*stretch = 2$"):
        sandwich_check(t, members)


@given(st.integers(min_value=0, max_value=10**6))
def test_sandwich_on_subdivided_regular_ball(seed: int):
    # rehearses the chain-contraction comparison away from the frontier
    ball = explore_ball(make_fixture("regular(3)"), 5)
    host = subdivide_tree(ball.tree)
    dist = brute.bfs_distances(host, 0)
    allowed = {v for v in range(host.vertex_count) if dist[v] <= 6}
    rng = random.Random(seed)
    members = random_connected_subset(host, 1 + rng.randrange(12), rng, allowed=allowed)
    try:
        res = sandwich_check(host, members)
    except DegenerateImageError:
        return
    assert res.ratio_host <= res.ratio_image <= res.stretch * res.ratio_host
    assert len(res.image_members) <= len(members)


def test_min_degree3_bound():
    ball = explore_ball(make_fixture("regular(3)"), 5)
    rng = random.Random(11)
    for _ in range(50):
        members = random_connected_subset(ball, 1 + rng.randrange(8), rng)
        assert min_degree3_bound_check(ball, members)

    sary = explore_ball(make_fixture("sary(2)"), 5)
    with pytest.raises(UnsupportedStructureError):
        min_degree3_bound_check(sary, {0, 1, 2})  # the root only has degree 2
    # the dichotomy's bound side lets its ball's root have degree 2, and no less
    assert _degree3_bound(sary, frozenset({0, 1, 2}), 0)
    with pytest.raises(UnsupportedStructureError, match="exception vertex 0 has degree 1"):
        _degree3_bound(path_tree(5), frozenset({0, 1}), 0)
    with pytest.raises(ValueError):
        min_degree3_bound_check(ball, set())
    with pytest.raises(ValueError):
        min_degree3_bound_check(ball, {1, 2})  # two ball branches, not connected


def degree3_outcome(bound, host, A: frozenset, exception_vertex):
    """What ``bound`` returns on A, or the type and message of what it raises."""
    try:
        return bound(host, A, exception_vertex)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def degree3_hosts(draw: st.DrawFn):
    """A fixture ball (frontier and degree-2 members included), a GW sample ball, a random tree or a graph with cycles."""
    kind = draw(st.sampled_from(["fixture", "gw", "tree", "graph"]))
    if kind == "fixture":
        name = draw(st.sampled_from(FIXTURES))
        return explore_ball(make_fixture(name), draw(st.integers(min_value=0, max_value=4)))
    if kind == "gw":
        probs, deepest = draw(st.sampled_from(GW_BALL_LAWS))
        depth = draw(st.integers(min_value=0, max_value=deepest))
        seed = draw(st.integers(min_value=0, max_value=2**32))
        return sample(GWSpec(probs), seed, depth).truncate_ball(depth)
    if kind == "tree":
        return draw(random_trees(min_size=1, max_size=12))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return brute.random_graph(rng, draw(st.integers(min_value=2, max_value=9)), draw(st.integers(min_value=1, max_value=12)))


@given(degree3_hosts(), st.data())
def test_degree3_bound_matches_two_pass(host, data):
    vertices = range(host.vertex_count)
    interior = getattr(host, "sorted_interior", None) or vertices
    A = frozenset(data.draw(st.sets(st.sampled_from(interior), min_size=1, max_size=12) | st.sets(st.sampled_from(vertices), max_size=12), label="A"))
    exception_vertex = data.draw(st.none() | st.sampled_from(vertices) | st.sampled_from(sorted(A) or [0]), label="exception")
    expected = degree3_outcome(brute.degree3_bound_two_pass, host, A, exception_vertex)
    assert degree3_outcome(_degree3_bound, host, A, exception_vertex) == expected


def test_degree3_bound_matches_two_pass_on_each_outcome():
    regular = explore_ball(make_fixture("regular(3)"), 3)
    sary = explore_ball(make_fixture("sary(2)"), 3)
    frontier = max(regular.frontier)
    dense = SimpleNamespace(neighbors=lambda v: [u for u in range(5) if u != v], vertex_count=5)  # K5
    tail = {0: (1, 2, 3), 1: (0, 2, 3), 2: (0, 1, 3), 3: (0, 1, 2, 4), 4: (3,)}  # K4 with a pendant vertex
    k4_tail = SimpleNamespace(neighbors=tail.__getitem__, vertex_count=5)
    cases = [
        (regular, frozenset({0, 1, 2}), None, True),
        (regular, frozenset({0, 1, frontier}), None, IncompleteKnowledgeError),  # a frontier member
        (sary, frozenset({0, 1, 2}), None, UnsupportedStructureError),  # the degree-2 root, no exception
        (sary, frozenset({0, 1, 2}), 0, True),  # the exception vertex in A
        (sary, frozenset({1, 3, 4}), 0, True),  # the exception vertex out of A
        (sary, frozenset({0, 1}), 1, UnsupportedStructureError),
        (path_tree(5), frozenset({0, 1}), 0, UnsupportedStructureError),  # exception vertex of degree 1
        (dense, frozenset(range(5)), None, False),  # no boundary at all
        (dense, frozenset(range(5)), 0, False),
        (k4_tail, frozenset(range(4)), 0, True),  # 4 members, 1 on the boundary, slack 2
        (k4_tail, frozenset(range(4)), 4, False),  # no slack for an exception vertex out of A
        (regular, frozenset(), None, ValueError),  # the empty set
        (regular, frozenset(), 0, ValueError),
    ]
    for host, A, exception_vertex, kind in cases:
        got = degree3_outcome(_degree3_bound, host, A, exception_vertex)
        assert got == degree3_outcome(brute.degree3_bound_two_pass, host, A, exception_vertex)
        assert got is kind if isinstance(kind, bool) else got[0] is kind


class _SameRepr:
    """A handle that equals only itself but writes as every other one does."""

    def __repr__(self) -> str:
        return "same"


_SHARED = [_SameRepr(), _SameRepr()]
_HANDLES = (
    st.integers(min_value=-3, max_value=12)
    | st.booleans()
    | st.sampled_from([0.5, 1.0, -0.0])
    | st.text(alphabet="ab'\\", max_size=3)
    | st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    | st.tuples(st.booleans(), st.integers(min_value=0, max_value=1))
    | st.sampled_from(_SHARED)
)


@st.composite
def tied_witnesses(draw: st.DrawFn):
    """Witnesses over shared member pools, so runs of equal (ratio, size) and common member prefixes are common."""
    pool = draw(st.lists(_HANDLES, min_size=1, max_size=8))
    out = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        members = frozenset(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6)))
        b = draw(st.integers(min_value=0, max_value=len(members)))
        boundary = frozenset(sorted_handles(members)[:b])
        out.append(amenability.FolnerCandidate(members, boundary, "enumerated"))
    return out


def repr_list(c) -> list:
    return list(map(repr, sorted_handles(c.members)))


def ids(cs) -> list:
    return [id(c) for c in cs]


@given(tied_witnesses())
def test_members_cmp_orders_like_repr_lists(witnesses):
    for a in witnesses:
        assert a._sorted_members == tuple(sorted_handles(a.members))
        assert jsonable(a._doc()) == jsonable({**a._doc(), "members": a.members})
        for b in witnesses:
            ka, kb = repr_list(a), repr_list(b)
            assert _members_cmp(a, b) == (ka > kb) - (ka < kb)
    assert ids(sorted(witnesses, key=cmp_to_key(_members_cmp))) == ids(sorted(witnesses, key=repr_list))
    expected = sorted(witnesses, key=lambda c: (-c.ratio, c.size, repr_list(c)))
    assert ids(_witness_order(witnesses)) == ids(expected)


def test_members_cmp_on_prefixes_and_repr_ties():
    def cand(*members):
        return amenability.FolnerCandidate(frozenset(members), frozenset(), "enumerated")

    short, long = cand(1, 2), cand(1, 2, 3)
    assert _members_cmp(short, long) == -1 and _members_cmp(long, short) == 1
    # the sort is by value, the tie-break by repr: 10 sorts after 9, but "10" < "9"
    assert _members_cmp(cand(1, 10), cand(1, 9)) == -1
    # equal handles that write differently, and distinct handles that write alike
    assert _members_cmp(cand((True, 0)), cand((1, 0))) == 1
    x, y = _SHARED
    assert _members_cmp(cand(x), cand(y)) == 0
    ties = [cand(y), cand(x)]
    assert _witness_order(ties) == ties


@st.composite
def ratio_pairs(draw: st.DrawFn, top: int):
    """An int pair (b, k) with 0 <= b <= k < top."""
    k = draw(st.integers(min_value=1, max_value=top - 1))
    b = draw(st.integers(min_value=0, max_value=k))
    return b, k


def near_ties(pairs: list, top: int, data) -> list:
    """b/k against (b m - 1)/(k m), b/k and (b m + 1)/(k m), for each pair whose k m stays below top."""
    out = []
    for b, k in pairs:
        m = data.draw(st.integers(min_value=1, max_value=max(1, (top - 1) // k)), label="m")
        out += [(b * m + e, k * m) for e in (-1, 0, 1) if 0 <= b * m + e <= k * m]
    return out


def assert_orders_like_fractions(pairs: list, keys: list):
    exact = [Fraction(b, k) for b, k in pairs]
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            assert (keys[i] < keys[j]) == (exact[i] < exact[j])
            assert (keys[i] == keys[j]) == (exact[i] == exact[j])


@given(st.data())
def test_ratio_keys_order_like_fractions(data):
    small = data.draw(st.lists(ratio_pairs(_FLOAT_EXACT) | ratio_pairs(1000), min_size=1, max_size=8), label="small")
    pairs = small + near_ties(small, _FLOAT_EXACT, data)
    keys = _ratio_keys(pairs)
    assert all(type(x) is float for x in keys)
    assert_orders_like_fractions(pairs, keys)

    # one size at 2^26 or more puts every pair on Fraction keys
    big = data.draw(st.lists(ratio_pairs(1 << 62), min_size=1, max_size=4), label="big")
    pairs = small + near_ties(big, 1 << 62, data) + [(_FLOAT_EXACT, _FLOAT_EXACT)]
    keys = _ratio_keys(pairs)
    assert all(type(x) is Fraction for x in keys)
    assert_orders_like_fractions(pairs, keys)


def test_ratio_keys_fall_back_where_floats_tie():
    # distinct ratios whose quotients round to the same float
    pairs = [(2**60 + 1, 3 * 2**60), (1, 3)]
    assert pairs[0][0] / pairs[0][1] == pairs[1][0] / pairs[1][1]
    assert _ratio_keys(pairs) == [Fraction(2**60 + 1, 3 * 2**60), Fraction(1, 3)]
    assert_orders_like_fractions(pairs, _ratio_keys(pairs))


@given(st.data())
def test_best_ratio_through_ratio_keys_is_the_least_fraction(data):
    # ranges stand in for member and boundary sets, so sizes can pass 2^26, where the keys are Fractions
    top = data.draw(st.sampled_from([1000, _FLOAT_EXACT, 1 << 62]), label="top")
    pairs = data.draw(st.lists(ratio_pairs(top), max_size=6), label="pairs")
    pairs = data.draw(st.permutations(pairs + near_ties(pairs, top, data)), label="order")
    witnesses = tuple(amenability.FolnerCandidate(range(k), range(b), "enumerated") for b, k in pairs)
    report = amenability.AmenabilityReport("inconclusive", witnesses, None, {})
    assert report.best_ratio() == min((Fraction(b, k) for b, k in pairs), default=None)


def test_best_ratio_through_ratio_keys_where_floats_tie():
    # 1 - 1/(2^30 + 1) > 1 - 1/2^30, but the two quotients round to the same float
    k = 1 << 30
    report = amenability.AmenabilityReport(
        "inconclusive",
        tuple(amenability.FolnerCandidate(range(n), range(n - 1), "enumerated") for n in (k + 1, k)),
        None,
        {},
    )
    assert report.best_ratio() == Fraction(k - 1, k)


def test_declared_bounds():
    b = DeclaredBounds(2, 3, 5)
    assert b.lower_bound == Fraction(1, 30)
    with pytest.raises(ValueError):
        DeclaredBounds(-1, 1, 1)
    with pytest.raises(ValueError):
        DeclaredBounds(0, 0, 1)
    with pytest.raises(ValueError):
        DeclaredBounds(0, 1, 0)


def test_classify_regular_tree():
    report = classify(make_fixture("regular(3)"), ClassifyBudgets(radius=6))
    assert report.verdict == "inconclusive"
    assert report.witnesses == ()
    assert report.best_ratio() is None

    certified = classify(
        make_fixture("regular(3)"),
        ClassifyBudgets(radius=6),
        declared=DeclaredBounds(0, 1, 1),
    )
    assert certified.verdict == "nonamenable-certified"
    assert certified.certificate["lower_bound"] == Fraction(1, 2)
    assert certified.certificate["cheeger_floor_observed"] == Fraction(5, 8)
    assert certified.scope["frontier_size"] > 0


def test_classify_zline_pendant():
    report = classify(make_fixture("zline_pendant"))
    assert report.verdict == "amenable-witnessed"
    assert report.best_ratio() == Fraction(2, 21)
    levels = {w.detail.get("trim_level") for w in report.witnesses if w.provenance == "branchless-path"}
    assert {0, 1} <= levels
    for w in report.witnesses:
        assert w.ratio == brute.ratio(make_fixture("zline_pendant"), w.members)


def test_classify_staircase():
    fix = make_fixture("staircase")
    report = classify(fix)
    assert report.verdict == "amenable-witnessed"
    assert report.best_ratio() <= Fraction(1, 10)
    assert report.scope["inessential_subtrees_found"] > 0
    for w in report.witnesses:
        assert w.ratio == brute.ratio(fix, w.members)
    # worst-first ordering with deterministic tie-breaks
    ratios = [w.ratio for w in report.witnesses]
    assert ratios == sorted(ratios, reverse=True)


def test_classify_deterministic():
    a = classify(make_fixture("staircase_n(2)")).to_json()
    b = classify(make_fixture("staircase_n(2)")).to_json()
    assert a == b
    assert a["schema"] == "arbor/amenability-report/1"


def test_classify_rejects_thresholds_below_one():
    fix = make_fixture("staircase")
    bad = ((0, None), (-3, None), (10, ClassifyBudgets(k_max=-1)), (10, ClassifyBudgets(path_target=0)))
    for d_target, budgets in bad:
        with pytest.raises(ValueError, match="d_target|path_target|k_max"):
            classify(fix, budgets, d_target=d_target)
    assert classify(fix, ClassifyBudgets(radius=6, k_max=0), d_target=1).scope["k_max"] == 0


def test_classify_budgets_refuse_a_component_budget_below_one():
    # a walk's first vertex never counts against the budget, so 0 and -5 used to act as 1
    for budget in (0, -5):
        with pytest.raises(ValueError, match="component_budget must be at least 1"):
            ClassifyBudgets(radius=3, component_budget=budget)
    path = TreeAsOracle(Tree(path_tree(7).adjacency, root=3))
    host = SimpleNamespace(root=path.root, neighbors=path.neighbors)
    report = classify(host, ClassifyBudgets(radius=3, component_budget=1))
    assert [w.members for w in report.witnesses if w.provenance == "inessential-minus-root"] == [
        frozenset({0}),
        frozenset({6}),
    ]


def test_classify_budget_error_propagates():
    with pytest.raises(BudgetExhaustedError):
        classify(make_fixture("regular(3)"), ClassifyBudgets(radius=12, max_vertices=100))


def test_refuted_by_late_removal():
    with pytest.raises(DeclaredBoundsRefutedError) as exc:
        classify(
            make_fixture("zline_pendant"),
            declared=DeclaredBounds(0, 1, 1),
        )
    assert exc.value.counterexample["removed_at"] == 1


def test_refuted_by_long_chain():
    with pytest.raises(DeclaredBoundsRefutedError, match="branchless chain"):
        classify(
            make_fixture("zline_pendant"),
            declared=DeclaredBounds(1, 1, 2),
        )


def test_refuted_by_large_inessential():
    with pytest.raises(DeclaredBoundsRefutedError, match="inessential subtree"):
        classify(
            make_fixture("zline_pendant"),
            declared=DeclaredBounds(1, 30, 1),
        )


def test_refuted_by_witness_below_floor():
    with pytest.raises(DeclaredBoundsRefutedError, match="lower bound"):
        classify(
            make_fixture("zline_pendant"),
            ClassifyBudgets(radius=10, path_target=200),
            declared=DeclaredBounds(1, 17, 2),
        )


class ScanlessOracle:
    """Hides the component-size capability so the inessential scan stays tiny."""

    def __init__(self, inner):
        self.inner = inner

    @property
    def root(self):
        return self.inner.root

    def neighbors(self, h):
        return self.inner.neighbors(h)


def test_refuted_by_enumerated_subset(monkeypatch):
    # Bounds crafted to slip past the scan: the radius-4 enumeration still
    # finds a subset below the implied floor.
    monkeypatch.setattr(amenability, "_SCAN_LIMIT", 1)
    with pytest.raises(DeclaredBoundsRefutedError, match="enumerated subset"):
        classify(
            ScanlessOracle(make_fixture("staircase")),
            ClassifyBudgets(radius=10, k_max=0),
            declared=DeclaredBounds(5, 1, 1),
        )


def classify_declared(host, radius: int, k: int, d: int, R: int) -> tuple:
    """``arbor classify`` on a test-only host with declared bounds: the exit code and the JSON document."""
    out = io.StringIO()
    argv = ["classify", "--fixture", "host", "--radius", str(radius),
            "--declared-k", str(k), "--declared-d", str(d), "--declared-R", str(R)]
    with mock.patch.object(cli, "make_fixture", lambda name: host):
        code = cli.main(argv, stdout=out)
    return code, json.loads(out.getvalue())


@given(st.sampled_from([3, 4]), st.integers(0, 3), st.integers(1, 3))
def test_certificate_holds_at_nontrivial_true_bounds_and_fails_one_below(b, c, m):
    host = brute.SubdividedRegularWithPaths(b, c, m)
    k, d, R = host.bounds
    radius = 2 * (c + 1) + m + 2  # the k-fold trim keeps two levels of chains below the root
    code, doc = classify_declared(host, radius, k, d, R)
    assert code == 0
    assert doc["verdict"] == "nonamenable-certified"
    assert doc["certificate"]["lower_bound"] == str(Fraction(1, 2 * d * R))
    lowered = [
        ((k - 1, d, R), "after the declared stabilization", {"vertex", "removed_at"}),
        ((k, d - 1, R), "branchless chain", {"chain"}),
        ((k, d, R - 1), "inessential subtree", {"members", "root"}),
    ]
    for bounds, message, kind in lowered:
        if min(bounds[1:]) < 1:
            continue  # d = 1 cannot be lowered: DeclaredBounds needs d >= 1
        code, doc = classify_declared(host, radius, *bounds)
        assert code == 4
        assert doc["kind"] == "declared-bounds-refuted" and message in doc["error"]
        assert set(doc["counterexample"]) == kind
    ball = explore_ball(host, c + 2)
    value, _, _ = brute.cheeger_by_enumeration(ball, 5, allowed=ball.interior)
    assert value >= Fraction(1, 2 * d * R)


def test_jsonable_values():
    assert jsonable(Fraction(2, 3)) == "2/3"
    assert jsonable({("z", 1), ("z", 0)}) == [["z", 0], ["z", 1]]
    assert jsonable({"a": (1, 2)}) == {"a": [1, 2]}
    assert jsonable(None) is None
    assert jsonable(True) is True
    assert jsonable([Fraction(1, 2), (3, "a"), frozenset({10, 9})]) == ["1/2", [3, "a"], [9, 10]]
