import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import arbor.amenability as amenability
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
    SubsetSelection,
    Tree,
    TreeAsOracle,
    TrimmedView,
    UnsupportedStructureError,
    boundary_of,
    cheeger_exact,
    classify,
    contract_branchless,
    explore_ball,
    jsonable,
    lift_subset_through_trims,
    make_fixture,
    min_degree3_bound_check,
    path_tree,
    random_connected_subset,
    sample,
    sandwich_check,
    subdivide_tree,
)
from arbor.amenability import _branchless_run, _inessential_witnesses, _path_witnesses
from brute import star_tree


@st.composite
def random_trees(draw: st.DrawFn, min_size: int = 2, max_size: int = 10):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)


@given(random_trees(min_size=1, max_size=12), st.integers(min_value=1, max_value=6), st.data())
def test_cheeger_matches_enumeration(t: Tree, max_size: int, data):
    region = data.draw(st.none() | st.sets(st.integers(0, t.vertex_count - 1), min_size=1), label="region")
    result = cheeger_exact(t, max_size, region=region)
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


def test_cheeger_deterministic_tiebreak():
    t = path_tree(7)
    a = cheeger_exact(t, 3)
    b = cheeger_exact(t, 3)
    assert a.argmin.members == b.argmin.members
    assert a.value == Fraction(1, 3)  # an end segment beats interior ones
    assert a.argmin.members == frozenset({0, 1, 2})
    # equal ratio and size: the sorted members' repr strings decide, and "10" < "9"
    assert cheeger_exact(path_tree(12), 1, region=[9, 10]).argmin.members == frozenset({10})
    # {3}, {4} and {3, 4} all have ratio 1 in this region: the smaller size wins first
    assert cheeger_exact(path_tree(8), 2, region=[3, 4]).argmin.members == frozenset({3})


def test_cheeger_region_and_errors():
    t = path_tree(8)
    capped = cheeger_exact(t, 3, region=[2, 3, 4])
    assert capped.value == Fraction(2, 3)
    assert capped.scope["region_size"] == 3
    with pytest.raises(ValueError):
        cheeger_exact(t, 0)
    with pytest.raises(ValueError):
        cheeger_exact(t, 3, region=[])
    ball = explore_ball(make_fixture("regular(3)"), 2)
    for max_size in (1, 3):  # a region reaching the frontier has no exact boundary
        with pytest.raises(IncompleteKnowledgeError):
            cheeger_exact(ball, max_size, region=range(ball.vertex_count))
    # every pool vertex is asked for its neighbors before any subset is counted
    with pytest.raises(IncompleteKnowledgeError):
        cheeger_exact(ball, 3, region=range(ball.vertex_count), guard=0)


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
    result = cheeger_exact(host, max_size, region=region)
    allowed = region if region is not None else getattr(host, "sorted_interior", None)
    expected = brute.cheeger_by_enumeration(host, max_size, allowed)
    assert (result.value, result.argmin.members, result.scope["subsets_enumerated"]) == expected
    assert result.argmin.selection.boundary == brute.boundary(host, result.argmin.members)
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
    multi = sum(1 for sub in brute.connected_subsets_by_filter(t, max_size, pool) if len(sub) >= 2)
    for guard in {0, max(0, multi - 1), multi, multi + 1}:
        if multi > guard:
            with pytest.raises(SearchTooLargeError) as exc:
                cheeger_exact(t, max_size, region=region, guard=guard)
            assert str(exc.value) == f"connected-subset enumeration exceeded the work budget ({guard})"
        else:
            result = cheeger_exact(t, max_size, region=region, guard=guard)
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
        cases.append((Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n), rng.randrange(1, 6), None))
    monkeypatch.setattr(amenability, "_MAX_LISTED", 1)
    for t, max_size, region in cases:
        check_cheeger_against_brute(t, max_size, region)


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
    host = CountingHost(t)
    cheeger_exact(host, max_size, region=region).to_json()  # the argmin's boundary comes from the same lists
    pool = region if region is not None else range(t.vertex_count)
    assert host.calls == {v: 1 for v in pool}


def test_cheeger_asks_once_on_balls_and_on_hosts_with_cycles():
    for inner in (explore_ball(make_fixture("regular(3)"), 6), brute.random_graph(random.Random(4), 9, 3)):
        host = CountingHost(inner)
        result = cheeger_exact(host, 6)
        result.to_json()
        assert result.argmin.selection.boundary == brute.boundary(inner, result.argmin.members)
        pool = inner.sorted_interior if hasattr(inner, "interior") else range(inner.vertex_count)
        assert host.calls == {v: 1 for v in pool}


def test_folner_from_inessential_single_attach():
    fix = make_fixture("staircase")
    ines = brute.make_inessential(fix, {(3, 0), (3, 1), (3, 2), (3, 3)})
    cand = brute.folner_from_inessential(ines)
    assert cand.provenance == "inessential-minus-root"
    assert cand.members == frozenset({(3, 1), (3, 2), (3, 3)})
    assert cand.ratio == Fraction(1, 3)
    assert cand.detail["subtree_size"] == 4


def check_witness_scan(oracle, radius: int, component_budget: int, scan_limit: int = 256) -> dict:
    """Compare classify's witness scan with the reference built from the public pieces."""
    budgets = ClassifyBudgets(radius=radius, component_budget=component_budget, scan_limit=scan_limit)
    ball = explore_ball(oracle, radius)
    cands, found = _inessential_witnesses(oracle, ball, budgets)
    ref_cands, ref_found, counts = brute.inessential_witnesses_by_parts(oracle, ball, budgets)
    assert [(c.members, c.provenance, c.detail) for c in cands] == [
        (c.members, c.provenance, c.detail) for c in ref_cands
    ]
    assert [(f.members, f.root) for f in found] == [(f.members, f.root) for f in ref_found]
    for c in cands:
        boundary = brute.boundary(oracle, c.members)
        assert c.selection.boundary == boundary
        assert c.ratio == Fraction(len(boundary), c.size)
    return counts


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inessential_witnesses_match_parts_on_staircases(n: int):
    counts = check_witness_scan(make_fixture(f"staircase_n({n})"), 8, 6)
    # components too large to walk, and unions of the walked ones, both occur
    assert counts["unwalked"] > 0 and counts["union"] > 0


def test_inessential_witnesses_match_parts_on_a_finite_tree():
    t = Tree.from_edges(brute.random_tree_edges(random.Random(40), 40), vertex_count=40)
    counts = check_witness_scan(TreeAsOracle(t, root=17), 5, 4)
    assert counts["unwalked"] > 0 and counts["union"] > 0


@given(random_trees(min_size=2, max_size=30), st.data())
def test_inessential_witnesses_match_parts_on_random_trees(t: Tree, data):
    root = data.draw(st.integers(0, t.vertex_count - 1), label="root")
    radius = data.draw(st.integers(0, 6), label="radius")
    budget = data.draw(st.integers(1, 8), label="component_budget")
    oracle = TreeAsOracle(t, root)
    if data.draw(st.booleans(), label="black box"):
        # no hanging_component_size: components are walked up to the budget
        oracle = SimpleNamespace(root=root, neighbors=t.neighbors)
    check_witness_scan(oracle, radius, budget, scan_limit=data.draw(st.integers(1, 30), label="scan_limit"))


def branchless_run(oracle, k: int, target_len: int, seed_radius: int = 6):
    """The trim-level-k view and the run classify would lift from it."""
    view = TrimmedView(oracle, k)
    return view, _branchless_run(view, seed_radius, target_len)


def check_path_witnesses(oracle, k_max: int, path_target: int, seed_radius: int = 6) -> list:
    """Compare classify's path witnesses with each run prefix lifted from scratch."""
    budgets = ClassifyBudgets(seed_radius=seed_radius)
    cands, chain_lengths = _path_witnesses(oracle, budgets, k_max, path_target)
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
        assert cand.selection.boundary == boundary_of(oracle, cand.members) == {prefix[0], prefix[-1]}
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
    check_path_witnesses(TreeAsOracle(t, root), k_max, path_target, data.draw(st.integers(0, 6), label="seed_radius"))


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
    assert min_degree3_bound_check(sary, {0, 1, 2}, exception_vertex=0)
    with pytest.raises(UnsupportedStructureError):
        min_degree3_bound_check(sary, {0, 1, 2})  # the root only has degree 2
    with pytest.raises(UnsupportedStructureError):
        min_degree3_bound_check(path_tree(5), {1, 2}, exception_vertex=1)
    with pytest.raises(ValueError):
        min_degree3_bound_check(ball, set())
    with pytest.raises(ValueError):
        min_degree3_bound_check(ball, {1, 2})  # two ball branches, not connected


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
        assert w.ratio == SubsetSelection(make_fixture("zline_pendant"), w.members).ratio


def test_classify_staircase():
    fix = make_fixture("staircase")
    report = classify(fix)
    assert report.verdict == "amenable-witnessed"
    assert report.best_ratio() <= Fraction(1, 10)
    assert report.scope["inessential_subtrees_found"] > 0
    for w in report.witnesses:
        assert w.ratio == SubsetSelection(fix, w.members).ratio
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


def test_refuted_by_enumerated_subset():
    # Bounds crafted to slip past the scan: the radius-4 enumeration still
    # finds a subset below the implied floor.
    with pytest.raises(DeclaredBoundsRefutedError, match="enumerated subset"):
        classify(
            ScanlessOracle(make_fixture("staircase")),
            ClassifyBudgets(radius=10, scan_limit=1, k_max=0),
            declared=DeclaredBounds(5, 1, 1),
        )


def test_jsonable_values():
    assert jsonable(Fraction(2, 3)) == "2/3"
    assert jsonable({("z", 1), ("z", 0)}) == [["z", 0], ["z", 1]]
    assert jsonable({"a": (1, 2)}) == {"a": [1, 2]}
    assert jsonable(None) is None
    assert jsonable(True) is True
    assert jsonable([Fraction(1, 2), (3, "a"), frozenset({10, 9})]) == ["1/2", [3, "a"], [9, 10]]
