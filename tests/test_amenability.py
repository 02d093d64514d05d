import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import brute
from arbor import (
    BudgetExhaustedError,
    ClassifyBudgets,
    DeclaredBounds,
    DeclaredBoundsRefutedError,
    DegenerateImageError,
    SubsetSelection,
    Tree,
    TreeAsOracle,
    UnsupportedStructureError,
    boundary_of,
    cheeger_exact,
    classify,
    contract_branchless,
    explore_ball,
    folner_from_branchless_path,
    folner_from_inessential,
    jsonable,
    make_fixture,
    make_inessential,
    min_degree3_bound_check,
    path_tree,
    random_connected_subset,
    sandwich_check,
    sary_tree,
    star_tree,
    subdivide_tree,
)


@st.composite
def random_trees(draw: st.DrawFn, min_size: int = 2, max_size: int = 10):
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    return Tree.from_edges(brute.random_tree_edges(rng, n), vertex_count=n)


@given(random_trees(), st.integers(min_value=1, max_value=6))
def test_cheeger_matches_enumeration(t: Tree, max_size: int):
    result = cheeger_exact(t, max_size)
    assert result.value == brute.cheeger_by_enumeration(t, max_size)
    assert result.argmin.ratio == result.value
    assert brute.is_connected_subset(t, result.argmin.members)


def test_cheeger_deterministic_tiebreak():
    t = path_tree(7)
    a = cheeger_exact(t, 3)
    b = cheeger_exact(t, 3)
    assert a.argmin.members == b.argmin.members
    assert a.value == Fraction(1, 3)  # an end segment beats interior ones
    assert a.argmin.members == frozenset({0, 1, 2})


def test_cheeger_region_and_errors():
    t = path_tree(8)
    capped = cheeger_exact(t, 3, region=[2, 3, 4])
    assert capped.value == Fraction(2, 3)
    assert capped.scope["region_size"] == 3
    with pytest.raises(ValueError):
        cheeger_exact(t, 0)
    with pytest.raises(ValueError):
        cheeger_exact(t, 3, region=[])


def test_cheeger_on_regular_ball():
    # min over sizes <= 8 of ceil((n+2)/2)/n in the degree-3 tree
    ball = explore_ball(make_fixture("regular(3)"), 6)
    result = cheeger_exact(ball, 8)
    assert result.value == Fraction(5, 8)
    assert result.scope["subsets_enumerated"] > 1000


def test_folner_from_inessential_single_attach():
    fix = make_fixture("staircase")
    ines = make_inessential(fix, {(3, 0), (3, 1), (3, 2), (3, 3)})
    cand = folner_from_inessential(ines)
    assert cand.provenance == "inessential-minus-root"
    assert cand.members == frozenset({(3, 1), (3, 2), (3, 3)})
    assert cand.ratio == Fraction(1, 3)
    assert cand.detail["subtree_size"] == 4


def test_folner_from_branchless_path_on_line():
    z = make_fixture("zline_pendant")
    cand = folner_from_branchless_path(z, 0, 10)
    assert cand is not None
    assert cand.ratio <= Fraction(2, 10)
    assert len(cand.selection.boundary) <= 2
    assert ("p", 0) not in cand.members  # degree-3 origin blocks level-0 runs

    lifted = folner_from_branchless_path(z, 1, 10)
    assert lifted is not None
    assert (("p", 0) in lifted.members) == ((("z", 0)) in lifted.members)
    assert lifted.detail["trim_level"] == 1


def test_folner_from_branchless_path_absent():
    assert folner_from_branchless_path(make_fixture("regular(3)"), 0, 4) is None
    assert folner_from_branchless_path(TreeAsOracle(star_tree(4)), 0, 3) is None
    with pytest.raises(ValueError):
        folner_from_branchless_path(make_fixture("zline_pendant"), 0, 0)


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
    assert p.new_id(0) == 0 and p.new_id(4) == 1

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
