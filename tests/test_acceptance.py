"""Acceptance gate: one test per published claim, at the stated tolerances.

Each test is independent and carries its own timing bound where one is
promised. Run with -v to get one pass/fail line per criterion.
"""

import io
import json
import random
import time
import warnings
from fractions import Fraction

import brute
from arbor import (
    ClassifyBudgets,
    DegenerateImageError,
    GWSpec,
    Tree,
    TreeAsOracle,
    ball_code_sequence,
    classify,
    explore_ball,
    generation_growth_check,
    is_inessential,
    make_fixture,
    min_degree3_bound_check,
    monte_carlo_event,
    random_connected_subset,
    sandwich_check,
    subdivide_tree,
    trim_depth,
    trim_orbit,
    verify_dichotomy,
)
from arbor.cli import main


def random_tree(seed: int, max_size: int) -> Tree:
    rng = random.Random(seed)
    n = rng.randint(2, max_size)
    return Tree.from_edges(brute.random_tree_edges(rng, n))


def test_01_boundary_doubling_on_regular_trees():
    start = time.monotonic()
    checked = 0
    for degree, radius in ((3, 10), (4, 8)):
        ball = explore_ball(make_fixture(f"regular({degree})"), radius)
        rng = random.Random(degree)
        for _ in range(5000):
            members = random_connected_subset(ball, 1 + rng.randrange(20), rng)
            assert min_degree3_bound_check(ball, members)
            checked += 1
    assert checked == 10_000
    assert time.monotonic() - start < 10.0


def test_02_inessential_check_matches_complement_connectivity():
    start = time.monotonic()
    compared = 0
    for i in range(200):
        t = random_tree(1000 + i, 12)
        # proper subtrees only: the whole tree has no complement to stay connected
        for sub in brute.connected_subsets_by_closed_union(t, t.vertex_count - 1):
            if len(sub) < 2:
                continue
            assert is_inessential(t, sub) == brute.inessential_by_components(t, sub)
            compared += 1
    assert compared > 10_000
    assert time.monotonic() - start < 60.0


def test_03_trim_depth_matches_direct_orbit():
    for i in range(500):
        t = random_tree(2000 + i, 30)
        orbit = trim_orbit(t)
        oracle = TreeAsOracle(t)
        for v in range(t.vertex_count):
            for k in range(1, 7):
                depth = trim_depth(oracle, v, k)
                survives = orbit.membership_at(v, k)
                assert survives == (depth is None)
                if depth is not None:
                    assert 1 <= depth <= k
                    assert orbit.membership_at(v, depth - 1)


def test_04_staircase_trim_codes_are_periodic():
    for n in (1, 2, 3):
        codes = ball_code_sequence(make_fixture(f"staircase_n({n})"), 8, 3 * n)
        assert len(codes) == 3 * n + 1
        for j in range(3 * n + 1):
            assert codes[j] == codes[j % n]


def test_05_folner_witness_ratio_schedules():
    line = classify(make_fixture("zline_pendant"), d_target=50)
    assert line.verdict == "amenable-witnessed"
    best = line.best_ratio()
    for d in range(1, 51):
        assert best <= Fraction(2, d)

    stairs = classify(
        make_fixture("staircase"),
        ClassifyBudgets(radius=52, component_budget=2000),
        d_target=50,
    )
    assert stairs.verdict == "amenable-witnessed"
    by_size = {}
    for w in stairs.witnesses:
        if w.provenance == "inessential-minus-root":
            by_size.setdefault(w.detail["subtree_size"], set()).add(w.ratio)
    for k in range(2, 51):
        assert Fraction(1, k - 1) in by_size[k]


def test_06_sandwich_inequalities_on_subdivided_ball():
    host = subdivide_tree(explore_ball(make_fixture("regular(3)"), 6).tree)
    dist = brute.bfs_distances(host, 0)
    allowed = {v for v in range(host.vertex_count) if dist[v] <= 8}
    rng = random.Random(6)
    checked = 0
    attempts = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 3000
        members = random_connected_subset(host, 1 + rng.randrange(14), rng, allowed=allowed)
        try:
            res = sandwich_check(host, members)
        except DegenerateImageError:
            continue
        assert res.stretch in (1, 2)  # 1 when the subset meets no chain
        assert res.ratio_host <= res.ratio_image
        assert res.ratio_image <= res.stretch * res.ratio_host
        assert res.ratio_image <= 2 * res.ratio_host
        checked += 1


def test_07_single_child_cascade_estimates_match_analytic():
    start = time.monotonic()
    for law, d in ((GWSpec(("1/2", "1/2")), 2), (GWSpec(("3/10", "7/10")), 3)):
        res = monte_carlo_event(law, f"path({d})", 100_000, seed=20260818)
        assert res.exact == law.p(1) ** (d + 1)
        assert res.within(3)
    assert time.monotonic() - start < 30.0


def test_08_collapse_event_exact_and_sampled():
    laws = [GWSpec(("1/2", 0, "1/2")), GWSpec(("1/4", "1/4", "1/2")), GWSpec(("1/3", "1/3", "1/3"))]
    from arbor import event_sary_prob

    for spec in laws:
        probs = dict(enumerate(spec.probabilities))
        for s, d in ((2, 1), (2, 2), (1, 2)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # impossible events are part of the sweep
                exact = event_sary_prob(spec, s, d)
            ref = brute.gw_event_prob_by_enumeration(
                probs, d + 1, brute.sary_event_predicate(s, d)
            )
            assert exact == ref

    binary = GWSpec(("1/2", 0, "1/2"))
    res = monte_carlo_event(binary, "sary(2,1)", 100_000, seed=7)
    assert res.exact == Fraction(1, 8)
    assert res.within(3)


def test_09_mean_generation_size_matches_power_law():
    spec = GWSpec((0, "1/2", "1/2"))
    rep = generation_growth_check(spec, 6, 100_000, seed=31)
    assert rep.target == float(Fraction(3, 2) ** 6)
    assert rep.within_4se
    assert rep.monotone is True
    assert rep.strict_increase_ok


def test_10_doubling_laws_never_violate_bounds():
    for probs in ((0, 0, 0, 1), (0, 0, "1/2", "1/2")):
        rep = verify_dichotomy(
            GWSpec(probs), [], trials=5, seed=13, n_subsets=5000
        )
        assert rep.side == "nonamenable"
        check = rep.nonamenable
        assert check["subsets_checked"] == 5000  # a thousand per sampled tree
        assert check["bound_violations"] == 0
        assert check["ratio_slack_violations"] == 0
        assert check["cheeger_floor_ok"]
        assert rep.all_floors_hold()


def test_11_survival_side_witness_fraction_beats_floor():
    rep = verify_dichotomy(
        GWSpec(("1/4", "1/4", "1/2")), [5], trials=2000, seed=17
    )
    assert rep.side == "amenable"
    entry = rep.per_d[0]
    assert entry["d"] == 5
    # the library rounds the power correctly, which libm's pow need not do
    assert entry["floor"] == 1.0 - float(Fraction(1.0 - entry["collapse_event_prob"]) ** entry["r"])
    assert entry["fraction"] > entry["floor"] - 3 * entry["std_error"]
    assert entry["floor_ok"]
    assert rep.all_floors_hold()


def test_12_fixed_seed_runs_are_byte_identical(tmp_path):
    law = tmp_path / "law.json"
    law.write_text(json.dumps({"p": ["1/4", "1/4", "1/2"]}))
    ternary = tmp_path / "law3.json"
    ternary.write_text(json.dumps({"p": ["0", "0", "0", "1"]}))
    invocations = [
        ("gw", "sample", "--input", str(law), "--seed", "5", "--depth", "6"),
        ("gw", "events", "--input", str(law), "--seed", "5",
         "--event", "path(2)", "--trials", "500"),
        ("gw", "growth", "--input", str(law), "--seed", "5",
         "--generation", "4", "--trials", "300"),
        ("gw", "dichotomy", "--input", str(law), "--seed", "5",
         "--d-list", "3", "--trials", "30"),
        ("gw", "dichotomy", "--input", str(ternary), "--seed", "5",
         "--trials", "2", "--subsets", "20", "--truncate-depth", "3",
         "--cheeger-max-size", "4"),
    ]
    for argv in invocations:
        first, second = io.StringIO(), io.StringIO()
        assert main(list(argv), stdout=first) == 0
        assert main(list(argv), stdout=second) == 0
        assert first.getvalue() == second.getvalue()
