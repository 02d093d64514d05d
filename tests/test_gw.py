import hashlib
from fractions import Fraction

import numpy as np
import pytest

import brute
from arbor import (
    GWSpec,
    IncompleteKnowledgeError,
    InsufficientDepthError,
    InvalidVertexError,
    canonical_form,
    event_path_prob,
    event_sary_prob,
    extinction_probability,
    generation_growth_check,
    monte_carlo_event,
    parse_event,
    path_target_code,
    path_tree,
    sample,
    sary_target_code,
    sary_tree,
    verify_dichotomy,
)

QUARTER_LAW = GWSpec(("1/4", "1/4", "1/2"))
BINARY_LAW = GWSpec(("1/2", "0", "1/2"))
DOUBLING_LAW = GWSpec((0, 0, 1))


def law_dict(spec: GWSpec) -> dict:
    return dict(enumerate(spec.probabilities))


def test_spec_normalization():
    assert QUARTER_LAW.probabilities == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    assert QUARTER_LAW.mean == Fraction(5, 4)
    assert QUARTER_LAW.max_children == 2
    assert QUARTER_LAW.p(2) == Fraction(1, 2)
    assert QUARTER_LAW.p(7) == Fraction(0)

    trimmed = GWSpec((1, 0, 0))
    assert trimmed.probabilities == (Fraction(1),)
    assert trimmed.max_children == 0

    # float inputs are renormalized to an exact unit sum
    floaty = GWSpec((0.3, 0.7))
    assert sum(floaty.probabilities) == 1

    with pytest.raises(ValueError):
        GWSpec(())
    with pytest.raises(ValueError):
        GWSpec(("1/2", "-1/2", "1"))
    with pytest.raises(ValueError):
        GWSpec(("1/2", "1/4"))


def test_spec_families_and_json():
    doc = QUARTER_LAW.to_json()
    assert doc == {"p": ["1/4", "1/4", "1/2"]}
    assert GWSpec.from_json(doc) == QUARTER_LAW

    geo = GWSpec.geometric("1/2")
    assert sum(geo.probabilities) == 1
    assert float(geo.p(0)) == pytest.approx(0.5)
    assert float(geo.p(3)) == pytest.approx(1 / 16)
    assert geo.family["name"] == "geometric"
    assert GWSpec.from_json({"family": "geometric", "ratio": "1/2"}) == geo

    poi = GWSpec.poisson(1.0)
    assert sum(poi.probabilities) == 1
    assert float(poi.mean) == pytest.approx(1.0, abs=1e-9)
    assert float(poi.p(0)) == pytest.approx(np.exp(-1.0))

    with pytest.raises(ValueError):
        GWSpec.poisson(0)
    with pytest.raises(ValueError):
        GWSpec.geometric(1)
    with pytest.raises(ValueError):
        GWSpec.from_json({"family": "zeta", "s": 2})


def test_extinction_probability():
    # x = 1/4 + x/4 + x^2/2 factors as (2x-1)(x-1); the smaller root wins
    assert abs(QUARTER_LAW.extinction_probability() - 0.5) < 1e-9
    # x = 1/4 + 3x^2/4 factors as (3x-1)(x-1)
    assert abs(extinction_probability(GWSpec(("1/4", "0", "3/4"))) - 1 / 3) < 1e-9
    assert extinction_probability(GWSpec((0, "1/2", "1/2"))) == 0.0
    assert extinction_probability(GWSpec(("1/2", "1/2"))) == 1.0  # subcritical
    assert extinction_probability(GWSpec(("1/2", 0, "1/2"))) == 1.0  # critical


def test_sample_deterministic_and_exact():
    smp = sample(DOUBLING_LAW, 7, 4)
    assert smp.generation_sizes == (1, 2, 4, 8, 16)
    assert smp.vertex_count == 31
    assert smp.truncated_at == 4
    assert not smp.extinct and not smp.budget_hit

    a = sample(QUARTER_LAW, 123, 6, trial=5)
    b = sample(QUARTER_LAW, 123, 6, trial=5)
    assert len(a.counts) == len(b.counts)
    assert all(np.array_equal(x, y) for x, y in zip(a.counts, b.counts))

    c = sample(QUARTER_LAW, 123, 6, trial=5, attempt=2)
    d = sample(QUARTER_LAW, 123, 6, trial=5, attempt=2)
    assert all(np.array_equal(x, y) for x, y in zip(c.counts, d.counts))

    with pytest.raises(ValueError):
        sample(QUARTER_LAW, 1, -1)


def test_sample_follows_the_stated_stream():
    # generation g of trial t is drawn from the jumped per-trial stream
    smp = sample(QUARTER_LAW, 9, 3, trial=4)
    width = int(smp.counts[0].sum())
    if width:
        bg = np.random.PCG64(np.random.SeedSequence(entropy=9, spawn_key=(4,))).jumped(1)
        draws = np.random.Generator(bg).random(width)
        expect = np.searchsorted(QUARTER_LAW.cumulative(), draws, side="right")
        assert np.array_equal(smp.counts[1], expect)


def test_sample_budget_discards_whole_generation():
    smp = sample(DOUBLING_LAW, 7, 10, max_vertices=10)
    assert smp.budget_hit
    assert smp.truncated_at == 2
    assert smp.generation_sizes == (1, 2, 4)
    assert smp.vertex_count == 7


def test_sample_extinction_and_zero_depth():
    dead = sample(GWSpec((1,)), 3, 5)
    assert dead.extinct
    assert dead.generation_sizes == (1, 0)
    assert dead.truncated_at == 1
    assert dead.vertex_count == 1

    stub = sample(QUARTER_LAW, 3, 0)
    assert stub.counts == ()
    assert stub.generation_sizes == (1,)
    assert not stub.extinct


def test_labels_and_indices_roundtrip():
    smp = sample(DOUBLING_LAW, 1, 3)
    assert smp.label_of(0) == ()
    assert smp.index_of(()) == 0
    assert smp.index_of((1,)) == 1
    assert smp.index_of((2,)) == 2
    assert smp.index_of((1, 1)) == 3
    for i in range(smp.vertex_count):
        assert smp.index_of(smp.label_of(i)) == i
    with pytest.raises(InvalidVertexError):
        smp.label_of(smp.vertex_count)
    with pytest.raises(InvalidVertexError):
        smp.index_of((3,))
    with pytest.raises(InvalidVertexError):
        smp.index_of((1,) * 10)


def test_to_tree_shape():
    smp = sample(DOUBLING_LAW, 1, 2)
    t = smp.to_tree()
    assert t.vertex_count == 7
    assert t.root == 0
    assert canonical_form(t, rooted=True) == sary_target_code(2, 2)
    assert len(t.neighbors(0)) == 2
    assert sorted(len(t.neighbors(v)) for v in range(7)) == [1, 1, 1, 1, 2, 3, 3]


def test_truncate():
    smp = sample(DOUBLING_LAW, 1, 4)
    cut = smp.truncate(2)
    assert cut.vertex_count == 7
    assert cut.truncated_at == 2
    assert not cut.budget_hit
    assert smp.truncate(4) is smp
    with pytest.raises(InsufficientDepthError):
        smp.truncate(5)
    with pytest.raises(ValueError):
        smp.truncate(-1)

    dead = sample(GWSpec((1,)), 3, 5)
    assert dead.truncate(3) is dead  # nothing below an extinct sample


def test_truncate_ball():
    smp = sample(DOUBLING_LAW, 1, 3)
    ball = smp.truncate_ball(2)
    assert ball.vertex_count == 7
    assert ball.frontier == frozenset({3, 4, 5, 6})
    assert ball.interior == frozenset({0, 1, 2})
    assert ball.handles[0] == ()
    assert ball.neighbors(1) == (0, 3, 4)
    with pytest.raises(IncompleteKnowledgeError):
        ball.neighbors(3)

    dead = sample(GWSpec((1,)), 3, 5)
    assert dead.truncate_ball(4).frontier == frozenset()


def test_subtree_at():
    smp = sample(DOUBLING_LAW, 1, 3)
    sub = smp.subtree_at((1,))
    assert sub.generation_sizes == (1, 2, 4)
    assert canonical_form(sub.to_tree(), rooted=True) == sary_target_code(2, 2)

    whole = smp.subtree_at(())
    assert all(np.array_equal(x, y) for x, y in zip(whole.counts, smp.counts))
    with pytest.raises(InvalidVertexError):
        smp.subtree_at((3,))


def test_event_probs_match_enumeration():
    cases = [
        (QUARTER_LAW, ("path", 1)),
        (QUARTER_LAW, ("path", 2)),
        (QUARTER_LAW, ("sary", 2, 1)),
        (QUARTER_LAW, ("sary", 2, 2)),
        (BINARY_LAW, ("sary", 2, 1)),
        (GWSpec(("1/2", 0, 0, "1/2")), ("sary", 3, 1)),
        (GWSpec(("1/3", "1/3", "1/3")), ("sary", 1, 2)),
    ]
    for spec, ev in cases:
        if ev[0] == "path":
            exact = event_path_prob(spec, ev[1])
            pred = brute.path_event_predicate(ev[1])
            depth = ev[1] + 1
        else:
            exact = event_sary_prob(spec, ev[1], ev[2])
            pred = brute.sary_event_predicate(ev[1], ev[2])
            depth = ev[2] + 1
        assert exact == brute.gw_event_prob_by_enumeration(law_dict(spec), depth, pred)

    assert event_sary_prob(BINARY_LAW, 2, 1) == Fraction(1, 8)
    assert event_sary_prob(GWSpec(("1/2", 0, 0, "1/2")), 3, 1) == Fraction(1, 16)
    assert event_path_prob(QUARTER_LAW, 3) == Fraction(1, 256)


def test_event_probs_degenerate():
    with pytest.warns(UserWarning):
        assert event_sary_prob(GWSpec((0, 1)), 2, 1) == Fraction(0)
    with pytest.warns(UserWarning):
        assert event_sary_prob(GWSpec(("1/2", "1/2")), 2, 1) == Fraction(0)
    # depth 0 asks only that the root dies, whatever the arity
    assert event_sary_prob(GWSpec(("1/2", "1/2")), 2, 0) == Fraction(1, 2)
    with pytest.raises(ValueError):
        event_path_prob(QUARTER_LAW, -1)
    with pytest.raises(ValueError):
        event_sary_prob(QUARTER_LAW, 0, 1)


def test_parse_event():
    assert parse_event("path(3)") == ("path", 3)
    assert parse_event(" sary( 2 , 4 ) ") == ("sary", 2, 4)
    for bad in ["path(1,2)", "sary(2)", "sary(0,1)", "blah", "path(-1)", "sary(2,)"]:
        with pytest.raises(ValueError):
            parse_event(bad)


def test_target_codes():
    assert path_target_code(0) == canonical_form(path_tree(2, root=0), rooted=True)
    assert sary_target_code(2, 2) == canonical_form(sary_tree(2, 2), rooted=True)
    assert path_target_code(1) != sary_target_code(2, 1)


def test_sample_golden_digest():
    """Pins sample()'s count arrays bit for bit: a faster sampler must reproduce them.

    The grid covers the (trial,) stream (attempt=None), the (trial, attempt)
    streams including a nonzero attempt, and samples cut short by the
    max_vertices budget.
    """
    h = hashlib.sha256()
    budget_hits = 0
    for seed in (0, 5, 20260818):
        for trial in (0, 1, 7):
            for attempt in (None, 0, 3):
                for max_vertices in (None, 40):
                    smp = sample(QUARTER_LAW, seed, 8, max_vertices, trial=trial, attempt=attempt)
                    budget_hits += smp.budget_hit
                    key = (seed, trial, attempt, max_vertices, smp.truncated_at, smp.budget_hit)
                    h.update(repr(key).encode())
                    for c in smp.counts:
                        h.update(np.asarray(c, dtype="<i8").tobytes())
    assert budget_hits == 12
    assert h.hexdigest() == "68ca6a89e12b511c60900d63dc171100cb1def1c3bc163126a012ea48142501e"


def test_monte_carlo_event():
    res = monte_carlo_event(BINARY_LAW, "sary(2,1)", 4000, seed=11)
    assert res.exact == Fraction(1, 8)
    assert res.trials == 4000
    assert res.estimate == res.successes / 4000
    assert res.std_error == pytest.approx(
        np.sqrt(res.estimate * (1 - res.estimate) / 4000)
    )
    assert res.within(4)
    doc = res.to_json()
    assert doc["exact"] == "1/8" and doc["exact_float"] == 0.125

    code_ev = ("code", sary_target_code(2, 1), 2)
    by_code = monte_carlo_event(BINARY_LAW, code_ev, 4000, seed=11)
    assert by_code.successes == res.successes
    assert by_code.exact is None
    with pytest.raises(ValueError):
        by_code.within(3)
    with pytest.raises(ValueError):
        monte_carlo_event(BINARY_LAW, "path(1)", 0, seed=1)


def test_generation_growth():
    rep = generation_growth_check(QUARTER_LAW, 4, 400, seed=3)
    assert rep.generation == 4
    assert rep.target == pytest.approx(float(Fraction(5, 4) ** 4))
    assert rep.within_4se
    assert rep.monotone is None and rep.strict_increase_ok is None

    deathless = generation_growth_check(GWSpec((0, "1/2", "1/2")), 5, 300, seed=4)
    assert deathless.monotone is True
    assert deathless.strict_increase_floor == pytest.approx(0.5)
    assert deathless.strict_increase_ok

    with pytest.raises(ValueError):
        generation_growth_check(QUARTER_LAW, 0, 10, seed=1)


def test_dichotomy_amenable_side():
    rep = verify_dichotomy(QUARTER_LAW, [2], trials=50, seed=5)
    assert rep.side == "amenable"
    assert rep.all_floors_hold()
    entry = rep.per_d[0]
    assert entry["d"] == 2 and entry["n"] == 4 and entry["horizon"] == 7
    assert entry["collapse_event_prob"] == pytest.approx(1 / 64)
    assert 0 <= entry["fraction"] <= 1
    assert entry["acceptance_ok"]
    assert rep.params["extinction_probability"] == pytest.approx(0.5)

    csv = rep.csv_rows()
    assert csv[0] == ["d", "trial", "generation_sizes", "best_ratio", "witness_kind"]
    assert len(csv) == 1 + 50

    again = verify_dichotomy(QUARTER_LAW, [2], trials=50, seed=5)
    assert again.to_json() == rep.to_json()


def test_dichotomy_nonamenable_side():
    spec = GWSpec((0, 0, 0, 1))
    rep = verify_dichotomy(
        spec, [], trials=3, seed=9, truncate_depth=3, n_subsets=30,
        subset_size=6, cheeger_max_size=4,
    )
    assert rep.side == "nonamenable"
    assert rep.nonamenable["bound_violations"] == 0
    assert rep.nonamenable["ratio_slack_violations"] == 0
    assert rep.nonamenable["cheeger_floor_ok"]
    assert rep.all_floors_hold()
    assert rep.csv_rows()[0] == ["trial", "subsets_checked", "bound_violations"]
    assert all(r[2] == 0 for r in rep.csv_rows()[1:])

    mixed = verify_dichotomy(
        GWSpec((0, 0, "1/2", "1/2")), [], trials=2, seed=9,
        truncate_depth=3, n_subsets=20, subset_size=6, cheeger_max_size=4,
    )
    assert mixed.side == "nonamenable"
    assert mixed.all_floors_hold()

    with pytest.raises(ValueError):
        verify_dichotomy(spec, [], trials=0, seed=1)
    with pytest.raises(ValueError):
        verify_dichotomy(spec, [], trials=1, seed=1, max_vertices=0)
    for bad in ({"truncate_depth": 0}, {"subset_size": 0}, {"n_subsets": 0}):
        with pytest.raises(ValueError):
            verify_dichotomy(spec, [], trials=2, seed=1, **bad)

    uneven = verify_dichotomy(
        spec, [], trials=3, seed=9, truncate_depth=3, n_subsets=10,
        subset_size=6, cheeger_max_size=4,
    )
    assert uneven.nonamenable["subsets_checked"] == 10
    assert [r[1] for r in uneven.csv_rows()[1:]] == [4, 3, 3]
    few = verify_dichotomy(
        spec, [], trials=3, seed=9, truncate_depth=3, n_subsets=1,
        subset_size=6, cheeger_max_size=4,
    )
    assert few.nonamenable["subsets_checked"] == 1
