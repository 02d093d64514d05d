import hashlib
import math
import warnings
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import brute
from arbor import (
    BudgetExhaustedError,
    GWSpec,
    IncompleteKnowledgeError,
    InsufficientDepthError,
    canonical_form,
    event_path_prob,
    event_sary_prob,
    generation_growth_check,
    monte_carlo_event,
    sample,
    sary_tree,
    verify_dichotomy,
)
import arbor.amenability as amenability
import arbor.galton_watson as gw
from arbor.galton_watson import _collapse_q, _scan_witness, extinction_probability, parse_event

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


@pytest.mark.parametrize("lam, truncation", [(100.0, 1e-12), (1.5, 0.0)])
def test_poisson_term_past_float_range_is_a_value_error(lam: float, truncation: float):
    # lambda^k or k! leaves float range before the mass reaches 1 - truncation
    with pytest.raises(ValueError, match="lambda too large to truncate sensibly"):
        GWSpec.poisson(lam, truncation)


def _assert_nearest(r: float, exact: Fraction):
    """``r`` is the float nearest ``exact``, a tie going to the neighbor whose last significand bit is 0."""
    gap = abs(Fraction(r) - exact)
    for neighbor in (math.nextafter(r, -math.inf), math.nextafter(r, math.inf)):
        other = abs(Fraction(neighbor) - exact)
        assert gap < other or (gap == other and Fraction(r) / Fraction(math.ulp(r)) % 2 == 0)


@given(st.floats(0, 8), st.integers(0, 60))
@example(1.5, 34)
@example(3.0, 34)
@example(1e-300, 2)  # underflows to 0.0
def test_correctly_rounded_pow_matches_fraction(x, k):
    _assert_nearest(gw._pow(x, k), Fraction(x) ** k)


def test_correctly_rounded_pow_breaks_halfway_ties_to_even():
    # 3^34 is odd and between 2^53 and 2^54, where floats are 2 apart, so it
    # lies halfway between two of them; glibc's pow returns the odd one.
    assert 3**34 % 2 == 1 and 2**53 < 3**34 < 2**54
    assert gw._pow(3.0, 34) == 3**34 - 1
    assert gw._pow(1.5, 34) == math.ldexp(3**34 - 1, -34)


@given(st.floats(-800, 10))
@example(0.0)
@example(-1.5)  # Poisson(1.5)'s p(0)
@example(-745.1332191019412)  # near half the smallest subnormal
def test_correctly_rounded_exp_matches_decimal(x):
    exact = Context(prec=120, Emax=MAX_EMAX, Emin=MIN_EMIN).exp(Decimal(x))
    _assert_nearest(gw._exp(x), Fraction(exact))


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


def stated_stream_counts(spec, seed, key, g, width):
    """Generation g's child counts drawn as the module docstring states."""
    bg = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)).jumped(g)
    draws = np.random.Generator(bg).random(width)
    cum = np.cumsum([float(p) for p in spec.probabilities])
    cum[-1] = 1.0
    return np.searchsorted(cum, draws, side="right")


def test_sample_follows_the_stated_stream():
    # Every generation of every trial, on (trial,) and (trial, attempt) keys,
    # including a trial >= 2**32 whose key element splits into two words, and
    # under a seed longer than SeedSequence's 4-word pool.
    widths = set()
    for seed in (9, 2**130 + 17):
        for trial in (*range(200), 2**32 + 3):
            attempt = None if trial % 2 else trial % 5
            key = (trial,) if attempt is None else (trial, attempt)
            smp = sample(QUARTER_LAW, seed, 12, trial=trial, attempt=attempt)
            for g, c in enumerate(smp.counts):
                width = smp.generation_sizes[g]
                widths.add(width)
                assert c.dtype == np.int64
                assert np.array_equal(c, stated_stream_counts(QUARTER_LAW, seed, key, g, width)), (seed, trial, g)
    # The trials cover every width from 1 to 38 and one above 64, so both
    # one-vertex and wide generations are checked.
    assert set(range(1, 39)) <= widths
    assert max(widths) > 64


def test_sample_input_handling():
    for bad in ({"seed": -1}, {"trial": -1}, {"attempt": -1}, {"trial": -(2**40)}):
        args = {"seed": 1, "trial": 0, "attempt": None, **bad}
        with pytest.raises(ValueError, match="expected non-negative integer"):
            sample(QUARTER_LAW, args["seed"], 3, trial=args["trial"], attempt=args["attempt"])
    with pytest.raises(TypeError):
        sample(QUARTER_LAW, 1.0, 3)
    with pytest.raises(TypeError):
        sample(QUARTER_LAW, 1, 3, trial=2.0)

    a = monte_carlo_event(QUARTER_LAW, "path(1)", 300, seed=np.int64(7))
    b = monte_carlo_event(QUARTER_LAW, "path(1)", 300, seed=7)
    assert a.successes == b.successes
    x = sample(QUARTER_LAW, np.int64(7), 8, trial=np.int64(4), attempt=np.int64(1))
    y = sample(QUARTER_LAW, 7, 8, trial=4, attempt=1)
    assert all(np.array_equal(p, q) for p, q in zip(x.counts, y.counts))
    assert len(x.counts) == len(y.counts)


def test_sample_budget_discards_whole_generation():
    smp = sample(DOUBLING_LAW, 7, 10, max_vertices=10)
    assert smp.budget_hit
    assert smp.truncated_at == 2
    assert smp.generation_sizes == (1, 2, 4)
    assert smp.vertex_count == 7
    assert sample(DOUBLING_LAW, 7, 10, max_vertices=1).generation_sizes == (1,)
    for bad in (0, -5):  # a budget must hold the root
        with pytest.raises(ValueError, match="max_vertices"):
            sample(DOUBLING_LAW, 7, 10, max_vertices=bad)


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
    assert [brute.label_of(smp, i) for i in range(4)] == [(), (1,), (2,), (1, 1)]
    # In to_tree() ids, vertex i's children carry its label extended by 1, 2, ...
    t = smp.to_tree()
    labels = [brute.label_of(smp, i) for i in range(smp.vertex_count)]
    assert len(set(labels)) == smp.vertex_count
    for i in range(smp.vertex_count):
        kids = [u for u in t.neighbors(i) if u > i]
        assert [labels[u] for u in kids] == [labels[i] + (j,) for j in range(1, len(kids) + 1)]


def test_to_tree_shape():
    smp = sample(DOUBLING_LAW, 1, 2)
    t = smp.to_tree()
    assert t.vertex_count == 7
    assert t.root == 0
    assert canonical_form(t) == canonical_form(sary_tree(2, 2))
    assert len(t.neighbors(0)) == 2
    assert sorted(len(t.neighbors(v)) for v in range(7)) == [1, 1, 1, 1, 2, 3, 3]


def test_truncate():
    smp = sample(DOUBLING_LAW, 1, 4)
    cut = gw._prefix(smp, 2)
    assert cut.vertex_count == 7
    assert cut.truncated_at == 2
    assert not cut.budget_hit
    assert gw._prefix(smp, 4) is smp
    assert smp.truncate_ball(4).vertex_count == smp.vertex_count == 31
    with pytest.raises(InsufficientDepthError, match="^sampled only to generation 4, cannot truncate at 5$"):
        smp.truncate_ball(5)
    with pytest.raises(ValueError, match="^depth must be nonnegative$"):
        smp.truncate_ball(-1)

    dead = sample(GWSpec((1,)), 3, 5)
    assert gw._prefix(dead, 3) is dead  # nothing below an extinct sample
    assert dead.truncate_ball(3).vertex_count == 1

    hit = sample(DOUBLING_LAW, 1, 4, max_vertices=10)  # generation 3 would pass the budget
    assert hit.budget_hit and hit.truncated_at == 2
    assert hit.truncate_ball(2).vertex_count == 7
    with pytest.raises(InsufficientDepthError, match="^sampled only to generation 2, cannot truncate at 3$"):
        hit.truncate_ball(3)


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


@pytest.mark.parametrize("spec", [QUARTER_LAW, BINARY_LAW, DOUBLING_LAW, GWSpec((1,))])
def test_truncate_ball_depths_match_bfs(spec):
    for seed in range(6):
        smp = sample(spec, seed, 5)
        for k in range(min(5, smp.truncated_at) + 1):
            ball = smp.truncate_ball(k)
            dist = brute.bfs_distances(ball.tree, 0)
            assert ball.depths == tuple(dist[v] for v in range(ball.vertex_count))
            assert ball.frontier == frozenset(v for v, d in enumerate(ball.depths) if d == k)
            assert ball.sorted_interior == tuple(v for v, d in enumerate(ball.depths) if d < k)


@pytest.mark.parametrize("spec", [QUARTER_LAW, BINARY_LAW, DOUBLING_LAW, GWSpec((1,))])
def test_truncate_ball_handles_are_labels(spec):
    for seed in range(6):
        smp = sample(spec, seed, 5)
        for k in range(min(5, smp.truncated_at) + 1):
            cut = gw._prefix(smp, k)
            assert smp.truncate_ball(k).handles == tuple(brute.label_of(cut, i) for i in range(cut.vertex_count))


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


@st.composite
def rational_laws(draw):
    """Offspring laws on 0..6 children with small integer weights; p(0) may be zero."""
    weights = draw(st.lists(st.integers(0, 9), min_size=2, max_size=7).filter(any))
    return GWSpec(tuple(Fraction(w, sum(weights)) for w in weights))


@given(rational_laws(), st.integers(1, 3))
def test_collapse_q_matches_exact_max_on_rational_laws(spec, d):
    assert _collapse_q(spec, d) == brute.collapse_q_by_exact_max(spec, d)


TINY = Fraction(1, 10**400)
# Every term underflows on these, so q is 0.0.
UNDERFLOWING_LAWS = [GWSpec((TINY, 1 - TINY)), GWSpec((Fraction(1, 2**600), 0, 1 - Fraction(1, 2**600)))]


@pytest.mark.parametrize(
    "spec",
    [
        # p(1) = 0: a wide collapse can beat the narrow one
        GWSpec(("1/2", 0, "1/100", 0, 0, "49/100")),
        GWSpec(("1/3", 0, 0, 0, 0, 0, 0, 0, "2/3")),
        *UNDERFLOWING_LAWS,
        # q is about 1e-320, a subnormal float just above the underflow cut
        GWSpec((Fraction(1, 10**320), 1 - Fraction(1, 10**320))),
        # an entry far below float range next to ordinary ones
        GWSpec(("1/3", "1/3", Fraction(1, 3) - TINY, TINY)),
        GWSpec(("1/4", TINY, Fraction(3, 4) - TINY)),
        GWSpec.poisson(1.0),
        GWSpec.poisson(1.5),
        GWSpec.poisson(3.0),
        # small ratios keep the unpruned reference quick at d = 3
        GWSpec.geometric("1/4"),
        GWSpec.geometric("1/8"),
        QUARTER_LAW,
    ],
)
def test_collapse_q_matches_exact_max(spec):
    for d in (1, 2, 3):
        q = _collapse_q(spec, d)
        assert q == brute.collapse_q_by_exact_max(spec, d), d
        assert (q == 0.0) == (spec in UNDERFLOWING_LAWS)


def test_collapse_q_poisson_depth_four():
    # The exact max over s, computed once with the unpruned loop (about 25 s).
    assert _collapse_q(GWSpec.poisson(1.5), 4) == 0.002799989623882845


def surviving_samples(spec, seed, trials, depth, max_vertices, skips: bool = False) -> list:
    """Each trial's first surviving sample in 64 attempts, each attempt drawn to depth itself.

    This is the per-d reference for verify_dichotomy, which draws each
    (trial, attempt) once to the deepest horizon of its d_list and cuts it.
    Trials with no survivor are left out; with skips, every trial gives
    (sample, attempts taken), a skipped one its 64th, extinct sample.
    """
    out = []
    for t in range(trials):
        for a in range(64):
            smp = sample(spec, seed, depth, max_vertices, trial=t, attempt=a)
            if not smp.extinct:
                break
        if skips:
            out.append((smp, a + 1))
        elif not smp.extinct:
            out.append(smp)
    return out


def assert_scan_matches_bfs(samples, n) -> list:
    got = _scan_witness(samples, n)
    assert len(got) == len(samples)
    for smp, found in zip(samples, got):
        assert found == brute.scan_witness_by_bfs(smp.to_tree(), smp.truncated_at, n), (smp.trial, smp.truncated_at)
    return got


def test_scan_witness_matches_bfs_reference():
    cases = [
        (QUARTER_LAW, 2, 2000),
        (QUARTER_LAW, 3, 2000),
        (GWSpec.poisson(1.5), 2, 2000),
        (GWSpec(("1/2", "1/2")), 3, 2000),
        (QUARTER_LAW, 3, 40),
        (GWSpec.poisson(1.5), 3, 60),
        (DOUBLING_LAW, 3, 100),  # cut at generation 5, short of n = 9: no witness
        (QUARTER_LAW, 2, 1),  # nothing drawn below the root
        (QUARTER_LAW, 5, 20000),  # the gw-deep shape: 12 trials, one of them cut by the budget
    ]
    budget_hits = mixed_depths = 0
    kinds = set()
    forests = []
    real = gw._scan_forest

    def recorded(forest, n):
        forests.append(forest)
        return real(forest, n)

    for spec, d, max_vertices in cases:
        n = d * d
        samples = surviving_samples(spec, 17, 40 if max_vertices < 20000 else 12, n + d + 1, max_vertices)
        budget_hits += sum(smp.budget_hit for smp in samples)
        mixed_depths += len({smp.truncated_at for smp in samples}) > 1
        forests.clear()
        with mock.patch.object(gw, "_scan_forest", recorded):
            kinds.update(kind for _, kind in assert_scan_matches_bfs(samples, n))
    # The gw-deep case scans its 12 trials in one call per depth: the 11 that
    # reach generation 31, 97,000 vertices in all, as one forest.
    assert [(len(f), f[0].truncated_at) for f in forests] == [(11, 31), (1, 30)]
    assert sum(smp.vertex_count for smp in forests[0]) > 90_000
    assert budget_hits >= 20 and mixed_depths >= 3
    assert kinds == {"", "dead-subtree", "single-child-run", "shallow-ball"}
    assert _scan_witness([], 4) == []


def test_parse_event():
    assert parse_event("path(3)") == ("path", 3)
    assert parse_event(" sary( 2 , 4 ) ") == ("sary", 2, 4)
    for bad in ["path(1,2)", "sary(2)", "sary(0,1)", "blah", "path(-1)", "sary(2,)"]:
        with pytest.raises(ValueError):
            parse_event(bad)


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


# Laws for the batched engine: dyadic, non-dyadic, deathless, Poisson and
# geometric. Under {0,0,0,1} generation g has 3^g vertices and under
# Poisson(4) about 4^g, past _BATCH_WIDTH_MAX.
ENGINE_LAWS = [
    QUARTER_LAW,
    GWSpec(("3/10", "7/10")),
    GWSpec(("1/3", "1/3", "1/3")),
    GWSpec((0, "1/2", "1/2")),
    GWSpec((0, 0, 0, 1)),
    GWSpec.poisson(1.5),
    GWSpec.poisson(4.0),
    GWSpec.geometric("1/2"),
]
# Seeds of one word, of several words (SeedSequence entropy past 32 bits), and a numpy integer.
ENGINE_SEEDS = st.sampled_from([0, 1, 2**32, 2**32 + 9, 2**70 + 3, np.int64(5)]) | st.integers(0, 2**66)
# The default batch sizes, and sizes small enough that a few trials span several batches.
SMALL_BATCHES = {"_BATCH_TRIALS": 8, "_BATCH_VERTICES": 16, "_BATCH_WIDTH_MAX": 4}
BATCH_SIZES = st.sampled_from([{name: getattr(gw, name) for name in SMALL_BATCHES}, SMALL_BATCHES])


def sary_target(s: int, d: int):
    """The per-vertex count sary(s,d) asks of generation g; path(d) is s = 1 with d past the depth."""
    return lambda g: s if g < d else 0


def generations_by_sample(spec, seed, trials, depth, target=None) -> dict:
    """g -> [(trial, size of generation g, size of g + 1)] that gw._generations must yield, from sample()."""
    out = {}
    for t in range(trials):
        smp = sample(spec, seed, depth, trial=t)
        for g, c in enumerate(smp.counts):
            if target is not None and not np.all(c == target(g)):
                break
            out.setdefault(g, []).append((t, smp.generation_sizes[g], smp.generation_sizes[g + 1]))
    return out


def batched_generations(spec, seed, trials, depth, target=None) -> dict:
    out = {}
    for g, ids, widths, sizes in gw._generations(spec, seed, trials, depth, target):
        out.setdefault(g, []).extend(zip(ids.tolist(), widths.tolist(), sizes.tolist()))
    return {g: rows for g, rows in out.items() if rows}


@given(
    st.sampled_from(ENGINE_LAWS),
    ENGINE_SEEDS,
    st.integers(1, 40),
    st.integers(1, 7),
    st.none() | st.tuples(st.integers(1, 3), st.integers(0, 8)),
    BATCH_SIZES,
)
# Generation 2 of {0,0,0,1} has 9 vertices, drawn past _BATCH_WIDTH_MAX = 4: a miss, then a match.
@example(ENGINE_LAWS[4], 1, 3, 4, (3, 2), SMALL_BATCHES)
@example(ENGINE_LAWS[4], 1, 3, 4, (3, 3), SMALL_BATCHES)
def test_batched_generations_match_sample(spec, seed, trials, depth, event, batches):
    target = None if event is None else sary_target(*event)
    with mock.patch.multiple(gw, **batches):
        got = batched_generations(spec, seed, trials, depth, target)
    assert got == generations_by_sample(spec, seed, trials, depth, target)


def growth_by_sample(spec, n, trials, seed) -> dict:
    """generation_growth_check's report, from one sample() per trial."""
    finals = np.zeros(trials)
    deathless = spec.p(0) == 0
    monotone = True if deathless else None
    inc_steps = tot_steps = 0
    for t in range(trials):
        sizes = sample(spec, seed, n, trial=t).generation_sizes
        finals[t] = sizes[n] if len(sizes) > n else 0
        if deathless:
            monotone = monotone and all(b >= a for a, b in zip(sizes, sizes[1:]))
            inc_steps += sum(b > a for a, b in zip(sizes, sizes[1:]))
            tot_steps += len(sizes) - 1
    mean = float(finals.mean())
    se = (float(finals.std(ddof=1)) if trials > 1 else 0.0) / np.sqrt(trials)
    freq = inc_steps / tot_steps if deathless else None
    return {"mean_final": mean, "std_error": se, "monotone": monotone, "strict_increase_freq": freq}


@given(
    st.sampled_from(ENGINE_LAWS),
    ENGINE_SEEDS,
    st.integers(1, 30),
    st.integers(0, 4),
    st.sampled_from(["path({d})", "sary(1,{d})", "sary(2,{d})", "sary(3,{d})"]),
    BATCH_SIZES,
)
def test_event_and_growth_match_sample(spec, seed, trials, d, event, batches):
    event = event.format(d=d)
    parsed = parse_event(event)
    check = brute.path_event_predicate(d) if parsed[0] == "path" else brute.sary_event_predicate(*parsed[1:])
    expected = sum(
        check([tuple(c.tolist()) for c in sample(spec, seed, d + 1, trial=t).counts]) for t in range(trials)
    )
    with mock.patch.multiple(gw, **batches), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # impossible events are part of the sweep
        res = monte_carlo_event(spec, event, trials, seed)
        report = generation_growth_check(spec, d + 1, trials, seed).to_json()
    assert res.successes == expected
    assert {k: report[k] for k in ("mean_final", "std_error", "monotone", "strict_increase_freq")} == growth_by_sample(
        spec, d + 1, trials, seed
    )


def test_batched_generations_past_one_trial_batch():
    trials = gw._BATCH_TRIALS + 37
    assert batched_generations(BINARY_LAW, 3, trials, 3) == generations_by_sample(BINARY_LAW, 3, trials, 3)
    target = sary_target(2, 1)
    assert batched_generations(BINARY_LAW, 3, trials, 2, target) == generations_by_sample(BINARY_LAW, 3, trials, 2, target)


def test_trial_streams_match_numpy_seeding():
    # Seeds of one word, of two, and longer than SeedSequence's 4-word pool.
    for seed in (0, 7, 2**32 - 1, 2**32 + 1, 2**64 + 7, 2**128 - 1, 2**128, 2**130 + 5, 2**200 + 12345):
        for first, stop in ((0, 5), (2**32 - 3, 2**32), (2**32, 2**32 + 3), (2**40, 2**40 + 2)):
            state, inc = gw._trial_streams(seed, first, stop)
            step = gw._add128(gw._mul128(gw._MULT_LESS_ONE_LIMBS, state), inc)
            for i, t in enumerate(range(first, stop)):
                st = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(t,))).state["state"]
                s, c = st["state"], st["inc"]
                assert (gw._int128(state[:, i]), gw._int128(inc[:, i])) == (s, c), (seed, t)
                assert gw._int128(step[:, i]) == (s * gw._PCG_MULT + c - s) % 2**128
    with pytest.raises(ValueError, match="word counts"):
        gw._trial_streams(1, 2**32 - 1, 2**32 + 1)  # ids of one and of two words


def test_batched_draws_reject_bad_seeds():
    for fn in (lambda seed: monte_carlo_event(QUARTER_LAW, "path(1)", 5, seed),
               lambda seed: generation_growth_check(QUARTER_LAW, 2, 5, seed)):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            fn(-1)
        with pytest.raises(TypeError):
            fn(1.0)


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


def test_dichotomy_rejects_bad_d_list(monkeypatch):
    import arbor.galton_watson as gw

    drawn = []
    monkeypatch.setattr(gw, "sample", lambda *args, **kwargs: drawn.append(args))
    for d_list in ([], [0], [2, 0], [-1]):
        with pytest.raises(ValueError, match="d_list"):
            verify_dichotomy(QUARTER_LAW, d_list, trials=2, seed=1)
    assert drawn == []  # rejected before any sampling


def test_ratio_slack_violation_is_the_bound_violation(monkeypatch):
    # for every |A| <= 64 and 0 <= |B| <= |A|,
    # |B|/|A| < 1/2 - [root in A]/|A| exactly when |A| > 2|B| + 2[root in A]
    for a in range(1, 65):
        for b in range(a + 1):
            for root_in in (0, 1):
                assert (Fraction(b, a) < Fraction(1, 2) - Fraction(root_in, a)) == (a > 2 * b + 2 * root_in)
    # so the bound side writes its one count under both keys; a stub verdict makes some
    monkeypatch.setattr(amenability, "_degree3_bound", lambda host, members, root: len(members) % 2 == 0)
    check = verify_dichotomy(
        GWSpec((0, 0, 0, 1)), [], trials=2, seed=4, truncate_depth=3, n_subsets=40, subset_size=6, cheeger_max_size=3,
    ).nonamenable
    assert check["bound_violations"] == check["ratio_slack_violations"] > 0


def test_cheeger_value_under_its_floor_fails_the_bound_side(monkeypatch):
    # a stub argmin away from the root with no boundary: ratio 0, under the floor of 1/2
    argmin = amenability.FolnerCandidate(frozenset({1}), frozenset(), "enumerated")
    stub = amenability.CheegerResult(argmin, {"max_size": 3, "subsets_enumerated": 1})
    monkeypatch.setattr(amenability, "cheeger_exact", lambda ball, max_size: stub)
    rep = verify_dichotomy(
        GWSpec((0, 0, 0, 1)), [], trials=2, seed=9, truncate_depth=3, n_subsets=10, subset_size=4, cheeger_max_size=3,
    )
    assert rep.nonamenable["bound_violations"] == 0
    assert rep.nonamenable["cheeger_values"] == ["0", "0"]
    assert rep.nonamenable["cheeger_floor_ok"] is False
    assert rep.nonamenable["cheeger_tightest_floor"] == "1/2"
    assert not rep.all_floors_hold()


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

    # the ternary tree to depth 3 has 40 vertices; a sample stopped short of that is a spent budget
    small = {"truncate_depth": 3, "n_subsets": 4, "subset_size": 4, "cheeger_max_size": 3}
    assert verify_dichotomy(spec, [], trials=2, seed=1, max_vertices=40, **small).nonamenable["subsets_checked"] == 4
    with pytest.raises(BudgetExhaustedError, match="^trial 0's tree to depth 3 needs more than 39 vertices$"):
        verify_dichotomy(spec, [], trials=2, seed=1, max_vertices=39, **small)
    few = verify_dichotomy(
        spec, [], trials=3, seed=9, truncate_depth=3, n_subsets=1,
        subset_size=6, cheeger_max_size=4,
    )
    assert few.nonamenable["subsets_checked"] == 1


@given(
    rational_laws() | st.sampled_from(ENGINE_LAWS),
    st.integers(0, 2**40),
    st.integers(1, 3),
    st.integers(1, 16),
    st.integers(1, 1500),
    st.booleans(),
)
# Twelve complete ternary trees of depth 7, 39360 vertices at one depth, in one forest.
@example(ENGINE_LAWS[4], 0, 2, 12, 4000, False)
# Six trials that reach generation 7, in one forest. The last one's generation
# 6 ends with three childless vertices, whose children would start past the
# end of generation 7.
@example(QUARTER_LAW, 0, 2, 6, 60, False)
# Budget cuts at generations 6, 8, 11 and twice at 12, beside one trial that reaches generation 13.
@example(QUARTER_LAW, 1, 3, 6, 60, False)
@example(QUARTER_LAW, 1, 3, 6, 60, True)
def test_scan_witness_matches_bfs_on_random_forests(spec, seed, d, trials, max_vertices, python_ints):
    # python_ints runs the scan's sums in Python ints, as on a forest whose sums could pass int64
    n = d * d
    samples = surviving_samples(spec, seed, trials, n + d + 1, max_vertices)
    with mock.patch.object(gw, "_INT64_END", 0 if python_ints else gw._INT64_END):
        assert_scan_matches_bfs(samples, n)


def assert_same_sample(got, want):
    assert got.truncated_at == want.truncated_at
    assert got.budget_hit == want.budget_hit
    assert got.extinct == want.extinct
    assert got.generation_sizes == want.generation_sizes == (1, *(int(c.sum()) for c in got.counts))
    assert len(got.counts) == len(want.counts)
    assert all(np.array_equal(x, y) for x, y in zip(got.counts, want.counts))


@given(
    rational_laws() | st.sampled_from(ENGINE_LAWS),
    st.integers(0, 2**40),
    st.integers(0, 5),
    st.integers(0, 3),
    st.integers(1, 31),
    st.data(),
    st.sampled_from([1, 60, 1500, 20000]),  # wide laws grow past any memory without a budget
)
def test_sample_prefix_matches_shallower_sample(spec, seed, trial, attempt, deepest, data, max_vertices):
    h = data.draw(st.integers(0, deepest), label="h")
    deep = sample(spec, seed, deepest, max_vertices, trial=trial, attempt=attempt)
    assert_same_sample(gw._prefix(deep, h), sample(spec, seed, h, max_vertices, trial=trial, attempt=attempt))


@given(
    rational_laws() | st.sampled_from(ENGINE_LAWS),
    st.integers(0, 2**40),
    st.integers(0, 5),
    st.none() | st.integers(0, 3),
    st.integers(0, 10),
    st.none() | st.integers(1, 3000),
)
# 1 + 2 + 4 + 8 vertices meet the budget of 15 exactly, which keeps generation 3.
@example(DOUBLING_LAW, 7, 0, None, 5, 15)
def test_sample_matches_former_loop(spec, seed, trial, attempt, max_generation, max_vertices):
    args = (spec, seed, max_generation, max_vertices)
    got = sample(*args, trial=trial, attempt=attempt)
    assert_same_sample(got, brute.sample_by_loop(*args, trial=trial, attempt=attempt))
    assert all(c.dtype == np.int64 for c in got.counts)


def test_sample_matches_former_loop_at_the_narrow_cutoff():
    # Poisson(4) draws generations of exactly _NARROW_SUM vertices on one
    # stream and _NARROW_SUM + 1 on a (trial, attempt) stream, and wider
    # ones, before its budget stops a generation of about 4000.
    widths = set()
    for seed, attempt in ((37, None), (34, 1)):
        smp = sample(ENGINE_LAWS[6], seed, 8, 5000, trial=1, attempt=attempt)
        assert_same_sample(smp, brute.sample_by_loop(ENGINE_LAWS[6], seed, 8, 5000, trial=1, attempt=attempt))
        assert smp.budget_hit
        widths.update(smp.generation_sizes[:-1])  # the generations drawn from
    assert {gw._NARROW_SUM, gw._NARROW_SUM + 1} <= widths
    assert max(widths) > 4 * gw._NARROW_SUM


def test_sample_prefix_at_extinction_and_budget_edges():
    # A tree that dies exactly at generation h, a budget hit below h, and one
    # at h itself, which a draw to h never reaches.
    edges = {"dies at h": 0, "budget hit below h": 0, "budget hit at h": 0}
    for attempt in range(40):
        for max_vertices in (None, 30):
            deep = sample(QUARTER_LAW, 4, 20, max_vertices, trial=1, attempt=attempt)
            for h in range(20):
                got = gw._prefix(deep, h)
                assert_same_sample(got, sample(QUARTER_LAW, 4, h, max_vertices, trial=1, attempt=attempt))
                edges["dies at h"] += deep.extinct and deep.truncated_at == h
                edges["budget hit below h"] += deep.budget_hit and deep.truncated_at < h
                if deep.budget_hit and deep.truncated_at == h:
                    edges["budget hit at h"] += 1
                    assert not got.budget_hit and got.truncated_at == h
    assert min(edges.values()) > 0, edges


def dichotomy_by_redraw(spec, d_list, trials, seed, max_vertices):
    """verify_dichotomy with every d's trials redrawn at its own horizon by surviving_samples."""
    redrawn = {}

    def draw(spec, seed, trial, horizons, max_vertices):
        for h in horizons:
            if h not in redrawn:
                redrawn[h] = surviving_samples(spec, seed, trials, h, max_vertices, skips=True)
        return {h: redrawn[h][trial] for h in horizons}

    with mock.patch.object(gw, "_draw_survivors", draw):
        return verify_dichotomy(spec, d_list, trials, seed, max_vertices)


# Subcritical: a trial mostly survives to horizon 3 (d = 1) within 64
# attempts, and never to 21 (d = 4), so it is skipped there.
FADING_LAW = GWSpec(("1/2", "1/2"))


@given(
    (rational_laws() | st.sampled_from([*ENGINE_LAWS, FADING_LAW])).filter(lambda spec: spec.p(0) or spec.p(1)),
    st.integers(0, 2**40),
    st.sampled_from([[5, 3], [3, 3], [1, 2, 4], [3, 5], [2], [1, 3, 3]]),
    st.integers(1, 6),
    st.sampled_from([1, 60, 1500, 20000]),
)
@example(FADING_LAW, 3, [1, 2, 4], 4, 20000)
@example(QUARTER_LAW, 1, [5, 3], 6, 60)
@example(QUARTER_LAW, 1, [5, 3], 6, 1500)
def test_dichotomy_shared_draws_match_per_d_redraws(spec, seed, d_list, trials, max_vertices):
    got = verify_dichotomy(spec, d_list, trials, seed, max_vertices)
    want = dichotomy_by_redraw(spec, d_list, trials, seed, max_vertices)
    assert got.per_d == want.per_d
    assert got.csv_rows() == want.csv_rows()
    assert got.to_json() == want.to_json()


@pytest.mark.parametrize(
    "spec, d_list, max_vertices",
    [
        (QUARTER_LAW, [3, 5], 20000),
        (QUARTER_LAW, [5, 3], 60),  # budget hits below generation 13
        (QUARTER_LAW, [5, 3], 1500),  # budget hits between generations 13 and 31
        (QUARTER_LAW, [3, 3], 20000),
        (FADING_LAW, [1, 2, 4], 20000),  # d = 4 exhausts its 64 attempts
        (GWSpec.poisson(1.5), [1, 3], 20000),
    ],
)
def test_dichotomy_shared_draws_draw_each_attempt_once(spec, d_list, max_vertices):
    def drawn_by(d_list) -> list:
        calls = []

        def counted(spec, seed, max_generation, max_vertices=None, trial=0, attempt=None):
            smp = real(spec, seed, max_generation, max_vertices, trial, attempt)
            calls.append((trial, attempt, max_generation, smp))
            return smp

        with mock.patch.object(gw, "sample", counted):
            report = verify_dichotomy(spec, d_list, 12, 1, max_vertices)
        return calls, report

    real = gw.sample
    calls, report = drawn_by(d_list)
    deepest = max(d * d + d + 1 for d in d_list)
    keys = [(t, a) for t, a, _, _ in calls]
    assert len(set(keys)) == len(keys)  # no (trial, attempt) drawn twice
    assert {g for _, _, g, _ in calls} == {deepest}
    # The deepest d alone needs exactly these attempts.
    assert keys == [(t, a) for t, a, _, _ in drawn_by([max(d_list)])[0]]
    assert report == dichotomy_by_redraw(spec, d_list, 12, 1, max_vertices)
    shallow = min(d * d + d + 1 for d in d_list)
    hits = [smp.truncated_at for *_, smp in calls if smp.budget_hit]
    if max_vertices == 60:
        assert any(h < shallow for h in hits)
    if max_vertices == 1500:
        assert any(shallow < h for h in hits)
    if spec is FADING_LAW:
        skipped = {entry["d"]: entry["skipped"] for entry in report.per_d}
        assert skipped[4] == 12 and skipped[1] < 12


def test_dichotomy_scans_a_repeated_d_once():
    d_list = [3, 3, 5, 3]
    scanned = []
    real = gw._scan_witness

    def counted(samples, n):
        scanned.append(n)
        return real(samples, n)

    with mock.patch.object(gw, "_scan_witness", counted):
        got = verify_dichotomy(QUARTER_LAW, d_list, 12, 1)
    assert scanned == [9, 25]  # n = d*d, once for each distinct d
    alone = {d: verify_dichotomy(QUARTER_LAW, [d], 12, 1) for d in set(d_list)}
    assert list(got.per_d) == [alone[d].per_d[0] for d in d_list]
    assert len({id(entry) for entry in got.per_d}) == len(d_list)  # each listing has its own dict
    assert list(got.rows) == [row for d in d_list for row in alone[d].rows]


# Bounds for the replayed subset draws: n = 1 draws nothing, n = 2 never
# rejects, n just past 2^31 rejects about half its draws, and 2^32 - 1 and
# 2^32 are the top of numpy's 32-bit path (2^32 takes the half unchanged).
DRAW_BOUNDS = st.sampled_from([1, 2, 3, 2**31 - 1, 2**31 + 1, 2**31 + 3, 3 * 2**30 + 1, 2**32 - 1, 2**32])


@given(
    st.integers(0, 2**66),
    st.integers(0, 40),
    st.integers(0, 1200),
    st.lists(DRAW_BOUNDS | st.integers(1, 12) | st.integers(1, 2**32), min_size=1, max_size=60),
)
@example(0, 0, 0, [1, 2, 1, 2, 1, 1, 2])  # n = 1 between the two halves of one word
@example(7, 3, 255, [2**32, 1, 2**32 - 1, 2**31 + 1, 2**31 + 1])  # across a block of raw output
def test_subset_draw_replay_matches_generator_integers(seed, t, lead, bounds):
    want = brute.GeneratorDraws(seed, (t, 65536))
    got = gw._SubsetDraws(seed, (t, 65536))
    # lead draws near 2^31, about half of them rejected, carry the stream past its first blocks
    assert [got.randrange(2**31 + 1) for _ in range(lead)] == [want.randrange(2**31 + 1) for _ in range(lead)]
    assert [got.randrange(n) for n in bounds] == [want.randrange(n) for n in bounds]
    pool = list(range(100, 100 + min(bounds[0], 50)))
    assert got.choice(pool) == want.choice(pool)


def test_subset_draw_replay_rejects_bounds_outside_the_32_bit_path():
    draws = gw._SubsetDraws(1, (0, 65536))
    for n in (0, -5):
        with pytest.raises(ValueError):
            draws.randrange(n)
        with pytest.raises(ValueError):
            np.random.default_rng(1).integers(n)  # numpy refuses the empty range too
    with pytest.raises(ValueError):
        draws.choice([])
    with pytest.raises(ValueError):
        draws.randrange(2**32 + 1)  # numpy's 64-bit path, which subset pools never reach
    # nothing was drawn by the refusals
    assert draws.randrange(2**32) == brute.GeneratorDraws(1, (0, 65536)).randrange(2**32)


@st.composite
def bound_side_laws(draw):
    """Offspring laws on 2..4 children with small integer weights, so the dichotomy takes its bound side."""
    weights = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3).filter(any))
    return GWSpec((0, 0, *(Fraction(w, sum(weights)) for w in weights)))


def bound_side_run(spec, seed, trials, n_subsets, subset_size, truncate_depth) -> tuple:
    """The bound side's report, with every subset it checked in order."""
    checked = []
    real = amenability._degree3_bound

    def recorded(host, members, root):
        checked.append(members)
        return real(host, members, root)

    with mock.patch.object(amenability, "_degree3_bound", recorded):
        rep = verify_dichotomy(
            spec, [], trials, seed, truncate_depth=truncate_depth, n_subsets=n_subsets,
            subset_size=subset_size, cheeger_max_size=3,
        )
    return rep.to_json(), rep.rows, checked


@given(
    bound_side_laws() | st.sampled_from([GWSpec((0, 0, 0, 1)), GWSpec((0, 0, "1/2", "1/2")), DOUBLING_LAW]),
    st.integers(0, 2**40),
    st.integers(1, 4),
    st.integers(1, 60),
    st.integers(1, 9),
    st.integers(1, 4),
)
@example(GWSpec((0, 0, 0, 1)), 9, 3, 10, 6, 3)  # 10 subsets over 3 trials: 4, 3, 3
@example(GWSpec((0, 0, "1/2", "1/2")), 9, 2, 41, 6, 3)
@example(DOUBLING_LAW, 1, 1, 30, 1, 2)  # single-vertex subsets draw only their start
@example(GWSpec((0, 0, 0, 1)), 2, 1, 200, 9, 4)  # some 1800 draws in one trial, past several blocks of raw output
def test_bound_side_replay_matches_generator_reports(spec, seed, trials, n_subsets, subset_size, truncate_depth):
    args = (spec, seed, trials, n_subsets, subset_size, truncate_depth)
    got = bound_side_run(*args)
    with mock.patch.object(gw, "_SubsetDraws", brute.GeneratorDraws):
        want = bound_side_run(*args)
    assert got == want
    assert len(got[2]) == n_subsets


def test_bound_side_subset_draws_golden_digest():
    """Pins the bound side's subsets bit for bit, at the benchmark's bound op: 5 trials, 300 subsets.

    The reports alone would not notice a change in the draws: every subset
    of these laws passes the bound, so its count stays the same.
    """
    h = hashlib.sha256()
    for spec in (GWSpec((0, 0, 0, 1)), GWSpec((0, 0, "1/2", "1/2"))):
        for seed in (1, 2**40 + 3):
            # cheeger_max_size does not reach the draws; subset_size 8 and truncate_depth 4 are the defaults
            _, _, checked = bound_side_run(spec, seed, 5, 300, 8, 4)
            assert len(checked) == 300
            for members in checked:
                h.update(repr(sorted(members)).encode() + b"\n")
    assert h.hexdigest() == "45bff045b0762d5d6e560b36130b02ea9d6772ade2fec267f7de66ca0081b18d"
