"""Offspring laws, reproducible sampling, and statistical checks on random trees.

Samples are stored generation-major as numpy arrays of per-vertex child
counts, so the usual questions (sizes, survival, collapse events, witness
scans) reduce to vectorized passes. Randomness follows one contract
everywhere: generation g of trial t under seed s is drawn from

    Generator(PCG64(SeedSequence(entropy=s, spawn_key=(t,))).jumped(g))

with an extra spawn component for rejection attempts and for subset draws,
so every number in a report is reproducible from (seed, trial) alone.
"""

from __future__ import annotations

import logging
import math
import re
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InsufficientDepthError, InvalidVertexError
from .exploration import Ball
from .trees import Tree, canonical_form, path_tree, sary_tree

log = logging.getLogger("arbor.galton_watson")

__all__ = [
    "GWSpec",
    "GWSample",
    "sample",
    "extinction_probability",
    "event_path_prob",
    "event_sary_prob",
    "path_target_code",
    "sary_target_code",
    "parse_event",
    "MonteCarloEventResult",
    "monte_carlo_event",
    "GrowthReport",
    "generation_growth_check",
    "DichotomyReport",
    "verify_dichotomy",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    return Fraction.from_float(float(x))


@dataclass(frozen=True)
class GWSpec:
    """An offspring distribution with exact rational probabilities.

    The tuple is normalized so the probabilities sum to exactly 1 and has no
    trailing zeros; entry k is the probability of k children.
    """

    probabilities: tuple
    family: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        probs = [_as_fraction(p) for p in self.probabilities]
        if not probs:
            raise ValueError("empty offspring law")
        if any(p < 0 for p in probs):
            raise ValueError("negative probability")
        total = sum(probs)
        if abs(float(total) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {float(total)}, not 1")
        probs = [p / total for p in probs]
        while len(probs) > 1 and probs[-1] == 0:
            probs.pop()
        object.__setattr__(self, "probabilities", tuple(probs))

    @classmethod
    def from_probs(cls, probs: Iterable, family: dict | None = None) -> "GWSpec":
        return cls(tuple(probs), family)

    @classmethod
    def poisson(cls, lam: float, truncation: float = 1e-12) -> "GWSpec":
        if lam <= 0:
            raise ValueError("lambda must be positive")
        probs = []
        mass = 0.0
        k = 0
        while mass < 1.0 - truncation:
            p = math.exp(-lam) * lam**k / math.factorial(k)
            probs.append(p)
            mass += p
            k += 1
            if k > 10_000:
                raise ValueError("lambda too large to truncate sensibly")
        meta = {"name": "poisson", "lambda": lam, "mass_dropped": max(0.0, 1.0 - mass)}
        total = sum(probs)
        return cls(tuple(Fraction.from_float(p / total) for p in probs), meta)

    @classmethod
    def geometric(cls, ratio, truncation: float = 1e-12) -> "GWSpec":
        g = _as_fraction(ratio)
        if not 0 < g < 1:
            raise ValueError("ratio must lie strictly between 0 and 1")
        probs = []
        tail = Fraction(1)
        while float(tail) > truncation:
            k = len(probs)
            probs.append((1 - g) * g**k)
            tail *= g
        meta = {"name": "geometric", "ratio": str(g), "mass_dropped": float(tail)}
        return cls(tuple(probs), meta)

    @classmethod
    def from_json(cls, doc: dict) -> "GWSpec":
        if "p" in doc:
            return cls(tuple(_as_fraction(x) for x in doc["p"]))
        fam = doc.get("family")
        if fam == "poisson":
            return cls.poisson(float(doc["lambda"]), float(doc.get("truncation", 1e-12)))
        if fam == "geometric":
            return cls.geometric(doc["ratio"], float(doc.get("truncation", 1e-12)))
        raise ValueError("offspring law needs either a 'p' list or a known 'family'")

    def p(self, k: int) -> Fraction:
        if 0 <= k < len(self.probabilities):
            return self.probabilities[k]
        return Fraction(0)

    @property
    def max_children(self) -> int:
        return len(self.probabilities) - 1

    @property
    def mean(self) -> Fraction:
        return sum(Fraction(k) * p for k, p in enumerate(self.probabilities))

    def cumulative(self) -> np.ndarray:
        cum = np.cumsum(np.array([float(p) for p in self.probabilities]))
        cum[-1] = 1.0
        return cum

    def extinction_probability(self, tol: float = 1e-12) -> float:
        return extinction_probability(self, tol)

    def to_json(self) -> dict:
        doc = {"p": [str(p) for p in self.probabilities]}
        if self.family:
            doc["family"] = dict(self.family)
        return doc


def extinction_probability(spec: GWSpec, tol: float = 1e-12, max_iter: int = 1_000_000) -> float:
    """Smallest fixed point of the generating function, found by iteration from 0.

    Zero when no vertex can die (p0 = 0), one at or below criticality.
    """
    if spec.p(0) == 0:
        return 0.0
    if spec.mean <= 1:
        return 1.0
    probs = [float(p) for p in spec.probabilities]
    x = 0.0
    for _ in range(max_iter):
        nxt = sum(p * x**k for k, p in enumerate(probs))
        if abs(nxt - x) < tol:
            return nxt
        x = nxt
    return x


def _rng(seed: int, spawn_key=(), generation: int = 0) -> np.random.Generator:
    bg = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=tuple(spawn_key)))
    if generation:
        bg = bg.jumped(generation)
    return np.random.Generator(bg)


@dataclass(frozen=True, eq=False)
class GWSample:
    """A sampled tree, stored as per-generation arrays of child counts.

    counts[g][j] is the number of children of the j-th generation-g vertex in
    breadth-first order; truncated_at is the first generation whose children
    were never drawn. Vertices are labeled by 1-based sibling tuples, the
    root being the empty tuple.
    """

    spec: GWSpec
    seed: int
    trial: int
    counts: tuple
    truncated_at: int
    budget_hit: bool

    @cached_property
    def generation_sizes(self) -> tuple:
        return (1, *(int(c.sum()) for c in self.counts))

    @cached_property
    def _offsets(self) -> tuple:
        off = [0]
        for w in self.generation_sizes:
            off.append(off[-1] + w)
        return tuple(off)

    @property
    def extinct(self) -> bool:
        return self.generation_sizes[-1] == 0

    @property
    def vertex_count(self) -> int:
        return self._offsets[-1]

    def _generation_of(self, index: int) -> int:
        if not 0 <= index < self.vertex_count:
            raise InvalidVertexError(f"vertex {index} is out of range")
        off = self._offsets
        lo, hi = 0, len(off) - 1
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if off[mid] <= index:
                lo = mid
            else:
                hi = mid
        return lo

    def label_of(self, index: int) -> tuple:
        g = self._generation_of(index)
        pos = index - self._offsets[g]
        parts = []
        while g > 0:
            cs = np.cumsum(self.counts[g - 1])
            parent = int(np.searchsorted(cs, pos, side="right"))
            before = int(cs[parent - 1]) if parent else 0
            parts.append(pos - before + 1)
            pos, g = parent, g - 1
        return tuple(reversed(parts))

    def index_of(self, label: Sequence[int]) -> int:
        label = tuple(label)
        if len(label) >= len(self.generation_sizes):
            raise InvalidVertexError(f"label {label!r} is deeper than the sample")
        pos = 0
        for g, sib in enumerate(label):
            c = self.counts[g]
            if not 1 <= sib <= int(c[pos]):
                raise InvalidVertexError(f"label {label!r} names a missing child")
            before = int(np.cumsum(c)[pos - 1]) if pos else 0
            pos = before + sib - 1
        return self._offsets[len(label)] + pos

    def to_tree(self) -> Tree:
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        off = self._offsets
        for g, c in enumerate(self.counts):
            cs = np.cumsum(c)
            for j in range(len(c)):
                parent = off[g] + j
                start = off[g + 1] + (int(cs[j - 1]) if j else 0)
                for child in range(start, off[g + 1] + int(cs[j])):
                    adj[parent].append(child)
                    adj[child].append(parent)
        return Tree(adj, root=0)

    def truncate(self, k: int) -> "GWSample":
        """The sample restricted to generations 0..k."""
        if k < 0:
            raise ValueError("depth must be nonnegative")
        if k >= self.truncated_at:
            if self.extinct or k == self.truncated_at:
                return self
            raise InsufficientDepthError(
                f"sampled only to generation {self.truncated_at}, cannot truncate at {k}"
            )
        return GWSample(self.spec, self.seed, self.trial, self.counts[:k], k, False)

    def truncate_ball(self, k: int) -> Ball:
        """The depth-k tree as a Ball whose frontier is the deepest generation."""
        t = self.truncate(k)
        tree = t.to_tree()
        handles = tuple(t.label_of(i) for i in range(t.vertex_count))
        if t.extinct:
            frontier = frozenset()
        else:
            off = t._offsets
            frontier = frozenset(range(off[t.truncated_at], off[t.truncated_at + 1]))
        return Ball(None, (), k, tree, frontier, handles)

    def subtree_at(self, label: Sequence[int]) -> "GWSample":
        g0 = len(label)
        pos = self.index_of(label) - self._offsets[g0]
        lo, hi = pos, pos + 1
        new_counts = []
        for g in range(g0, self.truncated_at):
            c = self.counts[g]
            new_counts.append(c[lo:hi].copy())
            cs = np.cumsum(c)
            lo, hi = (int(cs[lo - 1]) if lo else 0), int(cs[hi - 1])
            if lo == hi:
                break
        return GWSample(self.spec, self.seed, self.trial, tuple(new_counts), len(new_counts), self.budget_hit)


def sample(
    spec: GWSpec,
    seed: int,
    max_generation: int,
    max_vertices: int | None = None,
    trial: int = 0,
    attempt: int | None = None,
) -> GWSample:
    """Draw one tree down to max_generation, or to extinction, or to budget.

    A generation whose size would push the total past max_vertices is
    discarded whole, so the returned sample is always exact as far as it goes.
    """
    if max_generation < 0:
        raise ValueError("max_generation must be nonnegative")
    spawn = (trial,) if attempt is None else (trial, attempt)
    cum = spec.cumulative()
    counts: list[np.ndarray] = []
    width = 1
    total = 1
    for gen in range(max_generation):
        if width == 0:
            break
        rng = _rng(seed, spawn, gen)
        c = np.searchsorted(cum, rng.random(width), side="right").astype(np.int64)
        nxt = int(c.sum())
        if max_vertices is not None and total + nxt > max_vertices:
            return GWSample(spec, seed, trial, tuple(counts), len(counts), True)
        counts.append(c)
        width = nxt
        total += nxt
    return GWSample(spec, seed, trial, tuple(counts), len(counts), False)


def event_path_prob(spec: GWSpec, d: int) -> Fraction:
    """Probability that generations 0..d each consist of one single-child vertex."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    return spec.p(1) ** (d + 1)


def event_sary_prob(spec: GWSpec, s: int, d: int) -> Fraction:
    """Probability that the tree is the complete s-ary tree of depth exactly d.

    Every vertex above depth d has exactly s children and the whole
    generation d is childless, so the tree dies there.
    """
    if s < 1 or d < 0:
        raise ValueError("need s >= 1 and d >= 0")
    if spec.p(0) == 0 or (d > 0 and spec.p(s) == 0):
        warnings.warn("the offspring law gives this event probability zero", stacklevel=2)
        return Fraction(0)
    q = Fraction(1)
    for i in range(d):
        q *= spec.p(s) ** (s**i)
    return q * spec.p(0) ** (s**d)


def path_target_code(d: int) -> bytes:
    return canonical_form(path_tree(d + 2, root=0), rooted=True)


def sary_target_code(s: int, d: int) -> bytes:
    return canonical_form(sary_tree(s, d), rooted=True)


_EVENT_RE = re.compile(r"\s*(path|sary)\s*\(\s*(\d+)\s*(?:,\s*(\d+)\s*)?\)\s*$")


def parse_event(text: str) -> tuple:
    m = _EVENT_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized event {text!r}; use path(d) or sary(s,d)")
    kind, a, b = m.group(1), m.group(2), m.group(3)
    if kind == "path":
        if b is not None:
            raise ValueError("path takes a single depth argument")
        return ("path", int(a))
    if b is None:
        raise ValueError("sary takes two arguments: arity and depth")
    s, d = int(a), int(b)
    if s < 1:
        raise ValueError("sary arity must be at least 1")
    return ("sary", s, d)


@dataclass(frozen=True)
class MonteCarloEventResult:
    event: str
    trials: int
    successes: int
    estimate: float
    std_error: float
    exact: Fraction | None

    def within(self, sigmas: float) -> bool:
        if self.exact is None:
            raise ValueError("no exact value to compare against")
        slack = sigmas * self.std_error
        return abs(self.estimate - float(self.exact)) <= max(slack, 1e-15)

    def to_json(self) -> dict:
        doc = {
            "event": self.event,
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "std_error": self.std_error,
        }
        if self.exact is not None:
            doc["exact"] = str(self.exact)
            doc["exact_float"] = float(self.exact)
        return doc


def _event_checker(event):
    """Returns (depth to sample, per-sample predicate, exact probability or None)."""

    def path_check(d):
        def check(smp: GWSample) -> bool:
            c = smp.counts
            return len(c) == d + 1 and all(len(a) == 1 and a[0] == 1 for a in c)

        return check

    def sary_check(s, d):
        def check(smp: GWSample) -> bool:
            c = smp.counts
            if len(c) != d + 1:
                return False
            # Per-vertex counts, not generation totals: a generation can sum
            # to s^g without every vertex having exactly s children.
            return all(bool(np.all(c[i] == s)) for i in range(d)) and bool(np.all(c[d] == 0))

        return check

    kind = event[0]
    if kind == "path":
        d = event[1]
        return d + 1, path_check(d), lambda spec: event_path_prob(spec, d)
    if kind == "sary":
        s, d = event[1], event[2]
        return d + 1, sary_check(s, d), lambda spec: event_sary_prob(spec, s, d)
    if kind == "code":
        code, depth = event[1], event[2]

        def check(smp: GWSample) -> bool:
            return canonical_form(smp.to_tree(), rooted=True) == code

        return depth, check, lambda spec: None
    raise ValueError(f"unknown event kind {kind!r}")


def monte_carlo_event(spec: GWSpec, event, trials: int, seed: int) -> MonteCarloEventResult:
    """Estimate the probability of a shape event by independent sampling.

    event is "path(d)", "sary(s,d)", a parsed tuple of the same, or
    ("code", canonical_bytes, depth) for an arbitrary depth-truncated shape.
    Trial t is sample(spec, seed, depth, trial=t) for t in range(trials), so
    the count of successes depends only on (spec, event, trials, seed).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    ev = parse_event(event) if isinstance(event, str) else tuple(event)
    depth, check, exact_fn = _event_checker(ev)
    successes = sum(1 for t in range(trials) if check(sample(spec, seed, depth, trial=t)))
    est = successes / trials
    se = math.sqrt(est * (1 - est) / trials)
    name = event if isinstance(event, str) else (f"code@{ev[2]}" if ev[0] == "code" else repr(ev))
    return MonteCarloEventResult(name, trials, successes, est, se, exact_fn(spec))


@dataclass(frozen=True)
class GrowthReport:
    generation: int
    trials: int
    mean_final: float
    target: float
    std_error: float
    within_4se: bool
    monotone: bool | None
    strict_increase_freq: float | None
    strict_increase_floor: float | None
    strict_increase_ok: bool | None

    def to_json(self) -> dict:
        return {
            "generation": self.generation,
            "trials": self.trials,
            "mean_final": self.mean_final,
            "target": self.target,
            "std_error": self.std_error,
            "within_4se": self.within_4se,
            "monotone": self.monotone,
            "strict_increase_freq": self.strict_increase_freq,
            "strict_increase_floor": self.strict_increase_floor,
            "strict_increase_ok": self.strict_increase_ok,
        }


def generation_growth_check(spec: GWSpec, n: int, trials: int, seed: int) -> GrowthReport:
    """Compare the empirical mean of generation n against mean**n.

    When no vertex can die the size sequence must be nondecreasing, and each
    step increases strictly unless every vertex of the step has exactly one
    child, so the strict-increase frequency is floored by 1 - p1 per step.
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    finals = np.zeros(trials)
    deathless = spec.p(0) == 0
    monotone: bool | None = None
    inc_steps = 0
    tot_steps = 0
    if deathless:
        monotone = True
    for t in range(trials):
        smp = sample(spec, seed, n, trial=t)
        sizes = smp.generation_sizes
        finals[t] = sizes[n] if len(sizes) > n else 0
        if deathless:
            diffs = np.diff(sizes)
            if np.any(diffs < 0):
                monotone = False
            inc_steps += int(np.count_nonzero(diffs > 0))
            tot_steps += len(diffs)
    mean = float(finals.mean())
    target = float(spec.mean**n)
    sd = float(finals.std(ddof=1)) if trials > 1 else 0.0
    se = sd / math.sqrt(trials)
    within = abs(mean - target) <= 4 * se if se > 0 else mean == target
    freq = floor = ok = None
    if deathless and tot_steps:
        freq = inc_steps / tot_steps
        floor = 1.0 - float(spec.p(1))
        se_f = math.sqrt(max(freq * (1 - freq), 1e-12) / tot_steps)
        ok = freq >= floor - 4 * se_f
    return GrowthReport(n, trials, mean, target, se, within, monotone, freq, floor, ok)


def _alive_and_sizes(smp: GWSample):
    """Per-generation arrays: reaches-the-last-generation flags and subtree sizes.

    A vertex with no descendant in the deepest drawn generation roots a
    complete finite subtree, whatever stopped the sampling, because all of
    its descendants were drawn.
    """
    L = smp.truncated_at
    sizes = smp.generation_sizes
    alive = [None] * (L + 1)
    sub = [None] * (L + 1)
    alive[L] = np.ones(sizes[L], dtype=bool)
    sub[L] = np.ones(sizes[L], dtype=np.int64)
    for g in range(L - 1, -1, -1):
        c = smp.counts[g]
        w_next = sizes[g + 1]
        if w_next == 0:
            any_alive = np.zeros(len(c), dtype=np.int64)
            size_sum = np.zeros(len(c), dtype=np.int64)
        else:
            cs = np.cumsum(c)
            starts = np.minimum(np.concatenate(([0], cs[:-1])), w_next - 1)
            any_alive = np.add.reduceat(alive[g + 1].astype(np.int64), starts)
            size_sum = np.add.reduceat(sub[g + 1], starts)
            any_alive[c == 0] = 0
            size_sum[c == 0] = 0
        alive[g] = any_alive > 0
        sub[g] = 1 + size_sum
    return alive, sub


def _scan_witness(smp: GWSample, n: int) -> tuple[Fraction | None, str]:
    """Smallest boundary ratio found by three vectorized scans; None if nothing helps.

    Dead hanging subtrees give 1/size; runs of single-child vertices give
    (2 or 1)/length; the depth n-1 ball gives an exact ratio that is at most
    r/n whenever generation n has at most r vertices.
    """
    L = smp.truncated_at
    sizes = smp.generation_sizes
    best: tuple[Fraction, str] | None = None

    def offer(ratio: Fraction, kind: str):
        nonlocal best
        if best is None or ratio < best[0]:
            best = (ratio, kind)

    alive, sub = _alive_and_sizes(smp)
    for g in range(1, L):
        if sizes[g] == 0:
            break
        parent_alive = np.repeat(alive[g - 1], smp.counts[g - 1])
        mask = ~alive[g] & parent_alive
        if np.any(mask):
            biggest = int(sub[g][mask].max())
            offer(Fraction(1, biggest), "dead-subtree")

    run_prev = None
    for g in range(L):
        flags = (smp.counts[g] == 1).astype(np.int64)
        if g == 0:
            run = flags
        else:
            run = flags * (1 + np.repeat(run_prev, smp.counts[g - 1]))
        if len(run) and run.max() > 0:
            m = int(run.max())
            offer(Fraction(2, m), "single-child-run")
            if np.any(run == g + 1):
                offer(Fraction(1, g + 1), "single-child-run")
        run_prev = run

    if L >= n and sizes[n] > 0:
        boundary = int(np.count_nonzero(smp.counts[n - 1]))
        volume = int(sum(sizes[:n]))
        offer(Fraction(boundary, volume), "shallow-ball")

    if best is None:
        return None, ""
    return best


class _GenAdapter:
    """Just enough of the random.Random surface for subset drawing."""

    __slots__ = ("g",)

    def __init__(self, g: np.random.Generator):
        self.g = g

    def randrange(self, n: int) -> int:
        return int(self.g.integers(n))

    def choice(self, seq):
        return seq[int(self.g.integers(len(seq)))]


@dataclass(frozen=True)
class DichotomyReport:
    side: str
    spec_json: dict
    params: dict
    per_d: tuple
    nonamenable: dict | None
    rows: tuple

    def all_floors_hold(self) -> bool:
        if self.side == "amenable":
            return all(entry["floor_ok"] for entry in self.per_d)
        return self.nonamenable["bound_violations"] == 0 and self.nonamenable["cheeger_floor_ok"]

    def csv_rows(self) -> list:
        if self.side == "amenable":
            out = [["d", "trial", "generation_sizes", "best_ratio", "witness_kind"]]
            for row in self.rows:
                out.append([row[0], row[1], ":".join(str(w) for w in row[2]), row[3] or "", row[4]])
        else:
            out = [["trial", "subsets_checked", "bound_violations"]]
            out.extend([list(row) for row in self.rows])
        return out

    def to_json(self) -> dict:
        doc = {
            "side": self.side,
            "offspring_law": self.spec_json,
            "params": self.params,
        }
        if self.side == "amenable":
            doc["per_d"] = [dict(e) for e in self.per_d]
        else:
            doc["check"] = dict(self.nonamenable)
        return doc


def _amenable_side(spec, d_list, trials, seed, max_vertices):
    rho = extinction_probability(spec)
    per_d = []
    rows = []
    for d in d_list:
        r = d
        n = d * d
        horizon = n + d + 1
        q = 0.0
        for s in range(1, spec.max_children + 1):
            if spec.p(s) > 0 and spec.p(0) > 0:
                q = max(q, float(event_sary_prob(spec, s, d)))
        floor = 1.0 - (1.0 - q) ** r

        def one(t: int):
            smp = None
            attempts = 0
            for a in range(64):
                attempts = a + 1
                smp = sample(spec, seed, horizon, max_vertices, trial=t, attempt=a)
                if not smp.extinct:
                    break
            if smp.extinct:
                return (t, None, None, "", attempts)
            ratio, kind = _scan_witness(smp, n)
            return (t, smp.generation_sizes, ratio, kind, attempts)

        results = [one(t) for t in range(trials)]

        skipped = sum(1 for res in results if res[1] is None)
        first_try = sum(1 for res in results if res[4] == 1 and res[1] is not None)
        effective = trials - skipped
        threshold = Fraction(1, d)
        successes = sum(
            1 for res in results if res[2] is not None and res[2] <= threshold
        )
        fraction = successes / effective if effective else 0.0
        se = math.sqrt(max(fraction * (1 - fraction), 1e-12) / effective) if effective else 0.0
        acc_rate = first_try / trials
        se_acc = math.sqrt(max(acc_rate * (1 - acc_rate), 1e-12) / trials)
        log.debug(
            "d=%d: %d/%d witnesses (floor %.3g), %d trials skipped",
            d,
            successes,
            effective,
            floor,
            skipped,
        )
        per_d.append(
            {
                "d": d,
                "r": r,
                "n": n,
                "horizon": horizon,
                "trials": trials,
                "skipped": skipped,
                "successes": successes,
                "fraction": fraction,
                "collapse_event_prob": q,
                "floor": floor,
                "std_error": se,
                "floor_ok": fraction > floor - 3 * se,
                "acceptance_rate": acc_rate,
                "survival_floor": 1.0 - rho,
                "acceptance_ok": acc_rate >= (1.0 - rho) - 4 * se_acc,
            }
        )
        for t, sizes, ratio, kind, _ in results:
            rows.append((d, t, sizes or (), str(ratio) if ratio is not None else None, kind))
    return per_d, rows, rho


def _nonamenable_side(spec, trials, seed, max_vertices, truncate_depth, n_subsets, subset_size, cheeger_max_size):
    from .amenability import cheeger_exact, min_degree3_bound_check
    from .subsets import SubsetSelection, random_connected_subset

    per_trial, extra = divmod(n_subsets, trials)
    rows = []
    violations = 0
    slack_violations = 0
    checked = 0
    cheeger_values = []
    cheeger_ok = True
    worst = None
    for t in range(trials):
        smp = sample(spec, seed, truncate_depth, max_vertices, trial=t)
        ball = smp.truncate_ball(truncate_depth)
        rng = _GenAdapter(_rng(seed, (t, 65536)))
        bad = 0
        n_t = per_trial + (1 if t < extra else 0)
        for _ in range(n_t):
            size = 1 + rng.randrange(subset_size)
            members = random_connected_subset(ball, size, rng)
            checked += 1
            if not min_degree3_bound_check(ball, members, exception_vertex=0):
                bad += 1
            sel = SubsetSelection(ball, members)
            slack = Fraction(1, sel.size) if 0 in members else Fraction(0)
            if sel.ratio < Fraction(1, 2) - slack:
                slack_violations += 1
        violations += bad
        rows.append((t, n_t, bad))
        res = cheeger_exact(ball, cheeger_max_size)
        root_in = 0 in res.argmin.members
        floor = Fraction(1, 2) - (Fraction(1, res.argmin.size) if root_in else Fraction(0))
        cheeger_values.append(str(res.value))
        if res.value < floor:
            cheeger_ok = False
        if worst is None or res.value - floor < worst[0]:
            worst = (res.value - floor, res, root_in, floor)
    doc = {
        "trials": trials,
        "subsets_checked": checked,
        "bound_violations": violations,
        "ratio_slack_violations": slack_violations,
        "cheeger_values": cheeger_values,
        "cheeger_floor_ok": cheeger_ok,
    }
    if worst is not None:
        doc.update(
            {
                "cheeger_tightest_value": str(worst[1].value),
                "cheeger_tightest_argmin_size": worst[1].argmin.size,
                "root_in_tightest_argmin": worst[2],
                "cheeger_tightest_floor": str(worst[3]),
            }
        )
    return doc, rows


def verify_dichotomy(
    spec: GWSpec,
    d_list: Sequence[int],
    trials: int,
    seed: int,
    max_vertices: int = 20000,
    truncate_depth: int = 4,
    n_subsets: int = 1000,
    subset_size: int = 8,
    cheeger_max_size: int = 6,
) -> DichotomyReport:
    """Statistical check of the survival dichotomy for an offspring law.

    Laws that allow death (or lone children) head for the witness side: for
    each d, surviving trees are scanned for subsets of boundary ratio at most
    1/d, and the success fraction is compared against the collapse-event
    floor 1 - (1-q)^r with r = d disjoint depth windows. Laws whose vertices
    always have at least two children head for the bound side: random
    connected subsets must obey the doubling bound, with slack for the root.
    The n_subsets subsets are split over the trials as evenly as possible,
    the first n_subsets % trials trials checking one more.

    Trials run one after another; trial t draws from streams keyed by
    (seed, t), so the report depends only on the arguments. A sample stops
    before the generation that would take it past max_vertices vertices.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    side = "nonamenable" if spec.p(0) == 0 and spec.p(1) == 0 else "amenable"
    params = {
        "seed": seed,
        "trials": trials,
        "max_vertices": max_vertices,
    }
    if side == "amenable":
        per_d, rows, rho = _amenable_side(spec, list(d_list), trials, seed, max_vertices)
        params["d_list"] = list(d_list)
        params["extinction_probability"] = rho
        return DichotomyReport(side, spec.to_json(), params, tuple(per_d), None, tuple(rows))
    if truncate_depth < 1:
        raise ValueError("truncate_depth must be at least 1")
    if n_subsets < 1:
        raise ValueError("n_subsets must be at least 1")
    if subset_size < 1:
        raise ValueError("subset_size must be at least 1")
    params.update(
        {
            "truncate_depth": truncate_depth,
            "n_subsets": n_subsets,
            "subset_size": subset_size,
            "cheeger_max_size": cheeger_max_size,
        }
    )
    doc, rows = _nonamenable_side(
        spec, trials, seed, max_vertices, truncate_depth, n_subsets, subset_size, cheeger_max_size
    )
    return DichotomyReport(side, spec.to_json(), params, (), doc, tuple(rows))
