"""Offspring laws, reproducible sampling, and statistical checks on random trees.

Samples are stored generation-major as numpy arrays of per-vertex child
counts, so the usual questions (sizes, survival, collapse events, witness
scans) reduce to vectorized passes. Randomness follows one contract
everywhere: generation g of trial t under seed s is drawn from

    Generator(PCG64(SeedSequence(entropy=s, spawn_key=(t,))).jumped(g))

with an extra spawn component for rejection attempts and for subset draws,
so every number in a report is reproducible from (seed, trial) alone.
sample() builds one such Generator per trial, for generation 0. jumped(g)
advances the state by g jumps and each double drawn by one step, so after
generation g's draws it advances by one jump less their count to reach
generation g + 1; tests/test_gw.py pins it bit for bit with a golden
digest. monte_carlo_event and generation_growth_check draw the same streams
for a batch of trials at once (_generations), reproducing PCG64 and
SeedSequence by hand with the 128-bit arithmetic done in 32-bit limbs of
numpy arrays; tests/test_gw.py checks every trial against sample(). The
dichotomy's bound side draws its random subsets for trial t from the raw
output of PCG64(SeedSequence(entropy=s, spawn_key=(t, 65536))), replaying
in Python ints the bounded-integer rule of Generator.integers(n)
(_SubsetDraws); tests/test_gw.py holds every draw and every report equal
to numpy's own.
"""

from __future__ import annotations

import math
import operator
import re
import warnings
from dataclasses import asdict, dataclass, field
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, localcontext
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import BudgetExhaustedError, InsufficientDepthError
from .exploration import Ball
from .trees import Tree

__all__ = [
    "GWSpec",
    "GWSample",
    "sample",
    "event_path_prob",
    "event_sary_prob",
    "MonteCarloEventResult",
    "monte_carlo_event",
    "GrowthReport",
    "generation_growth_check",
    "DichotomyReport",
    "verify_dichotomy",
]


# Correctly rounded, so the floats a report prints do not depend on the
# platform's libm, which IEEE 754 does not require to round correctly.
def _pow(x: float, k: int) -> float:
    """``x ** k`` for an int ``k >= 0``, correctly rounded: glibc gives ``3.0 ** 34`` the odd neighbor of a tie."""
    return float(Fraction(x) ** k)


def _exp(x: float) -> float:
    """``math.exp(x)``, correctly rounded.

    Decimal's exp is correctly rounded at any precision, so the true value
    lies strictly between the decimal result's two neighbors. When both
    round to one float, so does the true value; otherwise it lies near a
    midpoint of two floats and the digits are doubled.
    """
    prec = 40
    while True:
        ctx = Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN)
        y = ctx.exp(Decimal(float(x)))
        if float(ctx.next_minus(y)) == float(ctx.next_plus(y)):
            return float(y)
        prec *= 2


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
    trailing zeros; entry k is the probability of k children. The sampling
    table and the extinction probability rho that verify_dichotomy reports
    are computed on first use and cached, so a law is read-only afterwards:
    reassigning ``probabilities`` (through object.__setattr__, the dataclass
    being frozen) would leave the caches stale.
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
    def poisson(cls, lam: float, truncation: float = 1e-12) -> "GWSpec":
        if lam <= 0:
            raise ValueError("lambda must be positive")
        probs = []
        mass = 0.0
        k = 0
        e = _exp(-lam)
        while mass < 1.0 - truncation:
            # a term leaves float range by k = 171, where k! alone passes it
            try:
                p = e * _pow(lam, k) / math.factorial(k)
            except OverflowError:
                raise ValueError("lambda too large to truncate sensibly") from None
            probs.append(p)
            mass += p
            k += 1
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

    @cached_property
    def _cum_table(self) -> np.ndarray:
        """The running sums of the float probabilities, the last set to 1.0; built once, read-only.

        A vertex drawing u has searchsorted(table, u, "right") children.
        """
        cum = np.cumsum(np.array([float(p) for p in self.probabilities]))
        cum[-1] = 1.0
        cum.setflags(write=False)
        return cum

    @cached_property
    def _rho(self) -> float:
        """extinction_probability(self), computed once per law."""
        return extinction_probability(self)

    def extinction_probability(self) -> float:
        return self._rho

    def to_json(self) -> dict:
        doc = {"p": [str(p) for p in self.probabilities]}
        if self.family:
            doc["family"] = dict(self.family)
        return doc


def extinction_probability(spec: GWSpec) -> float:
    """Smallest fixed point of the generating function, found by iteration from 0.

    Zero when no vertex can die (p0 = 0), one at or below criticality. The
    iteration stops at the first step smaller than 1e-12, or after a million
    steps.
    """
    if spec.p(0) == 0:
        return 0.0
    if spec.mean <= 1:
        return 1.0
    probs = [float(p) for p in spec.probabilities]
    x = 0.0
    for _ in range(1_000_000):
        nxt = sum(p * x**k for k, p in enumerate(probs))
        if abs(nxt - x) < 1e-12:
            return nxt
        x = nxt
    return x


def _rng(seed: int, spawn_key=()) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=tuple(spawn_key)))
    )


# numpy's PCG64 (128-bit LCG with XSL-RR output) and the SeedSequence hash
# that seeds it. The batched engine (_generations) reproduces them by hand;
# sample() draws from numpy's own. The dichotomy's subset draws
# (_SubsetDraws) take numpy's raw PCG64 output and replay its bounded-integer
# rule on top.
_M32 = 0xFFFFFFFF
_2_32 = 1 << 32
_RAW_BLOCK = 256  # raw 64-bit outputs _SubsetDraws takes at a time
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835  # PCG64.jumped(1) advances by this
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's default pool size in 32-bit words
_DOUBLE_UNIT = 2.0**-53


def _words(n) -> list:
    """n as little-endian 32-bit words, the way SeedSequence splits its inputs."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hash_mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def _seed_pool(seed: int) -> tuple:
    """SeedSequence's pool after the seed's words, and the hash constant reached.

    The spawn key's words are mixed in after these, so the pool depends on
    the seed alone. Entropy shorter than the pool is padded with zero words,
    as numpy does whenever a spawn key follows.
    """
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy))
    h = _HASH_INIT_A

    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = (h * _HASH_MULT_A) & _M32
        v = (v * h) & _M32
        return v ^ (v >> 16)

    pool = [hashmix(w) for w in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _hash_mix(pool[dst], hashmix(pool[src]))
    for w in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _hash_mix(pool[dst], hashmix(w))
    return pool, h


def _state_hashes() -> tuple:
    """(xor, multiplier) pairs of SeedSequence.generate_state for 4 uint64 words."""
    out = []
    h = _HASH_INIT_B
    for _ in range(2 * _POOL):
        nxt = (h * _HASH_MULT_B) & _M32
        out.append((h, nxt))
        h = nxt
    return tuple(out)


_STATE_HASHES = _state_hashes()


def _lcg_advance(delta: int) -> tuple:
    """(A, C) with advance(s, delta) = A*s + C*inc mod 2^128 (Brown 1994)."""
    acc_mult, acc_plus, mult, plus = 1, 0, _PCG_MULT, 1
    while delta:
        if delta & 1:
            acc_mult = (acc_mult * mult) & _M128
            acc_plus = (acc_plus * mult + plus) & _M128
        plus = ((mult + 1) * plus) & _M128
        mult = (mult * mult) & _M128
        delta >>= 1
    return acc_mult, acc_plus


_JUMP_MULT, _JUMP_PLUS = _lcg_advance(_PCG_JUMP)


def _generator_counts(gen: np.random.Generator, state: int, inc: int, width: int, cum: np.ndarray) -> np.ndarray:
    """Child counts for width vertices, drawn by gen's PCG64 set to (state, inc)."""
    gen.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.searchsorted(cum, gen.random(width), side="right").astype(np.int64)


@dataclass(frozen=True, eq=False)
class GWSample:
    """A sampled tree, stored as per-generation arrays of child counts.

    counts[g][j] is the number of children of the j-th generation-g vertex in
    breadth-first order; ``truncated_at``, the first generation whose
    children were never drawn, is ``len(counts)``. ``truncate_ball`` labels
    each vertex by its 1-based sibling tuple, the root being the empty tuple.
    """

    spec: GWSpec
    seed: int
    trial: int
    counts: tuple
    budget_hit: bool

    @property
    def truncated_at(self) -> int:
        return len(self.counts)

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
        return Tree._trusted(adj, root=0)

    def truncate_ball(self, k: int) -> Ball:
        """The depth-k tree as a Ball whose frontier is generation k, empty if the tree dies out first.

        It is cut by ``_prefix``. A sample drawn to generation k or deeper,
        or extinct, can be cut at k; any other raises InsufficientDepthError.
        """
        if k < 0:
            raise ValueError("depth must be nonnegative")
        if k > self.truncated_at and not self.extinct:
            raise InsufficientDepthError(
                f"sampled only to generation {self.truncated_at}, cannot truncate at {k}"
            )
        t = _prefix(self, k)
        tree = t.to_tree()
        # One pass over the generations: child j of parent p has label[p] + (j,).
        handles = [()]
        off = t._offsets
        for g, c in enumerate(t.counts):
            for label, n in zip(handles[off[g]:off[g + 1]], c.tolist()):
                handles.extend([label + (j,) for j in range(1, n + 1)])
        depths = [g for g, w in enumerate(t.generation_sizes) for _ in range(w)]
        return Ball(k, tree, handles, depths)


# sample() sums a generation this narrow as a list: on a 2-core x86-64 box,
# sum(c.tolist()) took 0.13 µs at width 1, 0.38 at 32 and 0.74 at 64, and
# int(c.sum()) about 1.0 µs at any of these widths, a reduction's fixed
# cost. The two met near width 96.
_NARROW_SUM = 64


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
    if max_vertices is not None and max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    rng = _rng(seed, (trial,) if attempt is None else (trial, attempt))
    advance, random = rng.bit_generator.advance, rng.random
    searchsorted = spec._cum_table.searchsorted
    budget = math.inf if max_vertices is None else max_vertices
    counts: list[np.ndarray] = []
    sizes = [1]
    total = nxt = 1  # sum(sizes), and the size of the generation drawn next

    def done(budget_hit: bool) -> GWSample:
        smp = GWSample(spec, seed, trial, tuple(counts), budget_hit)
        smp.__dict__["generation_sizes"] = tuple(sizes)  # fills the cached_property
        return smp

    for gen in range(max_generation):
        if not nxt:
            break
        if gen:
            advance(_PCG_JUMP - width)  # generation gen - 1 drew width doubles
        width = nxt
        c = searchsorted(random(width), side="right")
        nxt = sum(c.tolist()) if width <= _NARROW_SUM else int(c.sum())
        total += nxt
        if total > budget:
            return done(True)
        counts.append(c)
        sizes.append(nxt)
    return done(False)


def _prefix(smp: GWSample, h: int) -> GWSample:
    """What sample() returns at max_generation h, given smp drawn deeper from the same stream and budget.

    Generation g's draw and the budget test read only the stream and the
    generations below g, so sample() at h returns smp itself when smp
    stopped before h, or at h without a budget hit, and otherwise smp's
    first h generations with no budget hit.
    """
    if smp.truncated_at < h or (smp.truncated_at == h and not smp.budget_hit):
        return smp
    cut = GWSample(smp.spec, smp.seed, smp.trial, smp.counts[:h], False)
    cut.__dict__["generation_sizes"] = smp.generation_sizes[:h + 1]
    return cut


# The streams of many trials at once, as sample() draws them one trial at a
# time. A 128-bit value is held as four 32-bit limbs, least significant first,
# in a uint64 array of shape (4, n). A product of two limbs fits in 64 bits;
# column sums of them may wrap, which numpy arrays do silently, and only
# their low 32 bits are kept.
_BATCH_TRIALS = 1 << 14  # trials seeded together; a power of two, so no batch mixes one- and two-word trial ids
_BATCH_VERTICES = 1 << 12  # vertices drawn in one numpy pass; on a 2-core box 2^12 ran faster than 2^14 or 2^16
# A trial whose generation is wider than this draws it from a numpy Generator
# set to its state: about 9 µs per generation, against 100 to 200 ns per
# vertex in limb arithmetic. On the same box, caps of 64, 128 and 192 timed
# alike on growth runs of wide laws, and 32 and 256 slower. It must stay at
# or below _BATCH_VERTICES: each pass of _draw_narrow takes whole trials, and
# a trial wider than a pass would leave the pass empty and the loop stuck.
_BATCH_WIDTH_MAX = 128


def _limbs(x: int) -> np.ndarray:
    """x mod 2^128 as a (4, 1) limb array."""
    return np.array([[(x >> shift) & _M32] for shift in (0, 32, 64, 96)], dtype=np.uint64)


_MULT_LIMBS, _MULT_LESS_ONE_LIMBS = _limbs(_PCG_MULT), _limbs(_PCG_MULT - 1)
_JUMP_MULT_LIMBS, _JUMP_PLUS_LIMBS = _limbs(_JUMP_MULT), _limbs(_JUMP_PLUS)
# Limb pairs (i, j) with i + j <= 3, grouped by column i + j.
_MUL_I = np.array([0, 0, 1, 0, 1, 2, 0, 1, 2, 3])
_MUL_J = np.array([0, 1, 0, 2, 1, 0, 3, 2, 1, 0])


def _mul128(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y mod 2^128, limb-wise; a (4, 1) operand broadcasts."""
    p = x[_MUL_I] * y[_MUL_J]
    lo, hi = p & _M32, p >> 32
    c1 = hi[0] + lo[1] + lo[2]
    c2 = hi[1] + hi[2] + lo[3] + lo[4] + lo[5] + (c1 >> 32)
    c3 = hi[3] + hi[4] + hi[5] + p[6] + p[7] + p[8] + p[9] + (c2 >> 32)
    return np.stack((lo[0], c1 & _M32, c2 & _M32, c3 & _M32))


def _add128(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x + y mod 2^128, limb-wise; a (4, 1) operand broadcasts."""
    s = x + y
    s[1] += s[0] >> 32
    s[2] += s[1] >> 32
    s[3] += s[2] >> 32
    return s & _M32


def _int128(limbs: np.ndarray) -> int:
    """The Python int of one column of a limb array."""
    return sum(int(v) << shift for v, shift in zip(limbs, (0, 32, 64, 96)))


@lru_cache(maxsize=None)
def _step_table(bits: int) -> np.ndarray:
    """Limb array of shape (4, 2^bits) whose column k is c_k = 1 + M + ... + M^(k-1), M the LCG multiplier.

    k LCG steps take s to M^k s + c_k inc, which is s + c_k ((M - 1) s + inc)
    since (M - 1) c_k = M^k - 1. Built by doubling on first use:
    c_(half + j) = M^half c_j + c_half.
    """
    if bits == 0:
        c = _limbs(0)
    else:
        c = _step_table(bits - 1)
        m_half, c_half = (_limbs(x) for x in _lcg_advance(1 << (bits - 1)))
        c = np.concatenate((c, _add128(_mul128(m_half, c), c_half)), axis=1)
    c.setflags(write=False)
    return c


def _trial_streams(seed: int, first: int, stop: int) -> tuple:
    """Limb arrays (state, inc) of PCG64(SeedSequence(seed, spawn_key=(t,))) for t in first..stop-1.

    SeedSequence's generate_state gives eight 32-bit words w0..w7, read as
    the 64-bit words u0 = w0 | w1 << 32, ..., u3 = w6 | w7 << 32. PCG64 takes
    initstate = u0 << 64 | u1 and inc = (u2 << 64 | u3) << 1 | 1 mod 2^128,
    and starts at (inc + initstate) M + inc, M the LCG multiplier.
    SeedSequence's hash constant advances once per word of the spawn key, so
    all the trial ids must split into the same number of 32-bit words.
    """
    pool, h = _seed_pool(seed)
    n_words = len(_words(first))
    if len(_words(stop - 1)) != n_words:
        raise ValueError("trial ids of different word counts")
    ids = np.arange(first, stop, dtype=np.uint64)
    for i in range(n_words):
        w = (ids >> (32 * i)) & _M32
        for dst in range(_POOL):
            v = w ^ h
            h = (h * _HASH_MULT_A) & _M32
            v = (v * h) & _M32
            r = (_MIX_L * pool[dst] - _MIX_R * (v ^ (v >> 16))) & _M32  # _hash_mix, on arrays
            pool[dst] = r ^ (r >> 16)
    words = []
    for (x, m), v in zip(_STATE_HASHES, pool + pool):
        v = ((v ^ x) * m) & _M32
        words.append(v ^ (v >> 16))
    w0, w1, w2, w3, w4, w5, w6, w7 = words
    initstate = np.stack((w2, w3, w0, w1))
    # inc's limbs are w6, w7, w4, w5 shifted left by one, each carrying its bit 31 into the next
    inc = np.stack(((w6 << 1) | 1, (w7 << 1) | (w6 >> 31), (w4 << 1) | (w7 >> 31), (w5 << 1) | (w4 >> 31))) & _M32
    return _add128(_mul128(_MULT_LIMBS, _add128(inc, initstate)), inc), inc


def _draw_narrow(cum, state, step, widths, sel, target, sizes, match) -> None:
    """Draw the current generation of trials sel into sizes and match.

    state is each trial's LCG state and step = (M - 1) state + inc its next
    increment, so vertex j (from 0) is drawn from state + c_(j+1) step: the
    gathered table column, then XSL-RR and Generator.random()'s double,
    looked up in cum.
    """
    widths = widths[sel]
    ends = np.cumsum(widths)
    lo = 0
    while lo < len(sel):
        base = int(ends[lo - 1]) if lo else 0
        hi = int(np.searchsorted(ends, base + _BATCH_VERTICES, side="right"))
        w = widths[lo:hi]
        starts = ends[lo:hi] - w - base
        owner = np.repeat(sel[lo:hi], w)
        k = np.arange(int(ends[hi - 1]) - base) - np.repeat(starts, w) + 1
        c = _step_table(int(w.max()).bit_length())
        s = _add128(state.take(owner, axis=1), _mul128(c.take(k, axis=1), step.take(owner, axis=1)))
        x = (s[0] ^ s[2]) | ((s[1] ^ s[3]) << 32)  # XSL-RR: (high ^ low) rotated right by the top 6 bits
        rot = s[3] >> 26
        x = (x >> rot) | (x << ((64 - rot) & 63))
        counts = np.searchsorted(cum, (x >> 11) * _DOUBLE_UNIT, side="right")
        sizes[sel[lo:hi]] = np.add.reduceat(counts, starts)
        if target is not None:
            match[sel[lo:hi]] = ~np.logical_or.reduceat(counts != target, starts)
        lo = hi


def _generations(spec: GWSpec, seed: int, trials: int, depth: int, target=None):
    """Generations 0..depth-1 of trials 0..trials-1, drawn batch by batch, as sample() draws them.

    Yields (g, ids, widths, sizes) for each batch of trials and each
    generation g: the trials still drawn, the sizes of their generation g
    and of generation g + 1. A trial is no longer drawn once extinct, nor,
    given target, once a count of its generation g differs from target(g);
    such a trial is left out of ids from that generation on. Generation g of
    trial t is keyed by (seed, t, g) alone, so dropping a trial changes no
    draw of another.
    """
    cum = spec._cum_table
    gen = None  # the Generator for wide generations, built on first need
    for first in range(0, trials, _BATCH_TRIALS):
        stop = min(first + _BATCH_TRIALS, trials)
        state, inc = _trial_streams(seed, first, stop)
        jump_plus = _mul128(_JUMP_PLUS_LIMBS, inc)
        # (M - 1) s + inc; a jump multiplies it by _JUMP_MULT, as (M - 1) _JUMP_PLUS + 1 = _JUMP_MULT
        step = _add128(_mul128(_MULT_LESS_ONE_LIMBS, state), inc)
        ids = np.arange(first, stop)
        widths = np.ones(len(ids), dtype=np.int64)
        for g in range(depth):
            if g:
                state = _add128(_mul128(_JUMP_MULT_LIMBS, state), jump_plus)
                step = _mul128(_JUMP_MULT_LIMBS, step)
            t = None if target is None else target(g)
            sizes = np.empty(len(ids), dtype=np.int64)
            match = np.ones(len(ids), dtype=bool)
            wide = widths > _BATCH_WIDTH_MAX
            _draw_narrow(cum, state, step, widths, np.flatnonzero(~wide), t, sizes, match)
            for i in np.flatnonzero(wide):
                if gen is None:
                    gen = np.random.Generator(np.random.PCG64())
                s_i = _int128(state[:, i])
                inc_i = (_int128(step[:, i]) - (_PCG_MULT - 1) * s_i) & _M128
                counts = _generator_counts(gen, s_i, inc_i, int(widths[i]), cum)
                sizes[i] = counts.sum()
                match[i] = t is None or bool((counts == t).all())
            yield g, ids[match], widths[match], sizes[match]
            keep = match & (sizes > 0)
            if not keep.any():
                break
            ids, widths, state, step, jump_plus = ids[keep], sizes[keep], state[:, keep], step[:, keep], jump_plus[:, keep]


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


# Below exp(-1075 ln 2), half the smallest subnormal, a value rounds to 0.0.
_LOG_UNDERFLOW = -1075 * math.log(2)


def _log_bounds(p: Fraction) -> tuple:
    """(log p, a bound on the float error of its terms), valid far below float range."""
    a, b = math.log(p.numerator), math.log(p.denominator)
    return a - b, abs(a) + b


def _collapse_q(spec: GWSpec, d: int) -> float:
    """max over s of float(event_sary_prob(spec, s, d)), computing few of them exactly.

    log event_sary_prob = E1 log p(s) + E2 log p(0) with E1 = sum of s^i for
    i < d and E2 = s^d. A float estimate of it, raised by 1e-9 times the size
    of every term it is summed from plus 1, bounds it from above. An s whose
    bound lies below _LOG_UNDERFLOW rounds to 0.0; one whose bound lies below
    log q for the q found so far rounds to at most q, because float() of a
    Fraction is correctly rounded and so monotone. Neither can change the
    max, so only the rest are computed exactly, in decreasing-bound order.
    For s >= 2 the value is at most 2^-E1, since E2 >= E1 and p(s) + p(0) <= 1
    puts one of them at or below 1/2; so from the first s >= 2 with E1 > 1075
    on, every value rounds to 0.0 and none is estimated.
    """
    p0 = spec.p(0)
    if p0 == 0:
        return 0.0
    log_p0, size_p0 = _log_bounds(p0)
    bounds = []
    for s in range(1, spec.max_children + 1):
        e1 = sum(s**i for i in range(d))
        if s > 1 and e1 > 1075:
            break
        ps = spec.p(s)
        if ps == 0:
            continue
        log_ps, size_ps = _log_bounds(ps)
        e2 = s**d
        est = e1 * log_ps + e2 * log_p0
        bounds.append((est + 1e-9 * (e1 * size_ps + e2 * size_p0) + 1, s))
    bounds.sort(reverse=True)
    q = 0.0
    for bound, s in bounds:
        if bound < _LOG_UNDERFLOW or (q > 0 and bound < math.log(q)):
            break
        q = max(q, float(event_sary_prob(spec, s, d)))
    return q


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


def _fraction_str(q: Fraction) -> str:
    """``str(q)`` for any size: Decimal renders ints past the interpreter's int-to-str digit limit.

    ``Decimal(n)`` alone takes time quadratic in the digits of n, so each int
    is split at a power of two, its halves converted recursively and joined
    by one exact multiply-add; libmpdec multiplies large operands in
    quasi-linear time. Each level splits at one or two widths, so the powers
    ``Decimal(2) ** w`` are computed once each.
    """
    powers = {}

    def convert(n, w):  # Decimal(n), split at bit w // 2; a negative n has a negative high part
        if w <= 128:
            return Decimal(n)
        half = w >> 1
        if half not in powers:
            powers[half] = Decimal(2) ** half
        hi = n >> half
        return convert(n - (hi << half), half) + convert(hi, w - half) * powers[half]

    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = MAX_PREC, MAX_EMAX, MIN_EMIN
        ctx.traps[Inexact] = True
        num, den = (str(convert(n, n.bit_length())) for n in (q.numerator, q.denominator))
    return num if q.denominator == 1 else f"{num}/{den}"


@dataclass(frozen=True)
class MonteCarloEventResult:
    event: str
    trials: int
    successes: int
    estimate: float
    std_error: float
    exact: Fraction

    def within(self, sigmas: float) -> bool:
        slack = sigmas * self.std_error
        return abs(self.estimate - float(self.exact)) <= max(slack, 1e-15)

    def to_json(self) -> dict:
        return {
            "event": self.event,
            "trials": self.trials,
            "successes": self.successes,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "exact": _fraction_str(self.exact),
            "exact_float": float(self.exact),
        }


def monte_carlo_event(spec: GWSpec, event: str, trials: int, seed: int) -> MonteCarloEventResult:
    """Estimate the probability of a shape event by independent sampling.

    event is "path(d)" or "sary(s,d)". Trial t draws the streams of
    sample(spec, seed, d + 1, trial=t) for t in range(trials), so the count
    of successes depends only on (spec, event, trials, seed). Trials are
    drawn in batches, one generation at a time, and a trial stops at the
    first vertex whose count rules the event out; the streams are unchanged,
    because each generation's is keyed by (seed, trial, generation).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    parsed = parse_event(event)
    if parsed[0] == "path":
        _, d = parsed
        target = lambda g: 1
    else:
        # Per-vertex counts, not generation totals: a generation can sum to
        # s^g without every vertex having exactly s children.
        _, s, d = parsed
        target = lambda g: s if g < d else 0
    successes = sum(len(ids) for g, ids, _, _ in _generations(spec, seed, trials, d + 1, target) if g == d)
    exact = event_path_prob(spec, d) if parsed[0] == "path" else event_sary_prob(spec, s, d)
    est = successes / trials
    se = math.sqrt(est * (1 - est) / trials)
    return MonteCarloEventResult(event, trials, successes, est, se, exact)


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
        return asdict(self)


def generation_growth_check(spec: GWSpec, n: int, trials: int, seed: int) -> GrowthReport:
    """Compare the empirical mean of generation n against mean**n.

    When no vertex can die the size sequence must be nondecreasing, and each
    step increases strictly unless every vertex of the step has exactly one
    child, so the strict-increase frequency is floored by 1 - p1 per step.

    Trial t draws the streams of sample(spec, seed, n, trial=t). Trials are
    drawn in batches, one generation at a time, and an extinct trial stops
    early; the streams are unchanged, because each generation's is keyed by
    (seed, trial, generation).
    """
    if n < 1 or trials < 1:
        raise ValueError("need n >= 1 and trials >= 1")
    finals = np.zeros(trials)
    deathless = spec.p(0) == 0
    monotone: bool | None = True if deathless else None
    inc_steps = 0
    tot_steps = 0
    for g, ids, widths, sizes in _generations(spec, seed, trials, n):
        if deathless:
            monotone = monotone and not bool((sizes < widths).any())
            inc_steps += int(np.count_nonzero(sizes > widths))
            tot_steps += len(ids)
        if g == n - 1:
            finals[ids] = sizes
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


_ZERO = np.zeros(1, dtype=np.int64)  # put before a generation's counts, whose cumsum is then the exclusive prefix sum
_INT64_END = 1 << 63  # _scan_forest sums in Python ints what could reach this


def _scan_witness(samples: Sequence[GWSample], n: int) -> list:
    """Each surviving sample's smallest boundary ratio and its kind; (None, "") if nothing helps.

    Samples cut at the same generation L are scanned together as one forest
    by _scan_forest; a sample cut at generation 0 has nothing drawn below
    the root and finds nothing. A sample must survive, so that every
    generation of it is nonempty. A trial's candidates are 1/D for its
    largest dead subtree D (no descendant in generation L, so complete
    whatever stopped the sampling) under an alive parent, 2/M for its
    longest run of M single-child vertices, 1/R for the run of R single
    children down from the root, whose upper end has no neighbor outside
    it, and the exact ratio of the depth n-1 ball, which is at most r/n
    whenever generation n has at most r vertices. The smallest wins, ties
    going to the earlier kind in that order.
    """
    out = [(None, "")] * len(samples)
    by_depth: dict = {}
    for i, smp in enumerate(samples):
        by_depth.setdefault(smp.truncated_at, []).append(i)
    for L, members in by_depth.items():
        if L:
            for i, found in zip(members, _scan_forest([samples[i] for i in members], n)):
                out[i] = found
    return out


def _scan_forest(forest: list, n: int) -> list:
    """_scan_witness on samples that share truncated_at L >= 1, in one bottom-up pass over the generations.

    Generation g of the forest holds the trials' generation-g vertices, trial
    after trial. With C the exclusive prefix sums of its child counts c, the
    children of its vertex j are the vertices C[j] to C[j + 1] - 1 of
    generation g + 1, so each generation is read through C alone, and every
    array is one generation wide:
    - x[j] counts the vertices in the subtrees of the generation's first j
      vertices, less m times their descendants in generation L, m being more
      than any subtree's size. At generation L, x[j] = (1 - m) * j; above it,
      x[j] is row C[j] of the generation below, plus j. So x[j + 1] - x[j]
      is vertex j's subtree size if the vertex is dead, and negative if not.
    - run[j] is the single-child run down from vertex j: 0 unless c[j] = 1,
      and then 1 more than run[C[j]] of the generation below. A childless
      vertex's C[j] may lie one past that generation's end; take clips it,
      and the factor 0 drops what it reads.
    Per-trial maxima are taken by maximum.reduceat over each trial's first
    vertex in the generation, and the root's run is the top generation's.
    |x| stays below m * w + (the forest's vertex count), w being the width
    of generation L; a forest too large for that to fit in int64 is scanned
    in Python ints.
    """
    k, L = len(forest), forest[0].truncated_at
    widths = np.array([smp.generation_sizes for smp in forest], dtype=np.int64)
    starts = np.zeros((L + 1, k), dtype=np.int64)  # starts[g]: each trial's first vertex in generation g
    np.cumsum(widths.T[:, :-1], axis=1, out=starts[:, 1:])
    totals = widths.sum(axis=0).tolist()
    m = max(smp.vertex_count for smp in forest) + 1
    j = np.arange(max(totals) + 1, dtype=np.int64 if m * totals[L] + sum(totals) < _INT64_END else object)
    x = j[:totals[L] + 1] * (1 - m)
    run = np.zeros(totals[L], dtype=np.int64)
    levels = [(_ZERO, *level) for level in zip(*(smp.counts for smp in forest))]
    dead, longest = [], []
    for g in range(L - 1, -1, -1):
        c = np.concatenate(levels[g])  # the generation's counts after a leading 0
        C = c.cumsum()
        x = x.take(C)
        x += j[:len(C)]
        first = starts[g]
        # A dead vertex under a dead parent roots a smaller dead subtree than the
        # parent's, so the largest dead subtree hangs from an alive vertex.
        dead.append(np.maximum.reduceat(x[1:] - x[:-1], first))
        run = run.take(C[:-1], mode="clip")
        run += 1
        run *= c[1:] == 1
        longest.append(np.maximum.reduceat(run, first))
        if g == n - 1:
            boundary = np.add.reduceat(c[1:] != 0, first)
    best = zip(np.max(dead, axis=0).tolist(), np.max(longest, axis=0).tolist(), run.tolist())
    rows = [[(1, size, "dead-subtree"), (2, length, "single-child-run"), (1, root_run, "single-child-run")]
            for size, length, root_run in best]
    if L >= n:
        for row, num, den in zip(rows, boundary.tolist(), widths[:, :n].sum(axis=1).tolist()):
            row.append((num, den, "shallow-ball"))
    found = []
    for row in rows:
        win = None
        for num, den, kind in row:
            # ratios compared by cross-multiplication; the strict < keeps the earlier kind of equal ratios
            if den > 0 and (win is None or num * win[1] < win[0] * den):
                win = (num, den, kind)
        found.append((None, "") if win is None else (Fraction(win[0], win[1]), win[2]))
    return found


def _halves(bits: np.random.PCG64):
    """The 32-bit halves of the raw 64-bit outputs, low half first, as numpy's next_uint32 takes them."""
    while True:
        for word in bits.random_raw(_RAW_BLOCK).tolist():
            yield word & _M32
            yield word >> 32


class _SubsetDraws:
    """Just enough of the random.Random surface for subset drawing: numpy's bounded integers, replayed.

    ``randrange(n)`` equals ``int(Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=spawn_key))).integers(n))`` bit for bit, for 1 <= n <= 2**32,
    the range numpy draws through its 32-bit path (``random_bounded_uint64``
    in its distributions.c); any other n raises ValueError, as numpy does
    for n < 1. n = 1 consumes nothing. Otherwise it takes the
    next 32-bit half x of the raw output and m = x * n; while the low 32
    bits of m fall below (2**32 - n) % n it redraws, and it returns
    m >> 32: Lemire's multiply-shift with rejection (D. Lemire, "Fast random
    integer generation in an interval", ACM TOMACS 29(1), 2019). The halves
    come from blocks of ``random_raw``, which leaves the bit generator's own
    32-bit buffer alone; the stream is fresh and serves nothing else, so
    this adapter keeps the buffer itself and drawing ahead changes nothing.
    """

    __slots__ = ("_next",)

    def __init__(self, seed: int, spawn_key: tuple):
        bits = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key))
        self._next = _halves(bits).__next__

    def randrange(self, n: int) -> int:
        if n == 1:
            return 0
        if not 1 < n <= _2_32:
            raise ValueError(f"randrange({n}) is outside 1..2**32, the bounds whose draws are replayed")
        m = self._next() * n
        if m & _M32 < n:  # n is a cheap upper bound for the threshold
            threshold = (_2_32 - n) % n
            while m & _M32 < threshold:
                m = self._next() * n
        return m >> 32

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


@dataclass(frozen=True)
class DichotomyReport:
    """What ``verify_dichotomy`` found on one side of the dichotomy.

    The witness side fills ``per_d``, the bound side ``nonamenable``;
    ``side`` reads which one from whether ``nonamenable`` is None.
    """

    spec_json: dict
    params: dict
    per_d: tuple
    nonamenable: dict | None
    rows: tuple

    @property
    def side(self) -> str:
        return "amenable" if self.nonamenable is None else "nonamenable"

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


def _draw_survivors(spec, seed, trial, horizons, max_vertices) -> dict:
    """For each horizon h, the trial's first attempt whose sample to h survives, and the attempts taken.

    Each (trial, attempt) stream is drawn once, to the deepest horizon, and
    each h reads the prefix sample() would draw to h (_prefix). A tree that
    survives to h survives to every shallower horizon, so the horizons
    settle in increasing order and attempts stop once the deepest settles.
    A horizon that no attempt in 64 survives gets the 64th, extinct sample.
    """
    horizons = sorted(set(horizons))
    deepest = horizons[-1]
    out = {}
    for a in range(64):
        smp = sample(spec, seed, deepest, max_vertices, trial=trial, attempt=a)
        reach = smp.truncated_at if smp.extinct else deepest + 1  # the prefix survives at every h < reach
        for h in horizons[len(out):]:
            if h >= reach:
                break
            out[h] = (_prefix(smp, h), a + 1)
        if len(out) == len(horizons):
            return out
    for h in horizons[len(out):]:
        out[h] = (smp, 64)  # extinct by generation h, so it is its own prefix
    return out


def _amenable_side(spec, d_list, trials, seed, max_vertices):
    rho = spec._rho
    horizons = [d * d + d + 1 for d in d_list]
    by_trial = [_draw_survivors(spec, seed, t, horizons, max_vertices) for t in range(trials)]
    each = {}  # a d listed twice is scanned once
    for d in dict.fromkeys(d_list):
        r = d
        n = d * d
        horizon = n + d + 1
        q = _collapse_q(spec, d)
        floor = 1.0 - _pow(1.0 - q, r)
        drawn = [by_horizon[horizon] for by_horizon in by_trial]
        found = iter(_scan_witness([smp for smp, _ in drawn if not smp.extinct], n))
        results = [
            (t, None, None, "", attempts) if smp.extinct else (t, smp.generation_sizes, *next(found), attempts)
            for t, (smp, attempts) in enumerate(drawn)
        ]

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
        entry = {
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
        each[d] = entry, [(d, t, sizes or (), str(ratio) if ratio is not None else None, kind)
                          for t, sizes, ratio, kind, _ in results]
    per_d = [dict(each[d][0]) for d in d_list]  # each listing gets its own dict
    rows = [row for d in d_list for row in each[d][1]]
    return per_d, rows, rho


def _nonamenable_side(spec, trials, seed, max_vertices, truncate_depth, n_subsets, subset_size, cheeger_max_size):
    from .amenability import _degree3_bound, cheeger_exact
    from .subsets import random_connected_subset

    per_trial, extra = divmod(n_subsets, trials)
    rows = []
    violations = 0
    checked = 0
    cheeger_values = []
    cheeger_ok = True
    worst = None
    for t in range(trials):
        smp = sample(spec, seed, truncate_depth, max_vertices, trial=t)
        if smp.budget_hit:
            raise BudgetExhaustedError(
                f"trial {t}'s tree to depth {truncate_depth} needs more than {max_vertices} vertices"
            )
        ball = smp.truncate_ball(truncate_depth)
        rng = _SubsetDraws(seed, (t, 65536))
        bad = 0
        n_t = per_trial + (1 if t < extra else 0)
        for _ in range(n_t):
            size = 1 + rng.randrange(subset_size)
            members = random_connected_subset(ball, size, rng)
            checked += 1
            # min_degree3_bound_check with the root as its degree-2 exception,
            # skipping its connectivity walk: the members were grown connected
            if not _degree3_bound(ball, members, 0):
                bad += 1
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
        "ratio_slack_violations": violations,
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
    each d in the nonempty d_list, all d >= 1, surviving trees are scanned
    for subsets of boundary ratio at most 1/d, and the success fraction is
    compared against the collapse-event floor 1 - (1-q)^r with r = d
    disjoint depth windows. q is the largest float(event_sary_prob(spec, s,
    d)) over s, the chance that the tree is the complete s-ary tree of depth
    d. Only the s whose float log-space upper bound shows the value neither
    rounds to 0.0 nor lies below the largest value found so far get the
    exact Fraction; since float() of a Fraction is correctly rounded, and
    so monotone, the skipped ones cannot change the max, and q equals the
    max over every s. Laws whose vertices always have at least two
    children head for the bound side: random connected subsets must obey
    the doubling bound, with slack for the root. The report's
    ratio_slack_violations equals its bound_violations: for integers,
    |B|/|A| < 1/2 - [root in A]/|A| exactly when |A| > 2|B| + 2[root in A].
    The n_subsets subsets are split over the trials as evenly as possible,
    the first n_subsets % trials trials checking one more. Trial t draws
    its subsets from the raw output of the stream keyed by (seed, t, 65536),
    replaying numpy's bounded-integer rule, so each draw is the one
    Generator.integers(n) would give on that stream.

    Trials run one after another; trial t draws from streams keyed by
    (seed, t), so the report depends only on the arguments. A sample stops
    before the generation that would take it past max_vertices vertices.
    On the bound side a trial whose sample stops there, short of
    truncate_depth, raises BudgetExhaustedError. On the witness side trial
    t redraws from (seed, t, attempt) until its tree survives to the
    horizon d*d + d + 1, up to 64 attempts, and counts as skipped if none
    does. Each (trial, attempt) stream is drawn once, to
    the deepest horizon in d_list, and each d reads the prefix of it down to
    its own horizon, which is what a draw to that horizon would give. Every
    trial is drawn first; for each d all surviving trees cut at the same
    generation are then scanned together as one forest, for dead
    subtrees, single-child runs and the depth n-1 ball (n = d*d), in one
    bottom-up pass that reads each generation through the prefix sums of
    its child counts. A d listed more than once is scanned once, and its
    per_d entry and rows are repeated at each place it is listed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    params = {
        "seed": seed,
        "trials": trials,
        "max_vertices": max_vertices,
    }
    if spec.p(0) or spec.p(1):  # the witness side
        d_list = list(d_list)
        if not d_list or min(d_list) < 1:
            raise ValueError("d_list needs at least one d, and every d must be at least 1")
        per_d, rows, rho = _amenable_side(spec, d_list, trials, seed, max_vertices)
        params["d_list"] = d_list
        params["extinction_probability"] = rho
        return DichotomyReport(spec.to_json(), params, tuple(per_d), None, tuple(rows))
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
    return DichotomyReport(spec.to_json(), params, (), doc, tuple(rows))
