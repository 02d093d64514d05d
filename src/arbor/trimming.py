"""Leaf-trimming dynamics and inessential subtrees.

The trimming operator removes every degree-1 vertex at once. Iterating it on
a finite tree always reaches a fixed point (a single vertex, or nothing);
``trim_orbit`` runs it on a whole finite tree with the one leaf-removal loop
``trees.peel``. On infinite trees it is applied level by level: a
``TrimmedView`` at level k holds level k-1 and trims it once, by the rule
that h survives k rounds exactly when it survives k-1 rounds and does not
have exactly one neighbor that survives k-1 rounds. Whether h survives k
rounds depends only on its radius-k ball, which is what makes
oracle-driven computation exact.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable

from .errors import BudgetExhaustedError, InvalidVertexError
from .exploration import Ball, _NeighborMemo, explore_ball
from .subsets import boundary_of, is_connected_in
from .trees import Tree, bfs_layers, canonical_form, peel

__all__ = [
    "TrimOrbit",
    "trim_orbit",
    "trim_depth",
    "TrimmedView",
    "ball_code_sequence",
    "detect_period",
    "is_inessential",
]


def _removal_rounds(adj, known) -> list:
    """The round at which peel removes each vertex, None for the vertices it keeps."""
    removed: list = [None] * len(adj)
    for t, dead in peel(adj, known):
        for w in dead:
            removed[w] = t
    return removed


@dataclass(frozen=True)
class TrimOrbit:
    """The trajectory of a finite tree under iterated trimming.

    ``removed_at[v]`` is the round at which vertex v is trimmed, or None if
    v is still present after the last round; stage j of the orbit is every
    v with removed_at[v] None or above j. The rest is read off
    ``removed_at``: ``rounds`` is the last round that trimmed anything, and
    ``status`` says how the orbit ends: with a single vertex left
    (``stabilized``), with nothing (``extinct``), or with more, which only
    a round cap stops (``budget-exhausted``).
    """

    removed_at: tuple

    @cached_property
    def rounds(self) -> int:
        return max(filter(None, self.removed_at), default=0)

    @cached_property
    def status(self) -> str:
        left = self.removed_at.count(None)
        return "extinct" if left == 0 else "stabilized" if left == 1 else "budget-exhausted"

    def stage_sizes(self) -> tuple[int, ...]:
        gone = [0] * (self.rounds + 1)
        for t in self.removed_at:
            if t is not None:
                gone[t] += 1
        sizes = [len(self.removed_at)]
        for g in gone[1:]:
            sizes.append(sizes[-1] - g)
        return tuple(sizes)

    def membership_at(self, v: int, k: int) -> bool:
        """Whether vertex v (original id) belongs to the k-fold trim."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k > self.rounds and self.status == "budget-exhausted":
            raise ValueError(f"orbit truncated before step {k}")
        n = len(self.removed_at)
        if not 0 <= v < n:
            raise InvalidVertexError(f"vertex {v} is out of range (0..{n - 1})")
        t = self.removed_at[v]
        return t is None or t > k

    def to_json(self) -> dict:
        doc = {"stages": list(self.stage_sizes()), "status": self.status}
        if self.status != "budget-exhausted":
            doc[self.status + "_at"] = self.rounds  # stabilized_at or extinct_at
        return doc


def trim_orbit(t: Tree, max_steps: int | None = None) -> TrimOrbit:
    """Trim t until one vertex or nothing is left, or for at most max_steps rounds."""
    if max_steps is not None and max_steps <= 0:
        raise ValueError("max_steps must be positive (or None for no bound)")
    n = t.vertex_count
    return TrimOrbit(tuple(_removal_rounds(t.adjacency, [n if max_steps is None else max_steps] * n)))


def trim_depth(oracle, v, k: int) -> int | None:
    """Removal step of v under iterated trimming, or None if v survives k rounds.

    Read off a fresh ``TrimmedView`` chain of k levels, with no vertex
    budget, dropped when the call returns: the step is the level at which v
    is first gone, by the rule that a vertex still present survives the next
    round unless exactly one of its neighbors is still present. Steps are
    1-based. A caller that needs a budget asks a ``TrimmedView`` built with
    one.
    """
    view = TrimmedView(oracle, k)
    if view.survives(v):
        return None
    while not view.below.survives(v):
        view = view.below
    return view.level


def removal_steps_in_ball(ball: Ball, steps: int) -> tuple[list, list]:
    """Removal steps for every ball vertex, as far as the frontier allows.

    Returns (removed_at, known_through): removed_at[v] is the 1-based step at
    which v is trimmed, or None if v is still alive after known_through[v]
    rounds. A vertex at distance d = ball.depths[v] from the center is only
    decidable through round radius - d (through every requested round if the
    frontier is empty, i.e. the ball is the whole tree). Both lists come from
    one run of ``trees.peel`` capped by known_through, the same per-vertex
    removal record a ``TrimOrbit`` keeps for a whole finite tree.
    """
    unbounded = not ball.frontier
    known = [steps if unbounded else max(0, min(steps, ball.radius - d)) for d in ball.depths]
    return _removal_rounds(ball.tree.adjacency, known), known


class TrimmedView:
    """The k-fold trimmed tree, exposed as an oracle over the host's handles.

    Level 0 is the host. Level k holds level k-1 as ``below`` and decides h
    by one trimming round: h survives k rounds exactly when it survives k-1
    rounds and does not have exactly one neighbor that survives k-1 rounds
    (an isolated survivor is not a leaf). Each level memoizes its verdicts.
    A query walks down the chain collecting the handles each level is
    missing, then decides them bottom-up, so nothing recurses once per
    level. ``trimmed()`` returns the next level up, sharing every memo; the
    constructor builds its chain of levels the same way, in a loop.

    ``max_vertices`` (at least 1) bounds the handles that one survival query
    decides at any one level; going past it raises BudgetExhaustedError.
    Those handles lie within distance k-1 of the queried vertex, so the
    radius-k ball the error names really has more than max_vertices
    vertices, and a query whose radius-k host ball fits never fails.

    The chain keeps every verdict it decides for as long as it lives.
    Deciding the radius-r view ball at level k fills level 1 with the whole
    radius-(r+k-1) host ball: for the default ``arbor trim --fixture
    "regular(4)"`` (r = k = 8) level 1 alone would hold about 2.9e7
    verdicts, more than this is meant for.

    The view's root is the breadth-first-earliest survivor within distance k
    of the host root; such a survivor exists whenever the trimmed tree is
    nonempty (a leaf's unique neighbor survives one more round unless
    everything dies), so root = None is a definite emptiness verdict, not a
    budget artifact.
    """

    __slots__ = ("oracle", "level", "max_vertices", "below", "_alive", "_root", "_root_known")

    def __init__(self, oracle, level: int, max_vertices: int | None = None):
        if level < 0:
            raise ValueError("level must be nonnegative")
        if max_vertices is not None and max_vertices < 1:
            raise ValueError("max_vertices must be at least 1")
        self.oracle, self.level, self.max_vertices, self.below = oracle, 0, max_vertices, None
        self._alive: dict = {}
        self._root_known = False
        for _ in range(level):  # a copy of this view becomes the level below, and this view goes up one
            self.below, self.level, self._alive = copy(self), self.level + 1, {}

    def trimmed(self) -> TrimmedView:
        """The next level: this view trimmed once, sharing this chain's memos."""
        up = copy(self)
        up.below, up.level, up._alive, up._root_known = self, self.level + 1, {}, False
        return up

    def survives(self, h) -> bool:
        if self.below is None:
            return True
        hit = self._alive.get(h)
        if hit is None:
            self._decide(h)
            hit = self._alive[h]
        return hit

    def _decide(self, h) -> None:
        plan, view, missing = [], self, [h]
        while missing and view.below is not None:
            if self.max_vertices is not None and len(missing) > self.max_vertices:
                raise BudgetExhaustedError(f"ball of radius {self.level} needs more than {self.max_vertices} vertices")
            rows = [(v, self.oracle.neighbors(v)) for v in missing]
            plan.append((view, rows))
            view = view.below
            if view.below is not None:
                missing = [u for u in dict.fromkeys(u for v, ns in rows for u in (v, *ns)) if u not in view._alive]
        for view, rows in reversed(plan):
            alive, below = view._alive, view.below._alive
            for v, ns in rows:  # level 0 keeps no verdicts: everything survives 0 rounds
                alive[v] = len(ns) != 1 if view.level == 1 else below[v] and sum(below[u] for u in ns) != 1

    def neighbors(self, h):
        if not self.survives(h):
            raise InvalidVertexError(f"{h!r} does not survive {self.level} trim rounds")
        return tuple(u for u in self.oracle.neighbors(h) if self.survives(u))

    @property
    def root(self):
        if not self._root_known:
            self._root = self._find_root()
            self._root_known = True
        return self._root

    def _find_root(self):
        for layer in islice(bfs_layers(self.oracle.neighbors, self.oracle.root), self.level + 1):
            for h in layer:
                if self.survives(h):
                    return h
        return None


def ball_code_sequence(oracle, radius: int, steps: int, max_vertices: int | None = None) -> list[bytes]:
    """Rooted canonical codes of the radius-r ball at the basepoint of each trim stage.

    Entry j describes the j-fold trimmed tree, rebased at its surviving
    basepoint. If some stage is empty its code is b"*" and the sequence ends.
    The stages are the levels of one ``TrimmedView`` chain over a memo of
    the host's neighbors, so each handle reaches the host once per call.
    """
    if radius < 0 or steps < 0:
        raise ValueError("radius and steps must be nonnegative")
    codes: list[bytes] = []
    view = TrimmedView(_NeighborMemo(oracle), 0, max_vertices)
    for _ in range(steps + 1):
        base = view.root
        if base is None:
            codes.append(b"*")
            break
        ball = explore_ball(view, radius, center=base, max_vertices=max_vertices)
        codes.append(canonical_form(ball.tree))
        view = view.trimmed()
    return codes


def detect_period(codes: list[bytes]) -> tuple[int, int] | None:
    """Smallest (preperiod, period) consistent with the whole observed sequence.

    Requires at least one full repetition (preperiod + 2*period observed);
    returns None when no period fits.
    """
    n = len(codes)
    for p in range(1, n // 2 + 1):
        for q in range(0, n - 2 * p + 1):
            if all(codes[j] == codes[j + p] for j in range(q, n - p)):
                return (q, p)
    return None


def is_inessential(host, members: Iterable) -> bool:
    """Fast test: exactly one member touches the outside.

    The members must be connected, at least two, and not the whole tree.
    Equivalent to the edge-complement staying connected, which is what the
    brute-force reference ``edge_complement_is_connected`` in tests/brute.py
    computes.
    """
    mem = frozenset(members)
    if len(mem) < 2:
        raise ValueError("an inessential subtree needs at least one edge (two vertices)")
    if not is_connected_in(host, mem):
        raise ValueError("the members are not connected")
    touching = boundary_of(host, mem)
    if not touching:
        raise ValueError("no member has an outside neighbor; the subset is the whole tree")
    return len(touching) == 1


def lift_subset_through_trims(view: TrimmedView, members: Iterable) -> frozenset:
    """Pull a subset of a trimmed view back to its host, one trim level at a time.

    Walking down view's chain from level k, the step at level j re-attaches
    the level-(j-1) neighbors of the current set that level j lacks: the
    leaves trimmed at round j hanging on the set. Each such leaf's unique
    round-(j-1) neighbor lies inside the set, so the boundary is preserved as
    a set while the size only grows. That neighbor is the one vertex of the
    current set the leaf hangs on, so the lifts of distinct survivors are
    disjoint and the lift of a union is the union of the lifts; ``classify``
    lifts each prefix of a run as the union of one lift per run vertex.

    The removal rounds are read off view's chain, so its memos and its
    budget serve the lift too. Members must be vertices of view; they are
    taken in the order given, so the survival queries, and any budget error
    among them, come in an order that does not depend on hashing.
    """
    cur = dict.fromkeys(members)
    while view.below is not None:
        trimmed_here = [u for v in cur for u in view.below.neighbors(v) if u not in cur and not view.survives(u)]
        cur.update(dict.fromkeys(trimmed_here))
        view = view.below
    return frozenset(cur)
