"""Leaf-trimming dynamics and inessential subtrees.

The trimming operator removes every degree-1 vertex at once. Iterating it on
a finite tree always reaches a fixed point (a single vertex, or nothing);
on infinite trees its behavior is probed locally: whether a vertex survives
k rounds of trimming depends only on its radius-k ball, which is what makes
oracle-driven computation exact. Every trimming computation here, on a whole
finite tree or on a ball, runs on the one leaf-removal loop ``trees.peel``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable

from .errors import InvalidVertexError
from .exploration import Ball, explore_ball
from .subsets import boundary_of, is_connected_in
from .trees import Tree, bfs_layers, canonical_form, peel, reach, sorted_handles

log = logging.getLogger("arbor.trimming")

__all__ = [
    "TrimOrbit",
    "trim_orbit",
    "trim_depth",
    "removal_steps_in_ball",
    "TrimmedView",
    "ball_code_sequence",
    "detect_period",
    "InessentialSubtree",
    "is_inessential",
    "make_inessential",
    "HangingComponent",
    "hanging_components",
    "lift_subset_through_trims",
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
    v is still present after all ``rounds`` rounds; stage j of the orbit is
    every v with removed_at[v] None or above j. The orbit ends with a
    single vertex (``stabilized``), with nothing (``extinct``), or at the
    round cap with leaves still present (``budget-exhausted``).
    """

    removed_at: tuple
    rounds: int
    status: str
    stabilized_at: int | None = None
    extinct_at: int | None = None

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
        if self.stabilized_at is not None:
            doc["stabilized_at"] = self.stabilized_at
        if self.extinct_at is not None:
            doc["extinct_at"] = self.extinct_at
        return doc


def trim_orbit(t: Tree, max_steps: int | None = None) -> TrimOrbit:
    """Trim t until one vertex or nothing is left, or for at most max_steps rounds."""
    if max_steps is not None and max_steps <= 0:
        raise ValueError("max_steps must be positive (or None for no bound)")
    n = t.vertex_count
    removed = tuple(_removal_rounds(t.adjacency, [n if max_steps is None else max_steps] * n))
    rounds = max(filter(None, removed), default=0)
    left = removed.count(None)
    if left == 0:
        return TrimOrbit(removed, rounds, "extinct", extinct_at=rounds)
    if left == 1:
        return TrimOrbit(removed, rounds, "stabilized", stabilized_at=rounds)
    return TrimOrbit(removed, rounds, "budget-exhausted")


def trim_depth(oracle, v, k: int, max_vertices: int | None = None) -> int | None:
    """Removal step of v under iterated trimming, or None if v survives k rounds.

    Exact despite the unexplored outside: round t only needs round t-1
    verdicts within distance k-t of v, and those in turn never look past the
    radius-k ball. Steps are 1-based.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return None
    ball = explore_ball(oracle, k, center=v, max_vertices=max_vertices)
    known = [k - d for d in ball.depths]
    for t, dead in peel(ball.tree.adjacency, known):
        if dead[0] == 0:
            return t
    return None


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

    Survival queries are answered by trim_depth and memoized. The view's root
    is the breadth-first-earliest survivor within distance k of the host
    root; such a survivor exists whenever the trimmed tree is nonempty (a
    leaf's unique neighbor survives one more round unless everything dies),
    so root = None is a definite emptiness verdict, not a budget artifact.
    """

    __slots__ = ("oracle", "level", "max_vertices", "_alive", "_root", "_root_known")

    def __init__(self, oracle, level: int, max_vertices: int | None = None):
        if level < 0:
            raise ValueError("level must be nonnegative")
        self.oracle = oracle
        self.level = level
        self.max_vertices = max_vertices
        self._alive: dict = {}
        self._root = None
        self._root_known = False

    def survives(self, h) -> bool:
        hit = self._alive.get(h)
        if hit is None:
            hit = trim_depth(self.oracle, h, self.level, self.max_vertices) is None
            self._alive[h] = hit
        return hit

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
    """
    if radius < 0 or steps < 0:
        raise ValueError("radius and steps must be nonnegative")
    codes: list[bytes] = []
    for j in range(steps + 1):
        view = TrimmedView(oracle, j, max_vertices)
        base = view.root
        if base is None:
            codes.append(b"*")
            break
        ball = explore_ball(view, radius, center=base, max_vertices=max_vertices)
        codes.append(canonical_form(ball.tree, rooted=True))
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


@dataclass(frozen=True)
class InessentialSubtree:
    """A finite subtree glued to the rest of the host at a single root vertex.

    Every member except ``root`` has all its neighbors inside; the root has
    at least one neighbor outside (and host-degree >= 2).
    """

    host: object = field(compare=False)
    members: frozenset = field(compare=True)
    root: object = field(compare=True)

    @property
    def size(self) -> int:
        return len(self.members)


def _touching(host, mem: frozenset) -> frozenset:
    """The members with an outside neighbor, after checking the members form a proper subtree."""
    if len(mem) < 2:
        raise ValueError("an inessential subtree needs at least one edge (two vertices)")
    if not is_connected_in(host, mem):
        raise ValueError("the members are not connected")
    touching = boundary_of(host, mem)
    if not touching:
        raise ValueError("no member has an outside neighbor; the subset is the whole tree")
    return touching


def is_inessential(host, members: Iterable) -> bool:
    """Fast test: exactly one member touches the outside.

    Equivalent to the edge-complement staying connected, which is what the
    brute-force reference ``edge_complement_is_connected`` in tests/brute.py
    computes.
    """
    return len(_touching(host, frozenset(members))) == 1


def make_inessential(host, members: Iterable) -> InessentialSubtree:
    """The members as an InessentialSubtree; its root is the one member touching the outside.

    That root has a neighbor outside and, the members being connected and at
    least two, one inside, so its host-degree is at least 2.
    """
    mem = frozenset(members)
    touching = _touching(host, mem)
    if len(touching) != 1:
        raise ValueError("more than one member has an outside neighbor")
    (root,) = touching
    return InessentialSubtree(host, mem, root)


@dataclass(frozen=True)
class HangingComponent:
    """One component of host minus a vertex, as seen from that vertex."""

    attach: object
    status: str  # finite | infinite | unknown
    size: int | None
    members: frozenset | None


def hanging_components(oracle, r, max_vertices: int = 2000) -> list[HangingComponent]:
    """Classify each component of host - r as finite (with members), infinite, or unknown.

    Fixtures that can answer component sizes analytically are consulted first;
    otherwise finiteness is decided by bounded search, and 'unknown' is an
    honest budget verdict, never a guess.
    """
    has_cap = hasattr(oracle, "hanging_component_size")
    out = []
    for u in sorted_handles(oracle.neighbors(r)):
        if has_cap:
            s = oracle.hanging_component_size(r, u)
            if s == math.inf:
                out.append(HangingComponent(u, "infinite", None, None))
                continue
            if s > max_vertices:
                out.append(HangingComponent(u, "finite", int(s), None))
                continue
            comp = reach(oracle.neighbors, u, avoid=(r,), cap=int(s))
            assert comp is not None and len(comp) == s
            out.append(HangingComponent(u, "finite", int(s), frozenset(comp)))
        else:
            comp = reach(oracle.neighbors, u, avoid=(r,), cap=max_vertices)
            if comp is None:
                out.append(HangingComponent(u, "unknown", None, None))
            else:
                out.append(HangingComponent(u, "finite", len(comp), frozenset(comp)))
    return out


def lift_subset_through_trims(oracle, members: Iterable, k: int, max_vertices: int | None = None) -> frozenset:
    """Pull a subset of the k-fold trimmed tree back to the host, one round at a time.

    Round j re-attaches the trimmed-at-step-j leaves hanging on the current
    set. Each such leaf's unique round-(j-1) neighbor lies inside the set, so
    the boundary is preserved as a set while the size only grows.
    """
    cur = set(members)
    for j in range(k, 0, -1):
        addition = set()
        for v in list(cur):
            for u in oracle.neighbors(v):
                if u in cur or u in addition:
                    continue
                if trim_depth(oracle, u, j, max_vertices) == j:
                    addition.add(u)
        cur |= addition
    return frozenset(cur)

