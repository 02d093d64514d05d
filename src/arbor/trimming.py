"""Leaf-trimming dynamics and inessential subtrees.

The trimming operator removes every degree-1 vertex at once. Iterating it on
a finite tree always reaches a fixed point (a single vertex, or nothing);
on infinite trees its behavior is probed locally: whether a vertex survives
k rounds of trimming depends only on its radius-k ball, which is what makes
oracle-driven computation exact.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Iterable

from .errors import InvalidVertexError
from .exploration import Ball, ball_depths, explore_ball
from .subsets import boundary_of, is_connected_in
from .trees import NULL_TREE, NullTree, Tree, canonical_form, induced_subtree, reach

log = logging.getLogger("arbor.trimming")

__all__ = [
    "trim",
    "trim_with_members",
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


def sorted_handles(handles: Iterable) -> list:
    """Deterministic ordering that tolerates mixed handle shapes."""
    handles = list(handles)
    try:
        return sorted(handles)
    except TypeError:
        return sorted(handles, key=repr)


def trim_with_members(t: Tree) -> tuple[Tree | NullTree, tuple[int, ...]]:
    """One trimming round, plus the ids (in t) of the surviving vertices."""
    keep = [v for v in range(t.vertex_count) if len(t.adjacency[v]) != 1]
    if not keep:
        return NULL_TREE, ()
    sub, _ = induced_subtree(t, keep)
    return sub, tuple(keep)


def trim(t: Tree) -> Tree | NullTree:
    """The tree minus all its leaves (degree-1 vertices); NullTree if nothing survives."""
    return trim_with_members(t)[0]


@dataclass(frozen=True)
class TrimOrbit:
    """The trajectory of a finite tree under iterated trimming.

    ``stages[0]`` is the input; ``members[j]`` holds the original-id vertex
    set of stage j, so every stage is viewable as an induced subtree of the
    input.
    """

    stages: tuple
    members: tuple
    status: str
    stabilized_at: int | None = None
    extinct_at: int | None = None

    def stage_sizes(self) -> tuple[int, ...]:
        return tuple(s.vertex_count for s in self.stages)

    def membership_at(self, v: int, k: int) -> bool:
        """Whether vertex v (original id) belongs to the k-fold trim."""
        if k < len(self.members):
            return v in self.members[k]
        if self.status == "stabilized":
            return v in self.members[-1]
        if self.status == "extinct":
            return False
        raise ValueError(f"orbit truncated before step {k}")

    def to_json(self) -> dict:
        doc = {"stages": list(self.stage_sizes()), "status": self.status}
        if self.stabilized_at is not None:
            doc["stabilized_at"] = self.stabilized_at
        if self.extinct_at is not None:
            doc["extinct_at"] = self.extinct_at
        return doc


def trim_orbit(t: Tree, max_steps: int | None = None) -> TrimOrbit:
    if max_steps is not None and max_steps <= 0:
        raise ValueError("max_steps must be positive (or None for no bound)")
    stages: list = [t]
    members: list = [frozenset(range(t.vertex_count))]
    current = t
    ids = list(range(t.vertex_count))
    step = 0
    while True:
        nxt, kept_local = trim_with_members(current)
        if not isinstance(nxt, NullTree) and len(kept_local) == current.vertex_count:
            return TrimOrbit(tuple(stages), tuple(members), "stabilized", stabilized_at=step)
        step += 1
        kept = [ids[i] for i in kept_local]
        stages.append(nxt)
        members.append(frozenset(kept))
        if isinstance(nxt, NullTree):
            return TrimOrbit(tuple(stages), tuple(members), "extinct", extinct_at=step)
        current, ids = nxt, kept
        if max_steps is not None and step >= max_steps:
            if all(len(ns) != 1 for ns in current.adjacency):
                return TrimOrbit(tuple(stages), tuple(members), "stabilized", stabilized_at=step)
            return TrimOrbit(tuple(stages), tuple(members), "budget-exhausted")


def _peel(adj: list, known: list, steps: int):
    """Iterated leaf removal on a finite piece of a host, one round at a time.

    Yields (t, dead) for rounds t = 1..steps, where dead lists in id order
    the vertices removed at round t; stops early once a round removes
    nothing. Vertex w takes part only through round known[w]: after that its
    degree may depend on vertices outside the piece, so it is never removed.
    """
    alive = [True] * len(adj)
    for t in range(1, steps + 1):
        dead = [
            w
            for w in range(len(adj))
            if alive[w] and t <= known[w]
            and sum(1 for u in adj[w] if alive[u]) == 1
        ]
        if not dead:
            return
        for w in dead:
            alive[w] = False
        yield t, dead


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
    known = [k - d for d in ball_depths(ball)]
    for t, dead in _peel(ball.tree.adjacency, known, k):
        if dead[0] == 0:
            return t
    return None


def removal_steps_in_ball(ball: Ball, steps: int) -> tuple[list, list]:
    """Removal steps for every ball vertex, as far as the frontier allows.

    Returns (removed_at, known_through): removed_at[v] is the 1-based step at
    which v is trimmed, or None if v is still alive after known_through[v]
    rounds. A vertex at distance d from the center is only decidable through
    round radius - d (through every requested round if the frontier is empty,
    i.e. the ball is the whole tree).
    """
    unbounded = not ball.frontier
    known = [steps if unbounded else max(0, min(steps, ball.radius - d)) for d in ball_depths(ball)]
    removed: list = [None] * ball.vertex_count
    for t, dead in _peel(ball.tree.adjacency, known, steps):
        for w in dead:
            removed[w] = t
    return removed, known


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
        start = self.oracle.root
        seen = {start}
        layer = [start]
        for depth in range(self.level + 1):
            for h in sorted_handles(layer):
                if self.survives(h):
                    return h
            if depth == self.level:
                break
            nxt = []
            for h in layer:
                for u in self.oracle.neighbors(h):
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            layer = nxt
        return None


def ball_code_sequence(oracle, radius: int, steps: int, max_vertices: int | None = None) -> list[bytes]:
    """Rooted canonical codes of the radius-r ball at the basepoint of each trim stage.

    Entry j describes the j-fold trimmed tree, rebased at its surviving
    basepoint. If some stage is empty its code is b"*" and the sequence ends.
    """
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

