"""Connected vertex subsets of a tree-like host: boundaries, ratios, enumeration.

A host is anything with a ``neighbors(v)`` method. That covers finite trees,
explored balls of infinite trees, and the lazily evaluated fixtures. Boundary
here always means the inner boundary: members with at least one neighbor
outside the subset.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import InvalidVertexError, SearchTooLargeError
from .trees import reach

__all__ = [
    "SubsetSelection",
    "boundary_of",
    "is_connected_in",
    "connected_subsets",
    "random_connected_subset",
]


def boundary_of(host, members: Iterable[int]) -> frozenset[int]:
    """Members with at least one neighbor outside the subset."""
    mem = frozenset(members)
    out = set()
    for v in mem:
        for u in host.neighbors(v):
            if u not in mem:
                out.add(v)
                break
    return frozenset(out)


def is_connected_in(host, members: Iterable[int]) -> bool:
    mem = frozenset(members)
    return bool(mem) and len(reach(host.neighbors, next(iter(mem)), within=mem)) == len(mem)


class SubsetSelection:
    """A nonempty vertex subset of a host, with cached boundary data.

    The boundary and ratio are computed on demand. For partially explored
    hosts the neighbor lookups may raise IncompleteKnowledgeError; that
    propagates, by design, rather than silently producing a wrong boundary.
    """

    __slots__ = ("host", "members", "_connected", "_boundary")

    def __init__(self, host, members: Iterable):
        mem = frozenset(members)
        if not mem:
            raise ValueError("empty subset")
        n = getattr(host, "vertex_count", None)
        if n is not None:
            for v in mem:
                try:
                    in_range = 0 <= v < n
                except TypeError:
                    in_range = False
                if not in_range:
                    raise InvalidVertexError(f"vertex {v!r} is out of range")
        self.host = host
        self.members = mem
        self._connected: bool | None = None
        self._boundary: frozenset[int] | None = None

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = is_connected_in(self.host, self.members)
        return self._connected

    @property
    def boundary(self) -> frozenset[int]:
        if self._boundary is None:
            self._boundary = boundary_of(self.host, self.members)
        return self._boundary

    @property
    def ratio(self) -> Fraction:
        """Exact isoperimetric ratio |boundary| / |members|."""
        return Fraction(len(self.boundary), len(self.members))

    def __repr__(self) -> str:
        return f"SubsetSelection({len(self.members)} members)"


def connected_subsets(
    host,
    max_size: int,
    allowed: Iterable[int] | None = None,
    guard: int = 10**7,
) -> Iterator[frozenset[int]]:
    """Enumerate every connected subset of 1..max_size vertices, each exactly once.

    Subsets are anchored at their smallest allowed vertex and grown only
    through exclusive neighborhoods, so no subset is produced twice. The
    ``guard`` caps total extension work; past it, SearchTooLargeError.
    """
    if allowed is None:
        if hasattr(host, "interior"):
            pool = host.sorted_interior
        else:
            pool = list(range(host.vertex_count))
    else:
        pool = sorted(set(allowed))
    allowed_set = set(pool)
    order = {v: i for i, v in enumerate(pool)}
    work = 0

    def extend(sub: list[int], ext: list[int], anchor_rank: int) -> Iterator[frozenset[int]]:
        nonlocal work
        while ext:
            w = ext.pop()
            work += 1
            if work > guard:
                raise SearchTooLargeError(
                    f"connected-subset enumeration exceeded the work budget ({guard})"
                )
            new_sub = sub + [w]
            yield frozenset(new_sub)
            if len(new_sub) < max_size:
                in_sub = set(new_sub)
                closed = in_sub.union(*(host.neighbors(x) for x in sub)) if sub else in_sub
                new_ext = [u for u in ext]
                for u in host.neighbors(w):
                    if u in allowed_set and u not in closed and order[u] > anchor_rank:
                        new_ext.append(u)
                yield from extend(new_sub, new_ext, anchor_rank)

    for v in pool:
        yield frozenset((v,))
        if max_size > 1:
            rank = order[v]
            ext = [u for u in host.neighbors(v) if u in allowed_set and order[u] > rank]
            yield from extend([v], ext, rank)


def random_connected_subset(
    host,
    size: int,
    rng: random.Random,
    start: int | None = None,
    allowed: Iterable[int] | None = None,
) -> frozenset[int]:
    """Grow a random connected subset of about ``size`` vertices.

    Growth picks a uniform candidate from the current neighbor pool, so this
    does not sample uniformly over all subsets; it is a cheap source of varied
    test inputs, nothing more. May return fewer vertices if growth gets stuck.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    if allowed is not None:
        allowed_set = set(allowed)
        if not allowed_set:
            raise ValueError("allowed must not be empty")
    else:
        allowed_set = getattr(host, "interior", None)  # never mutated below, so no copy
    if start is None:
        if allowed_set:
            start = rng.choice(sorted(allowed_set) if allowed is not None else host.sorted_interior)
        else:
            start = rng.randrange(host.vertex_count)
    members = {start}
    pool = [u for u in host.neighbors(start) if allowed_set is None or u in allowed_set]
    while len(members) < size and pool:
        i = rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        v = pool.pop()
        if v in members:
            continue
        members.add(v)
        for u in host.neighbors(v):
            if u not in members and (allowed_set is None or u in allowed_set):
                pool.append(u)
    return frozenset(members)
