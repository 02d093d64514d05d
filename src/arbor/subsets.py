"""Connected vertex subsets of a tree-like host: boundaries, connectivity, enumeration.

A host is anything with a ``neighbors(v)`` method. That covers finite trees,
explored balls of infinite trees, and the lazily evaluated fixtures. Boundary
here always means the inner boundary: members with at least one neighbor
outside the subset.

An enumeration ranges over the host's pool (``_pool``): a host with
``interior`` and ``sorted_interior``, as a Ball has, offers the interior; any
other host offers its ids 0..vertex_count-1. A pool vertex's neighbors
outside the pool still count toward its boundary. Every enumeration stops
with SearchTooLargeError past ``_GUARD`` units of work.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from .errors import SearchTooLargeError
from .trees import reach

__all__ = ["boundary_of", "connected_subsets", "random_connected_subset"]

_GUARD = 10**7  # units of work an enumeration may take: subset extensions, or subsets counted


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


def _pool(host) -> Sequence:
    """The vertices an enumeration may use, in increasing order; a vertex's index is its rank."""
    if hasattr(host, "interior"):
        return host.sorted_interior
    return list(range(host.vertex_count))


def _walk(host, max_size: int, pool: Sequence, guard: int) -> Iterator[tuple[list[int], int]]:
    """Every connected subset of 1..max_size pool vertices, with its inner-boundary size.

    Yields ``(sub, boundary_count)``, where ``sub`` lists the members' ranks
    in ``pool``; the list is reused, so copy it to keep it. The order is the
    ESU scheme (Wernicke 2006): each subset is anchored at its lowest rank
    and grown only through its newest member's exclusive neighbors, so none
    comes twice. ``inside[r]`` counts rank r's neighbors in the subset, which
    keeps both the exclusive-neighbor test and the boundary count at
    O(deg w) per step on any host. A member's neighbors are asked for once,
    when it first joins a subset. Each extension is one unit of work; past
    ``guard`` units, SearchTooLargeError.
    """
    rank = {v: i for i, v in enumerate(pool)}
    deg = [0] * len(pool)
    near: list = [None] * len(pool)  # near[r]: ranks of r's neighbors in the pool
    inside = [0] * len(pool)
    in_sub = [False] * len(pool)
    sub: list[int] = []
    bound = 0
    work = 0
    for anchor in range(len(pool)):
        exts = [[anchor]]  # exts[i]: candidates still to try as member i after sub[:i]
        while exts:
            ext = exts[-1]
            if not ext:
                exts.pop()
                if sub:  # its last member has no extension left: it leaves
                    w = sub.pop()
                    in_sub[w] = False
                    if inside[w] < deg[w]:
                        bound -= 1
                    for u in near[w]:
                        if in_sub[u] and inside[u] == deg[u]:
                            bound += 1
                        inside[u] -= 1
                continue
            w = ext.pop()
            if sub:
                work += 1
                if work > guard:
                    raise SearchTooLargeError(
                        f"connected-subset enumeration exceeded the work budget ({guard})"
                    )
            ns = near[w]
            if ns is None:
                hs = host.neighbors(pool[w])
                deg[w] = len(hs)
                ns = near[w] = [rank[u] for u in hs if u in rank]
            sub.append(w)
            in_sub[w] = True
            for u in ns:
                inside[u] += 1
                if in_sub[u] and inside[u] == deg[u]:
                    bound -= 1
            if inside[w] < deg[w]:
                bound += 1
            yield sub, bound
            if len(sub) < max_size:
                exts.append(ext + [u for u in ns if u > anchor and not in_sub[u] and inside[u] == 1])
            else:
                exts.append([])  # full size: the next step drops w again


def connected_subsets(host, max_size: int) -> Iterator[frozenset[int]]:
    """Enumerate every connected subset of 1..max_size pool vertices, each exactly once.

    Subsets are anchored at their smallest pool vertex and grown only
    through exclusive neighborhoods, so no subset is produced twice. Each
    vertex's count of neighbors inside the current subset is kept up to date
    as members join and leave, so no step rebuilds a neighborhood union.
    Past ``_GUARD`` extensions, SearchTooLargeError. Singletons alone
    (``max_size`` 1) ask the host for no neighbors.
    """
    pool = _pool(host)
    if max_size <= 1:
        yield from (frozenset((v,)) for v in pool)
        return
    for sub, _ in _walk(host, max_size, pool, _GUARD):
        yield frozenset(map(pool.__getitem__, sub))


def random_connected_subset(
    host,
    size: int,
    rng: random.Random,
    allowed: Iterable[int] | None = None,
) -> frozenset[int]:
    """Grow a random connected subset of about ``size`` vertices.

    The start is a uniform member of ``allowed`` when it is given, else of
    the host's pool, and growth never leaves that set. Growth picks a
    uniform candidate from the current neighbor pool, so this does not
    sample uniformly over all subsets; it is a cheap source of varied test
    inputs, nothing more. May return fewer vertices if growth gets stuck.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    if allowed is not None:
        allowed_set = set(allowed)
        if not allowed_set:
            raise ValueError("allowed must not be empty")
    else:
        allowed_set = getattr(host, "interior", None)  # never mutated below, so no copy
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
