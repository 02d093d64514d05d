"""Connected vertex subsets of a tree-like host: boundaries, connectivity, random growth.

For ``boundary_of`` and ``is_connected_in`` a host is anything with a
``neighbors(v)`` method. That covers finite trees, explored balls of
infinite trees, and the lazily evaluated fixtures. Boundary here always
means the inner boundary: members with at least one neighbor outside the
subset. ``random_connected_subset`` takes a Tree or an explored Ball and
reads its pool table, as the exact search over every connected subset,
``amenability.cheeger_exact``, does.
"""

from __future__ import annotations

import random
from typing import Iterable

from .exploration import _pool_table
from .trees import reach

__all__ = ["boundary_of", "random_connected_subset"]


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


def random_connected_subset(host, size: int, rng: random.Random) -> frozenset[int]:
    """Grow a random connected subset of about ``size`` vertices of a Tree or an explored Ball.

    The subset stays in the host's pool, a Ball's interior or all of a
    Tree's ids, read from its pool table (``exploration._pool_table``); any
    other host is a TypeError. The start is ``rng.randrange`` of the pool's
    size. Growth picks a uniform candidate from the current neighbor pool,
    so this does not sample uniformly over all subsets; it is a cheap
    source of varied test inputs, nothing more. May return fewer vertices
    if growth gets stuck. In a tree a vertex joins the candidates once, from
    its one neighbor in the subset, so no draw repeats a member. A radius-0
    ball's pool is empty, and its center raises IncompleteKnowledgeError
    before any draw.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    hoods = _pool_table(host)[0]
    if not hoods:
        host.neighbors(0)  # a radius-0 ball's center is on its frontier: IncompleteKnowledgeError
    start = rng.randrange(len(hoods))
    members = {start}
    pool = list(hoods[start])
    while len(members) < size and pool:
        i = rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        v = pool.pop()
        members.add(v)
        for u in hoods[v]:
            if u not in members:
                pool.append(u)
    return frozenset(members)
