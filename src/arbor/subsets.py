"""Connected vertex subsets of a tree-like host: boundaries, connectivity, random growth.

A host is anything with a ``neighbors(v)`` method. That covers finite trees,
explored balls of infinite trees, and the lazily evaluated fixtures. Boundary
here always means the inner boundary: members with at least one neighbor
outside the subset. The exact search over every connected subset lives with
its one reader, ``amenability.cheeger_exact``.
"""

from __future__ import annotations

import random
from typing import Iterable

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


def random_connected_subset(
    host,
    size: int,
    rng: random.Random,
    allowed: Iterable[int] | None = None,
) -> frozenset[int]:
    """Grow a random connected subset of about ``size`` vertices.

    The start is a uniform member of ``allowed`` when it is given, else of
    the host's interior when it offers one, as a Ball does, else of its ids
    0..vertex_count-1. Growth never leaves ``allowed`` or the interior. Growth picks a
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
