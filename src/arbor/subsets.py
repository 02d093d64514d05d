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

from .exploration import Ball
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


class _Hoods(dict):
    """A host's neighbor lists, kept to ``keep`` when it is not None, each asked of the host on its first read."""

    __slots__ = ("neighbors", "keep")

    def __init__(self, neighbors, keep):
        self.neighbors = neighbors
        self.keep = keep

    def __missing__(self, v):
        ns = self.neighbors(v)
        if self.keep is not None:
            ns = [u for u in ns if u in self.keep]
        self[v] = ns
        return ns


def random_connected_subset(
    host,
    size: int,
    rng: random.Random,
    allowed: Iterable[int] | None = None,
) -> frozenset[int]:
    """Grow a random connected subset of about ``size`` vertices.

    The start is a uniform member of ``allowed`` when it is given, else of
    the host's interior when it offers a nonempty one, as a Ball does, else
    of its ids 0..vertex_count-1. Growth never leaves ``allowed`` or the
    interior. Growth picks a uniform candidate from the current neighbor
    pool, so this does not sample uniformly over all subsets; it is a cheap
    source of varied test inputs, nothing more. May return fewer vertices
    if growth gets stuck.

    A Ball's growth reads the table of interior neighbors the ball keeps.
    Any other host is asked for a vertex's neighbors at most once per call,
    when the vertex joins the subset.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    if allowed is None and type(host) is Ball and host._inner:  # a subclass may answer neighbors its own way
        hoods, starts = host._interior_hoods(), host.sorted_interior
    else:
        if allowed is not None:
            keep = set(allowed)
            if not keep:
                raise ValueError("allowed must not be empty")
            starts = sorted(keep)
        else:
            keep = getattr(host, "interior", None)  # never mutated below, so no copy
            starts = host.sorted_interior if keep else None
        hoods = _Hoods(host.neighbors, keep)
    start = rng.choice(starts) if starts is not None else rng.randrange(host.vertex_count)
    members = {start}
    pool = list(hoods[start])
    while len(members) < size and pool:
        i = rng.randrange(len(pool))
        pool[i], pool[-1] = pool[-1], pool[i]
        v = pool.pop()
        if v in members:
            continue
        members.add(v)
        for u in hoods[v]:
            if u not in members:
                pool.append(u)
    return frozenset(members)
