"""Definition-level reference implementations used as test oracles.

Everything here is deliberately naive: straight from the definitions, no
shared code with the library beyond the Tree container (its constructor
and the accessors vertex_count, neighbors). Slow is fine; these only run
on small inputs.

Besides the definitions themselves, two property checks live here:
``edge_complement_is_connected``, the reference for the library's fast
inessential test, and ``leaf_iff_inessential_check``, which checks by
exhaustive search that a host with an outward branch has an inessential
subtree exactly when it has a leaf. ``relabel_tree`` permutes vertex ids,
for tests that a code or verdict does not depend on the labeling.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

from arbor import Tree


def bfs_distances(t, start: int) -> dict[int, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in t.neighbors(v):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def is_connected_subset(t, members) -> bool:
    mem = set(members)
    if not mem:
        return False
    start = next(iter(mem))
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in t.neighbors(v):
            if u in mem and u not in seen:
                seen.add(u)
                queue.append(u)
    return seen == mem


def boundary(t, members) -> set[int]:
    """Members with at least one neighbor outside, straight from the definition."""
    mem = set(members)
    return {v for v in mem if any(u not in mem for u in t.neighbors(v))}


def ratio(t, members) -> Fraction:
    mem = set(members)
    return Fraction(len(boundary(t, mem)), len(mem))


def connected_subsets_by_filter(t, max_size: int, allowed=None) -> set[frozenset[int]]:
    """All connected subsets of 1..max_size vertices, by filtering every combination."""
    pool = sorted(allowed) if allowed is not None else list(range(t.vertex_count))
    found = set()
    for k in range(1, max_size + 1):
        for combo in itertools.combinations(pool, k):
            if is_connected_subset(t, combo):
                found.add(frozenset(combo))
    return found


def cheeger_by_enumeration(t, max_size: int, allowed=None) -> Fraction:
    best = None
    for sub in connected_subsets_by_filter(t, max_size, allowed):
        r = ratio(t, sub)
        if best is None or r < best:
            best = r
    if best is None:
        raise ValueError("no subsets to enumerate")
    return best


def inessential_by_components(t, members) -> bool:
    """Third implementation: drop the subtree's internal edges, union-find the
    rest, and ask whether all non-member vertices land in one component."""
    mem = set(members)
    parent = list(range(t.vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for v in range(t.vertex_count):
        for u in t.neighbors(v):
            if u < v or (u in mem and v in mem):
                continue
            parent[find(u)] = find(v)
    outside_roots = {find(v) for v in range(t.vertex_count) if v not in mem}
    return len(outside_roots) == 1


def edge_complement_is_connected(t, sub_members) -> bool:
    """Whether the graph formed by the edges outside a subtree is connected.

    The subtree must be connected with at least one edge, and ``t`` must have
    at least one edge outside it.
    """
    sub = set(sub_members)
    if len(sub) < 2 or not is_connected_subset(t, sub):
        raise ValueError("the subtree must be connected and have at least one edge")
    rest: dict[int, list[int]] = {}
    for v in range(t.vertex_count):
        for u in t.neighbors(v):
            if u not in sub or v not in sub:
                rest.setdefault(v, []).append(u)
    if not rest:
        raise ValueError("the host has no edges outside the subtree")
    return is_connected_subset(SimpleNamespace(neighbors=rest.__getitem__), rest)


def leaf_iff_inessential_check(t, exterior: int) -> bool:
    """Whether "has a leaf" and "has an inessential subtree" agree on ``t``.

    ``t`` is treated as if an infinite branch continued from ``exterior``, so
    that vertex is never a leaf and always touches the outside. A subtree is
    inessential when exactly one of its (at least two) members touches the
    outside.
    """
    has_leaf = any(len(t.neighbors(v)) == 1 and v != exterior for v in range(t.vertex_count))
    has_inessential = any(
        len(sub) >= 2
        and sum(1 for v in sub if v == exterior or any(u not in sub for u in t.neighbors(v))) == 1
        for sub in connected_subsets_by_filter(t, t.vertex_count)
    )
    return has_leaf == has_inessential


def trim_stages(t) -> list[set[int]]:
    """Vertex sets surviving each trim, by rebuilding degrees stage by stage.

    The list starts with the full vertex set and ends either with a repeated
    stage (stabilized) or an empty set (extinct).
    """
    alive = set(range(t.vertex_count))
    stages = [set(alive)]
    while alive:
        deg = {v: sum(1 for u in t.neighbors(v) if u in alive) for v in alive}
        if len(alive) == 1:
            nxt = set(alive)
        else:
            nxt = {v for v in alive if deg[v] >= 2}
        stages.append(set(nxt))
        if nxt == alive:
            break
        alive = nxt
    return stages


def removal_step(stages: list[set[int]], v: int) -> int | None:
    """First stage index at which v is gone, or None if v survives forever."""
    for j, stage in enumerate(stages):
        if v not in stage:
            return j
    return None if stages[-1] == stages[-2] else len(stages)


def eccentricity_centers(t) -> set[int]:
    ecc = {}
    for v in range(t.vertex_count):
        ecc[v] = max(bfs_distances(t, v).values())
    low = min(ecc.values())
    return {v for v, e in ecc.items() if e == low}


def ahu_rooted(t, root: int) -> str:
    """Recursive AHU string code; compares equal exactly for rooted isomorphs."""

    def enc(v: int, parent: int) -> str:
        subs = sorted(enc(u, v) for u in t.neighbors(v) if u != parent)
        return "(" + "".join(subs) + ")"

    return enc(root, -1)


def ahu_unrooted(t) -> str:
    return min(ahu_rooted(t, c) for c in eccentricity_centers(t))


def random_tree_edges(rng, n: int) -> list[tuple[int, int]]:
    """Uniform labeled tree on n vertices via a Pruefer sequence."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    deg = [1] * n
    for x in seq:
        deg[x] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        v = heapq.heappop(leaves)
        edges.append((v, x))
        deg[x] -= 1
        if deg[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def relabel_tree(t, permutation) -> Tree:
    """Apply ``permutation`` (new id at position old id) to vertices."""
    perm = list(permutation)
    if sorted(perm) != list(range(t.vertex_count)):
        raise ValueError("not a permutation of the vertex ids")
    adj: list[list[int]] = [[] for _ in range(t.vertex_count)]
    for v, ns in enumerate(t.adjacency):
        adj[perm[v]] = [perm[u] for u in ns]
    root = perm[t.root] if t.root is not None else None
    return Tree(adj, root=root)


def gw_event_prob_by_enumeration(probs, depth: int, predicate, max_outcomes: int = 10**6) -> Fraction:
    """Total probability of an event on the first `depth` generations.

    probs maps child count -> Fraction. Outcomes are per-generation tuples of
    per-vertex child counts, mirroring what sampling stores: generations are
    listed while nonempty and the horizon is not reached. The predicate sees
    the outcome as a list of tuples.
    """
    support = [(k, p) for k, p in sorted(probs.items()) if p > 0]
    total = Fraction(0)
    seen = 0

    def rec(gens: list[tuple[int, ...]], width: int, prob: Fraction):
        nonlocal total, seen
        if width == 0 or len(gens) == depth:
            seen += 1
            if seen > max_outcomes:
                raise ValueError("enumeration too large; shrink depth or support")
            if predicate(gens):
                total += prob
            return
        for combo in itertools.product(support, repeat=width):
            counts = tuple(k for k, _ in combo)
            p = prob
            for _, pk in combo:
                p *= pk
            rec(gens + [counts], sum(counts), p)

    rec([], 1, Fraction(1))
    return total


def path_event_predicate(d: int):
    def check(gens: list[tuple[int, ...]]) -> bool:
        return len(gens) == d + 1 and all(g == (1,) for g in gens)

    return check


def sary_event_predicate(s: int, d: int):
    def check(gens: list[tuple[int, ...]]) -> bool:
        if len(gens) != d + 1:
            return False
        if any(any(c != s for c in gens[i]) for i in range(d)):
            return False
        return all(c == 0 for c in gens[d])

    return check
