"""Definition-level reference implementations used as test oracles.

Everything here is deliberately naive: straight from the definitions, no
shared code with the library beyond the Tree container (its constructor
and the accessors vertex_count, neighbors) and the SearchTooLargeError and
UnsupportedStructureError types, except where a former library function
kept here says what it calls. Slow is fine; these only run on small inputs.

Besides the definitions themselves, two property checks live here:
``edge_complement_is_connected``, the reference for the library's fast
inessential test, and ``leaf_iff_inessential_check``, which checks by
exhaustive search that a host with an outward branch has an inessential
subtree exactly when it has a leaf. ``relabel_tree`` permutes vertex ids,
for tests that a code or verdict does not depend on the labeling.
``star_tree``, ``random_graph`` and ``serialize_tree`` build small hosts
and tree files for the tests. ``collapse_q_by_exact_max`` and ``scan_witness_by_bfs`` are the
references for the dichotomy's collapse floor and witness scan, and
``peel_by_rescan``, which rescans every vertex every round, is the
reference for the library's leaf-removal loop ``trees.peel``.
``connected_subsets_by_closed_union`` is the library's former subset
enumeration, in the ESU order of ``cheeger_exact``'s fallback walk; tests
that need every connected subset of a small host list them with it. ``trim_depth_by_ball``
is the library's former per-vertex survival computation: it explores the
vertex's radius-k ball with the library's ``explore_ball``, whose budget it
keeps, and peels it with ``peel_by_rescan``. With ``lift_by_ball``, the
former subset lift built on it, it is the reference for the level chain of
``TrimmedView``. ``inessential_witnesses_by_parts`` is the library's former
witness scan of ``classify``, the reference for ``_inessential_witnesses``.
It is built from ``hanging_components``, the library's former description
of every component of the host minus a vertex as a ``HangingComponent``
(with the library's ``sorted_handles`` and ``reach_avoiding``, its former
capped walk), and from
``make_inessential`` and ``folner_from_inessential``, the library's former
witness constructors, each of which rechecks what it is given. An
inessential subtree is passed around as its members and its root, the one
member with an outside neighbor. ``generation_of`` and ``label_of`` are the library's
former labeling of a Galton-Watson sample's vertices by sibling tuples; read
on the sample cut at depth k by ``galton_watson._prefix``, the one cut
``GWSample.truncate_ball`` makes, they are the reference for the handles of
its depth-k ball. ``GeneratorDraws``
is the library's former subset-draw adapter over numpy's own
``Generator.integers``, the reference for the dichotomy's replayed draws.
``SubdividedRegularWithPaths`` is a host whose certificate bounds (k, d, R)
are known and none of them trivial, for the declared-bounds checks of
``classify``. ``degree3_bound_two_pass`` is the library's former degree-3
bound, which reads each member's neighbors once for its degree and again
through the library's ``boundary_of``; it is the reference for the one-pass
``_degree3_bound``. ``random_connected_subset_by_filter`` is the library's
former subset growth, which filters each neighbor list it reads against
``allowed`` or the host's interior; it is the reference for
``random_connected_subset``, which reads the pool table of a Tree or a Ball,
and it grows the subsets of acceptance test 06 inside a chosen set. ``sample_by_loop`` is the library's former ``sample``
loop, which reads each generation's size back from its list of sizes and
sums every generation's counts with numpy (with the library's ``_rng``, jump
constant and sampling table); it is the reference for ``sample``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from arbor import (
    FolnerCandidate,
    SearchTooLargeError,
    Tree,
    UnsupportedStructureError,
    boundary_of,
    explore_ball,
)
from arbor.galton_watson import _PCG_JUMP, GWSample, _rng
from arbor.trees import sorted_handles


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


def degree3_bound_two_pass(host, A: frozenset, exception_vertex) -> bool:
    """Whether |A| <= 2|boundary(A)|, with slack 2 when ``exception_vertex`` is in A; every member's degree first."""
    if not A:
        raise ValueError("empty subset")
    for v in A:
        d = len(host.neighbors(v))
        if v == exception_vertex:
            if d < 2:
                raise UnsupportedStructureError(f"exception vertex {v!r} has degree {d} < 2")
        elif d < 3:
            raise UnsupportedStructureError(f"member {v!r} has degree {d} < 3")
    slack = 2 if exception_vertex in A else 0
    return len(A) <= 2 * len(boundary_of(host, A)) + slack


def random_connected_subset_by_filter(host, size: int, rng, allowed=None) -> frozenset:
    """The library's former subset growth, which filters every neighbor list against the pool's limit as it reads it."""
    if size < 1:
        raise ValueError("size must be at least 1")
    if allowed is not None:
        allowed_set = set(allowed)
        if not allowed_set:
            raise ValueError("allowed must not be empty")
    else:
        allowed_set = getattr(host, "interior", None)  # never mutated below, so no copy
    if allowed_set:
        starts = sorted(allowed_set) if allowed is not None else host.sorted_interior
        start = starts[rng.randrange(len(starts))]  # rng.choice(starts), on an rng that offers only randrange
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


def cheeger_by_enumeration(t, max_size: int, allowed=None) -> tuple[Fraction, frozenset[int], int]:
    """The least ratio, its argmin and the number of connected subsets of 1..max_size vertices.

    Ties go to the smaller subset, then to the one whose sorted members'
    repr strings compare first.
    """
    subs = connected_subsets_by_filter(t, max_size, allowed)
    if not subs:
        raise ValueError("no subsets to enumerate")
    best = min(subs, key=lambda sub: (ratio(t, sub), len(sub), tuple(repr(m) for m in sorted(sub))))
    return ratio(t, best), best, len(subs)


def connected_subsets_by_closed_union(host, max_size: int, guard: int = 10**7):
    """The library's former connected-subset enumeration: every connected subset, in ESU order.

    The same ESU order, but each extension step rebuilds the closed
    neighborhood of the whole subset as a set union.
    """
    if hasattr(host, "interior"):
        pool = host.sorted_interior
    else:
        pool = list(range(host.vertex_count))
    allowed_set = set(pool)
    order = {v: i for i, v in enumerate(pool)}
    work = 0

    def extend(sub, ext, anchor_rank):
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


def peel_by_rescan(adj: list, known: list, steps: int):
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


def trim_depth_by_ball(oracle, v, k: int, max_vertices: int | None = None) -> int | None:
    """Removal step of v under iterated trimming, or None if v survives k rounds.

    Exact despite the unexplored outside: round t only needs round t-1
    verdicts within distance k-t of v, and those in turn never look past the
    radius-k ball. Steps are 1-based. Raises BudgetExhaustedError when the
    ball needs more than max_vertices vertices.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return None
    ball = explore_ball(oracle, k, center=v, max_vertices=max_vertices)
    known = [k - d for d in ball.depths]
    for t, dead in peel_by_rescan(ball.tree.adjacency, known, k):
        if 0 in dead:
            return t
    return None


def reach_avoiding(neighbors, start, avoid, cap=None) -> list | None:
    """The library's former capped walk: vertices reachable from ``start`` without stepping onto ``avoid``.

    Breadth-first with ``start`` first, neighbors in the order ``neighbors(v)``
    lists them. With ``cap``, None as soon as more than ``cap`` vertices are
    found (``start`` alone never counts as exceeding it).
    """
    order = [start]
    seen = {start, avoid}
    for v in order:
        for u in neighbors(v):
            if u in seen:
                continue
            seen.add(u)
            order.append(u)
            if cap is not None and len(order) > cap:
                return None
    return order


@dataclass(frozen=True)
class HangingComponent:
    """One component of host minus a vertex, as seen from that vertex."""

    attach: object
    status: str  # finite | infinite | unknown
    size: int | None
    members: frozenset | None


def hanging_components(oracle, r, max_vertices: int = 2000) -> list[HangingComponent]:
    """Classify each component of host - r as finite (with members), infinite, or unknown.

    A host with ``hanging_component_sizes`` names r's neighbors and their
    component sizes in one call, and each finite component within
    max_vertices is walked to collect its members; a walk that disagrees
    with the claimed size raises UnsupportedStructureError. Any other host
    has each component walked up to max_vertices, and 'unknown' is an honest
    budget verdict, never a guess.
    """
    sizes_of = getattr(oracle, "hanging_component_sizes", None)
    sizes = sizes_of(r) if sizes_of is not None else dict.fromkeys(oracle.neighbors(r))
    out = []
    for u in sorted_handles(sizes):
        s = sizes[u]
        if s == math.inf:
            out.append(HangingComponent(u, "infinite", None, None))
        elif s is not None and s > max_vertices:
            out.append(HangingComponent(u, "finite", int(s), None))
        else:
            comp = reach_avoiding(oracle.neighbors, u, r, max_vertices)
            if s is not None and (comp is None or len(comp) != s):
                walked = f"more than {max_vertices}" if comp is None else len(comp)
                raise UnsupportedStructureError(
                    f"the host claims the component of {u!r} in the tree minus {r!r} has {s} vertices, "
                    f"but a walk finds {walked}"
                )
            if comp is None:
                out.append(HangingComponent(u, "unknown", None, None))
            else:
                out.append(HangingComponent(u, "finite", len(comp), frozenset(comp)))
    return out


def make_inessential(host, members) -> tuple[frozenset, object]:
    """The members of an inessential subtree and its root, the one member with an outside neighbor."""
    mem = frozenset(members)
    if len(mem) < 2:
        raise ValueError("an inessential subtree needs at least one edge (two vertices)")
    if not is_connected_subset(host, mem):
        raise ValueError("the members are not connected")
    touching = boundary(host, mem)
    if len(touching) != 1:
        raise ValueError(f"{len(touching)} members have an outside neighbor, not one")
    (root,) = touching
    return mem, root


def folner_from_inessential(host, members, root) -> FolnerCandidate:
    """The inessential subtree minus its root, whose only outside contact is the root."""
    rest = members - {root}
    detail = {"root": root, "subtree_size": len(members)}
    return FolnerCandidate(rest, frozenset(boundary(host, rest)), "inessential-minus-root", detail)


def inessential_witnesses_by_parts(oracle, ball, budgets, scan_limit: int):
    """The witness candidates classify's scan finds, by the public pieces.

    Also counts the components too large to walk (``"unwalked"``) and the
    union witnesses formed when some component was left unwalked (``"union"``).
    """
    scan = ball.sorted_interior
    if not hasattr(oracle, "hanging_component_sizes"):
        scan = scan[:scan_limit]
    candidates = []
    counts = {"unwalked": 0, "union": 0}
    for v in scan:
        r = ball.handle_of(v)
        if len(oracle.neighbors(r)) < 2:
            continue
        comps = hanging_components(oracle, r, budgets.component_budget)
        counts["unwalked"] += sum(1 for c in comps if c.status == "finite" and c.members is None)
        walked = [c for c in comps if c.members is not None]
        pieces = [{r} | c.members for c in walked]
        if len(pieces) >= 2 and len(walked) < len(comps):
            counts["union"] += 1
            pieces.append({r}.union(*pieces))
        for members in pieces:
            candidates.append(folner_from_inessential(oracle, *make_inessential(oracle, members)))
    return candidates, counts


def lift_by_ball(oracle, members, k: int) -> frozenset:
    """Pull a subset of the k-fold trim back to the host: at round j = k..1, add
    every outside neighbor of the set that trim_depth_by_ball removes at step j."""
    cur = set(members)
    for j in range(k, 0, -1):
        cur |= {
            u for v in cur for u in oracle.neighbors(v)
            if u not in cur and trim_depth_by_ball(oracle, u, j) == j
        }
    return frozenset(cur)


def removal_step(stages: list[set[int]], v: int) -> int | None:
    """First stage index at which v is gone, or None if v survives forever."""
    for j, stage in enumerate(stages):
        if v not in stage:
            return j
    return None if stages[-1] == stages[-2] else len(stages)


def ahu_rooted(t, root: int) -> str:
    """Recursive AHU string code; compares equal exactly for rooted isomorphs."""

    def enc(v: int, parent: int) -> str:
        subs = sorted(enc(u, v) for u in t.neighbors(v) if u != parent)
        return "(" + "".join(subs) + ")"

    return enc(root, -1)


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


def random_graph(rng, n: int, extra_edges: int) -> SimpleNamespace:
    """A connected host with cycles: a random tree on n vertices plus up to extra_edges more edges."""
    adj = [set() for _ in range(n)]
    edges = random_tree_edges(rng, n) + [tuple(rng.sample(range(n), 2)) for _ in range(extra_edges)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    adjacency = [tuple(sorted(ns)) for ns in adj]
    return SimpleNamespace(neighbors=adjacency.__getitem__, vertex_count=n)


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


def star_tree(leaf_count: int) -> Tree:
    """One center (vertex 0) joined to leaves 1..leaf_count."""
    return Tree([list(range(1, leaf_count + 1))] + [[0]] * leaf_count)


def serialize_tree(t) -> str:
    """The edge-list file format: an optional ``root <id>`` line, then one ``u v`` line per edge."""
    if t.root is None and t.vertex_count == 1:
        # The format names vertices only through edges or the root line.
        raise ValueError("an unrooted single-vertex tree has no edge-list form")
    lines = [f"root {t.root}"] if t.root is not None else []
    lines.extend(f"{v} {u}" for v in range(t.vertex_count) for u in t.neighbors(v) if u > v)
    return "\n".join(lines) + "\n"


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


def collapse_q_by_exact_max(spec, d: int) -> float:
    """The collapse-floor q: the max over s of the exact complete s-ary event probability, as a float."""
    from arbor import event_sary_prob

    q = 0.0
    for s in range(1, spec.max_children + 1):
        if spec.p(s) > 0 and spec.p(0) > 0:
            q = max(q, float(event_sary_prob(spec, s, d)))
    return q


def scan_witness_by_bfs(t, last_generation: int, n: int) -> tuple[Fraction | None, str]:
    """The witness scan from plain BFS depths of a sampled tree rooted at t.root.

    Vertices at depth last_generation have undrawn children. Candidates are
    listed kind by kind (dead subtrees, single-child runs, the depth n-1
    ball) and the first smallest ratio wins.
    """
    depth = bfs_distances(t, t.root)
    parent = {v: u for v in depth for u in t.neighbors(v) if depth[u] == depth[v] - 1}
    children = {v: [u for u in t.neighbors(v) if depth[u] == depth[v] + 1] for v in depth}

    def subtree(v):
        out, stack = [], [v]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(children[u])
        return out

    def alive(v):
        return any(depth[u] == last_generation for u in subtree(v))

    candidates = []
    for v in sorted(depth):
        if 1 <= depth[v] < last_generation and not alive(v) and alive(parent[v]):
            candidates.append((ratio(t, subtree(v)), "dead-subtree"))
    for v in sorted(depth):
        if depth[v] >= last_generation:
            continue
        chain = []
        u = v
        while u is not None and len(children[u]) == 1:
            chain.append(u)
            u = parent.get(u)
        if chain:
            candidates.append((Fraction(2, len(chain)), "single-child-run"))
            if u is None:  # the run reaches the root: only its lower end has a neighbor outside
                candidates.append((ratio(t, chain), "single-child-run"))
    if last_generation >= n and any(depth[v] == n for v in depth):
        candidates.append((ratio(t, [v for v in depth if depth[v] < n]), "shallow-ball"))
    if not candidates:
        return None, ""
    low = min(r for r, _ in candidates)
    return next(c for c in candidates if c[0] == low)


def sample_by_loop(spec, seed: int, max_generation: int, max_vertices=None, trial: int = 0, attempt=None) -> GWSample:
    """sample() as the library drew it before: the stream and budget rules, with no shortcut."""
    rng = _rng(seed, (trial,) if attempt is None else (trial, attempt))
    counts = []
    sizes = [1]
    total = 1
    budget_hit = False
    for gen in range(max_generation):
        width = sizes[-1]
        if width == 0:
            break
        if gen:
            rng.bit_generator.advance(_PCG_JUMP - sizes[-2])  # generation gen - 1 drew sizes[-2] doubles
        c = spec._cum_table.searchsorted(rng.random(width), side="right")
        nxt = int(c.sum())
        total += nxt
        if max_vertices is not None and total > max_vertices:
            budget_hit = True
            break
        counts.append(c)
        sizes.append(nxt)
    return GWSample(spec, seed, trial, tuple(counts), budget_hit)


def generation_of(smp, index: int) -> int:
    """The generation of vertex ``index`` of a Galton-Watson sample, whose vertices are numbered breadth-first."""
    first = 0
    for g, width in enumerate(smp.generation_sizes):
        if first <= index < first + width:
            return g
        first += width
    raise ValueError(f"vertex {index} is out of range")


def label_of(smp, index: int) -> tuple:
    """Vertex ``index``'s 1-based sibling tuple: the root is (), and child j of a vertex labeled L is L + (j,)."""
    g = generation_of(smp, index)
    pos = index - sum(smp.generation_sizes[:g])
    parts = []
    while g > 0:
        counts = [int(c) for c in smp.counts[g - 1]]
        parent = 0
        while pos >= counts[parent]:  # the children of earlier parents come first
            pos -= counts[parent]
            parent += 1
        parts.append(pos + 1)
        pos, g = parent, g - 1
    return tuple(reversed(parts))


class GeneratorDraws:
    """Just enough of the random.Random surface for subset drawing, from numpy's own Generator.integers."""

    def __init__(self, seed: int, spawn_key: tuple):
        self.g = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=spawn_key)))

    def randrange(self, n: int) -> int:
        return int(self.g.integers(n))


class SubdividedRegularWithPaths:
    """regular(b) with every edge subdivided by c vertices and a path of m vertices hung at every branch vertex.

    Handles are triples. ("v", h, 0) is the branch vertex at the regular(b)
    fixture's handle h; ("e", h, j), 1 <= j <= c, is the j-th vertex down
    the edge from ("v", h[:-1], 0) to ("v", h, 0); ("p", h, j), 1 <= j <= m,
    is the j-th vertex of the path hung at ("v", h, 0), a leaf at j = m.
    Trimming eats the paths one vertex a round, so the tree is leafless
    after k = m rounds; the subdivided regular(b) left has branchless
    chains of c vertices, so d = max(c, 1); and the largest inessential
    subtree is a branch vertex with its path, R = m + 1 vertices.
    """

    def __init__(self, b: int, c: int, m: int):
        self.b, self.c, self.m = b, c, m
        self.root = ("v", (), 0)

    @property
    def bounds(self) -> tuple:
        return self.m, max(self.c, 1), self.m + 1

    def _edge_end(self, h, j):
        """Vertex j of the edge down to ("v", h, 0), where 0 is its top branch vertex and c + 1 its bottom one."""
        if j == 0:
            return ("v", h[:-1], 0)
        return ("v", h, 0) if j == self.c + 1 else ("e", h, j)

    def neighbors(self, x):
        kind, h, j = x
        if kind == "v":
            out = [self._edge_end(h, self.c)] if h else []
            out += [self._edge_end(h + (i,), 1) for i in range(self.b if not h else self.b - 1)]
            if self.m:
                out.append(("p", h, 1))
            return tuple(out)
        if kind == "e":
            return self._edge_end(h, j - 1), self._edge_end(h, j + 1)
        up = ("v", h, 0) if j == 1 else ("p", h, j - 1)
        return (up, ("p", h, j + 1)) if j < self.m else (up,)

    def hanging_component_sizes(self, r) -> dict:
        """Each neighbor u of r mapped to the size of u's component in the tree minus r: a path's rest, or infinite."""
        kind, h, j = r
        sizes = dict.fromkeys(self.neighbors(r), math.inf)
        if kind != "e" and j < self.m:
            sizes[("p", h, j + 1)] = self.m - j  # a branch vertex has j = 0
        return sizes
