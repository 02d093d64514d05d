"""Isoperimetric ratios, witness search, and the amenability classifier.

Everything here works with exact rationals. A witness is a finite connected
subset with a small boundary-to-size ratio; a certificate is a declared set
of global structure bounds that, if true, force the ratio of every finite
subset away from zero. The classifier emits one or the other and refuses to
guess: when neither is in reach within budget, the verdict is inconclusive.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby, islice
from types import SimpleNamespace
from typing import Iterable, Sequence

from .errors import (
    DeclaredBoundsRefutedError,
    DegenerateImageError,
    NoBranchStructureError,
    SearchTooLargeError,
    UnsupportedStructureError,
)
from .exploration import Ball, explore_ball
from .subsets import SubsetSelection, _pool, _walk, boundary_of, is_connected_in
from .trees import Tree, bfs_layers, reach, sorted_handles
from .trimming import (
    InessentialSubtree,
    TrimmedView,
    hanging_components,
    lift_subset_through_trims,
    removal_steps_in_ball,
)

log = logging.getLogger("arbor.amenability")

__all__ = [
    "FolnerCandidate",
    "CheegerResult",
    "cheeger_exact",
    "ContractionResult",
    "contract_branchless",
    "SandwichResult",
    "sandwich_check",
    "min_degree3_bound_check",
    "DeclaredBounds",
    "ClassifyBudgets",
    "AmenabilityReport",
    "classify",
    "jsonable",
]


def jsonable(x):
    """Render handles, fractions, and containers as JSON-safe values."""
    # Primitives and tuples first: they make up handles, and the Fraction
    # check goes through ABCMeta, which costs more than these.
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if isinstance(x, (tuple, list)):
        return [jsonable(i) for i in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (set, frozenset)):
        return [jsonable(i) for i in sorted_handles(x)]
    if isinstance(x, dict):
        return {str(k): jsonable(v) for k, v in x.items()}
    if hasattr(x, "item"):
        return x.item()
    return repr(x)


@dataclass(frozen=True)
class FolnerCandidate:
    """A finite connected subset offered as (part of) an amenability witness."""

    selection: SubsetSelection
    provenance: str  # branchless-path | inessential-minus-root | enumerated | user
    detail: dict = field(default_factory=dict, compare=False)

    @property
    def members(self) -> frozenset:
        return self.selection.members

    @property
    def ratio(self) -> Fraction:
        return self.selection.ratio

    @property
    def size(self) -> int:
        return self.selection.size

    def to_json(self) -> dict:
        return {
            "members": jsonable(self.members),
            "size": self.size,
            "boundary_size": len(self.selection.boundary),
            "ratio": str(self.ratio),
            "provenance": self.provenance,
            "detail": jsonable(self.detail),
        }


@dataclass(frozen=True)
class CheegerResult:
    value: Fraction
    argmin: FolnerCandidate
    scope: dict

    def to_json(self) -> dict:
        return {
            "value": str(self.value),
            "argmin": self.argmin.to_json(),
            "scope": jsonable(self.scope),
        }


def cheeger_exact(host, max_size: int, region: Iterable | None = None, guard: int = 10**7) -> CheegerResult:
    """Exact minimum boundary ratio over all connected subsets of at most max_size vertices.

    The subsets range over the pool: ``region`` when given, else a Ball's
    interior or a finite host's vertices. Each pool vertex is asked for its
    neighbors once, up front, and the argmin's boundary is read off those
    lists too. When the pool spans a forest, a subtree knapsack (the
    k-cardinality tree DP) gives the least boundary count and the number of
    connected subsets at every size, topped at each vertex;
    ``scope["subsets_enumerated"]`` is the sum of those numbers. Otherwise,
    or when the ties for the minimum are too many to list, the ESU walk
    visits every subset. Either way SearchTooLargeError is raised once more
    than ``guard`` subsets have two or more members.

    For an infinite host explored through a Ball this is a certified upper
    bound on the true infimum, since every boundary counted is exact.
    Ties go to the smaller subset, then to the one whose sorted members'
    ``repr`` strings compare first, so {10} comes before {9}.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    pool = _pool(host, region)
    if not pool:
        raise ValueError("no admissible subsets: the search region is empty")
    hoods = [host.neighbors(v) for v in pool]
    hood = dict(zip(pool, hoods))
    least = _least_by_knapsack(pool, hoods, max_size, guard)
    if least is None:  # a cycle, or too many optima to list
        least = _least_by_walk(SimpleNamespace(neighbors=hood.__getitem__), max_size, pool, guard)
    best, best_b, best_k, count = least
    members = frozenset(best)
    boundary = frozenset(v for v in members if not members.issuperset(hood[v]))
    argmin = FolnerCandidate(SubsetSelection._known(host, members, boundary), "enumerated")
    scope = {"max_size": max_size, "subsets_enumerated": count}
    if region is not None:
        scope["region_size"] = len(pool)
    return CheegerResult(Fraction(best_b, best_k), argmin, scope)


def _least_by_walk(host, max_size: int, pool: Sequence, guard: int) -> tuple:
    """The best subset's members, boundary count and size, and the subset count, from the ESU walk."""
    best = None  # members of the best subset so far, with its boundary count and size
    best_b = best_k = 0
    best_tag = None  # its repr tie-break key, built on the first tie
    count = 0
    for sub, b in _walk(host, max_size, pool, guard):
        count += 1
        k = len(sub)
        if best is not None:
            # b/k against best_b/best_k, as integer cross-products
            cmp = b * best_k - best_b * k
            if cmp > 0 or (cmp == 0 and k > best_k):
                continue
            if cmp == 0 and k == best_k:
                members = [pool[r] for r in sub]
                tag = tuple(repr(m) for m in sorted_handles(members))
                if best_tag is None:
                    best_tag = tuple(repr(m) for m in sorted_handles(best))
                if tag >= best_tag:
                    continue
                best, best_tag = members, tag
                continue
        best, best_b, best_k, best_tag = [pool[r] for r in sub], b, k, None
    return best, best_b, best_k, count


_NONE = 1 << 62  # the cost of a size no subset reaches; above every boundary count


def _least_by_knapsack(pool: Sequence, hoods: list, max_size: int, guard: int) -> tuple | None:
    """``_least_by_walk``'s answer from a subtree knapsack, or None on a cycle or too many optima.

    Each component of the pool is rooted at its lowest rank, and vertices
    are renumbered in reverse breadth-first order, so each comes after its
    children. A connected subset S of a forest has one top vertex, below
    which each member takes some of its pool children. A member is on S's
    boundary when it has a host neighbor outside the pool, a pool child
    outside S, or a parent outside S. Each vertex v keeps per size k (at
    most ``max_size``):

    - ``trail[v][i]``: after merging its first i children, the least count
      of boundary members below v, as a pair of lists by size: every child
      so far taken (flag 0), or some child left out (flag 1);
    - ``up[v]``: that count resolved for v itself, with v's parent in S;
    - the number of connected subsets of size k with v on top.

    Summed, those numbers are the subset count. Every merge step adds at
    least one subset to it, so the guard also bounds the work. ``_optima``
    then lists the subsets of the least ratio at the least size, and the
    ``repr`` tie-break picks among them. It compares ``repr`` strings in the
    members' natural order, so the first of two joined subsets is not always
    the join of the firsts, and the candidates are listed whole. A top that
    is the lowest rank of its subtree, as every top of a ball is, starts all
    its subsets' tags, so of such tops only the least ``repr`` is listed.
    """
    n = len(pool)
    rank = {v: i for i, v in enumerate(pool)}
    near = [[r for r in map(rank.get, hs) if r is not None] for hs in hoods]
    parent = [None] * n
    order = []  # ranks, each component breadth-first from its root
    for s in range(n):
        if parent[s] is not None:
            continue
        parent[s] = -1
        i = len(order)
        order.append(s)
        while i < len(order):
            v = order[i]
            i += 1
            for u in near[v]:
                if parent[u] is None:
                    parent[u] = v
                    order.append(u)
    if sum(map(len, near)) != 2 * (n - parent.count(-1)):
        return None
    order.reverse()  # children first: vertex v of the tables is rank order[v]
    at = [0] * n
    for v, r in enumerate(order):
        at[r] = v
    kids = [[at[u] for u in near[r] if u != parent[r]] for r in order]
    outside = [len(hoods[r]) > len(near[r]) for r in order]  # a host neighbor outside the pool
    # on top of a subset, a vertex is on its boundary when it has an outside neighbor or a parent
    exposed = [outside[v] or parent[r] >= 0 for v, r in enumerate(order)]
    trail: list = [None] * n
    up: list = [None] * n
    counts: list = [None] * n
    low = order[:]  # the least rank in each vertex's subtree
    count = 0
    best_b, best_k, tops = 1, 0, []
    for v in range(n):
        A, B, C = [_NONE, 0], [_NONE, _NONE], [0, 1]  # v alone
        steps = [(A, B)]
        for c in kids[v]:
            uc, cc = up[c], counts[c]
            if low[c] < low[v]:
                low[v] = low[c]
            top = min(len(A) + len(uc) - 2, max_size)
            nA = [_NONE] * (top + 1)
            nB = list(map(min, A, B)) + [_NONE] * (top + 1 - len(A))  # c left out
            nC = C + [0] * (top + 1 - len(C))
            for k1 in range(1, len(A)):
                a, b, m = A[k1], B[k1], C[k1]
                for k2 in range(1, min(len(uc), top + 1 - k1)):
                    k, x = k1 + k2, uc[k2]
                    if a + x < nA[k]:
                        nA[k] = a + x
                    if b + x < nB[k]:
                        nB[k] = b + x
                    nC[k] += m * cc[k2]
            A, B, C = nA, nB, nC
            steps.append((A, B))
        trail[v], counts[v] = steps, C
        e = outside[v]
        up[v] = [_NONE] + [min(a + e, b + 1) for a, b in zip(A[1:], B[1:])]
        count += sum(C) - 1
        if count > guard:
            raise SearchTooLargeError(f"connected-subset enumeration exceeded the work budget ({guard})")
        t = exposed[v]
        for k in range(1, len(A)):
            b = A[k] + t
            if B[k] < b:  # B[k] + 1 <= b
                b = B[k] + 1
            cmp = b * best_k - best_b * k
            if cmp < 0 or (cmp == 0 and k < best_k):
                best_b, best_k, tops = b, k, [v]
            elif cmp == 0 and k == best_k:
                tops.append(v)
    # A subset topped at v whose subtree holds no lower rank starts its tag with v's repr.
    fixed = [repr(pool[order[v]]) for v in tops if low[v] == order[v]]
    if len(fixed) > 1:
        first = min(fixed)
        tops = [v for v in tops if low[v] != order[v] or repr(pool[order[v]]) == first]
    goals = []
    for v in tops:
        A, B = trail[v][-1]
        t = exposed[v]
        goals += [(v, len(kids[v]), best_k, f) for f, y in ((0, A[best_k] + t), (1, B[best_k] + 1)) if y == best_b]
    found = _optima(trail, kids, up, outside, order, goals)
    if found is None:
        return None
    if len(found) > 1:
        tags = [repr(v) for v in pool]
        found = [min(found, key=lambda s: [tags[r] for r in sorted(s)])]
    return [pool[r] for r in found[0]], best_b, best_k, count + n


_MAX_LISTED = 1 << 17  # optimal partial subsets _optima may hold at once


def _optima(trail: list, kids: list, up: list, outside: list, order: list, goals: list) -> list | None:
    """Every subset behind the knapsack states ``goals``, as tuples of ranks.

    A state (v, i, k, f) stands for the subsets of size k with v on top,
    within v and the subtrees of its first i children, whose least boundary
    count below v is trail[v][i][f][k]. The first pass lists, for each state
    reachable from the goals, the ways its subsets split into those of
    earlier states at the same least count. The second lists each state's
    subsets, children first, so deep trees need no recursion. Past
    ``_MAX_LISTED`` subsets held, None.
    """
    splits: dict = {}
    sets: dict = {}
    stack = list(goals)
    pop, push = stack.pop, stack.append
    while stack:
        key = pop()
        if key in splits or key in sets:
            continue
        v, i, k, f = key
        if not i:  # v alone
            sets[key] = [(order[v],)]
            continue
        tv = trail[v]
        x = tv[i][f][k]
        A, B = tv[i - 1]
        opts = splits[key] = []
        if f:  # child i left out
            if k < len(A) and A[k] == x:
                left = (v, i - 1, k, 0)
                opts.append((left, None))
                push(left)
            if k < len(B) and B[k] == x:
                left = (v, i - 1, k, 1)
                opts.append((left, None))
                push(left)
            prev = B
        else:
            prev = A
        c = kids[v][i - 1]
        uc = up[c]
        j = len(kids[c])
        Ac, Bc = trail[c][j]
        e = outside[c]
        lo = k + 1 - len(prev)
        for kc in range(lo if lo > 1 else 1, len(uc) if len(uc) < k else k):
            y = uc[kc]
            if prev[k - kc] + y == x:
                left = (v, i - 1, k - kc, f)
                push(left)
                if Ac[kc] + e == y:
                    right = (c, j, kc, 0)
                    opts.append((left, right))
                    push(right)
                if Bc[kc] + 1 == y:
                    right = (c, j, kc, 1)
                    opts.append((left, right))
                    push(right)
    held = 0
    for key in sorted(splits):  # children before parents, earlier steps first
        got = sets[key] = []
        for left, right in splits[key]:
            if right is None:
                got += sets[left]
                continue
            above, below = sets[left], sets[right]
            if len(above) * len(below) > _MAX_LISTED:
                return None
            got += [s + t for s in above for t in below]
        held += len(got)
        if held > _MAX_LISTED:
            return None
    return [s for key in goals for s in sets[key]]


def _branchless_run(view: TrimmedView, seed_radius: int, target_len: int) -> list:
    """Longest run (up to target_len) of consecutive degree-2 view vertices.

    Seeds are scanned in breadth-first order from the view root out to
    seed_radius; runs may extend past that radius. Deterministic.
    """
    base = view.root
    if base is None:
        return []
    layers = islice(bfs_layers(view.neighbors, base), seed_radius + 1)
    order = [h for layer in layers for h in layer]
    best: list = []
    used = set()
    for s in order:
        if s in used or len(view.neighbors(s)) != 2:
            continue
        run: deque = deque([s])
        used.add(s)
        for side in (0, 1):
            prev = s
            cur = view.neighbors(s)[side]
            while len(run) < target_len:
                ns = view.neighbors(cur)
                if len(ns) != 2:
                    break
                if side == 0:
                    run.appendleft(cur)
                else:
                    run.append(cur)
                used.add(cur)
                prev, cur = cur, ns[0] if ns[0] != prev else ns[1]
        if len(run) > len(best):
            best = list(run)
        if len(best) >= target_len:
            break
    return best


@dataclass(frozen=True)
class ContractionResult:
    """A tree with its maximal degree-2 chains collapsed to single edges."""

    tree: Tree
    stretch: int  # max vertices removed per chain, plus one
    vmap: dict  # kept old id -> new id
    chains: tuple  # (end_a, end_b, interior tuple), all in old ids


def contract_branchless(t: Tree) -> ContractionResult:
    deg = [len(ns) for ns in t.adjacency]
    kept = [v for v in range(t.vertex_count) if deg[v] != 2]
    if not kept:
        raise NoBranchStructureError("every vertex has degree 2; the tree is a bare path")
    vmap = {v: i for i, v in enumerate(kept)}
    adj: list[list[int]] = [[] for _ in kept]
    chains: list[tuple[int, int, tuple[int, ...]]] = []
    longest = 0
    for v in kept:
        for u in t.adjacency[v]:
            interior = []
            prev, cur = v, u
            while deg[cur] == 2:
                interior.append(cur)
                ns = t.adjacency[cur]
                prev, cur = cur, ns[0] if ns[0] != prev else ns[1]
            # cur is the kept far end; record each chain from its smaller endpoint
            if v > cur or (v == cur):
                continue
            adj[vmap[v]].append(vmap[cur])
            adj[vmap[cur]].append(vmap[v])
            if interior:
                chains.append((v, cur, tuple(interior)))
                longest = max(longest, len(interior))
    root = vmap.get(t.root) if t.root is not None else None
    return ContractionResult(Tree(adj, root=root), max(1, longest + 1), vmap, tuple(chains))


@dataclass(frozen=True)
class SandwichResult:
    ratio_host: Fraction
    ratio_image: Fraction
    stretch: int
    boundary_host: frozenset
    boundary_image: frozenset
    image_members: frozenset


def sandwich_check(t: Tree, members: Iterable) -> SandwichResult:
    """Compare a subset's ratio with its image's ratio in the chain-contracted tree.

    The image rounds every touched chain out to both endpoints. On leafless
    structure (no member and no touched-chain endpoint of degree 1) the
    boundary carries over with the same cardinality, and

        ratio(A) <= ratio(image) <= stretch * ratio(A)

    where stretch counts only the chains A actually meets. Both inequalities
    are asserted, not just reported.
    """
    A = frozenset(members)
    if not A:
        raise ValueError("empty subset")
    if not is_connected_in(t, A):
        raise ValueError("the members are not connected")
    contraction = contract_branchless(t)
    in_image = {v for v in A if v in contraction.vmap}
    touched = [c for c in contraction.chains if A.intersection(c[2])]
    if not in_image:
        a, b, interior = touched[0]
        raise DegenerateImageError(
            f"subset lies entirely inside the chain {a}..{b} ({len(interior)} interior vertices)"
        )
    for v in in_image:
        if len(t.adjacency[v]) == 1:
            raise UnsupportedStructureError(f"member {v} is a leaf of the host")
    for a, b, _ in touched:
        if len(t.adjacency[a]) == 1 or len(t.adjacency[b]) == 1:
            raise UnsupportedStructureError(
                f"chain {a}..{b} ends at a leaf; the comparison needs leafless structure"
            )
    image_old = set(in_image)
    stretch = 1
    for a, b, interior in touched:
        image_old.add(a)
        image_old.add(b)
        stretch = max(stretch, len(interior) + 1)
    image = frozenset(contraction.vmap[v] for v in image_old)
    boundary_host = boundary_of(t, A)
    boundary_image = boundary_of(contraction.tree, image)
    ratio_host = Fraction(len(boundary_host), len(A))
    ratio_image = Fraction(len(boundary_image), len(image))
    assert len(boundary_host) == len(boundary_image)
    assert ratio_host <= ratio_image <= stretch * ratio_host
    return SandwichResult(ratio_host, ratio_image, stretch, boundary_host, frozenset(boundary_image), image)


def min_degree3_bound_check(host, members: Iterable, exception_vertex=None) -> bool:
    """Check |A| <= 2|boundary(A)|, with slack 2 when the designated exception is inside.

    The counting argument only consumes the host degrees of A's own members,
    so those are what get validated: every member needs degree >= 3, except
    the designated vertex which may have degree 2.
    """
    return _degree3_bound(host, frozenset(members), exception_vertex)[0]


def _degree3_bound(host, A: frozenset, exception_vertex) -> tuple:
    """min_degree3_bound_check's verdict on A, and the boundary of A it was computed from."""
    if not A:
        raise ValueError("empty subset")
    if not is_connected_in(host, A):
        raise ValueError("the members are not connected")
    for v in A:
        d = len(host.neighbors(v))
        if v == exception_vertex:
            if d < 2:
                raise UnsupportedStructureError(f"exception vertex {v!r} has degree {d} < 2")
        elif d < 3:
            raise UnsupportedStructureError(f"member {v!r} has degree {d} < 3")
    slack = 2 if exception_vertex in A else 0
    boundary = boundary_of(host, A)
    return len(A) <= 2 * len(boundary) + slack, boundary


@dataclass(frozen=True)
class DeclaredBounds:
    """User-asserted global structure bounds backing a nonamenability certificate.

    k: trims after which the tree is leafless; d: longest branchless chain in
    the k-fold trim; R: largest inessential subtree anywhere.
    """

    k: int
    d: int
    R: int

    def __post_init__(self):
        if self.k < 0 or self.d < 1 or self.R < 1:
            raise ValueError("need k >= 0, d >= 1, R >= 1")

    @property
    def lower_bound(self) -> Fraction:
        return Fraction(1, 2 * self.d * self.R)


@dataclass(frozen=True)
class ClassifyBudgets:
    radius: int = 10
    max_vertices: int = 30000
    component_budget: int = 2000
    scan_limit: int = 256
    seed_radius: int = 6
    cert_subset_size: int = 8
    cert_region_radius: int = 4
    k_max: int | None = None
    path_target: int | None = None


@dataclass(frozen=True)
class AmenabilityReport:
    verdict: str  # amenable-witnessed | nonamenable-certified | inconclusive
    witnesses: tuple
    certificate: dict | None
    scope: dict

    def best_ratio(self) -> Fraction | None:
        return min((w.ratio for w in self.witnesses), default=None)

    def to_json(self) -> dict:
        doc = {
            "schema": "arbor/amenability-report/1",
            "verdict": self.verdict,
            "witnesses": [w.to_json() for w in self.witnesses],
            "scope": jsonable(self.scope),
        }
        if self.certificate is not None:
            doc["certificate"] = jsonable(self.certificate)
        best = self.best_ratio()
        if best is not None:
            doc["best_ratio"] = str(best)
        return doc


def _inessential_witnesses(oracle, ball: Ball, budgets: ClassifyBudgets):
    """Witness candidates from inessential subtrees, plus every subtree found.

    Fixtures that can answer component sizes are scanned at every explored
    interior vertex; black-box oracles only at the breadth-first earliest
    scan_limit vertices.

    Every fact reported comes from the walk that ``hanging_components``
    makes, and an interior vertex's degree from the ball, which holds all its
    neighbors. Each witness is a union of whole components of host - r, so
    with r it is connected, and r, of degree >= 2, is its only member with an
    outside neighbor. In a tree each component's attach vertex is its only
    neighbor of r, so the attach vertices are the witness's boundary.
    """
    scan = ball.sorted_interior
    if not hasattr(oracle, "hanging_component_size"):
        scan = scan[: budgets.scan_limit]
    adjacency = ball.tree.adjacency
    candidates = []
    found = []
    for v in scan:
        if len(adjacency[v]) < 2:
            continue
        r = ball.handle_of(v)
        comps = hanging_components(oracle, r, budgets.component_budget)
        walked = [c for c in comps if c.members is not None]
        pieces = [(c.members, (c.attach,)) for c in walked]
        if 2 <= len(walked) < len(comps):
            pieces.append((frozenset().union(*(c.members for c in walked)), [c.attach for c in walked]))
        for witness, attaches in pieces:
            ines = InessentialSubtree(oracle, witness | {r}, r)
            sel = SubsetSelection._known(oracle, witness, frozenset(attaches))
            found.append(ines)
            candidates.append(FolnerCandidate(sel, "inessential-minus-root", {"root": r, "subtree_size": ines.size}))
    return candidates, found


def _path_witnesses(oracle, budgets: ClassifyBudgets, k_max: int, path_target: int):
    """Witnesses from the longest degree-2 run of each trim level 0..k_max, pulled back to the host.

    Every prefix run[:L] gives one witness. Each run vertex is lifted once,
    in run order, so the survival queries, and any budget error, follow the
    run; the witness for run[:L] is the union of the first L lifts, which is
    the lift of run[:L] (see ``lift_subset_through_trims``).
    In a tree a prefix of a degree-2 run has exactly its two ends, run[0]
    and run[L-1], on its boundary in the view, and the lift keeps that
    boundary as a set, so the witness's ratio is at most 2/L.
    """
    candidates = []
    chain_lengths = {}
    view = TrimmedView(oracle, 0, budgets.max_vertices)
    for k in range(k_max + 1):
        if view.root is None:
            break
        run = _branchless_run(view, budgets.seed_radius, path_target)
        chain_lengths[k] = len(run)
        members = frozenset()
        for length, h in enumerate(run, 1):
            members |= lift_subset_through_trims(view, (h,))
            sel = SubsetSelection._known(oracle, members, frozenset((run[0], h)))
            candidates.append(FolnerCandidate(sel, "branchless-path", {"trim_level": k, "path_vertices": length}))
        view = view.trimmed()
    return candidates, chain_lengths


def _certificate_checks(oracle, ball: Ball, budgets: ClassifyBudgets, declared: DeclaredBounds, found_inessentials, witnesses):
    removed, known = removal_steps_in_ball(ball, ball.radius)
    for v in range(ball.vertex_count):
        step = removed[v]
        if step is not None and step > declared.k:
            raise DeclaredBoundsRefutedError(
                f"vertex {ball.handle_of(v)!r} is trimmed at round {step}, "
                f"after the declared stabilization at k={declared.k}",
                counterexample={"vertex": ball.handle_of(v), "removed_at": step},
            )

    # Degree-2 chains inside the k-fold trim, measured where survival through
    # round k is decided for the vertex and all its neighbors.
    survives = [
        removed[v] is None and known[v] >= declared.k for v in range(ball.vertex_count)
    ]
    safe_limit = ball.radius - declared.k - 1
    deg2 = set()
    for v in range(ball.vertex_count):
        if not survives[v]:
            continue
        if ball.frontier and ball.depths[v] > safe_limit:
            continue
        if sum(1 for u in ball.tree.adjacency[v] if survives[u]) == 2:
            deg2.add(v)
    seen = set()
    for v in deg2:
        if v in seen:
            continue
        comp = reach(ball.tree.adjacency.__getitem__, v, within=deg2)
        seen.update(comp)
        if len(comp) > declared.d:
            raise DeclaredBoundsRefutedError(
                f"a branchless chain of {len(comp)} vertices survives {declared.k} trim rounds, "
                f"exceeding the declared d={declared.d}",
                counterexample={"chain": [ball.handle_of(x) for x in comp]},
            )

    for ines in found_inessentials:
        if ines.size > declared.R:
            raise DeclaredBoundsRefutedError(
                f"an inessential subtree of {ines.size} vertices exceeds the declared R={declared.R}",
                counterexample={"members": ines.members, "root": ines.root},
            )

    floor = declared.lower_bound
    for w in witnesses:
        if w.ratio < floor:
            raise DeclaredBoundsRefutedError(
                f"witness with ratio {w.ratio} beats the implied lower bound {floor}",
                counterexample={"members": w.members, "ratio": w.ratio},
            )
    region = explore_ball(oracle, budgets.cert_region_radius, max_vertices=budgets.max_vertices)
    if region.interior:
        result = cheeger_exact(region, budgets.cert_subset_size)
        if result.value < floor:
            raise DeclaredBoundsRefutedError(
                f"an enumerated subset has ratio {result.value}, below the implied lower bound {floor}",
                counterexample={
                    "members": [region.handle_of(v) for v in result.argmin.members],
                    "ratio": result.value,
                },
            )
        return {"cheeger_scope": result.scope, "cheeger_floor_observed": result.value}
    return {"cheeger_scope": None, "cheeger_floor_observed": None}


def _witness_order(witnesses: list) -> list:
    """Witnesses by decreasing ratio, then increasing size, then their sorted members' ``repr`` strings.

    The ``repr`` key is built only inside a run of equal ratio and size.
    """
    keys = [(-c.ratio, c.size) for c in witnesses]
    out = []
    for _, run in groupby(sorted(range(len(witnesses)), key=keys.__getitem__), key=keys.__getitem__):
        tied = [witnesses[i] for i in run]
        if len(tied) > 1:
            tied.sort(key=lambda c: list(map(repr, sorted_handles(c.members))))
        out.extend(tied)
    return out


def classify(oracle, budgets: ClassifyBudgets | None = None, declared: DeclaredBounds | None = None, d_target: int = 10) -> AmenabilityReport:
    """Search for amenability witnesses and, with declared bounds, certify the converse.

    The witness path scans explored vertices for inessential subtrees and the
    first k_max trim stages for branchless runs, reporting every candidate at
    ratio <= 1/d_target as a witness of amenability. With declared global
    bounds (k, d, R) it instead cross-examines the explored region against
    them and, if nothing contradicts, certifies the ratio floor 1/(2dR).
    Deterministic for fixed inputs.
    """
    budgets = budgets or ClassifyBudgets()
    if d_target < 1:
        raise ValueError("d_target must be at least 1")
    # A run of L degree-2 vertices witnesses ratio <= 2/L, so the default
    # target is twice the requested threshold.
    path_target = budgets.path_target if budgets.path_target is not None else 2 * d_target
    if path_target < 1:
        raise ValueError("path_target must be at least 1")
    k_max = budgets.k_max if budgets.k_max is not None else max(1, budgets.radius - path_target)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    ball = explore_ball(oracle, budgets.radius, max_vertices=budgets.max_vertices)

    log.debug(
        "explored %d vertices (frontier %d) at radius %d",
        ball.vertex_count,
        len(ball.frontier),
        budgets.radius,
    )
    ines_cands, found = _inessential_witnesses(oracle, ball, budgets)
    path_cands, chain_lengths = _path_witnesses(oracle, budgets, k_max, path_target)

    seen_members = set()
    witnesses = []
    for cand in ines_cands + path_cands:
        if cand.members in seen_members:
            continue
        seen_members.add(cand.members)
        witnesses.append(cand)
    witnesses = _witness_order(witnesses)

    scope = {
        "radius": budgets.radius,
        "vertices_explored": ball.vertex_count,
        "frontier_size": len(ball.frontier),
        "k_max": k_max,
        "path_target": path_target,
        "d_target": d_target,
        "chain_lengths_by_level": chain_lengths,
        "inessential_subtrees_found": len(found),
    }

    if declared is not None:
        cert_extra = _certificate_checks(oracle, ball, budgets, declared, found, witnesses)
        certificate = {
            "k": declared.k,
            "d": declared.d,
            "R": declared.R,
            "lower_bound": declared.lower_bound,
        }
        certificate.update(cert_extra)
        return AmenabilityReport("nonamenable-certified", tuple(witnesses), certificate, scope)

    best = min((w.ratio for w in witnesses), default=None)
    if best is not None and best <= Fraction(1, d_target):
        return AmenabilityReport("amenable-witnessed", tuple(witnesses), None, scope)
    return AmenabilityReport("inconclusive", tuple(witnesses), None, scope)
