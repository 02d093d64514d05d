"""Isoperimetric ratios, witness search, and the amenability classifier.

Everything here works with exact rationals. A witness is a finite connected
subset with a small boundary-to-size ratio; a certificate is a declared set
of global structure bounds that, if true, force the ratio of every finite
subset away from zero. The classifier emits one or the other and refuses to
guess: when neither is in reach within budget, the verdict is inconclusive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import groupby, islice
from typing import Iterable, Sequence

from .errors import (
    DeclaredBoundsRefutedError,
    DegenerateImageError,
    SandwichViolationError,
    SearchTooLargeError,
    UnsupportedStructureError,
)
from .exploration import Ball, _NeighborMemo, explore_ball
from .subsets import boundary_of, is_connected_in
from .trees import Tree, bfs_layers, reach, sorted_handles
from .trimming import TrimmedView, lift_subset_through_trims, removal_steps_in_ball

__all__ = [
    "FolnerCandidate",
    "CheegerResult",
    "cheeger_exact",
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

    members: frozenset
    boundary: frozenset  # members with a neighbor outside the subset
    provenance: str  # branchless-path | inessential-minus-root | enumerated
    detail: dict = field(default_factory=dict, compare=False)

    @cached_property
    def ratio(self) -> Fraction:
        """Exact isoperimetric ratio |boundary| / |members|, computed on the first read."""
        return Fraction(len(self.boundary), len(self.members))

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def _sorted_members(self) -> tuple:
        """The members in ``sorted_handles`` order, sorted on the first read."""
        return tuple(sorted_handles(self.members))

    def to_json(self) -> dict:
        return jsonable(self._doc())

    def _doc(self) -> dict:
        """The JSON document as library values, which ``jsonable`` or the CLI's emitter renders.

        The members are their ``sorted_handles`` tuple, which both write as
        they would write the frozenset, with no sort.
        """
        return {
            "members": self._sorted_members,
            "size": self.size,
            "boundary_size": len(self.boundary),
            "ratio": self.ratio,
            "provenance": self.provenance,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class CheegerResult:
    """The subset of least ratio that ``cheeger_exact`` found, and the search's scope; ``value`` is its ratio."""

    argmin: FolnerCandidate
    scope: dict

    @property
    def value(self) -> Fraction:
        return self.argmin.ratio

    def to_json(self) -> dict:
        return {
            "value": str(self.value),
            "argmin": self.argmin.to_json(),
            "scope": jsonable(self.scope),
        }


_GUARD = 10**7  # subsets of two or more members that one exact search may count or walk


def _pool(host) -> Sequence:
    """The vertices ``cheeger_exact`` searches, in increasing order; a vertex's index is its rank."""
    if hasattr(host, "interior"):
        return host.sorted_interior
    return list(range(host.vertex_count))


def cheeger_exact(host, max_size: int) -> CheegerResult:
    """Exact minimum boundary ratio over all connected subsets of at most max_size vertices.

    The subsets range over the host's pool (``_pool``): a host that offers
    ``interior`` and ``sorted_interior``, as a Ball does, offers its
    interior, so it may narrow the search to any region it likes; any other
    host offers its ids 0..vertex_count-1. A pool vertex's neighbors outside
    the pool still count toward its boundary. Each pool vertex is asked for
    its neighbors once, up front, and its neighbors' ranks are listed once;
    both searches and the argmin's boundary read those lists. When the pool
    spans a forest, a subtree knapsack (the k-cardinality tree DP) gives the
    least boundary count and the number of connected subsets at every size,
    topped at each vertex; ``scope["subsets_enumerated"]`` is the sum of
    those numbers. Otherwise, or when the ties for the minimum are too many
    to list, the ESU walk visits every subset. Either way
    SearchTooLargeError is raised once more than ``_GUARD`` subsets have two
    or more members.

    For an infinite host explored through a Ball this is a certified upper
    bound on the true infimum, since every boundary counted is exact.
    Ties go to the smaller subset, then to the one whose sorted members'
    ``repr`` strings compare first, so {10} comes before {9}.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    pool = _pool(host)
    if not pool:
        raise ValueError("no admissible subsets: the search region is empty")
    rank = {v: i for i, v in enumerate(pool)}
    hoods = [host.neighbors(v) for v in pool]
    deg = list(map(len, hoods))
    near = [[r for r in map(rank.get, hs) if r is not None] for hs in hoods]  # near[r]: r's neighbors' ranks
    least = _least_by_knapsack(pool, near, deg, max_size, _GUARD)
    if least is None:  # a cycle, or too many optima to list
        least = _least_by_walk(pool, near, deg, max_size, _GUARD)
    best, count = least
    chosen = set(best)
    members = frozenset(pool[r] for r in best)
    boundary = frozenset(pool[r] for r in best if deg[r] > len(near[r]) or not chosen.issuperset(near[r]))
    argmin = FolnerCandidate(members, boundary, "enumerated")
    scope = {"max_size": max_size, "subsets_enumerated": count}
    return CheegerResult(argmin, scope)


def _least_by_walk(pool: Sequence, near: list, deg: list, max_size: int, guard: int) -> tuple:
    """The best subset's sorted ranks and the subset count, from the ESU walk over every subset.

    ``near[r]`` lists the ranks of r's neighbors in the pool and ``deg[r]``
    counts all its host neighbors. ESU (Wernicke 2006) anchors each subset
    at its lowest rank and grows it only through its newest member's
    exclusive neighbors, so none comes twice. ``inside[r]`` counts rank r's
    neighbors in the subset, which keeps both the exclusive-neighbor test
    and the boundary count at O(deg w) per step. Each subset of two or more
    members is one unit of work; past ``guard`` units, SearchTooLargeError.
    Ties go as in ``cheeger_exact``, the ``repr`` strings taken in rank order.
    """
    n = len(pool)
    tags = [repr(v) for v in pool]
    inside = [0] * n
    in_sub = [False] * n
    sub: list[int] = []
    bound = work = 0
    best, best_b, best_k, best_tag = None, 1, 0, None  # best_tag is built on the first tie
    for anchor in range(n):
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
                    raise SearchTooLargeError(f"connected-subset enumeration exceeded the work budget ({guard})")
            sub.append(w)
            in_sub[w] = True
            for u in near[w]:
                inside[u] += 1
                if in_sub[u] and inside[u] == deg[u]:
                    bound -= 1
            if inside[w] < deg[w]:
                bound += 1
            k = len(sub)
            cmp = bound * best_k - best_b * k  # bound/k against best_b/best_k, as integer cross-products
            if cmp < 0 or (cmp == 0 and k < best_k):
                best, best_b, best_k, best_tag = sorted(sub), bound, k, None
            elif cmp == 0 and k == best_k:
                ranks = sorted(sub)
                tag = [tags[r] for r in ranks]
                if best_tag is None:
                    best_tag = [tags[r] for r in best]
                if tag < best_tag:
                    best, best_tag = ranks, tag
            if k < max_size:
                exts.append(ext + [u for u in near[w] if u > anchor and not in_sub[u] and inside[u] == 1])
            else:
                exts.append([])  # full size: the next step drops w again
    return best, work + n


_NONE = 1 << 62  # the cost of a size no subset reaches; above every boundary count


def _least_by_knapsack(pool: Sequence, near: list, deg: list, max_size: int, guard: int) -> tuple | None:
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
    ``repr`` tie-break picks among them. It compares ``repr`` strings in rank
    order, so the first of two joined subsets is not always
    the join of the firsts, and the candidates are listed whole. A top that
    is the lowest rank of its subtree, as every top of a ball is, starts all
    its subsets' tags, so of such tops only the least ``repr`` is listed.
    """
    n = len(pool)
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
    outside = [deg[r] > len(near[r]) for r in order]  # a host neighbor outside the pool
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
    return sorted(found[0]), count + n


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
    kept = [v for v in range(t.vertex_count) if deg[v] != 2]  # never empty: every finite tree has a leaf or a lone vertex
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

    where stretch counts only the chains A actually meets. Both the equal
    boundary sizes and the inequalities are checked, not just reported: a
    failure raises SandwichViolationError, since it means the contraction is
    wrong.
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
    if len(boundary_host) != len(boundary_image) or not ratio_host <= ratio_image <= stretch * ratio_host:
        raise SandwichViolationError(
            f"the sandwich fails: ratio(A) = {ratio_host} with {len(boundary_host)} boundary vertices, "
            f"ratio(image) = {ratio_image} with {len(boundary_image)}, stretch = {stretch}"
        )
    return SandwichResult(ratio_host, ratio_image, stretch, boundary_host, frozenset(boundary_image), image)


def min_degree3_bound_check(host, members: Iterable) -> bool:
    """Check |A| <= 2|boundary(A)| for a connected A whose members all have degree >= 3.

    A must be nonempty and connected in the host; ValueError otherwise. The
    counting argument only consumes the host degrees of A's own members,
    so those are what get validated: a member of degree < 3 raises
    UnsupportedStructureError. The connectivity walk reads each member's
    neighbors once, and ``_degree3_bound`` reads them once more, for the
    member's degree and whether it is on the boundary.
    """
    A = frozenset(members)
    if A and not is_connected_in(host, A):
        raise ValueError("the members are not connected")
    return _degree3_bound(host, A, None)


def _degree3_bound(host, A: frozenset, exception_vertex) -> bool:
    """Whether |A| <= 2|boundary(A)|, with slack 2 when ``exception_vertex`` is in A.

    The exception vertex may have degree 2; every other member needs degree
    >= 3. The dichotomy's bound side passes its ball's root, which has no
    parent. A's connectivity is the caller's to know: the public check walks
    it, and the bound side passes subsets it has just grown. One pass over A
    asks ``host.neighbors`` once per member: the length of its answer is the
    member's degree, and a neighbor outside A puts the member on the
    boundary. The first member in A's order that fails, or whose neighbors
    the host cannot give, decides the error.
    """
    if not A:
        raise ValueError("empty subset")
    boundary = 0
    for v in A:
        ns = host.neighbors(v)
        d = len(ns)
        if v == exception_vertex:
            if d < 2:
                raise UnsupportedStructureError(f"exception vertex {v!r} has degree {d} < 2")
        elif d < 3:
            raise UnsupportedStructureError(f"member {v!r} has degree {d} < 3")
        if not A.issuperset(ns):
            boundary += 1
    slack = 2 if exception_vertex in A else 0
    return len(A) <= 2 * boundary + slack


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
    k_max: int | None = None
    path_target: int | None = None

    def __post_init__(self):
        if self.component_budget < 1:
            raise ValueError("component_budget must be at least 1")


_SCAN_LIMIT = 256  # interior vertices a black-box host is scanned at for inessential subtrees
_SEED_RADIUS = 6  # how far from the view root a branchless run may start
_CERT_SUBSET_SIZE = 8  # the certificate's enumerated subsets have at most this many vertices
_CERT_REGION_RADIUS = 4  # they lie in the interior of the ball of this radius


@dataclass(frozen=True)
class AmenabilityReport:
    verdict: str  # amenable-witnessed | nonamenable-certified | inconclusive
    witnesses: tuple
    certificate: dict | None
    scope: dict

    def best_ratio(self) -> Fraction | None:
        if not self.witnesses:
            return None
        keys = _ratio_keys([(len(w.boundary), w.size) for w in self.witnesses])
        return self.witnesses[keys.index(min(keys))].ratio

    def to_json(self) -> dict:
        return jsonable(self._doc())

    def _doc(self) -> dict:
        """The JSON document as library values, which ``jsonable`` or the CLI's emitter renders."""
        doc = {
            "schema": "arbor/amenability-report/1",
            "verdict": self.verdict,
            "witnesses": [w._doc() for w in self.witnesses],
            "scope": self.scope,
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        best = self.best_ratio()
        if best is not None:
            doc["best_ratio"] = best
        return doc


def _inessential_witnesses(oracle, ball: Ball, budgets: ClassifyBudgets, scan_limit: int):
    """Witness candidates from inessential subtrees, each a subtree minus its root.

    A candidate's ``detail`` holds the subtree's root and its size, which is
    the candidate's size plus one; ``classify`` reads nothing else of the
    subtree.

    Fixtures that can answer component sizes are scanned at every explored
    interior vertex; black-box oracles only at the breadth-first earliest
    scan_limit vertices. A vertex whose components are all infinite or over
    component_budget is skipped unsorted. Otherwise each component within
    budget, in ``sorted_handles`` order of all of r's neighbors, is walked
    up to the budget by ``_spliced_component``; a walk that disagrees with
    a claimed size raises UnsupportedStructureError. Every component found
    within the budget is kept for the rest of the call under its directed
    edge (r, u), and a later walk that meets that edge takes the component
    whole instead of walking it again, so on the staircase each spine
    vertex's left component costs one step past the last one. An interior
    vertex's degree comes from the ball, which holds all its neighbors.
    Each witness is a union of whole components of host - r, so with r it
    is connected, and r, of degree >= 2, is its only member with an outside
    neighbor. In a tree each component's attach vertex is its only neighbor
    of r, so the attach vertices are the witness's boundary.
    """
    scan = ball.sorted_interior
    sizes_of = getattr(oracle, "hanging_component_sizes", None)
    if sizes_of is None:
        scan = scan[:scan_limit]
    cap = budgets.component_budget
    adjacency, handles = ball.tree.adjacency, ball.handles
    built: dict = {}  # built[r][u]: the component of u in host - r, once walked within the budget
    candidates = []
    for v in scan:
        if len(adjacency[v]) < 2:
            continue
        r = handles[v]
        sizes = sizes_of(r) if sizes_of is not None else dict.fromkeys(oracle.neighbors(r))
        if all(s is not None and s > cap for s in sizes.values()):
            continue
        walked = []  # (attach, members) of each component walked
        for u in sorted_handles(sizes):
            s = sizes[u]
            if s is not None and s > cap:
                continue
            # A claimed size s <= cap that is true ends this walk after s vertices.
            comp = _spliced_component(oracle.neighbors, u, r, cap, built)
            if s is not None and (comp is None or len(comp) != s):
                found = f"more than {cap}" if comp is None else len(comp)
                raise UnsupportedStructureError(
                    f"the host claims the component of {u!r} in the tree minus {r!r} has {s} vertices, "
                    f"but a walk finds {found}"
                )
            if comp is not None:
                built.setdefault(r, {})[u] = comp
                walked.append((u, comp))
        pieces = [(members, (u,)) for u, members in walked]
        if 2 <= len(walked) < len(sizes):
            pieces.append((frozenset().union(*(m for _, m in walked)), [u for u, _ in walked]))
        for witness, attaches in pieces:
            detail = {"root": r, "subtree_size": len(witness) + 1}
            candidates.append(FolnerCandidate(witness, frozenset(attaches), "inessential-minus-root", detail))
    return candidates


_NO_PARTS: dict = {}  # the components kept at a vertex that has none; never written


def _spliced_component(neighbors, u, r, cap: int, built: dict) -> frozenset | None:
    """The component of u in host - r, or None once it has more than cap vertices.

    A breadth-first walk from u that never steps onto r. At a vertex x, a
    neighbor w whose component in host - x is already in ``built[x][w]`` is
    taken whole: its members join in one set union and count toward cap,
    and the walk does not step onto w. In a tree that component lies beyond
    x, away from u and r, so it meets nothing found so far. If it meets the
    walk, an earlier spliced component or r, the host has a cycle and
    UnsupportedStructureError is raised, since the count would no longer
    be the component's size.
    """
    seen = {u, r}
    todo = [u]
    limit = max(cap, 1) + 1  # seen also holds r, and u alone never exceeds cap, as in trees.reach
    for x in todo:
        parts = built.get(x, _NO_PARTS)
        for w in neighbors(x):
            if w in seen:
                continue
            part = parts.get(w)
            if part is None:
                seen.add(w)
                todo.append(w)
            elif seen.isdisjoint(part):
                seen |= part
            else:
                raise UnsupportedStructureError(
                    f"the component of {w!r} in the host minus {x!r} meets the walk of the component "
                    f"of {u!r} in the host minus {r!r} or {r!r} itself, so the host is not a tree"
                )
        if len(seen) > limit:
            return None
    seen.remove(r)
    return frozenset(seen)


def _path_witnesses(oracle, budgets: ClassifyBudgets, k_max: int, path_target: int, seed_radius: int):
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
        run = _branchless_run(view, seed_radius, path_target)
        chain_lengths[k] = len(run)
        members = frozenset()
        for length, h in enumerate(run, 1):
            members |= lift_subset_through_trims(view, (h,))
            candidates.append(FolnerCandidate(members, frozenset((run[0], h)), "branchless-path", {"trim_level": k, "path_vertices": length}))
        view = view.trimmed()
    return candidates, chain_lengths


def _certificate_checks(oracle, ball: Ball, budgets: ClassifyBudgets, declared: DeclaredBounds, inessential, witnesses):
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
    # no depth reaches the radius when the ball is the whole tree
    safe_limit = ball.radius - declared.k - 1 if ball.frontier else ball.radius
    deg2 = set()
    for v in range(ball.vertex_count):
        if not survives[v]:
            continue
        if ball.depths[v] > safe_limit:
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

    for cand in inessential:  # each an inessential subtree minus its root
        size, root = cand.detail["subtree_size"], cand.detail["root"]
        if size > declared.R:
            raise DeclaredBoundsRefutedError(
                f"an inessential subtree of {size} vertices exceeds the declared R={declared.R}",
                counterexample={"members": cand.members | {root}, "root": root},
            )

    floor = declared.lower_bound
    for w in witnesses:
        if w.ratio < floor:
            raise DeclaredBoundsRefutedError(
                f"witness with ratio {w.ratio} beats the implied lower bound {floor}",
                counterexample={"members": w.members, "ratio": w.ratio},
            )
    region = explore_ball(oracle, _CERT_REGION_RADIUS, max_vertices=budgets.max_vertices)
    result = cheeger_exact(region, _CERT_SUBSET_SIZE)  # the center is always in the interior
    if result.value < floor:
        raise DeclaredBoundsRefutedError(
            f"an enumerated subset has ratio {result.value}, below the implied lower bound {floor}",
            counterexample={
                "members": [region.handle_of(v) for v in result.argmin.members],
                "ratio": result.value,
            },
        )
    return {"cheeger_scope": result.scope, "cheeger_floor_observed": result.value}


_FLOAT_EXACT = 1 << 26  # sizes below this order their ratios exactly as floats


def _ratio_keys(pairs: list) -> list:
    """Keys that order the ratios b/k of int pairs (b, k), 0 <= b <= k and k >= 1, exactly.

    While every k is below 2^26, the keys are the floats b/k. Two distinct
    ratios b/k and b'/k' then differ by at least 1/(k k') > 2^-52, which is
    at least two float spacings in [0, 1]; a correctly rounded division moves
    each by at most half a spacing, and rounding is monotone. So distinct
    ratios get distinct floats in the same order, and equal ratios equal
    floats. Past that size the keys are Fractions, for every pair at once,
    since a float key and a Fraction key may not compare as their ratios do.
    """
    if all(k < _FLOAT_EXACT for _, k in pairs):
        return [b / k for b, k in pairs]
    return [Fraction(b, k) for b, k in pairs]


def _witness_order(witnesses: list) -> list:
    """Witnesses by decreasing ratio, then increasing size, then their sorted members' ``repr`` strings.

    The ``repr`` tie-break runs only inside a run of equal ratio and size,
    and compares two witnesses as ``_members_cmp`` does.
    """
    ratios = _ratio_keys([(len(c.boundary), c.size) for c in witnesses])
    keys = [(-r, c.size) for r, c in zip(ratios, witnesses)]
    out = []
    for _, run in groupby(sorted(range(len(witnesses)), key=keys.__getitem__), key=keys.__getitem__):
        tied = [witnesses[i] for i in run]
        if len(tied) > 1:
            tied.sort(key=cmp_to_key(_members_cmp))
        out.extend(tied)
    return out


def _members_cmp(a: FolnerCandidate, b: FolnerCandidate) -> int:
    """-1, 0 or 1 as ``list(map(repr, ...))`` of a's sorted members is below, equal to or above b's.

    The ``repr``s are taken pair by pair and the first pair that differs
    decides; on a common prefix the shorter witness comes first, as list
    comparison orders the two lists.
    """
    xs, ys = a._sorted_members, b._sorted_members
    for x, y in zip(xs, ys):
        if x is not y:
            rx, ry = repr(x), repr(y)
            if rx != ry:
                return -1 if rx < ry else 1
    return (len(xs) > len(ys)) - (len(xs) < len(ys))


def classify(oracle, budgets: ClassifyBudgets | None = None, declared: DeclaredBounds | None = None, d_target: int = 10) -> AmenabilityReport:
    """Search for amenability witnesses and, with declared bounds, certify the converse.

    The witness path scans explored vertices for inessential subtrees and the
    first k_max trim stages for branchless runs, reporting every candidate at
    ratio <= 1/d_target as a witness of amenability. With declared global
    bounds (k, d, R) it instead cross-examines the explored region against
    them and, if nothing contradicts, certifies the ratio floor 1/(2dR).
    Every reader goes through one memo of the host's neighbors, dropped on
    return, so each handle reaches the host once per call. Deterministic
    for fixed inputs.
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
    oracle = _NeighborMemo(oracle)
    ball = explore_ball(oracle, budgets.radius, max_vertices=budgets.max_vertices)
    ines_cands = _inessential_witnesses(oracle, ball, budgets, _SCAN_LIMIT)
    path_cands, chain_lengths = _path_witnesses(oracle, budgets, k_max, path_target, _SEED_RADIUS)

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
        "inessential_subtrees_found": len(ines_cands),
    }

    if declared is not None:
        cert_extra = _certificate_checks(oracle, ball, budgets, declared, ines_cands, witnesses)
        certificate = {
            "k": declared.k,
            "d": declared.d,
            "R": declared.R,
            "lower_bound": declared.lower_bound,
        }
        certificate.update(cert_extra)
        return AmenabilityReport("nonamenable-certified", tuple(witnesses), certificate, scope)

    # _witness_order puts the least ratio last.
    if witnesses and witnesses[-1].ratio <= Fraction(1, d_target):
        return AmenabilityReport("amenable-witnessed", tuple(witnesses), None, scope)
    return AmenabilityReport("inconclusive", tuple(witnesses), None, scope)
