"""Finite trees over dense integer ids: construction, basic queries, codes, serialization.

Trees are the only graph class in this package. Construction validates the
tree invariants once, so downstream code never rechecks them. ``reach`` is
the one breadth-first walk the package's connectivity and component checks
share; it works on any ``neighbors`` callable, not only on trees.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Mapping

from .errors import InvalidVertexError, NotATreeError

__all__ = [
    "Tree",
    "NullTree",
    "NULL_TREE",
    "degree",
    "leaves",
    "branches",
    "induced_subtree",
    "centers",
    "canonical_form",
    "parse_tree",
    "serialize_tree",
    "parse_child_list",
    "serialize_child_list",
    "path_tree",
    "star_tree",
    "sary_tree",
    "subdivide_tree",
]


class NullTree:
    """Sentinel for the result of removing every vertex.

    Deliberately distinct from the one-vertex tree: graphs here always have a
    nonempty vertex set, so "nothing survived" needs its own object.
    """

    __slots__ = ()
    _instance = None
    vertex_count = 0

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NullTree"


NULL_TREE = NullTree()


class Tree:
    """Immutable finite tree on vertices 0..n-1 with an optional root.

    Parameters
    ----------
    adjacency : sequence of neighbor collections, indexed by vertex id
    root : optional distinguished vertex id

    Construction validates symmetry, absence of loops and duplicate edges,
    the tree edge count, and connectivity. Downstream code relies on these
    and never rechecks them.
    """

    __slots__ = ("vertex_count", "adjacency", "root")

    def __init__(self, adjacency: Iterable[Iterable[int]], root: int | None = None):
        adj = tuple(tuple(sorted(int(u) for u in ns)) for ns in adjacency)
        n = len(adj)
        if n == 0:
            raise NotATreeError("a tree needs at least one vertex")
        twice_edges = 0
        for v, ns in enumerate(adj):
            prev = -1
            for u in ns:
                if u == v:
                    raise NotATreeError(f"self-loop at vertex {v}")
                if not 0 <= u < n:
                    raise NotATreeError(f"neighbor {u} of vertex {v} is out of range")
                if u == prev:
                    raise NotATreeError(f"duplicate edge {v}-{u}")
                prev = u
            twice_edges += len(ns)
        neighbor_sets = [set(ns) for ns in adj]
        for v, ns in enumerate(adj):
            for u in ns:
                if v not in neighbor_sets[u]:
                    raise NotATreeError(f"asymmetric adjacency: {v} lists {u} but not vice versa")
        # Connectivity first: it gives the sharper message when both fail.
        seen = reach(adj.__getitem__, 0)
        if len(seen) != n:
            missing = min(set(range(n)).difference(seen))
            raise NotATreeError(f"disconnected: vertex {missing} is unreachable from vertex 0")
        if twice_edges != 2 * (n - 1):
            raise NotATreeError("contains a cycle")
        if root is not None:
            root = int(root)
            if not 0 <= root < n:
                raise InvalidVertexError(f"root {root} is out of range")
        object.__setattr__(self, "vertex_count", n)
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "root", root)

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[int, int]],
        root: int | None = None,
        vertex_count: int | None = None,
    ) -> "Tree":
        edges = list(edges)
        top = max((max(u, v) for u, v in edges), default=root if root is not None else 0)
        n = vertex_count if vertex_count is not None else top + 1
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise NotATreeError(f"edge {u}-{v} is out of range")
            adj[u].append(v)
            adj[v].append(u)
        return cls(adj, root=root)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.vertex_count:
            raise InvalidVertexError(f"vertex {v} is out of range (0..{self.vertex_count - 1})")
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        for v, ns in enumerate(self.adjacency):
            for u in ns:
                if u > v:
                    yield (v, u)

    def with_root(self, root: int | None) -> "Tree":
        return Tree(self.adjacency, root=root)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tree)
            and self.adjacency == other.adjacency
            and self.root == other.root
        )

    def __hash__(self) -> int:
        return hash((self.adjacency, self.root))

    def __repr__(self) -> str:
        rooted = f", root={self.root}" if self.root is not None else ""
        return f"Tree({self.vertex_count} vertices{rooted})"


def reach(neighbors, start, within=None, avoid=(), cap=None) -> list | None:
    """Vertices reachable from ``start``, in breadth-first order with ``start`` first.

    The walk steps only onto members of ``within`` when it is given, and never
    onto a member of ``avoid``; ``start`` itself is always included. Neighbors
    are visited in the order ``neighbors(v)`` lists them. With ``cap``, the
    walk stops and returns None as soon as it has found more than ``cap``
    vertices (``start`` alone never counts as exceeding it).
    """
    order = [start]
    seen = {start, *avoid}
    for v in order:
        for u in neighbors(v):
            if u in seen or (within is not None and u not in within):
                continue
            seen.add(u)
            order.append(u)
            if cap is not None and len(order) > cap:
                return None
    return order


def degree(t: Tree, v: int) -> int:
    """Number of neighbors of ``v`` in ``t``."""
    return t.degree(v)


def leaves(t: Tree) -> frozenset[int]:
    """Vertices of degree exactly 1. A degree-0 vertex is not a leaf."""
    return frozenset(v for v in range(t.vertex_count) if len(t.adjacency[v]) == 1)


def branches(t: Tree) -> frozenset[int]:
    """Vertices of degree 3 or more."""
    return frozenset(v for v in range(t.vertex_count) if len(t.adjacency[v]) >= 3)


def induced_subtree(t: Tree, members: Iterable[int]) -> tuple[Tree, dict[int, int]]:
    """Induced subgraph on ``members``, relabeled to dense ids.

    Returns the new tree and the old-id to new-id map. The members must be
    nonempty and connected in ``t``; otherwise this raises NotATreeError.
    The root is carried over when it belongs to the subset.
    """
    ordered = sorted(set(int(v) for v in members))
    if not ordered:
        raise NotATreeError("empty vertex subset")
    for v in ordered:
        if not 0 <= v < t.vertex_count:
            raise InvalidVertexError(f"vertex {v} is out of range")
    idx = {v: i for i, v in enumerate(ordered)}
    adj = [[idx[u] for u in t.adjacency[v] if u in idx] for v in ordered]
    root = idx[t.root] if t.root in idx else None
    try:
        return Tree(adj, root=root), idx
    except NotATreeError as exc:
        raise NotATreeError(f"induced subgraph is not a tree: {exc}") from exc


def centers(t: Tree) -> tuple[int, ...]:
    """The one or two eccentricity-minimizing vertices, by iterated leaf removal."""
    n = t.vertex_count
    if n == 1:
        return (0,)
    if n == 2:
        return (0, 1)
    deg = [len(ns) for ns in t.adjacency]
    alive = [True] * n
    layer = [v for v in range(n) if deg[v] == 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            for u in t.adjacency[v]:
                if alive[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        remaining -= len(layer)
        layer = nxt
    return tuple(sorted(v for v in range(n) if alive[v]))


def _rooted_code(t: Tree, root: int) -> bytes:
    order = [root]
    parent = {root: -1}
    for v in order:
        for u in t.adjacency[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    code: dict[int, bytes] = {}
    for v in reversed(order):
        kids = sorted(code[u] for u in t.adjacency[v] if parent.get(u) == v)
        code[v] = b"(" + b"".join(kids) + b")"
    return code[root]


def canonical_form(t: Tree | NullTree, rooted: bool | None = None) -> bytes:
    """Canonical byte code; equal codes mean isomorphic trees.

    With ``rooted`` left as None, the tree's own root decides: rooted trees
    get a root-respecting code, unrooted trees are canonicalized at the
    center (ties broken by the lexicographically smaller code).
    """
    if isinstance(t, NullTree):
        return b"*"
    if rooted is None:
        rooted = t.root is not None
    if rooted:
        if t.root is None:
            raise ValueError("rooted code requested for an unrooted tree")
        return _rooted_code(t, t.root)
    return min(_rooted_code(t, c) for c in centers(t))


def parse_tree(text: str) -> Tree:
    """Parse the edge-list format: one ``u v`` pair per line, optional ``root <id>`` line."""
    root = None
    edges: list[tuple[int, int]] = []
    seen_edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "root":
            if len(parts) != 2 or root is not None:
                raise NotATreeError(f"line {lineno}: malformed root line")
            root = int(parts[1])
            continue
        if len(parts) != 2:
            raise NotATreeError(f"line {lineno}: expected two vertex ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise NotATreeError(f"line {lineno}: non-integer vertex id in {line!r}") from exc
        if u < 0 or v < 0:
            raise NotATreeError(f"line {lineno}: negative vertex id")
        key = (min(u, v), max(u, v))
        if key in seen_edges:
            raise NotATreeError(f"line {lineno}: duplicate edge {u}-{v}")
        seen_edges.add(key)
        edges.append((u, v))
    if not edges and root is None:
        raise NotATreeError("empty input")
    return Tree.from_edges(edges, root=root)


def serialize_tree(t: Tree) -> str:
    lines = []
    if t.root is None and t.vertex_count == 1:
        # The format names vertices only through edges or the root line.
        raise ValueError("an unrooted single-vertex tree has no edge-list form")
    if t.root is not None:
        lines.append(f"root {t.root}")
    lines.extend(f"{u} {v}" for u, v in t.edges())
    return "\n".join(lines) + "\n"


def parse_child_list(data: str | Mapping) -> Tree:
    """Parse the rooted child-list JSON form {"root": id, "children": {id: [ids]}}."""
    doc = json.loads(data) if isinstance(data, str) else data
    try:
        root = int(doc["root"])
        children = {int(k): [int(c) for c in v] for k, v in doc["children"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise NotATreeError(f"malformed child-list document: {exc}") from exc
    edges = [(p, c) for p, kids in children.items() for c in kids]
    if not edges:
        if root != 0:
            raise NotATreeError("a one-vertex tree must use id 0")
        return Tree([[]], root=0)
    return Tree.from_edges(edges, root=root)


def serialize_child_list(t: Tree) -> dict:
    if t.root is None:
        raise ValueError("child-list form needs a rooted tree")
    parent = {t.root: -1}
    order = [t.root]
    for v in order:
        for u in t.adjacency[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    children: dict[str, list[int]] = {}
    for v in order:
        kids = [u for u in t.adjacency[v] if parent.get(u) == v]
        if kids:
            children[str(v)] = kids
    return {"root": t.root, "children": children}


def path_tree(n: int, root: int | None = None) -> Tree:
    if n < 1:
        raise ValueError("n must be at least 1")
    adj = [[] for _ in range(n)]
    for v in range(n - 1):
        adj[v].append(v + 1)
        adj[v + 1].append(v)
    return Tree(adj, root=root)


def star_tree(leaf_count: int) -> Tree:
    adj = [[i for i in range(1, leaf_count + 1)]] + [[0] for _ in range(leaf_count)]
    return Tree(adj)


def sary_tree(s: int, depth: int) -> Tree:
    """Finite rooted tree where every vertex above the last level has exactly s children."""
    if s < 1:
        raise ValueError("s must be at least 1")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    adj: list[list[int]] = [[]]
    level = [0]
    for _ in range(depth):
        nxt = []
        for v in level:
            for _ in range(s):
                adj.append([v])
                adj[v].append(len(adj) - 1)
                nxt.append(len(adj) - 1)
        level = nxt
    return Tree(adj, root=0)


def subdivide_tree(t: Tree, times: int = 1) -> Tree:
    """Insert a midpoint on every edge, ``times`` times. Ids of original vertices persist."""
    for _ in range(times):
        n = t.vertex_count
        adj: list[list[int]] = [[] for _ in range(n)]
        nxt = n
        for u, v in t.edges():
            adj.append([u, v])
            adj[u].append(nxt)
            adj[v].append(nxt)
            nxt += 1
        t = Tree(adj, root=t.root)
    return t
