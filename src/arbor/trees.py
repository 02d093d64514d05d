"""Finite trees over dense integer ids: construction, canonical codes, parsing.

Trees are the only graph class in this package. Construction validates the
tree invariants once, so downstream code never rechecks them. Balls and
samples that the library builds itself go through the private
``Tree._trusted``, which keeps one check, the edge count: their walks make
them connected, symmetric and in range, and a connected graph on n
vertices with n - 1 edges is a tree. Four walks
are shared by the rest of the package: ``reach``, the breadth-first walk of
the connectivity and component checks; ``bfs_layers``, the layer-by-layer
walk of the trim-level scans; ``rooted_order``, the parent walk of a tree's
adjacency lists behind canonical codes, the child-list form and
``TreeAsOracle``'s component sizes; and ``peel``, the one leaf-removal loop
behind trim orbits and a ball's removal steps. ``reach`` and ``bfs_layers``
work on any ``neighbors`` callable, not only on trees.
"""

from __future__ import annotations

import json
from itertools import count
from typing import Iterable, Iterator, Mapping

from .errors import InvalidVertexError, NotATreeError

__all__ = [
    "Tree",
    "canonical_form",
    "parse_tree",
    "parse_child_list",
    "serialize_child_list",
    "path_tree",
    "sary_tree",
    "subdivide_tree",
]


class Tree:
    """Immutable finite tree on vertices 0..n-1 with an optional root.

    Parameters
    ----------
    adjacency : sequence of neighbor collections, indexed by vertex id
    root : optional distinguished vertex id

    Construction validates symmetry, absence of loops and duplicate edges,
    the tree edge count, and connectivity. Downstream code relies on these
    and never rechecks them. The library's own balls and samples are built
    through ``_trusted``, which checks only the edge count.
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

    @classmethod
    def _trusted(cls, adjacency: list[list[int]], root: int | None = None) -> "Tree":
        """A tree from adjacency lists that a library walk built, checking the edge count alone.

        The caller guarantees what its walk makes true: at least one vertex,
        every id an int in range, symmetric lists, no self-loop, every vertex
        reachable from vertex 0, and ``root`` in range. A connected graph on n
        vertices is a tree exactly when it has n - 1 edges, and a bad host
        can break nothing else: a cycle or a repeated neighbor it reports
        adds an edge, so either raises NotATreeError("contains a cycle").
        Each list must also be in increasing order, as ``__init__`` sorts it.
        Both callers number vertices in breadth-first order, so a tree's
        lists come out that way: each vertex's parent, then its children as
        they are numbered.
        """
        adj = tuple(map(tuple, adjacency))
        if sum(map(len, adj)) != 2 * (len(adj) - 1):
            raise NotATreeError("contains a cycle")
        t = object.__new__(cls)
        object.__setattr__(t, "vertex_count", len(adj))
        object.__setattr__(t, "adjacency", adj)
        object.__setattr__(t, "root", root)
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tree is immutable")

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]], root: int | None = None) -> "Tree":
        """The tree on vertices 0..n-1 with these edges, n being one past the largest id named."""
        edges = list(edges)
        n = 1 + max((max(u, v) for u, v in edges), default=root if root is not None else 0)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if u < 0 or v < 0:
                raise NotATreeError(f"edge {u}-{v} is out of range")
            adj[u].append(v)
            adj[v].append(u)
        return cls(adj, root=root)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self.vertex_count:
            raise InvalidVertexError(f"vertex {v} is out of range (0..{self.vertex_count - 1})")
        return self.adjacency[v]

    def edges(self) -> Iterator[tuple[int, int]]:
        for v, ns in enumerate(self.adjacency):
            for u in ns:
                if u > v:
                    yield (v, u)

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


def reach(neighbors, start, within=None) -> list:
    """Vertices reachable from ``start``, in breadth-first order with ``start`` first.

    The walk steps only onto members of ``within`` when it is given;
    ``start`` itself is always included. Neighbors are visited in the order
    ``neighbors(v)`` lists them.
    """
    order = [start]
    seen = {start}
    for v in order:
        for u in neighbors(v):
            if u in seen or (within is not None and u not in within):
                continue
            seen.add(u)
            order.append(u)
    return order


def sorted_handles(handles: Iterable) -> list:
    """Deterministic ordering that tolerates mixed handle shapes."""
    handles = list(handles)
    try:
        return sorted(handles)
    except TypeError:
        return sorted(handles, key=repr)


def bfs_layers(neighbors, start) -> Iterator[list]:
    """The breadth-first layers around ``start``, each in ``sorted_handles`` order.

    Yields ``[start]``, then the vertices one step further out, and so on
    until a layer is empty. A layer's neighbors are only asked for when the
    next layer is requested, so a caller that stops early explores no further.
    """
    seen = {start}
    layer = [start]
    while layer:
        yield layer
        nxt = []
        for v in layer:
            for u in neighbors(v):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        layer = sorted_handles(nxt)


def peel(adj, known) -> Iterator[tuple[int, list[int]]]:
    """Iterated leaf removal on a finite tree or piece of one, a round at a time.

    Yields (t, dead) for rounds t = 1, 2, ..., where dead lists in id order
    the vertices of degree 1 among those still present, all removed at once;
    stops at the first round that removes nothing. Vertex w takes part only
    through round known[w]: after that its degree may depend on vertices the
    caller cannot see, so it is never removed. A vertex is looked at only when
    its degree drops to 1, so a whole call costs O(n log n) at most.
    ``trim_orbit`` peels a whole tree, with every known[w] at the round cap;
    ``removal_steps_in_ball`` peels a ball, with known[w] cut by the frontier.
    """
    deg = [len(ns) for ns in adj]
    gone = [False] * len(adj)
    layer = [w for w, d in enumerate(deg) if d == 1]
    for t in count(1):
        dead = sorted(w for w in layer if deg[w] == 1 and known[w] >= t)
        if not dead:
            return
        for w in dead:
            gone[w] = True
        layer = []
        for w in dead:
            for u in adj[w]:
                if not gone[u]:
                    deg[u] -= 1
                    if deg[u] == 1:
                        layer.append(u)
        yield t, dead


def rooted_order(adj, root) -> tuple[list[int], list[int]]:
    """A finite tree's vertices in breadth-first order from ``root``, and each vertex's parent.

    ``adj`` holds the tree's adjacency lists, indexed by vertex id, and the
    walk visits neighbors in the order each list gives them. parent[root]
    is -1. The lists must form a tree: the walk takes every neighbor but the
    parent as a child.
    """
    parent = [-1] * len(adj)
    order = [root]
    for v in order:
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                order.append(u)
    return order, parent


def canonical_form(t: Tree) -> bytes:
    """Canonical byte code of a rooted tree; equal codes mean isomorphic rooted trees.

    Each vertex's code is its children's codes, sorted and joined, in
    parentheses; the tree's code is its root's. An unrooted tree is a
    ValueError.
    """
    if t.root is None:
        raise ValueError("a canonical code needs a rooted tree")
    adj = t.adjacency
    order, parent = rooted_order(adj, t.root)
    code: list = [None] * len(adj)
    for v in reversed(order):
        code[v] = b"(" + b"".join(sorted(code[u] for u in adj[v] if u != parent[v])) + b")"
    return code[t.root]


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
    order, parent = rooted_order(t.adjacency, t.root)
    children: dict[str, list[int]] = {}
    for v in order:
        kids = [u for u in t.adjacency[v] if u != parent[v]]
        if kids:
            children[str(v)] = kids
    return {"root": t.root, "children": children}


def path_tree(n: int) -> Tree:
    if n < 1:
        raise ValueError("n must be at least 1")
    adj = [[] for _ in range(n)]
    for v in range(n - 1):
        adj[v].append(v + 1)
        adj[v + 1].append(v)
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


def subdivide_tree(t: Tree) -> Tree:
    """Insert a midpoint on every edge. Ids of original vertices persist."""
    n = t.vertex_count
    adj: list[list[int]] = [[] for _ in range(n)]
    nxt = n
    for u, v in t.edges():
        adj.append([u, v])
        adj[u].append(nxt)
        adj[v].append(nxt)
        nxt += 1
    return Tree(adj, root=t.root)
