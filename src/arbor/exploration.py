"""Local exploration of possibly infinite trees through a neighbor oracle.

An oracle exposes ``root``, ``neighbors(handle)``, and optionally
``hanging_component_size(r, u)`` for fixtures that can answer component
sizes without a walk. ``explore_ball`` materializes a finite rooted ball
and records exactly which vertices sit on the information frontier, so
later boundary computations can refuse to guess instead of being wrong.
"""

from __future__ import annotations

from .errors import BudgetExhaustedError, IncompleteKnowledgeError, InvalidVertexError
from .trees import Tree, reach

__all__ = ["TreeAsOracle", "Ball", "explore_ball"]


class TreeAsOracle:
    """Wrap a finite Tree as a neighbor oracle.

    Useful for exercising the exploration machinery against hosts where the
    whole truth is already known.
    """

    __slots__ = ("tree", "root")

    def __init__(self, tree: Tree, root: int | None = None):
        self.tree = tree
        if root is None:
            root = tree.root if tree.root is not None else 0
        if not 0 <= root < tree.vertex_count:
            raise InvalidVertexError(f"root {root} is out of range")
        self.root = root

    def neighbors(self, v: int):
        return self.tree.neighbors(v)

    def hanging_component_size(self, r: int, u: int) -> int:
        """Size of the component of u after deleting r. Always finite here."""
        if u not in self.tree.neighbors(r):
            raise ValueError(f"{u} is not a neighbor of {r}")
        return len(reach(self.tree.neighbors, u, avoid=(r,)))


class Ball:
    """A fully explored radius-r ball, relabeled to dense ids with the center at 0.

    ``frontier`` holds the ids at exact distance r whose neighborhoods were
    not queried. Asking for their neighbors raises IncompleteKnowledgeError.
    An empty frontier means the exploration exhausted the component and the
    ball is the whole tree.

    ``interior`` is every other id, and ``sorted_interior`` the same ids in
    increasing order. Each is derived from ``frontier`` on its first read and
    cached, so a ball is read-only after construction: reassigning
    ``frontier`` (or ``tree``) would leave the caches stale.
    """

    __slots__ = ("oracle", "center", "radius", "tree", "frontier", "handles", "index", "_interior", "_sorted_interior")

    def __init__(self, oracle, center, radius: int, tree: Tree, frontier, handles):
        self.oracle = oracle
        self.center = center
        self.radius = radius
        self.tree = tree
        self.frontier = frozenset(frontier)
        self.handles = tuple(handles)
        self.index = {h: i for i, h in enumerate(self.handles)}
        self._interior: frozenset[int] | None = None
        self._sorted_interior: tuple[int, ...] | None = None

    @property
    def vertex_count(self) -> int:
        return self.tree.vertex_count

    @property
    def root(self) -> int:
        return 0

    @property
    def interior(self) -> frozenset[int]:
        if self._interior is None:
            self._interior = frozenset(range(self.vertex_count)) - self.frontier
        return self._interior

    @property
    def sorted_interior(self) -> tuple[int, ...]:
        if self._sorted_interior is None:
            self._sorted_interior = tuple(v for v in range(self.vertex_count) if v not in self.frontier)
        return self._sorted_interior

    def neighbors(self, v: int):
        if v in self.frontier:
            raise IncompleteKnowledgeError(
                f"vertex {v} is on the exploration frontier; its neighborhood is unknown"
            )
        return self.tree.neighbors(v)

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def handle_of(self, v: int):
        """The oracle-side handle behind local id ``v``."""
        if not 0 <= v < len(self.handles):
            raise InvalidVertexError(f"vertex {v} is out of range")
        return self.handles[v]

    def id_of(self, handle) -> int:
        try:
            return self.index[handle]
        except KeyError:
            raise InvalidVertexError(f"handle {handle!r} is not in this ball") from None

    def __repr__(self) -> str:
        return f"Ball(radius={self.radius}, {self.vertex_count} vertices, frontier={len(self.frontier)})"


def ball_depths(ball: Ball) -> list[int]:
    """Distance from the center of every ball vertex, indexed by local id."""
    adj = ball.tree.adjacency
    dist = [-1] * ball.vertex_count
    dist[0] = 0
    order = [0]
    for v in order:
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                order.append(u)
    return dist


def explore_ball(oracle, radius: int, center=None, max_vertices: int | None = None) -> Ball:
    """Breadth-first exploration out to ``radius`` edges from ``center``.

    Vertices at distance exactly ``radius`` are kept but their neighbors are
    never queried; they form the frontier. ``max_vertices`` bounds the number
    of discovered vertices; exceeding it raises BudgetExhaustedError rather
    than returning a silently truncated ball.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if center is None:
        center = oracle.root
    handles = [center]
    index = {center: 0}
    adj: list[list[int]] = [[]]
    dist = [0]
    layer = [0]
    for d in range(radius):
        nxt: list[int] = []
        for v in layer:
            for uh in oracle.neighbors(handles[v]):
                u = index.get(uh)
                if u is None:
                    u = len(handles)
                    if max_vertices is not None and u >= max_vertices:
                        raise BudgetExhaustedError(
                            f"ball of radius {radius} needs more than {max_vertices} vertices"
                        )
                    index[uh] = u
                    handles.append(uh)
                    adj.append([])
                    dist.append(d + 1)
                    nxt.append(u)
                if dist[u] == d + 1:
                    adj[v].append(u)
                    adj[u].append(v)
        layer = nxt
        if not layer:
            break
    frontier = [v for v in layer if dist[v] == radius]
    tree = Tree(adj, root=0)
    return Ball(oracle, center, radius, tree, frontier, handles)
