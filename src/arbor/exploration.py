"""Local exploration of possibly infinite trees through a neighbor oracle.

An oracle exposes ``root``, ``neighbors(handle)`` (a sequence of hashable
handles), and optionally ``hanging_component_sizes(r)``: a dict from each
neighbor u of r to the size of u's component in the tree minus r
(``math.inf`` when it is infinite), for hosts that can answer without a
walk. A host without it is a black box whose components are walked up to a
budget; the fixtures and ``TreeAsOracle`` answer by a rule on r's neighbors
(``_SizeRule``). ``explore_ball`` materializes a finite rooted ball and
records each vertex's depth; the vertices at depth exactly the radius sit on
the information frontier, so later boundary computations can refuse to
guess instead of being wrong.

``classify`` and ``ball_code_sequence`` put their host behind a per-call
memo of ``neighbors``, so each handle reaches the host once per call
however many readers ask for it.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import BudgetExhaustedError, IncompleteKnowledgeError, InvalidVertexError
from .trees import Tree, rooted_order

__all__ = ["TreeAsOracle", "Ball", "explore_ball"]


class _SizeRule:
    """``hanging_component_sizes(r)`` as a host's rule ``_sizes(r, hood)``, hood = ``neighbors(r)``.

    The public method checks r by asking ``neighbors(r)``; a
    ``_NeighborMemo`` passes the hood it already holds, so r is asked once.
    """

    __slots__ = ()

    def hanging_component_sizes(self, r) -> dict:
        return self._sizes(r, self.neighbors(r))


class TreeAsOracle(_SizeRule):
    """Wrap a finite Tree as a neighbor oracle, rooted at the tree's root, or at 0 if it has none.

    Useful for exercising the exploration machinery against hosts where the
    whole truth is already known. To root the oracle elsewhere, root the
    tree there: ``Tree(t.adjacency, root=r)``. It answers
    ``hanging_component_sizes(r)`` for every neighbor of r, all finite. The
    first such call caches one pass over the tree rooted at ``root``, so
    the oracle is read-only afterwards: reassigning ``tree`` or ``root``
    would leave the cache stale.
    """

    __slots__ = ("tree", "root", "_parent", "_below")

    def __init__(self, tree: Tree):
        self.tree = tree
        self.root = tree.root if tree.root is not None else 0
        self._parent: list[int] | None = None
        self._below: list[int] | None = None

    def neighbors(self, v: int):
        return self.tree.neighbors(v)

    def _sizes(self, r: int, hood) -> dict[int, int]:
        """Each neighbor u of r mapped to the size of u's component after deleting r."""
        if self._below is None:
            self._root_pass()
        parent, below = self._parent, self._below
        above = self.tree.vertex_count - below[r]
        return {u: below[u] if parent[u] == r else above for u in hood}

    def _root_pass(self) -> None:
        """Each vertex's parent and subtree size in the tree rooted at ``root``."""
        order, parent = rooted_order(self.tree.adjacency, self.root)
        below = [1] * len(order)
        for v in reversed(order[1:]):
            below[parent[v]] += below[v]
        self._parent, self._below = parent, below


class _NeighborMemo:
    """A host behind a memo of its ``neighbors``, for the length of one call.

    Each handle reaches the host's ``neighbors`` once; an error is not kept,
    so asking again asks the host again. ``root`` and
    ``hanging_component_sizes`` are the host's own, and absent exactly when
    the host lacks them, except that ``_SizeRule`` sizes are read off the
    memo's ``neighbors(r)``; a host's override is asked as it is. The memo
    keeps every answer for as long as it lives, so a caller drops it when it
    returns.
    """

    __slots__ = ("host", "_hoods", "_rule")

    def __init__(self, host):
        self.host = host
        self._hoods: dict = {}
        own = getattr(host, "hanging_component_sizes", None)
        rule = getattr(own, "__func__", None) is _SizeRule.hanging_component_sizes
        self._rule = host._sizes if rule and own.__self__ is host else None

    def neighbors(self, h):
        ns = self._hoods.get(h)
        if ns is None:
            ns = self._hoods[h] = self.host.neighbors(h)
        return ns

    @property
    def root(self):
        return self.host.root

    @property
    def hanging_component_sizes(self):
        if self._rule is None:
            return self.host.hanging_component_sizes
        return self._ruled_sizes

    def _ruled_sizes(self, r) -> dict:
        return self._rule(r, self.neighbors(r))


class Ball:
    """A fully explored radius-r ball, relabeled to dense ids with the center at 0.

    ``handles[v]`` is the host's handle behind id v, in the order the
    breadth-first walk that built the ball found them; ``handle_of`` reads
    it with a range check. ``depths[v]`` is the distance of id v from the
    center, recorded by that walk, so no caller walks it again, and it never
    decreases with v. ``explore_ball`` and ``GWSample.truncate_ball`` build
    balls; the ball keeps no link to its host.

    ``frontier`` holds the ids at depth exactly r: their neighborhoods were
    not queried, and asking for their neighbors raises
    IncompleteKnowledgeError. An empty frontier means the exploration
    exhausted the component before depth r, and the ball is the whole tree.
    ``interior`` is every other id, and ``sorted_interior`` the same ids in
    increasing order. Since depths never decrease, the interior is the ids
    below the first one at depth r, and the frontier the ids from there on.
    The construction finds that first id with one bisection, so
    ``neighbors(v)`` answers an interior id after one bound test; the three
    views are built from it on their first read and cached.

    ``random_connected_subset`` and ``cheeger_exact`` search a ball's
    interior through a table of each interior id's interior neighbors, in
    adjacency order, which the ball builds on the first search and keeps
    (``_pool_table``). An id whose neighbors are all interior shares its
    adjacency tuple, so the table costs about one list slot per interior id
    and one short tuple per id next to the frontier.
    A ball is read-only after construction: reassigning ``radius``,
    ``depths`` or ``tree`` would leave the count and the caches stale.
    """

    __slots__ = (
        "radius", "tree", "handles", "depths", "_inner", "_frontier", "_interior", "_sorted_interior", "_hoods",
    )

    def __init__(self, radius: int, tree: Tree, handles, depths):
        self.radius = radius
        self.tree = tree
        self.handles = tuple(handles)
        self.depths = tuple(depths)
        self._inner = bisect_left(self.depths, radius)  # interior ids are 0.._inner-1
        self._frontier: frozenset[int] | None = None
        self._interior: frozenset[int] | None = None
        self._sorted_interior: tuple[int, ...] | None = None
        self._hoods: list[tuple[int, ...]] | None = None

    @property
    def vertex_count(self) -> int:
        return self.tree.vertex_count

    @property
    def root(self) -> int:
        return 0

    @property
    def frontier(self) -> frozenset[int]:
        if self._frontier is None:
            self._frontier = frozenset(range(self._inner, len(self.depths)))
        return self._frontier

    @property
    def interior(self) -> frozenset[int]:
        if self._interior is None:
            self._interior = frozenset(range(self._inner))
        return self._interior

    @property
    def sorted_interior(self) -> tuple[int, ...]:
        if self._sorted_interior is None:
            self._sorted_interior = tuple(range(self._inner))
        return self._sorted_interior

    def neighbors(self, v: int):
        if 0 <= v < self._inner:
            return self.tree.adjacency[v]
        self.tree.neighbors(v)  # raises InvalidVertexError out of range
        raise IncompleteKnowledgeError(
            f"vertex {v} is on the exploration frontier; its neighborhood is unknown"
        )

    def _interior_hoods(self) -> list[tuple[int, ...]]:
        """Each interior id's interior neighbors, in adjacency order; built on the first call and kept."""
        if self._hoods is None:
            n = self._inner
            # A tree's lists increase, so the interior neighbors are a prefix,
            # and slicing a whole tuple returns the tuple itself.
            self._hoods = [ns[:bisect_left(ns, n)] for ns in self.tree.adjacency[:n]]
        return self._hoods

    def handle_of(self, v: int):
        """The oracle-side handle behind local id ``v``."""
        if not 0 <= v < len(self.handles):
            raise InvalidVertexError(f"vertex {v} is out of range")
        return self.handles[v]

    def __repr__(self) -> str:
        return f"Ball(radius={self.radius}, {self.vertex_count} vertices, frontier={len(self.frontier)})"


def _pool_table(host) -> tuple:
    """The table the searches over a tree read: each pool id's neighbors in the pool, and each id's neighbors.

    A Ball's pool is its interior, ids 0..k-1 as the ids increase with
    depth, and a Tree's is every id, so a pool vertex's index in the first
    table is its id. A pool vertex's degree is the length of its list in
    the second; a Ball's pool neighbors outside the pool are on the
    frontier. Any other host is a TypeError.
    """
    if isinstance(host, Ball):
        return host._interior_hoods(), host.tree.adjacency
    if isinstance(host, Tree):
        return host.adjacency, host.adjacency
    raise TypeError(f"the search needs a Tree or a Ball, not {type(host).__name__}")


def explore_ball(oracle, radius: int, center=None, max_vertices: int | None = None) -> Ball:
    """Breadth-first exploration out to ``radius`` edges from ``center``.

    Vertices at distance exactly ``radius`` are kept but their neighbors are
    never queried; they form the frontier. ``max_vertices`` (at least 1)
    bounds the number of discovered vertices; exceeding it raises
    BudgetExhaustedError rather than returning a silently truncated ball.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    if max_vertices is not None and max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
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
    # Connected, symmetric and in range by construction; a host that reports
    # a cycle or a neighbor twice adds an edge, which the count catches.
    tree = Tree._trusted(adj, root=0)
    return Ball(radius, tree, handles, dist)
