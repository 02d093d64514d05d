"""Lazily evaluated infinite trees used as test hosts and CLI inputs.

Each fixture is a neighbor oracle over hashable handles: ``root`` and
``neighbors(h)``, which raises InvalidVertexError for a handle that is not a
vertex. Fixtures also answer ``hanging_component_sizes(r)``: a dict from
each neighbor u of r, in ``neighbors(r)`` order, to the size of u's
component in the tree minus r (``math.inf`` when that component is
infinite), stated once as the rule ``_sizes(r, hood)`` on r's neighbors
(``exploration._SizeRule``). It lets searches skip unbounded walks.
"""

from __future__ import annotations

import math
import re

from .errors import InvalidVertexError, UnknownFixtureError
from .exploration import _SizeRule

__all__ = ["make_fixture", "list_fixtures"]


class RegularTree(_SizeRule):
    """The infinite tree in which every vertex has degree exactly k.

    Handles are child-index tuples: the root is (), its k subtrees start
    with 0..k-1, and every later step picks one of k-1 children.
    """

    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("degree must be at least 2")
        self.k = k

    @property
    def root(self):
        return ()

    def _check(self, h) -> None:
        if not isinstance(h, tuple):
            raise InvalidVertexError(f"handle {h!r} is not a tuple")
        for i, c in enumerate(h):
            limit = self.k if i == 0 else self.k - 1
            if not (isinstance(c, int) and 0 <= c < limit):
                raise InvalidVertexError(f"handle {h!r} has an out-of-range step")

    def neighbors(self, h):
        self._check(h)
        if h == ():
            return tuple((i,) for i in range(self.k))
        return (h[:-1],) + tuple(h + (i,) for i in range(self.k - 1))

    def _sizes(self, r, hood) -> dict:
        return dict.fromkeys(hood, math.inf)

    def __repr__(self) -> str:
        return f"RegularTree({self.k})"


class SAryTree(_SizeRule):
    """The infinite rooted tree where every vertex has exactly s children.

    The root has degree s; everything else has degree s+1. Handles are
    child-index tuples with entries in range(s).
    """

    __slots__ = ("s",)

    def __init__(self, s: int):
        if s < 1:
            raise ValueError("child count must be at least 1")
        self.s = s

    @property
    def root(self):
        return ()

    def _check(self, h) -> None:
        if not isinstance(h, tuple):
            raise InvalidVertexError(f"handle {h!r} is not a tuple")
        for c in h:
            if not (isinstance(c, int) and 0 <= c < self.s):
                raise InvalidVertexError(f"handle {h!r} has an out-of-range step")

    def neighbors(self, h):
        self._check(h)
        kids = tuple(h + (i,) for i in range(self.s))
        if h == ():
            return kids
        return (h[:-1],) + kids

    def _sizes(self, r, hood) -> dict:
        sizes = dict.fromkeys(hood, math.inf)
        if r and self.s == 1:
            # On the single ray the component through the parent is finite.
            sizes[r[:-1]] = len(r)
        return sizes

    def __repr__(self) -> str:
        return f"SAryTree({self.s})"


class ZLinePendant(_SizeRule):
    """A two-way infinite line with one extra leaf hanging at the origin.

    Handles: ("z", n) for line vertices, ("p", 0) for the pendant leaf.
    The root is ("z", 0), the attachment vertex (the only degree-3 vertex).
    """

    __slots__ = ()

    @property
    def root(self):
        return ("z", 0)

    def _check(self, h) -> None:
        ok = (
            isinstance(h, tuple)
            and len(h) == 2
            and (h[0] == "z" and isinstance(h[1], int) or h == ("p", 0))
        )
        if not ok:
            raise InvalidVertexError(f"handle {h!r} is not a vertex of this tree")

    def neighbors(self, h):
        self._check(h)
        if h == ("p", 0):
            return (("z", 0),)
        n = h[1]
        out = (("z", n - 1), ("z", n + 1))
        if n == 0:
            out = out + (("p", 0),)
        return out

    def _sizes(self, r, hood) -> dict:
        sizes = dict.fromkeys(hood, math.inf)
        if ("p", 0) in sizes:
            sizes[("p", 0)] = 1
        return sizes

    def __repr__(self) -> str:
        return "ZLinePendant()"


class ThreeRegularPlusRay(_SizeRule):
    """A 3-regular tree with a one-way infinite ray grafted at one vertex.

    The graft vertex ("t", ()) has degree 4; other tree vertices have degree
    3; ray vertices ("r", i), i >= 1, have degree 2. The root is the graft.
    """

    __slots__ = ()

    @property
    def root(self):
        return ("t", ())

    def _check(self, h) -> None:
        if not (isinstance(h, tuple) and len(h) == 2):
            raise InvalidVertexError(f"handle {h!r} is not a vertex of this tree")
        kind, rest = h
        if kind == "r":
            if not (isinstance(rest, int) and rest >= 1):
                raise InvalidVertexError(f"handle {h!r} is not a vertex of this tree")
        elif kind == "t":
            if not isinstance(rest, tuple):
                raise InvalidVertexError(f"handle {h!r} is not a vertex of this tree")
            for i, c in enumerate(rest):
                limit = 3 if i == 0 else 2
                if not (isinstance(c, int) and 0 <= c < limit):
                    raise InvalidVertexError(f"handle {h!r} has an out-of-range step")
        else:
            raise InvalidVertexError(f"handle {h!r} is not a vertex of this tree")

    def neighbors(self, h):
        self._check(h)
        kind, rest = h
        if kind == "r":
            prev = ("t", ()) if rest == 1 else ("r", rest - 1)
            return (prev, ("r", rest + 1))
        if rest == ():
            return tuple(("t", (i,)) for i in range(3)) + (("r", 1),)
        return (("t", rest[:-1]),) + tuple(("t", rest + (i,)) for i in range(2))

    def _sizes(self, r, hood) -> dict:
        return dict.fromkeys(hood, math.inf)

    def __repr__(self) -> str:
        return "ThreeRegularPlusRay()"


class Staircase(_SizeRule):
    """A one-way spine with a finite column of n*i vertices above spine position i.

    Handles are (i, j): spine vertices (i, 0) for i >= 0, and column vertices
    (i, j) for i >= 1, 1 <= j <= n*i. Removing all leaves shifts the picture:
    after n removal rounds the tree is isomorphic to itself, which makes this
    the standard example of a periodic, never-vanishing trimming orbit.
    """

    __slots__ = ("n",)

    def __init__(self, n: int = 1):
        if n < 1:
            raise ValueError("column slope must be at least 1")
        self.n = n

    @property
    def root(self):
        return (0, 0)

    def _check(self, h) -> None:
        ok = (
            isinstance(h, tuple)
            and len(h) == 2
            and isinstance(h[0], int)
            and isinstance(h[1], int)
            and h[0] >= 0
            and 0 <= h[1] <= self.n * h[0]
        )
        if not ok:
            raise InvalidVertexError(f"handle {h!r} is not a vertex of this tree")

    def neighbors(self, h):
        self._check(h)
        i, j = h
        out = []
        if j == 0:
            if i >= 1:
                out.append((i - 1, 0))
            out.append((i + 1, 0))
            if self.n * i >= 1:
                out.append((i, 1))
        else:
            out.append((i, j - 1))
            if j < self.n * i:
                out.append((i, j + 1))
        return tuple(sorted(out))

    def _sizes(self, r, hood) -> dict:
        sizes = dict.fromkeys(hood, math.inf)
        i, j = r
        if j == 0:
            if (i, 1) in sizes:
                sizes[(i, 1)] = self.n * i
            if i >= 1:
                # Everything left of spine position i: i spine vertices and
                # the columns at 1..i-1.
                sizes[(i - 1, 0)] = i + self.n * i * (i - 1) // 2
        elif (i, j + 1) in sizes:
            sizes[(i, j + 1)] = self.n * i - j
        return sizes

    def __repr__(self) -> str:
        return f"Staircase({self.n})"


_FIXTURES = {
    "regular": (RegularTree, 1, "regular(k): infinite tree, every vertex degree k"),
    "sary": (SAryTree, 1, "sary(s): infinite rooted tree, every vertex s children"),
    "zline_pendant": (ZLinePendant, 0, "two-way infinite line with one pendant leaf at the origin"),
    "threereg_plus_ray": (ThreeRegularPlusRay, 0, "3-regular tree with an infinite ray grafted at the root"),
    "staircase": (Staircase, 0, "spine with a column of i vertices at position i"),
    "staircase_n": (Staircase, 1, "staircase_n(n): spine with a column of n*i vertices at position i"),
}

_NAME_RE = re.compile(r"^([a-z0-9_]+?)(?:\((\d+(?:\s*,\s*\d+)*)\))?$")


def make_fixture(name: str):
    """Build a fixture from its textual name, e.g. ``regular(3)`` or ``staircase``."""
    m = _NAME_RE.match(name.strip())
    if not m:
        raise UnknownFixtureError(f"cannot parse fixture name {name!r}")
    base, argtext = m.group(1), m.group(2)
    entry = _FIXTURES.get(base)
    if entry is None:
        known = ", ".join(sorted(_FIXTURES))
        raise UnknownFixtureError(f"unknown fixture {base!r}; known: {known}")
    cls, arity, _ = entry
    args = [int(a) for a in argtext.split(",")] if argtext else []
    if len(args) != arity:
        raise UnknownFixtureError(f"fixture {base!r} takes {arity} argument(s), got {len(args)}")
    try:
        return cls(*args)
    except ValueError as exc:
        raise UnknownFixtureError(f"bad fixture arguments for {base!r}: {exc}") from exc


def list_fixtures() -> list[dict]:
    out = []
    for base, (_, arity, blurb) in sorted(_FIXTURES.items()):
        pattern = base if arity == 0 else f"{base}({','.join('N' * arity)})"
        out.append({"name": pattern, "description": blurb})
    return out
