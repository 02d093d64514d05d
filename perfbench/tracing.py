"""Per-layer tracing from outside the library.

The tracer wraps arbor functions by rebinding their names in every arbor
module that holds them (``arbor.amenability.explore_ball`` as well as
``arbor.exploration.explore_ball``), and wraps methods and properties on
their classes. Each wrapped call records a span: name, start, end and
parent. Spans live in per-thread arrays until the traced phase ends and are
summarised once, so the per-call cost is a few appends.

A span's self time is its duration minus the time its child spans cover.
Children on the same thread never overlap, so their durations add up;
children on pool threads (the CLI's ``--workers`` pool) are parented to the
innermost open span of the thread that installed the tracer, and the union
of their intervals is subtracted instead. Spans on pool threads also record
the thread's CPU time, and their self time is taken from it, so that time a
pool thread spends waiting for the GIL is not counted as work.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import perf_counter, thread_time

import numpy as np

_IDX_BITS = 40  # parent codes are (buffer number << 40) | index in buffer

# "module:qualname" of every function given a span; the span is named
# "module.qualname". A target the library no longer has is reported as
# absent, not as an error.
SPANNED = [
    "galton_watson:sample",
    "galton_watson:_rng",
    "galton_watson:monte_carlo_event",
    "galton_watson:generation_growth_check",
    "galton_watson:verify_dichotomy",
    "galton_watson:_scan_witness",
    "galton_watson:_alive_and_sizes",
    "galton_watson:event_sary_prob",
    "subsets:random_connected_subset",
    "subsets:connected_subsets",
    "subsets:boundary_of",
    "amenability:cheeger_exact",
    "amenability:min_degree3_bound_check",
    "amenability:classify",
    "exploration:explore_ball",
    "trimming:trim_depth",
    "trimming:TrimmedView.survives",
    "trimming:hanging_components",
    "trimming:is_inessential",
    "trimming:ball_code_sequence",
    "trees:canonical_form",
    "cli:main",
]
# Generator functions: every resumption is a span, every item a count.
GENERATORS = {"subsets.connected_subsets"}
# Counted but not timed, so their time stays with the caller's self time.
COUNTED = ["exploration:Ball.interior"]
# Every fixture class's neighbors method, and TreeAsOracle's, share one name.
NEIGHBORS = "fixtures.neighbors"

OP = "perfbench.op"


class _Buffer:
    __slots__ = ("number", "pool", "name", "parent", "start", "end", "cpu_start", "cpu_end", "stack", "counts")

    def __init__(self, number: int, pool: bool):
        self.number = number
        self.pool = pool  # a thread other than the one that installed the tracer
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.cpu_start = array("d")  # filled on pool threads only
        self.cpu_end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._home: _Buffer | None = None
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _buf(self) -> _Buffer:
        b = getattr(self._local, "buf", None)
        if b is None:
            with self._lock:
                b = _Buffer(len(self._buffers), pool=self._home is not None)
                self._buffers.append(b)
            self._local.buf = b
        return b

    def _open(self, nid: int) -> tuple[_Buffer, int]:
        b = self._buf()
        if b.stack:
            parent = (b.number << _IDX_BITS) | b.stack[-1]
        elif b is not self._home and self._home is not None and self._home.stack:
            parent = (self._home.number << _IDX_BITS) | self._home.stack[-1]
        else:
            parent = -1
        i = len(b.name)
        b.name.append(nid)
        b.parent.append(parent)
        b.end.append(0.0)
        b.stack.append(i)
        if b.pool:
            b.cpu_end.append(0.0)
            b.cpu_start.append(thread_time())
        b.start.append(perf_counter())
        return b, i

    @staticmethod
    def _close(b: _Buffer, i: int) -> None:
        b.end[i] = perf_counter()
        if b.pool:
            b.cpu_end[i] = thread_time()
        b.stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        c = self._buf().counts
        c[key] = c.get(key, 0) + n

    def span(self, name: str, fn, post=None):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            b, i = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(b, i)
            if post is not None:
                post(out)
            return out

        return traced

    def generator(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def resume():
                while True:
                    b, i = tracer._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(b, i)
                    tracer.count(name + ".yielded")
                    yield item

            return resume()

        return traced

    def counter(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.count(name + ".calls")
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self, arbor) -> None:
        """Wrap every target in the loaded arbor package; call once, from the main thread."""
        self._home = self._buf()
        self._id(OP)
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "arbor" or name.startswith("arbor."))
        }
        posts = {
            "galton_watson.sample": self._after_sample,
            "exploration.explore_ball": lambda ball: self.count("exploration.explore_ball.vertices", ball.vertex_count),
            "amenability.cheeger_exact": lambda res: self.count(
                "amenability.cheeger_exact.subsets", res.scope["subsets_enumerated"]
            ),
        }
        for target in SPANNED:
            name = target.replace(":", ".")
            if name in GENERATORS:
                self._patch(mods, target, lambda fn, n=name: self.generator(n, fn))
            else:
                self._patch(mods, target, lambda fn, n=name: self.span(n, fn, posts.get(n)))
        for target in COUNTED:
            self._patch(mods, target, lambda fn, n=target.replace(":", "."): self.counter(n, fn))
        self._patch_neighbors(mods)

    def _patch(self, mods, target, make) -> None:
        name = target.replace(":", ".")
        modname, qual = target.split(":")
        mod = mods.get("arbor." + modname)
        owner_name, _, attr = qual.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        orig = getattr(owner, attr, None) if owner is not None else None
        if owner_name:
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else None
            if isinstance(raw, property):
                setattr(owner, attr, property(make(raw.fget)))
            elif callable(raw):
                setattr(owner, attr, make(raw))
            else:
                self.absent.append(name)
            return
        if not callable(orig):
            self.absent.append(name)
            return
        wrapped = make(orig)
        for m in mods.values():
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)

    def _patch_neighbors(self, mods) -> None:
        classes = []
        fixtures = mods.get("arbor.fixtures")
        if fixtures is not None:
            classes += [
                c for c in vars(fixtures).values()
                if isinstance(c, type) and c.__module__ == fixtures.__name__ and "neighbors" in c.__dict__
            ]
        oracle = getattr(mods.get("arbor.exploration"), "TreeAsOracle", None)
        if oracle is not None and "neighbors" in oracle.__dict__:
            classes.append(oracle)
        if not classes:
            self.absent.append(NEIGHBORS)
        for cls in classes:
            cls.neighbors = self.span(NEIGHBORS, cls.__dict__["neighbors"])

    def _after_sample(self, smp) -> None:
        self.count("galton_watson.generations_drawn", len(smp.counts))
        self.count("galton_watson.vertices_drawn", smp.vertex_count)
        self.count("galton_watson.sample.nonextinct", 0 if smp.extinct else 1)

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total time and self time, plus merged counters."""
        bufs = list(self._buffers)
        offsets = np.cumsum([0] + [len(b.name) for b in bufs])
        n = int(offsets[-1])
        names = np.concatenate([np.frombuffer(b.name, dtype=np.int32) for b in bufs]) if n else np.zeros(0, np.int32)
        starts = np.concatenate([np.frombuffer(b.start, dtype=np.float64) for b in bufs]) if n else np.zeros(0)
        ends = np.concatenate([np.frombuffer(b.end, dtype=np.float64) for b in bufs]) if n else np.zeros(0)
        codes = np.concatenate([np.frombuffer(b.parent, dtype=np.int64) for b in bufs]) if n else np.zeros(0, np.int64)
        thread = np.repeat(np.arange(len(bufs)), np.diff(offsets))
        has_parent = codes >= 0
        parent = np.full(n, -1, dtype=np.int64)
        pbuf = codes[has_parent] >> _IDX_BITS
        parent[has_parent] = offsets[pbuf] + (codes[has_parent] & ((1 << _IDX_BITS) - 1))
        dur = ends - starts
        # A span's own time: wall time, or thread CPU time for spans on pool threads.
        work = dur.copy()
        for b, lo in zip(bufs, offsets[:-1].tolist()):
            if b.pool and len(b.name):
                work[lo:lo + len(b.name)] = np.frombuffer(b.cpu_end) - np.frombuffer(b.cpu_start)

        child = np.flatnonzero(has_parent)
        covered = np.bincount(parent[child], weights=work[child], minlength=n)
        cross = child[thread[child] != thread[parent[child]]]
        for p in np.unique(parent[cross]):
            kids = child[parent[child] == p]
            covered[p] = _union_length(starts[kids], ends[kids])
        self_time = work - covered

        k = len(self.names)
        out = {
            "calls": dict(zip(self.names, np.bincount(names, minlength=k).tolist())),
            "total_s": dict(zip(self.names, np.bincount(names, weights=dur, minlength=k).tolist())),
            "self_s": dict(zip(self.names, np.bincount(names, weights=self_time, minlength=k).tolist())),
            "spans": n,
        }
        counts: dict[str, float] = {}
        for b in bufs:
            for key, v in b.counts.items():
                counts[key] = counts.get(key, 0) + v
        out["counts"] = counts

        # TrimmedView.survives misses its memo exactly when it calls trim_depth.
        sv, td = self._ids.get("trimming.TrimmedView.survives"), self._ids.get("trimming.trim_depth")
        misses = 0
        if sv is not None and td is not None and n:
            is_td = names == td
            child_td = is_td & has_parent
            misses = int(np.count_nonzero(names[np.unique(parent[child_td])] == sv))
        out["survives_misses"] = misses
        return out


def _union_length(starts, ends) -> float:
    order = np.argsort(starts)
    total = 0.0
    lo = hi = None
    for s, e in zip(starts[order].tolist(), ends[order].tolist()):
        if hi is None or s > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = s, e
        else:
            hi = max(hi, e)
    if hi is not None:
        total += hi - lo
    return total
