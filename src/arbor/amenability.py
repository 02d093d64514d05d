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
from typing import Iterable, Sequence

from .errors import (
    DeclaredBoundsRefutedError,
    DegenerateImageError,
    NoBranchStructureError,
    UnsupportedStructureError,
)
from .exploration import Ball, ball_depths, explore_ball
from .subsets import SubsetSelection, boundary_of, connected_subsets, is_connected_in
from .trees import Tree, reach
from .trimming import (
    TrimmedView,
    hanging_components,
    lift_subset_through_trims,
    make_inessential,
    removal_steps_in_ball,
    sorted_handles,
)

log = logging.getLogger("arbor.amenability")

__all__ = [
    "FolnerCandidate",
    "CheegerResult",
    "cheeger_exact",
    "folner_from_inessential",
    "folner_from_branchless_path",
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
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    if isinstance(x, (tuple, list)):
        return [jsonable(i) for i in x]
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

    def sort_key(self):
        return (self.ratio, self.size, [repr(m) for m in sorted_handles(self.members)])

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

    For an infinite host explored through a Ball this is a certified upper
    bound on the true infimum, since every enumerated boundary is exact.
    Ties go to the smaller, then lexicographically earlier subset.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    allowed = None if region is None else sorted_handles(set(region))
    best = None
    best_key = None
    count = 0
    for sub in connected_subsets(host, max_size, allowed=allowed, guard=guard):
        count += 1
        bound = boundary_of(host, sub)
        ratio = Fraction(len(bound), len(sub))
        rough = (ratio, len(sub))
        if best is not None and rough > best_key[:2]:
            continue
        key = (ratio, len(sub), tuple(repr(m) for m in sorted_handles(sub)))
        if best is None or key < best_key:
            best = sub
            best_key = key
    if best is None:
        raise ValueError("no admissible subsets: the search region is empty")
    argmin = FolnerCandidate(SubsetSelection(host, best), "enumerated")
    scope = {"max_size": max_size, "subsets_enumerated": count}
    if allowed is not None:
        scope["region_size"] = len(allowed)
    return CheegerResult(best_key[0], argmin, scope)


def folner_from_inessential(ines) -> FolnerCandidate:
    """The inessential subtree minus its root, whose only outside contact is the root.

    For a size-k subtree the ratio is (number of members adjacent to the
    root)/(k-1); that is exactly 1/(k-1) whenever a single member hangs on
    the root, and the true recomputed ratio is reported in every case.
    """
    sel = SubsetSelection(ines.host, ines.members - {ines.root})
    return FolnerCandidate(
        sel,
        "inessential-minus-root",
        {"root": ines.root, "subtree_size": ines.size},
    )


def _branchless_run(view: TrimmedView, seed_radius: int, target_len: int) -> list:
    """Longest run (up to target_len) of consecutive degree-2 view vertices.

    Seeds are scanned in breadth-first order from the view root out to
    seed_radius; runs may extend past that radius. Deterministic.
    """
    base = view.root
    if base is None:
        return []
    seen = {base}
    layer = [base]
    order = [base]
    for _ in range(seed_radius):
        nxt = []
        for h in layer:
            for u in view.neighbors(h):
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        layer = sorted_handles(nxt)
        order.extend(layer)
        if not layer:
            break
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


def _lift_run_candidate(oracle, view: TrimmedView, run: Sequence, max_vertices: int | None) -> FolnerCandidate:
    run_set = frozenset(run)
    view_boundary = frozenset(
        h for h in run if any(u not in run_set for u in view.neighbors(h))
    )
    members = lift_subset_through_trims(oracle, run_set, view.level, max_vertices)
    sel = SubsetSelection(oracle, members)
    # The lift re-attaches only trimmed leaves hanging inside the set, so the
    # boundary must come back as the same set of vertices.
    assert sel.boundary == view_boundary
    return FolnerCandidate(
        sel,
        "branchless-path",
        {"trim_level": view.level, "path_vertices": len(run)},
    )


def folner_from_branchless_path(
    oracle,
    k: int,
    target_len: int,
    seed_radius: int = 6,
    max_vertices: int | None = None,
) -> FolnerCandidate | None:
    """A witness built from a degree-2 run of target_len vertices in the k-fold trim.

    The run is pulled back to the host by re-attaching everything trimmed
    along the way; the boundary survives the lift unchanged (at most the two
    run ends), so the candidate's ratio is at most 2/target_len. None when no
    run of the requested length is found within the seed scan.
    """
    if target_len < 1:
        raise ValueError("target_len must be at least 1")
    view = TrimmedView(oracle, k, max_vertices)
    run = _branchless_run(view, seed_radius, target_len)
    if len(run) < target_len:
        return None
    cand = _lift_run_candidate(oracle, view, run, max_vertices)
    assert cand.ratio <= Fraction(2, target_len)
    return cand


@dataclass(frozen=True)
class ContractionResult:
    """A tree with its maximal degree-2 chains collapsed to single edges."""

    tree: Tree
    stretch: int  # max vertices removed per chain, plus one
    vmap: dict  # kept old id -> new id
    chains: tuple  # (end_a, end_b, interior tuple), all in old ids

    def new_id(self, old: int) -> int:
        return self.vmap[old]


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
    A = frozenset(members)
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
    return len(A) <= 2 * len(boundary_of(host, A)) + slack


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
    """
    has_cap = hasattr(oracle, "hanging_component_size")
    scan = [v for v in range(ball.vertex_count) if v not in ball.frontier]
    if not has_cap:
        scan = scan[: budgets.scan_limit]
    candidates = []
    found = []
    for v in scan:
        r = ball.handle_of(v)
        if len(oracle.neighbors(r)) < 2:
            continue
        comps = hanging_components(oracle, r, budgets.component_budget)
        walked = [c for c in comps if c.members is not None]
        if not walked:
            continue
        pieces = []
        for c in walked:
            ines = make_inessential(oracle, {r} | c.members)
            pieces.append(ines)
            found.append(ines)
            candidates.append(folner_from_inessential(ines))
        if len(pieces) >= 2 and len(walked) < len(comps):
            union = {r}
            for c in walked:
                union |= c.members
            ines = make_inessential(oracle, union)
            found.append(ines)
            candidates.append(folner_from_inessential(ines))
    return candidates, found


def _path_witnesses(oracle, budgets: ClassifyBudgets, k_max: int, path_target: int):
    candidates = []
    chain_lengths = {}
    for k in range(k_max + 1):
        view = TrimmedView(oracle, k, budgets.max_vertices)
        if view.root is None:
            break
        run = _branchless_run(view, budgets.seed_radius, path_target)
        chain_lengths[k] = len(run)
        for length in range(1, len(run) + 1):
            candidates.append(_lift_run_candidate(oracle, view, run[:length], budgets.max_vertices))
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
    dist = ball_depths(ball)
    safe_limit = ball.radius - declared.k - 1
    deg2 = set()
    for v in range(ball.vertex_count):
        if not survives[v]:
            continue
        if ball.frontier and dist[v] > safe_limit:
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
    # A run of L degree-2 vertices witnesses ratio <= 2/L, so the default
    # target is twice the requested threshold.
    path_target = budgets.path_target if budgets.path_target is not None else 2 * d_target
    k_max = budgets.k_max if budgets.k_max is not None else max(1, budgets.radius - path_target)
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
    witnesses.sort(key=lambda c: (-c.ratio, c.size, [repr(m) for m in sorted_handles(c.members)]))

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
