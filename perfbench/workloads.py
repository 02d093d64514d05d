"""The four workloads: how each builds its inputs from the seed, runs one op, and checks it.

An op is one call into arbor's public API or one in-process
``arbor.cli.main(argv, stdout=StringIO())``. Each workload repeats a fixed
cycle of op kinds, so every run holds the same mix. Parameters that vary
(depths, sizes, radii) are dealt from a seeded shuffle of a fixed range,
so each run covers the whole range; the seed changes the order, the
per-op random seeds and the generated trees.

``check`` raises ``CheckFailed`` on a wrong output. Statistical checks use
a tolerance wide enough that thousands of correct ops across many seeds
essentially never trip it (see README.md, "Statistical tolerances"); the
number of ops outside the acceptance tests' own tolerance is reported
separately as ``excursions``.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

SCHEDULE_LENGTH = 2000  # ops per run never reach this; the schedule wraps if they do


class CheckFailed(Exception):
    pass


def ensure(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _deal(rng: random.Random, values):
    """An endless stream over ``values``, each pass in a fresh seeded order."""
    while True:
        batch = list(values)
        rng.shuffle(batch)
        yield from batch


def _op_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _cli(arbor, argv):
    out = io.StringIO()
    code = arbor.cli.main(list(argv), stdout=out)
    return code, out.getvalue()


def _dichotomy_text(report) -> str:
    doc = report.to_json()
    doc["params"].pop("workers", None)  # not an output: a later change removes the parameter
    return json.dumps(doc, sort_keys=True)


class Workload:
    name = ""
    cycle: tuple = ()
    cycles_per_mix = 1  # whole cycles measured together; more where dealt parameters recur in a few cycles
    WARMUP: dict = {}  # the set-up's warm-up op, the same kind and size at every seed

    def __init__(self, arbor):
        self.arbor = arbor
        self.excursions = 0

    def setup(self, seed: int, workdir) -> dict:
        """Inputs for one run: files under ``workdir`` and the op schedule."""
        state = self.prepare(seed, workdir)
        rng = random.Random(f"{self.name}:{seed}:schedule")
        params = self.param_streams(rng)
        state["schedule"] = [self.make_op(self.cycle[i % len(self.cycle)], params, rng) for i in range(SCHEDULE_LENGTH)]
        state["warmup"] = {**self.WARMUP, "seed": 1}  # the same cost at every seed
        return state

    def prepare(self, seed, workdir) -> dict:
        return {}

    def param_streams(self, rng) -> dict:
        return {}

    def make_op(self, kind, params, rng) -> dict:
        raise NotImplementedError

    def call(self, state, op):
        """The timed part of an op."""
        raise NotImplementedError

    def render(self, op, result) -> str:
        """The op's output as text; its sha256 is the golden digest."""
        if isinstance(result, tuple):  # (exit code, CLI stdout)
            return result[1]
        return json.dumps(result.to_json(), sort_keys=True)

    def output_bytes(self, result) -> int:
        return len(result[1].encode()) if isinstance(result, tuple) else 0

    def check(self, state, op, result) -> None:
        raise NotImplementedError


# ---------------------------------------------------------------------------


class GWShallow(Workload):
    """Many tiny trees through ``arbor gw events`` and ``arbor gw growth``."""

    name = "gw-shallow"
    cycle = ("path2", "path3", "sary21", "growth")
    WARMUP = {"kind": "path2"}
    # kind -> (law file, law, event, exact probability, trials)
    EVENTS = {
        "path2": ("law_half.json", ["1/2", "1/2"], "path(2)", Fraction(1, 8), 400),
        "path3": ("law_37.json", ["3/10", "7/10"], "path(3)", Fraction(7, 10) ** 4, 350),
        "sary21": ("law_binary.json", ["1/2", "0", "1/2"], "sary(2,1)", Fraction(1, 8), 500),
    }
    GROWTH = ("law_growth.json", ["0", "1/2", "1/2"], 6, 150)
    EVENT_SIGMAS = 6.0  # per-op gate; the acceptance test's 3 is counted as an excursion
    GROWTH_SES = 5.0  # per-op gate; the acceptance test's 4 is counted as an excursion

    def prepare(self, seed, workdir):
        files = {}
        for fname, probs, *_ in [*self.EVENTS.values(), self.GROWTH]:
            path = workdir / fname
            path.write_text(json.dumps({"p": probs}), encoding="utf-8")
            files[fname] = str(path)
        return {"files": files}

    def make_op(self, kind, params, rng):
        return {"kind": kind, "seed": _op_seed(rng)}

    def argv(self, state, op):
        kind, seed = op["kind"], str(op["seed"])
        if kind == "growth":
            fname, _, gen, trials = self.GROWTH
            return ["gw", "growth", "--input", state["files"][fname], "--seed", seed,
                    "--generation", str(gen), "--trials", str(trials)]
        fname, _, event, _, trials = self.EVENTS[kind]
        return ["gw", "events", "--input", state["files"][fname], "--seed", seed,
                "--event", event, "--trials", str(trials)]

    def call(self, state, op):
        return _cli(self.arbor, self.argv(state, op))

    def check(self, state, op, result):
        code, out = result
        ensure(code == 0, f"exit code {code}")
        doc = json.loads(out)
        ensure(doc["seed"] == op["seed"], "seed not echoed")
        kind = op["kind"]
        if kind == "growth":
            _, _, gen, trials = self.GROWTH
            target = Fraction(3, 2) ** gen
            ensure(doc["trials"] == trials and doc["generation"] == gen, "wrong growth parameters")
            ensure(doc["target"] == float(target), f"target {doc['target']} != {float(target)}")
            ensure(doc["monotone"] is True, "a deathless law produced a shrinking generation")
            miss = abs(doc["mean_final"] - doc["target"])
            ensure(miss <= self.GROWTH_SES * doc["std_error"], f"mean {doc['mean_final']} is {self.GROWTH_SES}+ SE off")
            if not doc["within_4se"]:
                self.excursions += 1
            return
        _, _, event, exact, trials = self.EVENTS[kind]
        ensure(doc["event"] == event and doc["trials"] == trials, "wrong event parameters")
        ensure(Fraction(doc["exact"]) == exact, f"exact {doc['exact']} != {exact}")
        ensure(doc["estimate"] == doc["successes"] / trials, "estimate is not successes/trials")
        miss = abs(doc["estimate"] - float(exact))
        ensure(miss <= max(self.EVENT_SIGMAS * doc["std_error"], 1e-15), f"estimate {doc['estimate']} is {self.EVENT_SIGMAS}+ SE off")
        if miss > max(3 * doc["std_error"], 1e-15):
            self.excursions += 1


class GWDeep(Workload):
    """``verify_dichotomy`` on the witness side: deep, wide generations, rejection sampling."""

    name = "gw-deep"
    cycle = ("quarter", "quarter", "quarter", "poisson")
    WARMUP = {"kind": "quarter"}
    TRIALS = {"quarter": 12, "poisson": 12}
    D_LIST = {"quarter": [3, 5], "poisson": [3]}

    def prepare(self, seed, workdir):
        GWSpec = self.arbor.GWSpec
        return {"laws": {"quarter": GWSpec(("1/4", "1/4", "1/2")), "poisson": GWSpec.poisson(1.5)}}

    def make_op(self, kind, params, rng):
        return {"kind": kind, "seed": _op_seed(rng)}

    def call(self, state, op):
        kind = op["kind"]
        return self.arbor.verify_dichotomy(state["laws"][kind], self.D_LIST[kind], self.TRIALS[kind], op["seed"])

    def render(self, op, result):
        return _dichotomy_text(result)

    def check(self, state, op, result):
        kind = op["kind"]
        ensure(result.side == "amenable", f"side {result.side}")
        ensure([e["d"] for e in result.per_d] == self.D_LIST[kind], "wrong d list")
        for e in result.per_d:
            ensure(e["trials"] == self.TRIALS[kind], "wrong trial count")
            ensure(e["horizon"] == e["d"] * e["d"] + e["d"] + 1, "wrong horizon")
            ensure(e["floor_ok"], f"d={e['d']}: fraction {e['fraction']} under floor {e['floor']}")
        ensure(result.all_floors_hold(), "all_floors_hold is false")


class Isoperimetry(Workload):
    """Random connected subsets, exact Cheeger minima and the dichotomy's bound side."""

    name = "isoperimetry"
    # A third subsets4 op puts the median latency inside the subsets4 ops, not in the gap between
    # the bound and subsets4 ops, where it would jump with the slowest bound op of a run.
    cycle = ("subsets3", "cheeger", "subsets4", "bound", "subsets3", "cheeger", "subsets4", "bound", "subsets4")
    cycles_per_mix = 3  # six cheeger ops deal each max_size twice, six bound ops each law three times
    WARMUP = {"kind": "cheeger", "max_size": 8}
    BATCH = 60
    CHEEGER_SIZES = (8, 9, 10)
    BOUND_LAWS = ((0, 0, 0, 1), (0, 0, "1/2", "1/2"))
    BOUND_TRIALS, BOUND_SUBSETS = 5, 300

    def prepare(self, seed, workdir):
        a = self.arbor
        return {
            "balls": {
                "subsets3": a.explore_ball(a.make_fixture("regular(3)"), 10),
                "subsets4": a.explore_ball(a.make_fixture("regular(4)"), 8),
                "cheeger": a.explore_ball(a.make_fixture("regular(3)"), 6),
            },
            "bound_laws": [a.GWSpec(p) for p in self.BOUND_LAWS],
        }

    def param_streams(self, rng):
        return {"cheeger": _deal(rng, self.CHEEGER_SIZES), "bound": _deal(rng, range(len(self.BOUND_LAWS)))}

    def make_op(self, kind, params, rng):
        op = {"kind": kind, "seed": _op_seed(rng)}
        if kind == "cheeger":
            op["max_size"] = next(params["cheeger"])
        elif kind == "bound":
            op["law"] = next(params["bound"])
        return op

    def call(self, state, op):
        a, kind = self.arbor, op["kind"]
        if kind == "cheeger":
            return a.cheeger_exact(state["balls"]["cheeger"], op["max_size"])
        if kind == "bound":
            return a.verify_dichotomy(state["bound_laws"][op["law"]], [], self.BOUND_TRIALS, op["seed"],
                                      n_subsets=self.BOUND_SUBSETS)
        ball = state["balls"][kind]
        rng = random.Random(op["seed"])
        out = []
        for _ in range(self.BATCH):
            members = a.random_connected_subset(ball, 1 + rng.randrange(20), rng)
            out.append((members, a.min_degree3_bound_check(ball, members)))
        return out

    def render(self, op, result):
        if op["kind"] == "bound":
            return _dichotomy_text(result)
        if op["kind"] == "cheeger":
            return super().render(op, result)
        return json.dumps([[sorted(m), ok] for m, ok in result])

    def check(self, state, op, result):
        kind = op["kind"]
        if kind == "cheeger":
            # A connected subset of a 3-regular tree with k vertices has at
            # least (k + 2) / 2 members with an outside neighbor, reached by
            # a subtree with no degree-2 vertex; the ball's interior holds such
            # subtrees of every size up to 10.
            k = op["max_size"] - op["max_size"] % 2
            ensure(result.value == Fraction(k + 2, 2 * k), f"cheeger {result.value} at max_size {op['max_size']}")
            ensure(result.argmin.ratio == result.value, "argmin ratio differs from the value")
            return
        if kind == "bound":
            check = result.nonamenable
            ensure(result.side == "nonamenable", f"side {result.side}")
            ensure(check["subsets_checked"] == self.BOUND_SUBSETS, "wrong subset count")
            ensure(check["bound_violations"] == 0, f"{check['bound_violations']} bound violations")
            ensure(check["cheeger_floor_ok"], "cheeger floor violated")
            return
        ensure(len(result) == self.BATCH, "short batch")
        for members, ok in result:
            ensure(ok, f"doubling bound fails on a {len(members)}-vertex subset")


class Classify(Workload):
    """``arbor classify`` on fixtures and finite trees, and ``arbor trim`` on staircases."""

    name = "classify"
    cycle = ("staircase", "input", "zline", "trim", "staircase", "input", "regular3", "trim")
    WARMUP = {"kind": "staircase", "param": 25}
    STAIR_RADII = range(22, 29)  # d-target is radius - 2
    ZLINE_TARGETS = range(20, 31)
    TRIM_N = (1, 2, 3)
    TREE_COUNT, TREE_SIZES = 12, (60, 140)

    def prepare(self, seed, workdir):
        rng = random.Random(f"{self.name}:{seed}:trees")
        lo, hi = self.TREE_SIZES
        trees = []
        for i in range(self.TREE_COUNT):
            n = lo + (hi - lo) * i // (self.TREE_COUNT - 1)
            parents = [rng.randrange(v) for v in range(1, n)]
            path = workdir / f"tree_{i:02d}.txt"
            path.write_text("root 0\n" + "".join(f"{p} {v}\n" for v, p in enumerate(parents, 1)), encoding="utf-8")
            trees.append({"path": str(path), "largest_branch": _largest_branch(n, parents)})
        return {"trees": trees}

    def param_streams(self, rng):
        return {
            "staircase": _deal(rng, self.STAIR_RADII),
            "zline": _deal(rng, self.ZLINE_TARGETS),
            "trim": _deal(rng, self.TRIM_N),
            "input": _deal(rng, range(self.TREE_COUNT)),
        }

    def make_op(self, kind, params, rng):
        op = {"kind": kind}
        if kind in params:
            op["param"] = next(params[kind])
        return op

    def argv(self, state, op):
        kind, p = op["kind"], op.get("param")
        if kind == "staircase":
            return ["classify", "--fixture", "staircase", "--radius", str(p), "--d-target", str(p - 2)]
        if kind == "zline":
            return ["classify", "--fixture", "zline_pendant", "--d-target", str(p)]
        if kind == "regular3":
            return ["classify", "--fixture", "regular(3)", "--declared-k", "0", "--declared-d", "1", "--declared-R", "1"]
        if kind == "input":
            return ["classify", "--input", state["trees"][p]["path"]]
        return ["trim", "--fixture", f"staircase_n({p})", "--radius", "8", "--steps", str(3 * p)]

    def call(self, state, op):
        return _cli(self.arbor, self.argv(state, op))

    def check(self, state, op, result):
        code, out = result
        doc = json.loads(out)
        kind, p = op["kind"], op.get("param")
        if kind == "trim":
            ensure(code == 0, f"exit code {code}")
            codes = doc["codes"]
            ensure(len(codes) == 3 * p + 1, "wrong code count")
            ensure(all(codes[j] == codes[j % p] for j in range(len(codes))), f"staircase_n({p}) codes lack period {p}")
            ensure(doc["periodic"] is True, "period not detected")
            return
        verdict = doc.get("verdict")
        if kind == "regular3":
            ensure(code == 0 and verdict == "nonamenable-certified", f"regular(3): exit {code}, {verdict}")
            ensure(Fraction(doc["certificate"]["lower_bound"]) == Fraction(1, 2), "wrong certified floor")
            return
        if kind == "input":
            # Every branch hanging off a non-leaf is an inessential witness of ratio 1/size.
            branch = state["trees"][p]["largest_branch"]
            ensure(Fraction(doc["best_ratio"]) <= Fraction(1, branch), f"best ratio {doc['best_ratio']} > 1/{branch}")
            if branch < 10:
                ensure(code in (0, 3), f"exit code {code}")
                return
            d_target = 10
        else:
            d_target = p - 2 if kind == "staircase" else p
        ensure(code == 0 and verdict == "amenable-witnessed", f"{kind}: exit {code}, {verdict}")
        ensure(Fraction(doc["best_ratio"]) <= Fraction(1, d_target), "best ratio above 1/d-target")


def _largest_branch(n: int, parents) -> int:
    """Largest component of T - r over vertices r of degree >= 2, for the tree with parent list."""
    parent = [-1] + list(parents)
    degree = [0] * n
    for v in range(1, n):
        degree[v] += 1
        degree[parent[v]] += 1
    below = [1] * n
    for v in range(n - 1, 0, -1):  # parents precede children
        below[parent[v]] += below[v]
    best = 0
    for v in range(1, n):
        p = parent[v]
        if degree[p] >= 2:
            best = max(best, below[v])  # the child side, seen from p
        if degree[v] >= 2:
            best = max(best, n - below[v])  # the parent side, seen from v
    return best


WORKLOADS = {w.name: w for w in (GWShallow, GWDeep, Isoperimetry, Classify)}
