"""arbor's benchmark: one workload per run, one caller in a closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload gw-shallow --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced phase of a fixed number of ops, run after an untraced timed phase.
The line before it is a report with provenance, units, sample counts,
``fail_rate``, check details and the times as measured; the metrics' times
are scaled to a reference host speed measured next to each op (see
``hostspeed.py``). Every op's output is checked, and at the golden seed its
sha256 must match ``perfbench/golden/<workload>.json``.

``--record-golden`` runs the warm-up op and the first GOLDEN_OPS ops of the
seed's schedule untimed and writes their digests as the golden file instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = Path(".perfbench_work")  # relative to ROOT, so file names in outputs are stable
GOLDEN_DIR = HERE / "golden"

MIN_OPS = 100  # so at least ten latencies lie beyond p90
SETUP_REPEATS = 5
SETUP_SLICES = 5  # host speed slices timed before and after each set-up
GOLDEN_OPS = 400
TRACED_OPS = {"gw-shallow": 40, "gw-deep": 24, "isoperimetry": 32, "classify": 32}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}
MODULES = ("galton_watson", "subsets", "amenability", "exploration", "fixtures", "trimming", "trees", "cli", "perfbench")
PER_LAYER = {
    "galton_watson.sample.calls": "count",
    "galton_watson.sample.self_s": "s",
    "galton_watson._rng.calls": "count",
    "galton_watson._rng.self_s": "s",
    "galton_watson.generations_drawn": "count",
    "galton_watson.vertices_drawn": "count",
    "galton_watson.monte_carlo_event.self_s": "s",
    "galton_watson.sample.accept_ratio": "ratio",
    "galton_watson._scan_witness.self_s": "s",
    "galton_watson._alive_and_sizes.self_s": "s",
    "galton_watson.event_sary_prob.self_s": "s",
    "subsets.random_connected_subset.calls": "count",
    "subsets.random_connected_subset.self_s": "s",
    "exploration.Ball.interior.calls": "count",
    "subsets.connected_subsets.yielded": "count",
    "subsets.connected_subsets.self_s": "s",
    "subsets.boundary_of.calls": "count",
    "subsets.boundary_of.self_s": "s",
    "amenability.cheeger_exact.self_s": "s",
    "amenability.cheeger_exact.subsets_per_s": "1/s",
    "amenability.min_degree3_bound_check.self_s": "s",
    "exploration.explore_ball.calls": "count",
    "exploration.explore_ball.self_s": "s",
    "exploration.explore_ball.vertices": "count",
    "fixtures.neighbors.calls": "count",
    "fixtures.neighbors.self_s": "s",
    "trimming.trim_depth.calls": "count",
    "trimming.trim_depth.self_s": "s",
    "trimming.TrimmedView.survives.calls": "count",
    "trimming.TrimmedView.memo_hit_ratio": "ratio",
    "trimming.hanging_components.self_s": "s",
    "trimming.is_inessential.self_s": "s",
    "trees.canonical_form.calls": "count",
    "trees.canonical_form.self_s": "s",
    "amenability.classify.self_s": "s",
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace_overhead": "ratio",
    **{f"share.{m}": "ratio" for m in MODULES},
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_arbor():
    """Import arbor from this checkout's src/; None if it is not there."""
    src = ROOT / "src"
    if not (src / "arbor" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import arbor
    import arbor.cli  # noqa: F401

    if Path(arbor.__file__).resolve().parent != src / "arbor":
        return None
    return arbor


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def pin_to_one_core() -> tuple[int, int | None]:
    """Restrict this process to one of its usable cores; returns (usable cores before, core or None).

    On a shared host the CLI's thread pool otherwise waits, at every GIL
    hand-off, for a second virtual CPU that the hypervisor may have lent to
    another guest, and its wall time follows the host's load, not arbor's.
    Pinned, the pool's threads share one core, so the cost of handing the
    GIL across cores is not measured (see README.md, "One core").
    """
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1, None
    usable = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {usable[0]})
    return len(usable), usable[0]


def provenance(arbor, args, usable: int, core) -> dict:
    import numpy

    cores = os.cpu_count() or 1
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "arbor": arbor.__version__,
        "cpu_count": cores,
        "usable_cores": usable,
        "pinned_core": core,
        # `arbor gw events` defaults --workers to os.cpu_count(); the benchmark never passes it.
        "cli_default_workers": cores,
        "oversubscribed": cores > usable,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs ops of one workload, checking each output and counting failures."""

    def __init__(self, workload, golden):
        self.wl = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.errors: list[str] = []
        self.output_bytes = 0

    def run(self, state, index: int, timed_call=None) -> float:
        """Op ``index`` of the schedule; see ``run_op``."""
        golden = self.golden["digests"] if self.golden else []
        expected = golden[index] if index < len(golden) else None
        return self.run_op(state, state["schedule"][index % len(state["schedule"])], expected, timed_call)

    def run_op(self, state, op, expected=None, timed_call=None) -> float:
        """One op: call (timed), then render, digest and check. Returns the call's latency."""
        call = timed_call or self.wl.call
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = call(state, op)
        except Exception as exc:  # an op that raises is a failed op, never an aborted run
            latency = time.perf_counter() - start
            self._fail(op, f"{type(exc).__name__}: {exc}")
            return latency
        latency = time.perf_counter() - start
        try:
            self.output_bytes += self.wl.output_bytes(result)
            digest = hashlib.sha256(self.wl.render(op, result).encode()).hexdigest()
            if expected is not None:
                self.golden_checked += 1
                if digest != expected:
                    raise AssertionError("output differs from the golden digest")
            self.wl.check(state, op, result)
        except Exception as exc:  # a wrong output counts as a failed op
            self._fail(op, f"{type(exc).__name__}: {exc}")
        return latency

    def _fail(self, op, message) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"op {op}: {message}")
            log(f"FAILED op {op}: {message}")


def percentile_ms(latencies, q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1000.0


def fresh_workdir(name: str) -> Path:
    path = WORKDIR / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def scaled(host, step):
    """``step()``'s result, its wall time, and that time at the reference host speed,
    from host speed slices timed just before and after it."""
    before = [host.sample() for _ in range(SETUP_SLICES)]
    start = time.perf_counter()
    result = step()
    elapsed = time.perf_counter() - start
    after = [host.sample() for _ in range(SETUP_SLICES)]
    return result, elapsed, elapsed * hostspeed.REFERENCE_S / statistics.median(before + after)


def set_up(host, workload, runner, seed) -> tuple[dict, list[float], list[float]]:
    """Inputs, fixtures, schedule and one warm-up op, SETUP_REPEATS times; returns the last state
    and each repeat's wall time, unscaled and scaled."""

    def step():
        state = workload.setup(seed, fresh_workdir(workload.name))
        runner.run_op(state, state["warmup"], runner.golden and runner.golden["warmup"])
        return state

    raw, times = [], []
    for _ in range(SETUP_REPEATS):
        state, elapsed, at_reference = scaled(host, step)  # replaces the last state: one is alive at a time
        raw.append(elapsed)
        times.append(at_reference)
    return state, raw, times


def timed_phase(host, runner, state, seconds: float, mix: int) -> list:
    """Ops until ``seconds`` passed and MIN_OPS ran in whole mixes of ``mix`` ops; per op: latency,
    wall and CPU time incl. checks, and the time of a host speed slice run just before it."""
    ops = []
    deadline = time.perf_counter() + seconds
    while len(ops) // mix * mix < MIN_OPS or time.perf_counter() < deadline:
        slice_s = host.sample()
        start, cpu = time.perf_counter(), time.process_time()
        latency = runner.run(state, len(ops))
        ops.append((latency, time.perf_counter() - start, time.process_time() - cpu, slice_s))
    return ops


def end_to_end(ops, mix: int, scale: bool = True) -> dict:
    """Throughput, latency percentiles and CPU per op over the whole mixes of ``mix`` ops, so every
    run measures the same mix of op kinds and sizes; each op's times are scaled to the reference
    host speed by the slices around it (``scale=False``: as measured)."""
    factors = hostspeed.factors([o[3] for o in ops]) if scale else [1.0] * len(ops)
    ops = ops[:len(ops) // mix * mix]
    return {
        "ops_per_s": len(ops) / sum(o[1] * f for o, f in zip(ops, factors)),
        "op_p50_ms": statistics.median(o[0] * f for o, f in zip(ops, factors)) * 1000.0,
        "op_p90_ms": percentile_ms([o[0] * f for o, f in zip(ops, factors)], 90),
        "cpu_ms_per_op": sum(o[2] * f for o, f in zip(ops, factors)) / len(ops) * 1000.0,
    }


def traced_phase(arbor, runner, state, count: int) -> tuple[dict, float]:
    from tracing import OP, Tracer

    tracer = Tracer()
    tracer.install(arbor)
    call = tracer.span(OP, runner.wl.call)
    runner.output_bytes = 0
    start = time.perf_counter()
    for i in range(count):
        runner.run(state, i, timed_call=call)
    wall = time.perf_counter() - start
    summary = tracer.summary()
    summary["absent"] = tracer.absent
    return summary, wall


def layer_metrics(summary, runner, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
    calls, self_s, total_s, counts = summary["calls"], summary["self_s"], summary["total_s"], summary["counts"]
    values = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(base, counts.get(name, 0))
        elif stat == "self_s":
            values[name] = self_s.get(base, 0.0)
        else:  # counters; the derived metrics below overwrite their placeholder
            values[name] = counts.get(name, 0)
    samples = calls.get("galton_watson.sample", 0)
    values["galton_watson.sample.accept_ratio"] = counts.get("galton_watson.sample.nonextinct", 0) / samples if samples else 0.0
    survives = calls.get("trimming.TrimmedView.survives", 0)
    values["trimming.TrimmedView.memo_hit_ratio"] = 1 - summary["survives_misses"] / survives if survives else 0.0
    cheeger_s = total_s.get("amenability.cheeger_exact", 0.0)
    values["amenability.cheeger_exact.subsets_per_s"] = (
        counts.get("amenability.cheeger_exact.subsets", 0) / cheeger_s if cheeger_s else 0.0
    )
    values["cli.output_bytes"] = runner.output_bytes
    values["trace_overhead"] = untraced_ops_per_s / traced_ops_per_s
    # Shares of all self time; a pool thread's time counts once per thread.
    attributed = sum(self_s.values()) or 1.0
    for m in MODULES:
        values[f"share.{m}"] = sum(v for k, v in self_s.items() if k.split(".")[0] == m) / attributed
    return values


def record_golden(workload, seed: int) -> int:
    state = workload.setup(seed, fresh_workdir(workload.name))

    def digest(op):
        result = workload.call(state, op)
        workload.check(state, op, result)
        return hashlib.sha256(workload.render(op, result).encode()).hexdigest()

    doc = {"workload": workload.name, "seed": seed, "warmup": digest(state["warmup"]),
           "digests": [digest(op) for op in state["schedule"][:GOLDEN_OPS]]}
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{workload.name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"wrote {GOLDEN_OPS} digests to {path}")
    return 0


def load_golden(name: str, seed: int):
    path = GOLDEN_DIR / f"{name}.json"
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    return doc if doc["seed"] == seed else None


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true", help="write the seed's golden digests and exit")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    usable, core = pin_to_one_core()
    host = hostspeed.HostSpeed()
    arbor, import_raw_s, import_s = scaled(host, load_arbor)
    if arbor is None:
        log(f"no arbor package under {ROOT / 'src'}; run from a checkout of the repository")
        return 2
    workload = WORKLOADS[args.workload](arbor)
    try:
        if args.record_golden:
            return record_golden(workload, args.seed)
        runner = Runner(workload, load_golden(workload.name, args.seed))
        state, setup_raw, setup_times = set_up(host, workload, runner, args.seed)
        mix = len(workload.cycle) * workload.cycles_per_mix
        ops = timed_phase(host, runner, state, args.seconds, mix)
        report = {"provenance": provenance(arbor, args, usable, core)}
        if report["provenance"]["oversubscribed"]:
            log("note: the CLI's default --workers starts more threads than there are usable cores")
        e2e = {"setup_s": import_s + statistics.median(setup_times), **end_to_end(ops, mix),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        by_kind = {}
        for op, (latency, *_) in zip(state["schedule"], ops):
            by_kind.setdefault(op["kind"], []).append(latency)
        if args.trace:
            summary, traced_wall = traced_phase(arbor, runner, state, TRACED_OPS[workload.name])
            untraced_ops_per_s = len(ops) / sum(o[1] for o in ops)
            metrics = layer_metrics(summary, runner, untraced_ops_per_s, TRACED_OPS[workload.name] / traced_wall)
            units = PER_LAYER
            report["traced"] = {"ops": TRACED_OPS[workload.name], "wall_s": traced_wall,
                                "spans": summary["spans"], "absent_layers": summary["absent"]}
        else:
            metrics, units = e2e, END_TO_END
        report.update({
            "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()},
            "samples": {"setup_repeats": SETUP_REPEATS, "ops": len(ops), "ops_measured": len(ops) // mix * mix},
            "unscaled": {"setup_s": import_raw_s + statistics.median(setup_raw), **end_to_end(ops, mix, scale=False)},
            "host_factor": {"median": statistics.median(hostspeed.factors([o[3] for o in ops])),
                            "reference_slice_s": hostspeed.REFERENCE_S},
            "op_p50_ms_by_kind": {k: {"ops": len(v), "value": statistics.median(v) * 1000.0} for k, v in by_kind.items()},
            "fail_rate": {"value": runner.failed / runner.attempted, "unit": "ratio",
                          "failed": runner.failed, "attempted": runner.attempted},
            "golden_checked": runner.golden_checked,
            "excursions_beyond_acceptance_tolerance": workload.excursions,
            "errors": runner.errors,
        })
    finally:
        shutil.rmtree(WORKDIR / workload.name, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
