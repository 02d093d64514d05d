"""Command-line surface: parse inputs, run analyses, emit JSON/CSV/text.

JSON is the machine surface and the source of truth; the text and CSV
renderings are derived from the same document. Every stochastic command
requires an explicit seed, and identical invocations print byte-identical
JSON. Exit codes: 0 success, 2 input error, 3 budget-inconclusive,
4 declared-bounds-refuted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .amenability import ClassifyBudgets, DeclaredBounds, cheeger_exact, classify, jsonable
from .errors import (
    ArborError,
    BudgetExhaustedError,
    DeclaredBoundsRefutedError,
    IncompleteKnowledgeError,
    SearchTooLargeError,
)
from .exploration import Ball, TreeAsOracle, explore_ball
from .fixtures import list_fixtures, make_fixture
from .trees import parse_child_list, parse_tree, serialize_child_list, sorted_handles
from .trimming import ball_code_sequence, detect_period, trim_orbit

_OK, _INPUT_ERROR, _INCONCLUSIVE, _REFUTED = 0, 2, 3, 4


def _load_tree(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return parse_child_list(text)
    return parse_tree(text)


def _input_tree(args):
    """The --input tree of trim or cheeger, whose --max-vertices is checked as in fixture mode though unused."""
    tree = _load_tree(args.input)
    if args.max_vertices < 1:
        raise ValueError("max_vertices must be at least 1")
    return tree


def _load_law(path: str):
    from .galton_watson import GWSpec  # numpy loads with it, so only gw commands import it

    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return GWSpec.from_json(doc)


def _declared(args) -> DeclaredBounds | None:
    trio = (args.declared_k, args.declared_d, args.declared_r)
    if all(v is None for v in trio):
        return None
    if any(v is None for v in trio):
        raise ValueError("declared bounds need all three of --declared-k/-d/-R")
    return DeclaredBounds(*trio)


def _host_members(host, members):
    if isinstance(host, Ball):
        return [host.handle_of(v) for v in sorted(members)]
    return members


_encode_str = json.encoder.encode_basestring_ascii
# Item and value types written without _render_value; bool, an int subclass, is not one.
_STR, _INT, _SCALARS, _SEQUENCES = {str}, {int}, {int, str, float}, {tuple, list}
_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spellings


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _FLOAT_SPECIALS.get(text, text)


class _IntTexts(dict):
    """Ints' texts, each written on its first lookup."""

    def __missing__(self, i: int) -> str:
        text = self[i] = int.__repr__(i)
        return text


def _render(x) -> str:
    """``x`` as indented JSON, byte-equal to ``json.dumps(jsonable(x), sort_keys=True, indent=2)``.

    It makes ``jsonable``'s conversions in the same pass, so commands hand it
    library values: tuples, frozensets (written in ``sorted_handles`` order),
    ``Fraction``s (written as ``str``) and dicts whose keys are turned into
    ``str`` before they are sorted. json's C encoder is off whenever
    ``indent`` is set, so lists of scalars and dict values that are scalars
    are written here without a call per item.

    Three memos, each made for the call and dropped on return, so rendering
    keeps no state:

    - Handle texts. A witness lists the same handle objects as the others
      (classify's neighbor memo hands out one object per vertex), so a list
      whose first item is an exact tuple or list is read as a list of
      handles, and each of its tuple and list items is written once per
      indentation, keyed by its ``id``. Not by value: ``(True, 0) == (1, 0)``
      but the two are written differently, and list handles do not hash.
      The call holds each keyed handle, so no object it made and dropped,
      such as a ``jsonable`` result, can free an ``id`` for another to reuse.
    - Int texts, keyed by value, for list items and dict values whose type
      is exactly ``int``: ``True == 1``, but bool is written ``true``.
    - Key orders. A dict whose keys are all exact ``str``s reuses the sorted
      keys and ``"key": `` prefixes built for the same key tuple. The type
      check runs before the memo is read: a ``str`` subclass key equals and
      hashes as its text, yet ``jsonable`` writes its ``__str__``.
    """
    scalars = {int: _IntTexts().__getitem__, str: _encode_str, float: _float_text}
    return _render_value(x, "\n", ({}, [], scalars, {}))


def _render_value(x, nl: str, memo: tuple) -> str:
    """One value; ``nl`` is the newline and indent of the line it starts on, ``memo`` the call's memos."""
    # Exact types first: documents are made of them, and the isinstance
    # checks below and in jsonable cost more, Fraction's most (it goes
    # through ABCMeta).
    t = type(x)
    if t is str:
        return _encode_str(x)
    if t is int:
        return int.__repr__(x)
    if t is tuple or t is list:
        return _render_list(x, nl, memo)
    if t is frozenset or t is set:
        return _render_list(sorted_handles(x), nl, memo)
    if t is dict:
        return _render_dict(x, nl, memo)
    if t is Fraction:
        return _encode_str(str(x))
    # Scalars and their subclasses, which jsonable returns as they are.
    if x is None or isinstance(x, (bool, float)):
        return json.dumps(x)
    if isinstance(x, str):
        return _encode_str(x)
    if isinstance(x, int):
        return int.__repr__(x)
    # Everything else goes through jsonable, which turns it into the types above.
    return _render_value(jsonable(x), nl, memo)


def _render_list(items, nl: str, memo: tuple) -> str:
    if not items:
        return "[]"
    inner = nl + "  "
    handles, held, scalars, _ = memo
    if type(items[0]) in _SEQUENCES:
        # A list of handles, such as a witness's members: one lookup each for those written before.
        texts = handles.setdefault(len(inner), {})
        body = []
        for i in items:
            text = texts.get(id(i))
            if text is None:
                text = _render_value(i, inner, memo)
                if type(i) in _SEQUENCES:
                    texts[id(i)] = text
                    held.append(i)
            body.append(text)
    else:
        types = {*map(type, items)}
        if types == _INT:
            body = list(map(scalars[int], items))
        elif types <= _SCALARS:
            body = [scalars[type(i)](i) for i in items]
        else:
            body = [_render_value(i, inner, memo) for i in items]
    return "[" + inner + ("," + inner).join(body) + nl + "]"


def _render_dict(x, nl: str, memo: tuple) -> str:
    if not x:
        return "{}"
    inner = nl + "  "
    _, _, scalars, orders = memo
    keys = tuple(x)
    if {*map(type, keys)} == _STR:
        order = orders.get(keys)
        if order is None:
            order = orders[keys] = [(k, _encode_str(k) + ": ") for k in sorted(keys)]
        items = [(p, x[k]) for k, p in order]
    else:
        # As in jsonable, keys become str before sorting: "10" precedes "2", and of 1 and "1" the last wins.
        items = [(_encode_str(k) + ": ", v) for k, v in sorted({str(k): v for k, v in x.items()}.items())]
    body = []
    for p, v in items:
        write = scalars.get(type(v))
        body.append(p + (write(v) if write else _render_value(v, inner, memo)))
    return "{" + inner + ("," + inner).join(body) + nl + "}"


def _emit(doc, code, args, stdout, text_lines, csv_rows=None) -> int:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        stdout.write(_render(doc) + "\n")
    elif fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(csv_rows)
        stdout.write(buf.getvalue())
    else:
        for line in text_lines:
            stdout.write(line + "\n")
    return code


def cmd_trim(args, stdout) -> int:
    if args.fixture:
        radius = args.radius if args.radius is not None else 8
        steps = args.steps if args.steps is not None else radius
        oracle = make_fixture(args.fixture)
        codes = ball_code_sequence(oracle, radius, steps, max_vertices=args.max_vertices)
        hit = detect_period(codes)
        doc = {
            "command": "trim",
            "fixture": args.fixture,
            "radius": radius,
            "steps": steps,
            "codes": [c.hex() for c in codes],
        }
        if hit:
            pre, per = hit
            doc.update(
                {
                    "periodic": True,
                    "preperiod": pre,
                    "period": per,
                    "status": f"periodic within radius, period {per}",
                }
            )
        else:
            doc.update({"periodic": False, "status": "no repetition within radius"})
        return _emit(doc, _OK, args, stdout, text_lines=[doc["status"], f"codes: {len(codes)}"])
    tree = _input_tree(args)
    orbit = trim_orbit(tree, max_steps=args.steps)
    doc = {"command": "trim", "input": args.input}
    doc.update(orbit.to_json())
    lines = [
        "stages: " + " ".join(str(s) for s in orbit.stage_sizes()),
        f"status: {orbit.status}",
    ]
    return _emit(doc, _OK, args, stdout, text_lines=lines)


def cmd_cheeger(args, stdout) -> int:
    if args.fixture:
        oracle = make_fixture(args.fixture)
        radius = args.radius if args.radius is not None else 10
        host = explore_ball(oracle, radius, max_vertices=args.max_vertices)
        max_size = args.max_size if args.max_size is not None else 8
        scope_note = {"fixture": args.fixture, "radius": radius}
    else:
        host = _input_tree(args)
        max_size = args.max_size if args.max_size is not None else host.vertex_count
        scope_note = {"input": args.input}
    result = cheeger_exact(host, max_size)
    doc = {
        "command": "cheeger",
        "value": str(result.value),
        "argmin": {
            "members": _host_members(host, result.argmin.members),
            "size": result.argmin.size,
            "boundary_size": len(result.argmin.boundary),
            "ratio": str(result.argmin.ratio),
        },
        "scope": {**result.scope, **scope_note},
    }
    lines = [
        f"value: {result.value}",
        f"argmin size: {result.argmin.size} (boundary {len(result.argmin.boundary)})",
    ]
    return _emit(doc, _OK, args, stdout, text_lines=lines)


def cmd_classify(args, stdout) -> int:
    declared = _declared(args)
    if args.fixture:
        oracle = make_fixture(args.fixture)
        source = {"fixture": args.fixture}
    else:
        oracle = TreeAsOracle(_load_tree(args.input))
        source = {"input": args.input}
    budgets = ClassifyBudgets(
        radius=args.radius if args.radius is not None else 10,
        max_vertices=args.max_vertices,
        k_max=args.k_max,
        path_target=args.path_target,
    )
    report = classify(oracle, budgets, declared=declared, d_target=args.d_target)
    doc = {"command": "classify", **source, **report._doc()}
    code = _INCONCLUSIVE if report.verdict == "inconclusive" else _OK
    lines = _classify_lines(report, args.d_target) if args.format == "text" else None
    return _emit(doc, code, args, stdout, text_lines=lines)


def _classify_lines(report, d_target: int) -> list[str]:
    """The text rendering of a classify report: the verdict and the best witness per d."""
    lines = [f"verdict: {report.verdict}"]
    if report.certificate:
        lines.append(f"certified lower bound: {report.certificate['lower_bound']}")
    lines.append("d  best_ratio  provenance")
    # The first witness least by (ratio, size) is eligible at d exactly when
    # its ratio is at most 1/d, and then it is also the least eligible one.
    best = min(report.witnesses, key=lambda w: (w.ratio, w.size), default=None)
    for d in range(1, d_target + 1):
        if best is not None and best.ratio * d <= 1:
            lines.append(f"{d}  {best.ratio}  {best.provenance}")
        else:
            lines.append(f"{d}  -  -")
    return lines


def cmd_gw(args, stdout) -> int:
    if not args.input:
        raise ValueError("gw commands need --input pointing at an offspring-law JSON file")
    spec = _load_law(args.input)
    from .galton_watson import generation_growth_check, monte_carlo_event, sample, verify_dichotomy

    if args.gw_command == "sample":
        smp = sample(spec, args.seed, args.depth, max_vertices=args.max_vertices, trial=args.trial)
        doc = {
            "command": "gw sample",
            "law": spec.to_json(),
            "seed": args.seed,
            "trial": args.trial,
            "depth": args.depth,
            "generation_sizes": list(smp.generation_sizes),
            "truncated_at": smp.truncated_at,
            "extinct": smp.extinct,
            "budget_hit": smp.budget_hit,
            "vertex_count": smp.vertex_count,
        }
        if smp.vertex_count <= 5000:
            doc["tree"] = serialize_child_list(smp.to_tree())
        lines = [
            f"vertices: {smp.vertex_count}",
            "generation sizes: " + " ".join(str(w) for w in smp.generation_sizes),
            f"extinct: {smp.extinct}",
        ]
        return _emit(doc, _OK, args, stdout, text_lines=lines)

    if args.gw_command == "events":
        result = monte_carlo_event(spec, args.event, args.trials, args.seed)
        doc = {"command": "gw events", "law": spec.to_json(), "seed": args.seed}
        doc.update(result.to_json())
        rows = [
            ["event", "trials", "successes", "estimate", "std_error", "exact"],
            [result.event, result.trials, result.successes, result.estimate, result.std_error, doc["exact"]],
        ]
        lines = [
            f"estimate: {result.estimate:.6g} (SE {result.std_error:.3g})",
            f"exact: {doc['exact']} = {doc['exact_float']:.6g}",
        ]
        return _emit(doc, _OK, args, stdout, text_lines=lines, csv_rows=rows)

    if args.gw_command == "growth":
        report = generation_growth_check(spec, args.generation, args.trials, args.seed)
        doc = {"command": "gw growth", "law": spec.to_json(), "seed": args.seed}
        doc.update(report.to_json())
        rows = [
            ["generation", "trials", "mean_final", "target", "std_error", "within_4se"],
            [report.generation, report.trials, report.mean_final, report.target, report.std_error, report.within_4se],
        ]
        lines = [
            f"mean of generation {report.generation}: {report.mean_final:.6g}",
            f"target: {report.target:.6g} (SE {report.std_error:.3g}, within 4 SE: {report.within_4se})",
        ]
        return _emit(doc, _OK, args, stdout, text_lines=lines, csv_rows=rows)

    d_list = [int(x) for x in args.d_list.split(",") if x.strip()]
    report = verify_dichotomy(
        spec,
        d_list,
        args.trials,
        args.seed,
        max_vertices=args.max_vertices,
        truncate_depth=args.truncate_depth,
        n_subsets=args.subsets,
        subset_size=args.subset_size,
        cheeger_max_size=args.cheeger_max_size,
    )
    doc = {"command": "gw dichotomy", "seed": args.seed}
    doc.update(report.to_json())
    if report.side == "amenable":
        lines = [f"side: amenable (extinction probability {report.params['extinction_probability']:.6g})"]
        for entry in report.per_d:
            lines.append(
                f"d={entry['d']}: witness fraction {entry['fraction']:.4f} "
                f"vs floor {entry['floor']:.3g} (ok: {entry['floor_ok']})"
            )
    else:
        check = report.nonamenable
        lines = [
            "side: nonamenable",
            f"subsets checked: {check['subsets_checked']}, bound violations: {check['bound_violations']}",
            f"cheeger floor ok: {check['cheeger_floor_ok']}",
        ]
    return _emit(doc, _OK, args, stdout, text_lines=lines, csv_rows=report.csv_rows())


def cmd_fixtures(args, stdout) -> int:
    entries = list_fixtures()
    doc = {"command": "fixtures list", "fixtures": entries}
    lines = [f"{e['name']}  {e['description']}" for e in entries]
    return _emit(doc, _OK, args, stdout, text_lines=lines)


def _add_io_flags(p: argparse.ArgumentParser, fixture: bool = True, with_csv: bool = False):
    if fixture:
        p.add_argument("--input", help="path to a tree file (edge list or child-list JSON)")
        p.add_argument("--fixture", help="fixture id, e.g. regular(3) or staircase_n(2)")
    else:
        p.add_argument("--input", help="path to an offspring-law JSON file: a 'p' list or a 'family'")
    # csv only where the command has a table to render, so argparse rejects it before any work
    formats = ("json", "csv", "text") if with_csv else ("json", "text")
    p.add_argument("--format", choices=formats, default="json")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(prog="arbor", description=__doc__)
    parser.add_argument("--version", action="version", version=f"arbor {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trim", help="iterate the leaf-removal operator")
    _add_io_flags(p)
    p.add_argument("--steps", type=int, help="stage cap (file) or code count (fixture)")
    p.add_argument("--radius", type=int, help="ball radius for fixture mode")
    p.add_argument("--max-vertices", type=int, default=30000)

    p = sub.add_parser("cheeger", help="exact minimum boundary ratio over small connected subsets")
    _add_io_flags(p)
    p.add_argument("--max-size", type=int, help="largest subset size to enumerate")
    p.add_argument("--radius", type=int, help="exploration radius for fixture mode")
    p.add_argument("--max-vertices", type=int, default=30000)

    p = sub.add_parser("classify", help="search for amenability witnesses or certify bounds")
    _add_io_flags(p)
    p.add_argument("--radius", type=int)
    p.add_argument("--max-vertices", type=int, default=30000)
    p.add_argument("--d-target", type=int, default=10, help="witness ratio threshold 1/d")
    p.add_argument("--k-max", type=int, help="deepest trim level to scan for runs")
    p.add_argument("--path-target", type=int, help="run length sought per trim level")
    p.add_argument("--declared-k", type=int, help="declared trim-stabilization count")
    p.add_argument("--declared-d", type=int, help="declared longest branchless chain")
    p.add_argument("--declared-R", dest="declared_r", type=int, help="declared largest inessential size")

    p = sub.add_parser("gw", help="random tree sampling and statistics")
    gw_sub = p.add_subparsers(dest="gw_command", required=True)

    q = gw_sub.add_parser("sample", help="draw one tree and report its shape")
    _add_io_flags(q, fixture=False)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--depth", type=int, required=True, help="last generation to draw")
    q.add_argument("--trial", type=int, default=0)
    q.add_argument("--max-vertices", type=int)

    q = gw_sub.add_parser("events", help="Monte Carlo probability of a shape event")
    _add_io_flags(q, fixture=False, with_csv=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--event", required=True, help="path(d) or sary(s,d)")
    q.add_argument("--trials", type=int, default=10000)

    q = gw_sub.add_parser("growth", help="empirical mean generation size vs mean**n")
    _add_io_flags(q, fixture=False, with_csv=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--generation", type=int, required=True)
    q.add_argument("--trials", type=int, default=10000)

    q = gw_sub.add_parser("dichotomy", help="statistical check of the survival dichotomy")
    _add_io_flags(q, fixture=False, with_csv=True)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--trials", type=int, default=200)
    q.add_argument("--d-list", default="5", help="comma-separated witness thresholds")
    q.add_argument("--truncate-depth", type=int, default=4)
    q.add_argument("--subsets", type=int, default=1000, help="total random subsets on the bound side")
    q.add_argument("--subset-size", type=int, default=8)
    q.add_argument("--cheeger-max-size", type=int, default=6)
    q.add_argument("--max-vertices", type=int, default=20000)

    p = sub.add_parser("fixtures", help="built-in infinite trees")
    fix_sub = p.add_subparsers(dest="fixtures_command", required=True)
    q = fix_sub.add_parser("list", help="list fixture names")
    q.add_argument("--format", choices=("json", "text"), default="json")

    return parser


def main(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    needs_input = args.command in ("trim", "cheeger", "classify")
    if needs_input:
        given = [x for x in (args.input, args.fixture) if x]
        if len(given) != 1:
            stdout.write(json.dumps({"error": "provide exactly one of --input or --fixture"}) + "\n")
            return _INPUT_ERROR

    handlers = {
        "trim": cmd_trim,
        "cheeger": cmd_cheeger,
        "classify": cmd_classify,
        "gw": cmd_gw,
        "fixtures": cmd_fixtures,
    }
    try:
        return handlers[args.command](args, stdout)
    except DeclaredBoundsRefutedError as exc:
        doc = {"error": str(exc), "kind": "declared-bounds-refuted"}
        if exc.counterexample is not None:
            doc["counterexample"] = exc.counterexample
        stdout.write(_render(doc) + "\n")
        return _REFUTED
    except (BudgetExhaustedError, SearchTooLargeError, IncompleteKnowledgeError) as exc:
        stdout.write(json.dumps({"error": str(exc), "kind": "budget"}, sort_keys=True) + "\n")
        return _INCONCLUSIVE
    except (ArborError, OSError, ValueError) as exc:
        stdout.write(json.dumps({"error": str(exc), "kind": "input"}, sort_keys=True) + "\n")
        return _INPUT_ERROR


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
