"""Command line front end.

Subcommands: solve (optimize one instance), generate (emit benchmark
instances), crosscheck (solve, then re-check the result with decision
queries that run on the same SAT and simplex cores, so a fault shared
with those cores goes unseen; independent certificates are ROADMAP item
5), bench (run a batch of instances under all engine configurations and
emit CSV).  Exit codes: 0 solved (optimum, unsat or unbounded),
2 usage (including a ``--lb``/``--ub``/``--width`` that is not a
numeral ``arith.parse_rat`` reads, a ``--timeout`` that is negative or
not a number (``0`` stops at once, ``inf`` never), a ``generate`` size
that the generator refuses with ValueError and a ``solve --stats`` or
``-o`` file that cannot be written), 3 parse or
validation error, 4 interrupted (``crosscheck`` also exits 4, printing
``crosscheck: skipped (interrupted)``, when one of its decision queries
runs out of pivot budget or of what the solve left of ``--timeout``),
5 failed crosscheck.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .arith import format_rat, parse_rat
from .encodings import jobshop_instance, strip_packing_instance
from .formula import OmtProblem
from .omt import INTERRUPTED, OmtConfig, OmtOutcome, SearchStats, crosscheck, solve
from .parser import ParseError, parse_problem

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_INTERRUPTED = 4
EXIT_CHECK_FAILED = 5

STATS_COLUMNS = [f.name for f in dataclasses.fields(SearchStats)]


def _config_from_args(args) -> OmtConfig:
    return OmtConfig(
        schema=args.schema,
        search=args.search,
        early_pruning=not args.no_early_pruning,
        pure_literal=not args.no_pure_literal,
        timeout=args.timeout,
    )


def _load_problem(path: str, lb, ub) -> OmtProblem:
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    problem = parse_problem(text)
    if lb is not None or ub is not None:
        new_lb = lb if lb is not None else problem.lb
        new_ub = ub if ub is not None else problem.ub
        problem = OmtProblem(problem.formula, problem.cost, new_lb, new_ub)
    return problem


def _load_or_report(args):
    """The instance named on the command line, or None after printing on
    stderr why it cannot be read."""
    try:
        return _load_problem(args.file, args.lb, args.ub)
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def _print_outcome(problem: OmtProblem, outcome: OmtOutcome):
    print(outcome.status)
    if outcome.value is not None:
        attained = "true" if outcome.attained else "false"
        print(f"(objective {format_rat(outcome.value)} :attained {attained})")
    if outcome.model is not None:
        print("(model")
        for name in problem.formula.rat_names:
            if name in outcome.model:
                print(f"  (= {name} {format_rat(outcome.model[name])})")
        print(")")


def _write_stats(path: str, outcome: OmtOutcome):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(STATS_COLUMNS)
        w.writerow([getattr(outcome.stats, c) for c in STATS_COLUMNS])


def cmd_solve(args) -> int:
    problem = _load_or_report(args)
    if problem is None:
        return EXIT_PARSE
    outcome = solve(problem, _config_from_args(args))
    _print_outcome(problem, outcome)
    if args.stats:
        try:
            _write_stats(args.stats, outcome)
        except OSError as exc:
            print(f"error: cannot write stats: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_INTERRUPTED if outcome.status == INTERRUPTED else EXIT_OK


def cmd_crosscheck(args) -> int:
    problem = _load_or_report(args)
    if problem is None:
        return EXIT_PARSE
    start = time.monotonic()
    outcome = solve(problem, _config_from_args(args))
    _print_outcome(problem, outcome)
    if outcome.status == INTERRUPTED:
        print("crosscheck: skipped (interrupted)")
        return EXIT_INTERRUPTED
    remaining = None if args.timeout is None else args.timeout - (time.monotonic() - start)
    try:
        ok, msg = crosscheck(problem, outcome, remaining)
    except TimeoutError:
        # a decision query ran out of pivot budget or past the deadline
        print("crosscheck: skipped (interrupted)")
        return EXIT_INTERRUPTED
    print(f"crosscheck: {'pass' if ok else 'fail'} ({msg})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_generate(args) -> int:
    try:  # the generators raise ValueError on a size that makes no instance
        if args.family == "strip-packing":
            text = strip_packing_instance(args.n, parse_rat(args.width), args.seed)[0]
        else:
            text = jobshop_instance(args.jobs, args.machines, args.seed)[0]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(text)
    return EXIT_OK


BENCH_COLUMNS = [
    "instance",
    "schema",
    "search",
    "status",
    "objective",
    "attained",
    "wall_ms",
] + STATS_COLUMNS


def _bench_one(task):
    path, schema, search, timeout = task
    config = OmtConfig(schema=schema, search=search, timeout=timeout)
    row = dict.fromkeys(BENCH_COLUMNS, "")
    row.update(instance=os.path.basename(path), schema=schema, search=search, status="error")
    try:
        problem = _load_problem(path, None, None)
        start = time.monotonic()
        outcome = solve(problem, config)
        elapsed = (time.monotonic() - start) * 1000.0
    except (OSError, ParseError, ValueError) as exc:
        row["status"] = f"error: {exc}"
        return row
    row["status"] = outcome.status
    if outcome.value is not None:
        row["objective"] = format_rat(outcome.value)
        row["attained"] = "true" if outcome.attained else "false"
    row["wall_ms"] = f"{elapsed:.1f}"
    for c in STATS_COLUMNS:
        row[c] = getattr(outcome.stats, c)
    return row


def cmd_bench(args) -> int:
    try:
        # opened before the runs, so an unwritable path fails at once
        out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        tasks = []
        for path in args.files:
            for schema in ("offline", "inline"):
                for search in ("linear", "binary"):
                    tasks.append((path, schema, search, args.timeout))
        if args.jobs <= 1:
            rows = [_bench_one(t) for t in tasks]
        else:
            # a fork-started pool starts all its workers at the first submit
            with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
                rows = list(pool.map(_bench_one, tasks))
        rows.sort(key=lambda r: (r["instance"], r["schema"], r["search"]))
        w = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
        w.writeheader()
        for r in rows:
            w.writerow(r)
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def _bound(text: str):
    """A --lb/--ub value; argparse turns the error into a usage message."""
    try:
        return parse_rat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a bound: give a numeral such as 3, -7/2 or 2.5"
        ) from None


def _timeout(text: str) -> float:
    """A --timeout value in seconds: a float that is not negative and
    not nan."""
    try:
        seconds = float(text)
    except ValueError:
        seconds = float("nan")
    if not seconds >= 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a timeout: give seconds, 0 or more, such as 30 or 0.5"
        )
    return seconds


def _add_engine_options(p: argparse.ArgumentParser):
    p.add_argument("--schema", choices=["offline", "inline"], default="inline")
    p.add_argument("--search", choices=["linear", "binary"], default="binary")
    p.add_argument("--lb", type=_bound, default=None, help="override the lower range bound")
    p.add_argument("--ub", type=_bound, default=None, help="override the upper range bound")
    p.add_argument("--timeout", type=_timeout, default=None, help="seconds before giving up")
    p.add_argument("--no-pure-literal", action="store_true")
    p.add_argument("--no-early-pruning", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="omtq", description="Exact linear-rational optimization")
    sub = ap.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="minimize the objective of one instance")
    ps.add_argument("file")
    _add_engine_options(ps)
    ps.add_argument("--stats", metavar="CSV", help="write search statistics to this file")
    ps.set_defaults(func=cmd_solve)

    pc = sub.add_parser("crosscheck", help="solve, then re-check the result with decision queries")
    pc.add_argument("file")
    _add_engine_options(pc)
    pc.set_defaults(func=cmd_crosscheck)

    pg = sub.add_parser("generate", help="emit a benchmark instance")
    gsub = pg.add_subparsers(dest="family", required=True)
    gs = gsub.add_parser("strip-packing")
    gs.add_argument("-n", type=int, required=True, help="number of rectangles")
    gs.add_argument("--width", default="1", help="strip width (rational)")
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("-o", "--output", default=None)
    gj = gsub.add_parser("jobshop")
    gj.add_argument("--jobs", type=int, required=True)
    gj.add_argument("--machines", type=int, required=True)
    gj.add_argument("--seed", type=int, default=0)
    gj.add_argument("-o", "--output", default=None)
    pg.set_defaults(func=cmd_generate)

    pb = sub.add_parser("bench", help="run instances under every engine configuration")
    pb.add_argument("files", nargs="+")
    pb.add_argument("--timeout", type=_timeout, default=None)
    pb.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    pb.add_argument("-o", "--output", default=None)
    pb.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
