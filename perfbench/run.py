"""omtq benchmark: closed-loop requests through the public API.

    python3 perfbench/run.py --workload families --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One client in one process sends the next request only after the previous
one returned.  A request is one instance under one of the four
configurations {offline, inline} x {linear, binary}, timed from input
text (or encoder input) to ``OmtOutcome``.  A round runs every request
of the workload once, in an order drawn from the seed.  An untraced
run repeats rounds until ``--seconds`` have passed, and its last round
may be cut short; a traced run repeats whole rounds while the next one
is expected to fit.

Times are scaled to a reference host speed: between requests the
client runs a fixed pure-Python loop (``hostspeed.py``) and multiplies
each request's time by the loop's reference time over its time around
that request, so that the host's slow and fast phases cancel out.  The
raw figures are printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of the time untraced and the second half with spans on every
layer (``tracing.py``), and reports per-layer calls and self time per
round plus the tracing overhead.  Every answer is checked against a
reference that shares no code with the solver (``workloads.py``), and
every request's search counters must repeat exactly across rounds and
between the untraced and traced halves.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any request failed.

``--workload all`` runs every workload untraced and traced, each in its
own process, and prints all tables.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

# set-up is timed this many times and its median reported: importing and
# loading a fixed pool takes about 60 ms, so those repeat often; corpus
# set-up runs the oracle on every instance and takes about 2.3 s
SETUP_REPEATS = {"families": 40, "pb": 40, "corpus": 5}

# the client calibrates the host's speed after this much request time
CALIBRATE_EVERY_NS = 250_000_000

COUNTERS = (
    "decisions",
    "conflicts",
    "restarts",
    "theory_checks",
    "minimize_calls",
    "pivots",
    "loops",
    "simplex_pivots",
    "propagations",
)

END_TO_END_UNITS = {
    "solves_per_s": "1/s",
    "solve_s.p50": "s",
    "solve_s.tail": "s",
    **{f"config_s.{c}": "s" for c in workloads.CONFIGS},
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# counters summed over a round's requests, reported under a layer name
COUNTER_METRICS = {
    "sat.decisions": "decisions",
    "sat.conflicts": "conflicts",
    "sat.propagations": "propagations",
    "sat.restarts": "restarts",
    "omt.theory_checks": "theory_checks",
    "omt.loops": "loops",
    "omt.pivots": "pivots",
    "omt.minimize_calls": "minimize_calls",
    "lra.simplex_pivots": "simplex_pivots",
}

# the input stage of a request: parsing and CNF conversion for text
# workloads, the encoder for pb.  Each part is 0 s on some workload, and
# a listed time must not read the same on every run, so only their sum
# is listed.
FRONTEND = ("parser.parse_problem", "formula.cnfize", "encodings.encode_pb")

PER_LAYER_UNITS = {
    "lra.entailed.calls": "count",
    "lra.entailed.self_s": "s",
    "lra.entailed.hit_ratio": "ratio",
    "lra.check.calls": "count",
    "lra.check.self_s": "s",
    "lra.check.unsat_ratio": "ratio",
    "lra.simplex_pivots": "count",
    "lra.assert_atom.calls": "count",
    "lra.assert_atom.self_s": "s",
    "lra.backtrack_to.calls": "count",
    "lra.backtrack_to.self_s": "s",
    "sat.solve.calls": "count",
    "sat.solve.self_s": "s",
    "sat.decisions": "count",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.restarts": "count",
    "omt.after_bcp.calls": "count",
    "omt.after_bcp.self_s": "s",
    "omt.on_backjump.self_s": "s",
    "omt.on_level_zero.self_s": "s",
    "omt.transform_conflict.calls": "count",
    "omt.solve.self_s": "s",
    "omt.theory_checks": "count",
    "omt.loops": "count",
    "omt.pivots": "count",
    "omt.minimize_calls": "count",
    "optimize.minimize_var.calls": "count",
    "optimize.minimize_var.self_s": "s",
    "optimize.conjunction_min.calls": "count",
    "frontend.self_s": "s",
    "formula.copy.self_s": "s",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


# ---------------------------------------------------------------------------
# set-up


def import_omtq():
    """A fresh import of the package from this checkout's ``src``."""
    if not (SRC / "omtq" / "__init__.py").is_file():
        raise FileNotFoundError(f"no omtq package under {SRC}")
    for name in [m for m in sys.modules if m == "omtq" or m.startswith("omtq.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("omtq")


def set_up(workload: str, seed: int):
    """Import, inputs and references, repeated, with a calibration
    between repetitions; (omtq, instances, median s, median scaled s)."""
    times, cals = [], [hostspeed.calibrate()]
    for _ in range(SETUP_REPEATS[workload]):
        start = time.perf_counter()
        omtq = import_omtq()
        instances = workloads.load(workload, omtq, seed)
        times.append(time.perf_counter() - start)
        cals.append(hostspeed.calibrate())
    scaled = [t * f for t, f in zip(times, hostspeed.factors(cals, range(len(times))))]
    return omtq, instances, statistics.median(times), statistics.median(scaled)


# ---------------------------------------------------------------------------
# requests and rounds


class Client:
    """Runs requests, checks answers and keeps every measurement."""

    def __init__(self, omtq):
        self.omtq = omtq
        self.tracer = None  # a Tracer while the traced half runs
        self.configs = {}
        for name in workloads.CONFIGS:
            schema, search = name.split("-")
            self.configs[name] = omtq.OmtConfig(
                schema=schema, search=search, timeout=workloads.REQUEST_TIMEOUT_S
            )
        self.solvers = []
        self._record_solvers()
        self.times: dict[tuple, list[float]] = {}  # request key -> scaled s per round
        self.raw_s = 0.0  # unscaled request time of the untraced rounds
        self.cals: list[float] = []  # every calibration, in seconds
        self.counters: dict[tuple, tuple] = {}  # request key -> first counters seen
        self.spans: list[dict] = []  # traced requests
        self.attempted = 0
        self.failures: list[str] = []
        self.wrong_answers = 0

    def _record_solvers(self):
        """Make omt build SatSolvers that register themselves, so each
        request's propagation count can be read after it returns."""
        base, solvers = self.omtq.omt.SatSolver, self.solvers

        class RecordingSatSolver(base):
            def __init__(self):
                super().__init__()
                solvers.append(self)

        self.omtq.omt.SatSolver = RecordingSatSolver

    def round(self, order, phase: str, round_no: int, stop=None) -> float:
        """Run every request once, or until ``stop`` (a perf_counter value)
        when one is given; the round's scaled request time in s."""
        results = []
        omtq, tracer, clock = self.omtq, self.tracer, time.perf_counter_ns
        cals, segments, since = [hostspeed.calibrate()], [], 0
        for inst, cfg in order:
            if stop is not None and time.perf_counter() >= stop:
                break
            self.solvers.clear()
            t0 = clock()
            if tracer is not None:
                tracer.start_request(t0)
            try:
                outcome = omtq.solve(inst.build(omtq), self.configs[cfg])
            except Exception as exc:  # a raising request is a failed request
                outcome = exc
            t1 = clock()
            spans = tracer.finish_request(t1) if tracer is not None else None
            props = sum(s.stats.propagations for s in self.solvers)
            results.append((inst, cfg, t1 - t0, outcome, props, spans))
            segments.append(len(cals) - 1)
            since += t1 - t0
            if since >= CALIBRATE_EVERY_NS:
                cals.append(hostspeed.calibrate())
                since = 0
        if since:
            cals.append(hostspeed.calibrate())
        self.cals += cals
        scaled = 0.0
        for (inst, cfg, wall_ns, outcome, props, spans), factor in zip(
            results, hostspeed.factors(cals, segments)
        ):
            self._check(inst, cfg, wall_ns, factor, outcome, props, phase, round_no, spans)
            scaled += wall_ns * factor / 1e9
        return scaled

    def _check(self, inst, cfg, wall_ns, factor, outcome, props, phase, round_no, spans):
        key = (inst.name, cfg)
        self.attempted += 1
        if phase == "untraced":
            self.times.setdefault(key, []).append(wall_ns * factor / 1e9)
            self.raw_s += wall_ns / 1e9
        if isinstance(outcome, Exception):
            self.failures.append(f"{key}: raised {type(outcome).__name__}: {outcome}")
            return
        if spans is not None:
            layers, other_ns = spans
            self.spans.append({
                "request": inst.name,
                "config": cfg,
                "round": round_no,
                "wall_ns": wall_ns,
                "other_ns": other_ns,
                "layers": layers,
                "counters": {},
            })
        if outcome.status == "interrupted":
            self.failures.append(f"{key}: interrupted")
            return
        error = workloads.answer_error(inst, outcome)
        if error is not None:
            self.wrong_answers += 1
            self.failures.append(f"{key}: wrong answer: {error}")
            return
        counters = tuple(getattr(outcome.stats, c) for c in COUNTERS[:-1]) + (props,)
        if spans is not None:
            self.spans[-1]["counters"] = dict(zip(COUNTERS, counters))
        first = self.counters.setdefault(key, counters)
        if first != counters:
            self.failures.append(
                f"{key}: counters changed in {phase} round {round_no}: {first} -> {counters}"
            )

    def run_rounds(self, order, phase: str, deadline: float, partial: bool) -> list[float]:
        """At least one round; each round's scaled request time.  With
        ``partial``, requests go on until the deadline (a perf_counter
        value), and the last round may be cut short; without it, another
        whole round runs while it is expected to end by the deadline."""
        walls = []
        while True:
            start = time.perf_counter()
            walls.append(self.round(order, phase, len(walls), deadline if partial and walls else None))
            now = time.perf_counter()
            if now + (0 if partial else now - start) >= deadline:
                return walls

    def counters_digest(self) -> str:
        text = repr(sorted(self.counters.items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# metrics


def tail_rank(n: int):
    """Index and percentile of the highest order statistic with at least
    ten samples above it, or None when there are too few samples."""
    if n <= 10:
        return None
    index = n - 11
    return index, 100.0 * (index + 1) / n


def end_to_end(client: Client, walls, setup_s: float, raw_setup_s: float, printer) -> dict:
    # a request's time is the median over the rounds of its scaled
    # times, which a single slow spell does not move
    per_request = {key: statistics.median(ts) for key, ts in client.times.items()}
    samples = sorted(per_request.values())
    requests = sum(len(ts) for ts in client.times.values())
    metrics = {
        "solves_per_s": requests / sum(walls),
        "solve_s.p50": statistics.median(samples),
    }
    printer.note(f"{len(walls)} untraced round(s) of {len(samples)} requests, {requests} timed")
    printer.note(
        f"host speed: calibration median {statistics.median(client.cals):.6f} s over "
        f"{len(client.cals)} calibrations, reference {hostspeed.REF_S} s"
    )
    printer.note(
        f"unscaled: solves_per_s {requests / client.raw_s:.6f} 1/s, setup_s {raw_setup_s:.6f} s"
    )
    printer.note(f"solve_s.p50 over {len(samples)} per-request medians")
    rank = tail_rank(len(samples))
    if rank is not None:
        metrics["solve_s.tail"] = samples[rank[0]]
        printer.note(f"solve_s.tail is p{rank[1]:.1f} of {len(samples)} per-request medians")
    for cfg in workloads.CONFIGS:
        metrics[f"config_s.{cfg}"] = sum(t for (_, c), t in per_request.items() if c == cfg)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics


def per_layer(client: Client, untraced_walls, traced_walls, printer) -> dict:
    rounds = len(traced_walls)
    totals = {name: [0, 0, 0] for name in LAYERS}
    other_ns = wall_ns = 0
    counters = dict.fromkeys(COUNTERS, 0)
    for rec in client.spans:
        for name, (calls, self_ns, hits) in rec["layers"].items():
            t = totals[name]
            t[0] += calls
            t[1] += self_ns
            t[2] += hits
        other_ns += rec["other_ns"]
        wall_ns += rec["wall_ns"]
        for c, v in rec["counters"].items():
            counters[c] += v
    metrics = {}
    for name in LAYERS:
        calls, self_ns, hits = totals[name]
        metrics[f"{name}.calls"] = calls / rounds
        metrics[f"{name}.self_s"] = self_ns / 1e9 / rounds
    metrics["lra.entailed.hit_ratio"] = _ratio(totals["lra.entailed"])
    metrics["lra.check.unsat_ratio"] = _ratio(totals["lra.check"])
    for metric, counter in COUNTER_METRICS.items():
        metrics[metric] = counters[counter] / rounds
    metrics["frontend.self_s"] = sum(metrics[f"{n}.self_s"] for n in FRONTEND)
    metrics["other.self_s"] = other_ns / 1e9 / rounds
    metrics["trace.wall_s"] = wall_ns / 1e9 / rounds
    requests_per_round = len(client.spans) / rounds
    untraced_rate = requests_per_round * len(untraced_walls) / sum(untraced_walls)
    traced_rate = requests_per_round * rounds / sum(traced_walls)
    metrics["trace.overhead"] = untraced_rate / traced_rate - 1
    accounted = sum(metrics[f"{n}.self_s"] for n in LAYERS) + metrics["other.self_s"]
    printer.note(
        f"{rounds} traced round(s); layer self times plus other.self_s = {accounted:.6f} s "
        f"of trace.wall_s = {metrics['trace.wall_s']:.6f} s per round"
    )
    printer.layer_table(metrics, LAYERS)
    return metrics


def _ratio(total) -> float:
    return total[2] / total[0] if total[0] else 0.0


# ---------------------------------------------------------------------------
# output


class Printer:
    def __init__(self, workload: str):
        self.workload = workload

    def note(self, text: str):
        print(f"[{self.workload}] {text}")

    def metric(self, name: str, value, unit: str):
        print(f"[{self.workload}] {name:<34} {value:>16.6f} {unit}")

    def layer_table(self, metrics: dict, layers):
        wall = metrics["trace.wall_s"]
        self.note(f"{'layer':<26} {'calls/round':>14} {'self s/round':>14} {'share':>7}")
        rows = [(n, metrics[f"{n}.calls"], metrics[f"{n}.self_s"]) for n in layers]
        rows.append(("other", 0, metrics["other.self_s"]))
        for name, calls, self_s in sorted(rows, key=lambda r: -r[2]):
            share = 100.0 * self_s / wall if wall else 0.0
            self.note(f"{name:<26} {calls:>14.1f} {self_s:>14.6f} {share:>6.1f}%")


def write_trace(client: Client, workload: str, seed: int) -> Path:
    out = HERE / "out" / f"trace-{workload}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with out.open("w") as fh:
        for rec in client.spans:
            fh.write(json.dumps(rec) + "\n")
    return out


# ---------------------------------------------------------------------------
# entry points


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    printer = Printer(workload)
    omtq, instances, raw_setup_s, setup_s = set_up(workload, seed)
    order = workloads.request_order(instances, seed)
    client = Client(omtq)
    start = time.perf_counter()
    if not trace:
        walls = client.run_rounds(order, "untraced", start + seconds, partial=True)
    else:
        walls = client.run_rounds(order, "untraced", start + seconds / 2, partial=False)
        tracer = client.tracer = Tracer()
        tracer.install(omtq)
        try:
            traced_walls = client.run_rounds(order, "traced", start + seconds, partial=False)
        finally:
            tracer.uninstall()

    failed = len(client.failures)
    for line in client.failures[:20]:
        printer.note(f"FAILED {line}")
    printer.note(f"{len(instances)} instances x {len(workloads.CONFIGS)} configurations, seed {seed}")
    printer.note(f"search counters digest {client.counters_digest()}")
    if trace:
        metrics = per_layer(client, walls, traced_walls, printer)
        units = PER_LAYER_UNITS
        printer.note(f"spans written to {write_trace(client, workload, seed)}")
    else:
        metrics = end_to_end(client, walls, setup_s, raw_setup_s, printer)
        units = END_TO_END_UNITS
    printer.metric("failed_share", failed / client.attempted, "ratio")
    printer.metric("wrong_answers", client.wrong_answers, "count")
    for name, unit in units.items():
        if name in metrics:
            printer.metric(name, metrics[name], unit)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }))
    return 0 if failed == 0 else 1


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced and traced, one child process per run so
    that peak memory is per workload."""
    worst = 0
    for workload in workloads.WORKLOADS:
        for trace in ("0", "1"):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", trace]
            worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
