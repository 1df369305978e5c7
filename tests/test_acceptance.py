"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS or FAIL line so the verdicts survive in
captured output; the assertions carry the same condition.  Optimum
outcomes produced here feed a shared cross-validation ledger that the
dedicated cross-check criterion inspects at the end.
"""

import math
import time
from fractions import Fraction

from helpers import (
    ALL_CONFIGS,
    EX1,
    ZENO,
    bounded_literals,
    brute_sat,
    corpus_problem,
    jobshop_oracle,
    random_cnf,
    random_literals,
    strip_layout_ok,
    strip_oracle,
)
from omtq import OmtConfig, crosscheck, solve
from omtq.arith import eps_part, real_part
from omtq.encodings import (
    jobshop_problem,
    strip_packing_instance,
    strip_packing_problem,
)
from omtq.lra import LraSolver, conjunction_min
from omtq.oracle import fm_minimize, oracle_solve
from omtq.parser import parse_problem
from omtq.sat import SatSolver


def approx_sqrt(n: int) -> Fraction:
    """Rational approximation of sqrt(n), exact for perfect squares."""
    scale = 10 ** 4
    return Fraction(math.isqrt(n * scale * scale), scale)


# optimum outcomes cross-validated across criteria 1, 2, 5 and 6
_XCHECK = {"passed": 0, "failures": []}


def _verdict(name: str, ok: bool, detail: str = "") -> bool:
    tail = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def _record_crosscheck(problem, outcome, tag):
    ok, msg = crosscheck(problem, outcome)
    if ok:
        _XCHECK["passed"] += 1
    else:
        _XCHECK["failures"].append(f"{tag}: {msg}")


def test_criterion_1_random_instances_match_the_reference_solver():
    start = time.monotonic()
    mismatches = []
    for seed in range(500):
        problem = corpus_problem(seed)
        want = oracle_solve(problem)
        for cfg in ALL_CONFIGS:
            out = solve(problem, cfg)
            got = (out.status, out.value, out.attained)
            expect = (want.status, want.value, want.attained)
            if got != expect:
                mismatches.append((seed, cfg.schema, cfg.search, got, expect))
            elif out.status == "optimum":
                _record_crosscheck(problem, out, f"random seed {seed}")
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    assert _verdict(
        "criterion 1 (500 random instances, 4 configurations)",
        ok,
        f"{elapsed:.1f}s, {len(mismatches)} mismatches",
    )
    assert not mismatches, mismatches[:5]
    assert elapsed < 60.0


def test_criterion_2_reference_instance_and_search_traces():
    problem = parse_problem(EX1)
    ok = True
    for cfg in ALL_CONFIGS:
        out = solve(problem, cfg)
        if not (out.status == "optimum" and out.value == 15 and out.attained):
            ok = False
        else:
            _record_crosscheck(problem, out, f"ex1 {cfg.schema}/{cfg.search}")
    forced = solve(
        problem,
        OmtConfig(schema="offline", search="binary", always_binary=True),
    )
    trace_ok = forced.lower_trace == [0, 8, 12, 14, 15]
    inline = solve(problem, OmtConfig(schema="inline", search="binary"))
    pivot_ok = inline.stats.pivots <= 1
    ok = ok and trace_ok and pivot_ok
    assert _verdict(
        "criterion 2 (reference optimum, pivot trace, generalization)",
        ok,
        f"trace={forced.lower_trace}, inline pivots={inline.stats.pivots}",
    )
    assert trace_ok and pivot_ok


def test_criterion_4_vanishing_range_termination():
    problem = parse_problem(ZENO)
    # interleaved linear steps terminate within the doubling bound
    bound = 2 * math.ceil(math.log2(16)) + 2
    mixed = solve(
        problem,
        OmtConfig(schema="offline", search="binary", early_pruning=False),
    )
    mixed_ok = (
        mixed.status == "optimum"
        and mixed.value == 0
        and not mixed.attained
        and mixed.stats.loops <= bound
    )
    # pivoting on every loop re-refutes the same pivot forever
    spin = solve(
        problem,
        OmtConfig(
            schema="offline",
            search="binary",
            always_binary=True,
            early_pruning=False,
            max_loops=1000,
        ),
    )
    spin_ok = spin.status == "interrupted" and spin.stats.loops >= 1000
    ok = mixed_ok and spin_ok
    assert _verdict(
        "criterion 4 (termination safeguard on a vanishing range)",
        ok,
        f"mixed loops={mixed.stats.loops} (bound {bound}), forced status={spin.status}",
    )
    assert mixed_ok
    assert spin_ok


def test_criterion_5_strip_packing_against_enumeration():
    combos = [(n, w) for n in (3, 4, 5) for w in (Fraction(1), approx_sqrt(n) / 2)]
    bad = []
    for idx in range(25):
        n, width = combos[idx % len(combos)]
        problem, meta = strip_packing_problem(n, width, idx)
        want = strip_oracle(meta)
        if want > meta["ub"]:
            bad.append((idx, "oracle above shelf bound"))
            continue
        for cfg in ALL_CONFIGS:
            out = solve(problem, cfg)
            if not (out.status == "optimum" and out.value == want and out.attained):
                bad.append((idx, cfg.schema, cfg.search, out.status, out.value, want))
                continue
            if not strip_layout_ok(meta, out.model):
                bad.append((idx, cfg.schema, cfg.search, "overlapping layout"))
            _record_crosscheck(problem, out, f"strip {idx}")
    start = time.monotonic()
    problem, _ = strip_packing_problem(6, 1, 0)
    smoke = solve(problem, OmtConfig(schema="inline", search="binary"))
    smoke_elapsed = time.monotonic() - start
    _record_crosscheck(problem, smoke, "strip smoke n=6")
    smoke_ok = smoke.status == "optimum" and smoke_elapsed < 30.0
    ok = not bad and smoke_ok
    assert _verdict(
        "criterion 5 (strip packing, 25 instances + n=6 smoke)",
        ok,
        f"{len(bad)} failures, smoke {smoke_elapsed:.1f}s",
    )
    assert not bad, bad[:5]
    assert smoke_ok


def test_criterion_6_jobshop_against_enumeration():
    shapes = [(2, 2), (3, 2), (3, 3)]
    bad = []
    for idx in range(25):
        jobs, machines = shapes[idx % len(shapes)]
        problem, meta = jobshop_problem(jobs, machines, idx)
        want = jobshop_oracle(meta)
        for cfg in ALL_CONFIGS:
            out = solve(problem, cfg)
            if not (out.status == "optimum" and out.value == want and out.attained):
                bad.append((idx, cfg.schema, cfg.search, out.status, out.value, want))
                continue
            _record_crosscheck(problem, out, f"jobshop {idx}")
    start = time.monotonic()
    problem, _ = jobshop_problem(5, 4, 0)
    smoke = solve(problem, OmtConfig(schema="inline", search="binary"))
    smoke_elapsed = time.monotonic() - start
    _record_crosscheck(problem, smoke, "jobshop smoke 5x4")
    smoke_ok = smoke.status == "optimum" and smoke_elapsed < 30.0
    ok = not bad and smoke_ok
    assert _verdict(
        "criterion 6 (job shop, 25 instances + 5x4 smoke)",
        ok,
        f"{len(bad)} failures, smoke {smoke_elapsed:.1f}s",
    )
    assert not bad, bad[:5]
    assert smoke_ok


def test_criterion_7_component_suites():
    sat_bad = 0
    for seed in range(10_000):
        nvars, clauses = random_cnf(seed, max_vars=16)
        s = SatSolver()
        s.ensure_vars(nvars)
        for c in clauses:
            s.add_clause(list(c))
        if (s.solve().status == "sat") != brute_sat(nvars, clauses):
            sat_bad += 1

    import random as _random

    core_bad = 0
    cores_seen = 0
    for seed in range(2_000):
        nvars, clauses = random_cnf(seed, max_vars=10)
        rng = _random.Random(seed ^ 0xC0DE)
        assumptions, seen = [], set()
        for _ in range(rng.randrange(1, 5)):
            v = rng.randrange(1, nvars + 1)
            if v in seen:
                continue
            seen.add(v)
            assumptions.append(v if rng.random() < 0.5 else -v)
        s = SatSolver()
        s.ensure_vars(nvars)
        for c in clauses:
            s.add_clause(list(c))
        res = s.solve(assumptions)
        if res.status != "unsat":
            continue
        cores_seen += 1
        if not set(res.core) <= set(assumptions):
            core_bad += 1
        elif brute_sat(nvars, clauses, fixed=tuple(res.core)):
            core_bad += 1

    lra_bad = 0
    for seed in range(1_000):
        lits = random_literals(seed)
        lra = LraSolver(3)
        verdict = True
        for i, (atom, pol) in enumerate(lits):
            if lra.assert_atom(atom, pol, i + 1) is not None:
                verdict = False
                break
        if verdict:
            verdict = lra.check()[0] == "sat"
        if verdict != (fm_minimize(lits, 0).status != "infeasible"):
            lra_bad += 1

    min_bad = 0
    for seed in range(1_000):
        lits = bounded_literals(seed)
        status, val = conjunction_min(lits, 0)
        want = fm_minimize(lits, 0)
        names = {"optimum": "min", "infeasible": "unsat", "unbounded": "unbounded"}
        if status != names[want.status]:
            min_bad += 1
        elif status == "min" and (
            real_part(val) != want.value or (eps_part(val) == 0) != want.attained
        ):
            min_bad += 1

    ok = sat_bad == 0 and core_bad == 0 and cores_seen > 500 and lra_bad == 0 and min_bad == 0
    assert _verdict(
        "criterion 7 (component suites: sat, cores, simplex, minimize)",
        ok,
        f"sat={sat_bad} cores={core_bad}/{cores_seen} simplex={lra_bad} minimize={min_bad}",
    )
    assert ok


def test_criterion_8_deterministic_output():
    ok = True
    problem = parse_problem(EX1)
    for cfg in ALL_CONFIGS:
        if solve(problem, cfg) != solve(problem, cfg):
            ok = False
    for seed in range(5):
        a, _ = strip_packing_instance(4, Fraction(3, 2), seed)
        b, _ = strip_packing_instance(4, Fraction(3, 2), seed)
        if a != b:
            ok = False
    for seed in range(20):
        problem = corpus_problem(seed)
        cfg = OmtConfig(schema="inline", search="binary")
        if solve(problem, cfg) != solve(problem, cfg):
            ok = False
    assert _verdict("criterion 8 (repeatable solves and generation)", ok)
    assert ok


def test_criterion_3_every_reported_optimum_survives_crosscheck():
    # runs last in file order, after the other criteria filled the ledger
    ok = not _XCHECK["failures"] and _XCHECK["passed"] > 0
    assert _verdict(
        "criterion 3 (independent validation of every optimum)",
        ok,
        f"{_XCHECK['passed']} optima validated, {len(_XCHECK['failures'])} failures",
    )
    assert not _XCHECK["failures"], _XCHECK["failures"][:5]
    assert _XCHECK["passed"] > 0
