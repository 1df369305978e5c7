"""End-to-end optimization engine: offline and inline search."""

import gc
import hashlib
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import (
    ALL_CONFIGS,
    EX1,
    FAMILIES,
    ZENO,
    boolean_structure_text,
    corpus_problem,
    model_satisfies,
    random_pb,
    text_holds,
)
from omtq import OmtConfig, SearchStats, compute_pivot, crosscheck, lra, omt, solve
from omtq.arith import EQ, DeltaRational
from omtq.encodings import encode_pb, jobshop_problem, strip_packing_problem
from omtq.formula import Atom, OmtProblem, normalize_atom
from omtq.omt import CostRange, smt_decide
from omtq.oracle import oracle_solve
from omtq.parser import parse_problem


def _solve_text(text, **kw):
    return solve(parse_problem(text), OmtConfig(**kw))


# -- pivot selection ---------------------------------------------------------


def test_pivot_is_the_exact_midpoint():
    assert compute_pivot(0, 16) == 8
    assert compute_pivot(8, 16) == 12
    assert compute_pivot(12, 16) == 14
    assert compute_pivot(14, 16) == 15
    assert compute_pivot(-1, 0) == Fraction(-1, 2)
    assert compute_pivot(Fraction(1, 3), Fraction(1, 2)) == Fraction(5, 12)


def test_pivot_requires_finite_bounds():
    with pytest.raises(ValueError):
        compute_pivot(None, 16)
    with pytest.raises(ValueError):
        compute_pivot(0, None)


def test_binary_mode_alternates_with_linear():
    rng = CostRange(OmtConfig(schema="offline", search="binary"), Fraction(0), Fraction(16))
    assert [rng.pivot() for _ in range(4)] == [8, None, 8, None]


def test_binary_mode_needs_two_finite_bounds():
    cfg = OmtConfig(schema="offline", search="binary")
    assert CostRange(cfg, Fraction(0), None).pivot() is None
    assert CostRange(cfg, None, Fraction(16)).pivot() is None


def test_linear_mode_never_pivots():
    cfg = OmtConfig(schema="offline", search="linear")
    assert CostRange(cfg, Fraction(0), Fraction(16)).pivot() is None


def test_degenerate_range_probes_linearly():
    cfg = OmtConfig(schema="offline", search="binary")
    assert CostRange(cfg, Fraction(3), Fraction(3)).pivot() is None
    forced = OmtConfig(schema="offline", search="binary", always_binary=True)
    assert CostRange(forced, Fraction(3), Fraction(3)).pivot() == 3


def test_config_validation():
    with pytest.raises(ValueError):
        OmtConfig(schema="sideways")
    with pytest.raises(ValueError):
        OmtConfig(search="ternary")


@pytest.mark.parametrize(
    "field, value",
    [
        ("timeout", float("nan")),
        ("timeout", "1"),
        ("timeout", True),
        ("max_loops", 1.5),
        ("max_loops", -1),
        ("max_loops", True),
    ],
)
def test_config_rejects_a_budget_that_is_not_one(field, value):
    """A nan timeout would run with no deadline, a ``str`` one would be
    read as seconds, and a fractional, negative or ``bool`` loop budget
    is no count of loops."""
    with pytest.raises(ValueError, match=field):
        OmtConfig(**{field: value})


@pytest.mark.parametrize("field", ["always_binary", "early_pruning", "pure_literal"])
@pytest.mark.parametrize("value", ["no", None, 0, 1])
def test_config_rejects_a_switch_that_is_not_a_bool(field, value):
    """A switch is a ``bool``: the truthy ``'no'`` would run as True."""
    with pytest.raises(ValueError, match=field):
        OmtConfig(**{field: value})


def test_config_keeps_every_real_timeout_and_int_budget():
    for timeout in (None, 0, 2, 0.5, Fraction(1, 3), float("inf"), -1.0):
        assert OmtConfig(timeout=timeout).timeout == timeout
    for max_loops in (None, 0, 1, 10**6):
        assert OmtConfig(max_loops=max_loops).max_loops == max_loops


# -- reference instance ------------------------------------------------------


def test_reference_instance_in_every_configuration():
    problem = parse_problem(EX1)
    for cfg in ALL_CONFIGS:
        out = solve(problem, cfg)
        assert out.status == "optimum", cfg
        assert out.value == 15
        assert out.attained
        assert out.model["cost"] == 15
        assert model_satisfies(problem, out.model)
        ok, msg = crosscheck(problem, out)
        assert ok, msg


def test_reference_instance_binary_trace():
    out = _solve_text(EX1, schema="offline", search="binary", always_binary=True)
    assert out.status == "optimum" and out.value == 15
    assert out.lower_trace == [0, 8, 12, 14, 15]


def test_reference_instance_inline_converges_without_pivoting():
    # the learnt upper bounds close the range before a pivot is needed
    out = _solve_text(EX1, schema="inline", search="binary")
    assert out.status == "optimum" and out.value == 15
    assert out.stats.pivots <= 1


# -- small closed-form instances ---------------------------------------------


def test_point_feasible_instance():
    text = "(declare-fun cost () Real)(assert (= cost 3))(minimize cost)"
    for cfg in ALL_CONFIGS:
        out = _solve_text(text, schema=cfg.schema, search=cfg.search)
        assert out.status == "optimum"
        assert out.value == 3 and out.attained


def test_unbounded_instance():
    text = "(declare-fun cost () Real)(assert (<= cost 0))(minimize cost)"
    for cfg in ALL_CONFIGS:
        out = _solve_text(text, schema=cfg.schema, search=cfg.search)
        assert out.status == "unbounded"
        assert out.value is None


def test_inline_reads_bounds_from_unit_atoms():
    text = (
        "(declare-fun cost () Real)"
        "(assert (>= cost 3))(assert (<= cost 7))(minimize cost)"
    )
    out = _solve_text(text, schema="inline", search="binary")
    assert out.status == "optimum"
    assert out.value == 3 and out.attained
    assert out.stats.pivots == 0


def test_strict_infimum_is_reported_unattained():
    text = "(declare-fun cost () Real)(assert (> cost 0))(minimize cost)"
    for cfg in ALL_CONFIGS:
        out = _solve_text(text, schema=cfg.schema, search=cfg.search)
        assert out.status == "optimum", cfg
        assert out.value == 0
        assert not out.attained
        ok, msg = crosscheck(parse_problem(text), out)
        assert ok, msg


def test_unsat_reports_the_upper_bound():
    text = (
        "(declare-fun cost () Real)(set-info :lb 0)(set-info :ub 5)"
        "(assert (<= cost 0))(assert (>= cost 1))(minimize cost)"
    )
    for cfg in ALL_CONFIGS:
        out = _solve_text(text, schema=cfg.schema, search=cfg.search)
        assert out.status == "unsat"
        assert out.value == 5
        assert not out.attained
        ok, msg = crosscheck(parse_problem(text), out)
        assert ok, msg


def test_unsat_without_bounds_has_no_value():
    text = (
        "(declare-fun cost () Real)"
        "(assert (<= cost 0))(assert (>= cost 1))(minimize cost)"
    )
    for cfg in ALL_CONFIGS:
        out = _solve_text(text, schema=cfg.schema, search=cfg.search)
        assert out.status == "unsat"
        assert out.value is None


def test_range_excludes_the_upper_endpoint():
    # the only model sits exactly at ub, which the range [lb, ub[ rejects
    text = (
        "(declare-fun cost () Real)(set-info :lb 0)(set-info :ub 4)"
        "(assert (= cost 4))(minimize cost)"
    )
    for cfg in ALL_CONFIGS:
        out = _solve_text(text, schema=cfg.schema, search=cfg.search)
        assert out.status == "unsat", cfg


def test_range_includes_the_lower_endpoint():
    text = (
        "(declare-fun cost () Real)(set-info :lb 4)(set-info :ub 9)"
        "(assert (= cost 4))(minimize cost)"
    )
    for cfg in ALL_CONFIGS:
        out = _solve_text(text, schema=cfg.schema, search=cfg.search)
        assert out.status == "optimum", cfg
        assert out.value == 4 and out.attained


# -- interruption ------------------------------------------------------------


def test_loop_budget_returns_best_so_far():
    out = _solve_text(EX1, schema="offline", search="linear", max_loops=1)
    assert out.status == "interrupted"
    assert out.value == 15 and out.attained


def test_loop_budget_before_any_model():
    out = _solve_text(EX1, schema="offline", search="binary", max_loops=0)
    assert out.status == "interrupted"
    assert out.value is None


def test_loop_budget_stops_both_schemas_at_the_budget():
    # the pinned searches below take 5-7 loops on this instance
    problem, _ = jobshop_problem(4, 3, 1)
    for cfg in ALL_CONFIGS:
        for k in (1, 2, 3):
            out = solve(problem, OmtConfig(schema=cfg.schema, search=cfg.search, max_loops=k))
            assert out.status == "interrupted", (cfg, k)
            assert out.stats.loops == k, (cfg, k)


def test_inline_max_loops_zero_can_return_the_optimum():
    """The inline schema counts a loop when a return to decision level 0
    finds the root bounds on the cost changed.  Here the one model's
    bound ends the run in a level-0 conflict before any such visit, so
    no loop is counted and ``max_loops=0`` still returns the optimum;
    the offline schema counts its first solver call and stops."""
    text = """
(declare-fun cost () Real)
(declare-fun x () Real)
(assert (>= x 1))
(assert (>= cost x))
(minimize cost)
"""
    for cfg in ALL_CONFIGS:
        out = _solve_text(text, schema=cfg.schema, search=cfg.search, max_loops=0)
        if cfg.schema == "inline":
            assert (out.status, out.value, out.stats.loops) == ("optimum", 1, 0), cfg
        else:
            assert (out.status, out.value, out.stats.loops) == ("interrupted", None, 0), cfg


# -- repeated pivot refutation hazard ----------------------------------------


def test_vanishing_range_terminates_with_interleaved_linear_steps():
    problem = parse_problem(ZENO)
    for pruning in (True, False):
        cfg = OmtConfig(schema="offline", search="binary", early_pruning=pruning)
        out = solve(problem, cfg)
        assert out.status == "optimum"
        assert out.value == 0
        assert not out.attained
        assert out.stats.loops <= 10


def test_vanishing_range_spins_when_every_loop_pivots():
    cfg = OmtConfig(
        schema="offline",
        search="binary",
        always_binary=True,
        early_pruning=False,
        max_loops=60,
    )
    out = solve(parse_problem(ZENO), cfg)
    assert out.status == "interrupted"
    assert out.stats.loops >= 60
    # best-so-far value matches the true infimum even though search spun
    assert out.value == 0


# -- independent validation --------------------------------------------------


def test_crosscheck_rejects_corrupted_value():
    problem = parse_problem("(declare-fun cost () Real)(assert (= cost 3))(minimize cost)")
    out = solve(problem, OmtConfig(schema="offline", search="linear"))
    assert out.status == "optimum" and out.value == 3
    out.value = Fraction(29, 10)
    ok, msg = crosscheck(problem, out)
    assert not ok
    assert "below the reported" in msg or "not realizable" in msg


def test_crosscheck_rejects_corrupted_attained_flag():
    problem = parse_problem("(declare-fun cost () Real)(assert (= cost 3))(minimize cost)")
    out = solve(problem, OmtConfig())
    out.attained = False
    ok, _ = crosscheck(problem, out)
    assert not ok


def test_crosscheck_confirms_unsat_and_unbounded():
    unsat = parse_problem(
        "(declare-fun cost () Real)(assert (< cost 0))(assert (> cost 0))(minimize cost)"
    )
    out = solve(unsat, OmtConfig())
    assert out.status == "unsat"
    assert crosscheck(unsat, out) == (True, "unsat confirmed")
    free = parse_problem("(declare-fun cost () Real)(assert (< cost 0))(minimize cost)")
    out = solve(free, OmtConfig())
    assert out.status == "unbounded"
    ok, _ = crosscheck(free, out)
    assert ok


def test_crosscheck_queries_stop_at_the_timeout():
    problem = parse_problem((FAMILIES / "jobshop-5x4-s2.smt2").read_text())
    out = solve(problem, OmtConfig())
    assert out.status == "optimum"
    assert crosscheck(problem, out, timeout=60) == (True, "optimum confirmed")
    # every decision query tests its deadline at each BCP fixpoint
    with pytest.raises(TimeoutError):
        crosscheck(problem, out, timeout=0)


def test_timeouts_beyond_float_range_never_stop_or_stop_at_once():
    """An ``int`` timeout too large for a float reads as +-inf: ``solve``,
    ``smt_decide`` and ``crosscheck`` never stop on +10**400 and stop at
    once on -10**400, as they do on a negative float timeout."""
    problem = parse_problem((FAMILIES / "jobshop-5x4-s2.smt2").read_text())
    huge = 10**400
    for cfg in ALL_CONFIGS:
        assert solve(problem, replace(cfg, timeout=huge)) == solve(problem, cfg), cfg
        assert solve(problem, replace(cfg, timeout=-huge)).status == "interrupted", cfg
    want = solve(problem)
    assert smt_decide(problem, (), OmtConfig(timeout=huge)) == "sat"
    with pytest.raises(TimeoutError):
        smt_decide(problem, (), OmtConfig(timeout=-huge))
    assert crosscheck(problem, want, timeout=huge) == (True, "optimum confirmed")
    with pytest.raises(TimeoutError):
        crosscheck(problem, want, timeout=-huge)


def test_decision_queries():
    problem = parse_problem(EX1)
    assert smt_decide(problem) == "sat"
    from omtq.formula import normalize_atom

    below, _ = normalize_atom({0: 1}, -10, "<")  # cost < 10
    assert smt_decide(problem, [(below, True)]) == "unsat"


def test_decision_queries_take_a_negated_equality():
    # x != 0 must reach the simplex: with x pinned to 0 it is unsat, with
    # x in [0, 1] it is sat, and x = 0 is sat either way
    from omtq.formula import normalize_atom

    for hi, want in (("0", "unsat"), ("1", "sat")):
        problem = parse_problem(f"(declare-fun x () Real)(assert (<= x {hi}))(assert (>= x 0))(minimize x)")
        zero, _ = normalize_atom({problem.formula.rat_var("x"): 1}, 0, "=")
        assert smt_decide(problem, [(zero, False)]) == want, hi
        assert smt_decide(problem, [(zero, True)]) == "sat", hi


def test_decision_queries_reject_an_undeclared_variable():
    problem = parse_problem("(declare-fun x () Real)(assert (>= x 0))(minimize x)")
    for coeffs in (((5, 1),), ((0, 1), (1, 2)), ((-1, 1),)):
        with pytest.raises(ValueError, match=f"undeclared variable id {coeffs[-1][0]}"):
            smt_decide(problem, [(Atom(coeffs, 0, "<="), True)])
    assert smt_decide(problem, [(Atom(((0, 1),), 0, "<="), True)]) == "sat"


def test_decision_queries_reject_an_extra_literal_that_is_not_an_atom_pair():
    problem = parse_problem("(declare-fun x () Real)(assert (>= x 0))(minimize x)")
    atom = Atom(((0, 1),), 0, "<=")
    for extra in (("a", True), (atom, 1), (atom, None), (atom,), atom, (atom, True, True), "ab"):
        with pytest.raises(ValueError, match="is not an \\(Atom, bool\\) pair"):
            smt_decide(problem, [extra])
    assert smt_decide(problem, [[atom, False]]) == "sat"


# an input holding the pivot cost < 8 positively, a tautology on b, and an
# optimum of 10 in [0, 16[, above the offline pivots 8 and 9
VISIBILITY = """
(declare-fun cost () Real)(declare-fun a () Bool)(declare-fun b () Bool)
(assert (or b (not b)))
(assert (or a (< cost 8)))
(assert (>= cost 10))
(minimize cost)
"""


def test_the_bridge_alone_decides_which_literals_are_visible(monkeypatch):
    """``visible`` holds the literals of the input clauses the SAT core
    keeps and the range units.  An offline pivot is visible during the
    solve that assumes it and afterwards only if the input holds it; a
    refuted pivot's negation and a model's bound unit become visible.
    The inline pivot unit is a lemma and stays invisible."""
    parsed = parse_problem(VISIBILITY)
    problem = OmtProblem(parsed.formula, parsed.cost, 0, 16)
    starts = []  # (assumptions, visible) at the start of each solve
    lemmas = []

    class Recording(omt.SatSolver):
        def solve(self, assumptions, client):
            starts.append((list(assumptions), set(client.visible)))
            return super().solve(assumptions, client)

        def add_lemma(self, lits):
            lemmas.append(list(lits))
            super().add_lemma(lits)

    monkeypatch.setattr(omt, "SatSolver", Recording)
    bridge = omt.TheoryBridge(problem, OmtConfig(schema="offline", search="binary"))
    lit = {q: bridge.cost_lit(Fraction(q), "<") for q in (0, 8, 9, 10, 16)}
    b = problem.formula.prop("b")
    kept = [cl for cl in problem.formula.clauses if not any(-l in cl for l in cl)]
    assert len(kept) == len(problem.formula.clauses) - 1
    base = {l for cl in kept for l in cl} | {-lit[0], lit[16]}
    assert bridge.visible == base and b not in base and -b not in base
    assert lit[8] in base and lit[9] not in base

    assert omt._offline_search(bridge).value == 10
    # 8 is refuted; the model's bound cost < 10 leaves the pivot 9 unsat
    # at level 0, with an empty core, which ends the search
    assert starts == [
        ([lit[8]], base),
        ([], base | {-lit[8]}),
        ([lit[9]], base | {-lit[8], lit[10], lit[9]}),
    ]
    assert bridge.visible == base | {-lit[8], lit[10]}

    # the decided pivot 8 lies above the model's minimum 5, so it becomes a unit
    parsed = parse_problem(
        "(declare-fun cost () Real)(declare-fun x () Real)"
        "(assert (>= cost x))(assert (or (>= x 5) (>= x 6)))(minimize cost)"
    )
    inline = omt.InlineBridge(OmtProblem(parsed.formula, parsed.cost, 0, 16), OmtConfig())
    assert omt._inline_search(inline).value == 5
    p8, u5 = inline.cost_lit(Fraction(8), "<"), inline.cost_lit(Fraction(5), "<")
    assert [p8] in lemmas and inline.stats.pivots == 1
    assert p8 not in inline.visible and u5 in inline.visible


# -- reproducibility ---------------------------------------------------------


def test_a_solve_leaves_no_cyclic_garbage():
    """The SAT solver drops its client when ``solve`` returns or raises,
    so reference counting frees the whole engine: nothing is left for
    the cyclic collector, an interrupted search included."""
    problem = parse_problem((FAMILIES / "strip-n6-w1-s1.smt2").read_text())
    gc.collect()
    gc.disable()
    try:
        for cfg in [*ALL_CONFIGS, OmtConfig(timeout=0)]:
            out = solve(problem, cfg)
            assert out.status == ("interrupted" if cfg.timeout == 0 else "optimum"), cfg
            assert gc.collect() == 0, cfg
    finally:
        gc.enable()


def test_repeated_solves_are_identical():
    problem = parse_problem(EX1)
    for cfg in ALL_CONFIGS:
        assert solve(problem, cfg) == solve(problem, cfg)


def test_input_problem_is_not_mutated():
    problem = parse_problem(EX1)
    before = len(problem.formula.clauses)
    vars_before = problem.formula.num_solver_vars
    solve(problem, OmtConfig(schema="offline", search="binary"))
    assert len(problem.formula.clauses) == before
    assert problem.formula.num_solver_vars == vars_before


# -- flag combinations against the reference solver -------------------------
# always_binary is left out: it spins on vanishing ranges by design


def test_flag_combinations_match_the_oracle(monkeypatch):
    generalized = []
    conjunction_min = omt.conjunction_min

    def counting_conjunction_min(literals, cost_key):
        generalized.append(cost_key)
        return conjunction_min(literals, cost_key)

    monkeypatch.setattr(omt, "conjunction_min", counting_conjunction_min)
    mismatches = []
    for seed in range(60):
        problem = corpus_problem(seed)
        want = oracle_solve(problem)
        expect = (want.status, want.value, want.attained)
        for schema in ("offline", "inline"):
            for search in ("linear", "binary"):
                for early_pruning in (True, False):
                    for pure_literal in (True, False):
                        cfg = OmtConfig(
                            schema=schema,
                            search=search,
                            early_pruning=early_pruning,
                            pure_literal=pure_literal,
                        )
                        out = solve(problem, cfg)
                        got = (out.status, out.value, out.attained)
                        if got != expect:
                            mismatches.append((seed, cfg, got, expect))
                        elif out.model is not None and not model_satisfies(problem, out.model):
                            mismatches.append((seed, cfg, "model violates the input"))
    assert not mismatches, mismatches[:3]
    # conflict generalization ran, so the sweep covers it
    assert generalized


class _PivotTrue:
    """A trail on which only ``lit`` is true, for ``transform_conflict``."""

    def __init__(self, lit):
        self.lit = lit

    def value(self, lit):
        return 1 if lit == self.lit else 0


def test_generalized_conflict_does_not_repeat_the_root_bound():
    """A generalized conflict ends in -u_lit, the negated root bound on
    the cost; when the conflict already holds -u_lit it is not added a
    second time, since the core attaches conflict clauses unchecked.  The
    conflict here refutes cost < 2 (the pivot), cost >= 5 and cost < 10
    (u_lit).  The bridge's state is set by hand, with the range's upper
    end at 3 - delta, so the minimum 5 of the rest lies above it."""
    problem = parse_problem(EX1)
    bridge = omt.InlineBridge(problem, OmtConfig(pure_literal=False))
    p, u = bridge.cost_lit(Fraction(2), "<"), bridge.cost_lit(Fraction(10), "<")
    at_least_5 = -bridge.cost_lit(Fraction(5), "<")
    bridge.pivot_lit, bridge.pivot_val, bridge.u_lit = p, Fraction(2), u
    bridge.range.hi = DeltaRational(3, -1)
    for clause in ([-p, -at_least_5, -u], [-u, -p, -at_least_5]):
        got = bridge.transform_conflict(_PivotTrue(p), clause)
        assert got == [l for l in clause if l != -p], clause
    got = bridge.transform_conflict(_PivotTrue(p), [-p, -at_least_5])
    assert got == [-at_least_5, -u]


# the exact search on three small benchmark instances: any change to the
# decisions, conflicts, theory checks, range updates or SAT propagations
# shows up here, even when the answers stay right; propagations are the
# first counter a reordering of theory propagations moves, and they live
# on the SAT solver, not in SearchStats
PINNED_SEARCH = {
    # (family, schema, search): (SearchStats fields in declaration order,
    #                            SatSolver.stats.propagations)
    ("strip", "offline", "linear"): ((100, 38, 0, 160, 1, 0, 2, 73), 278),
    ("strip", "offline", "binary"): ((101, 38, 0, 164, 1, 1, 3, 73), 271),
    ("strip", "inline", "linear"): ((97, 37, 0, 156, 1, 0, 2, 68), 271),
    ("strip", "inline", "binary"): ((107, 37, 0, 166, 1, 10, 2, 68), 281),
    ("jobshop", "offline", "linear"): ((40, 17, 0, 88, 5, 0, 6, 75), 412),
    ("jobshop", "offline", "binary"): ((49, 23, 0, 100, 4, 3, 7, 83), 437),
    ("jobshop", "inline", "linear"): ((37, 14, 0, 76, 5, 0, 5, 76), 413),
    ("jobshop", "inline", "binary"): ((45, 14, 0, 84, 5, 4, 5, 76), 421),
    ("pb", "offline", "linear"): ((45, 29, 0, 73, 2, 0, 3, 26), 823),
    ("pb", "offline", "binary"): ((49, 33, 0, 85, 2, 2, 4, 39), 922),
    ("pb", "inline", "linear"): ((46, 28, 0, 73, 2, 0, 2, 19), 823),
    ("pb", "inline", "binary"): ((50, 28, 0, 77, 2, 3, 2, 19), 828),
}


def test_search_is_pinned_on_benchmark_instances(monkeypatch):
    solvers = []

    class RecordingSatSolver(omt.SatSolver):
        def __init__(self):
            super().__init__()
            solvers.append(self)

    monkeypatch.setattr(omt, "SatSolver", RecordingSatSolver)
    problems = {
        "strip": (strip_packing_problem(4, 1, 2)[0], Fraction(109, 12)),
        "jobshop": (jobshop_problem(4, 3, 1)[0], Fraction(27)),
        "pb": (encode_pb(*random_pb(2, 20)), Fraction(54)),
    }
    for (family, schema, search), (counters, propagations) in PINNED_SEARCH.items():
        problem, value = problems[family]
        solvers.clear()
        out = solve(problem, OmtConfig(schema=schema, search=search))
        key = (family, schema, search)
        assert (out.status, out.value, out.attained) == ("optimum", value, True), key
        assert out.stats == SearchStats(*counters), key
        assert [s.stats.propagations for s in solvers] == [propagations], key


class _FullScanEntailment:
    """Reference: asks ``entailed`` about every unassigned theory atom at
    each BCP fixpoint, in solver var order."""

    def _entailed_props(self, solver):
        formula = self.formula
        out = []
        for v in range(1, formula.num_solver_vars + 1):
            atom = formula.atom_of(v)
            if atom is None or v > solver.nvars or solver.assign[v] != 0:
                continue
            ent = self.lra.entailed(atom)
            if ent is None:
                continue
            value, reasons = ent
            lit = v if value else -v
            out.append((lit, [lit] + [-r for r in reasons]))
        return out


def _recording(base, bridges):
    """``base`` with every engine appended to ``bridges`` and the list of
    propagations of each fixpoint kept in ``props``."""

    class Recording(base):
        def __init__(self, problem, config):
            super().__init__(problem, config)
            self.slacks_at_start = len(self.lra.slack_of)
            self.props = []
            bridges.append(self)

        def _entailed_props(self, solver):
            out = super()._entailed_props(solver)
            self.props.append(out)
            return out

    return Recording


def test_indexed_entailment_matches_a_full_scan(monkeypatch):
    """The engines and a full-scan reference in lockstep: the same
    propagations at every fixpoint, in the same order, and the same
    slacks created in the same order.  A slack is made only when the
    search first asserts, indexes or asks about one of its atoms, so an
    engine starts without any.  The families also run inline without
    the pure-literal filter, where conflict generalization registers
    atoms in mid-search."""
    engines = {
        "indexed": (omt.TheoryBridge, omt.InlineBridge),
        "full scan": (
            type("FullScanBridge", (_FullScanEntailment, omt.TheoryBridge), {}),
            type("FullScanInlineBridge", (_FullScanEntailment, omt.InlineBridge), {}),
        ),
    }
    families = [parse_problem(p.read_text()) for p in sorted(FAMILIES.glob("*.smt2"))]
    problems = families + [corpus_problem(seed) for seed in range(40)]
    problems += [parse_problem(boolean_structure_text(seed)) for seed in range(40)]
    problems += [encode_pb(*random_pb(seed, 20)) for seed in range(8)]
    cases = [(problem, cfg) for problem in problems for cfg in ALL_CONFIGS]
    cases += [
        (problem, OmtConfig(schema="inline", search=search, pure_literal=False))
        for problem in families
        for search in ("linear", "binary")
    ]
    entailed = 0
    for i, (problem, cfg) in enumerate(cases):
        runs = {}
        for side, (offline, inline) in engines.items():
            bridges = []
            monkeypatch.setattr(omt, "TheoryBridge", _recording(offline, bridges))
            monkeypatch.setattr(omt, "InlineBridge", _recording(inline, bridges))
            out = solve(problem, cfg)
            assert all(b.slacks_at_start == 0 for b in bridges), (i, cfg, side)
            runs[side] = (
                out.status,
                out.value,
                [(b.props, list(b.lra.slack_of)) for b in bridges],
            )
        assert runs["indexed"] == runs["full scan"], (i, cfg)
        for fixpoints, _ in runs["indexed"][2]:
            entailed += sum(map(len, fixpoints))
    assert entailed > 0  # the inputs reach theory propagations


def _full_root_scan(bridge, solver):
    """Reference for ``InlineBridge._scan_root_bounds``: the whole
    level-0 trail, walked from the start at every visit."""
    problem = bridge.problem
    best_lo = None if problem.lb is None else DeltaRational(problem.lb)
    best_up = best_lit = None
    for lit in solver.trail:
        atom = bridge.formula.atom_of(abs(lit))
        if atom is None:
            continue
        sv = atom.single_var()
        if sv is None or sv[0] != problem.cost or (lit < 0 and atom.rel == EQ):
            continue
        for _, is_lower, val in bridge.lra.effective_bounds(atom, lit > 0):
            val = bridge._unscaled(val)
            if is_lower:
                if best_lo is None or val > best_lo:
                    best_lo = val
            elif best_up is None or val < best_up:
                best_up, best_lit = val, lit
    return best_lo, best_up, best_lit


def test_root_bound_scan_resumes_like_a_full_rescan(monkeypatch):
    """The inline engine reads the level-0 trail from where its last
    visit stopped; at every visit its (lo, hi, literal) equals a full
    rescan's, and the trail it has read is still the trail's prefix."""
    visits = []

    class Lockstep(omt.InlineBridge):
        def __init__(self, *args):
            super().__init__(*args)
            self.scanned_trail = []

        def _scan_root_bounds(self, solver):
            assert solver.decision_level == 0
            read = list(solver.trail[: self.root_scanned])
            assert read == self.scanned_trail
            got = super()._scan_root_bounds(solver)
            assert got == _full_root_scan(self, solver), self.problem
            visits.append(len(read) > 0 and len(solver.trail) > len(read))
            self.scanned_trail = list(solver.trail)
            return got

    monkeypatch.setattr(omt, "InlineBridge", Lockstep)
    problems = [parse_problem(p.read_text()) for p in sorted(FAMILIES.glob("*.smt2"))]
    problems += [encode_pb(*random_pb(seed, 12)) for seed in range(8)]
    problems += [corpus_problem(seed) for seed in range(60)]
    # two root units bound the cost above by 8: the first one asserts hi
    tie = "(declare-fun cost () Real)(declare-fun x () Real)"
    tie += "(assert (<= cost 8))(assert (= cost 8))(assert (>= cost x))"
    tie += "(assert (or (<= x 1) (>= x 3)))(minimize cost)"
    problems.append(parse_problem(tie))
    for problem in problems:
        for search in ("linear", "binary"):
            solve(problem, OmtConfig(schema="inline", search=search))
    assert any(visits)  # some visits resume from a grown trail


def test_entailment_asks_atoms_registered_since_the_last_ask():
    """An atom registered between two asks, with no backjump or new bound
    in between, is asked at the second: here a cost atom the root upper
    bound entails."""
    bridge = omt.TheoryBridge(parse_problem(ZENO), OmtConfig())
    sat = bridge.sat
    sat.client = bridge
    assert sat.propagate() is None and sat.decision_level == 0
    lit = bridge.cost_lit(Fraction(20), "<")
    props = bridge._entailed_props(sat)
    assert [p[0] for p in props] == [lit]
    assert props == _FullScanEntailment._entailed_props(bridge, sat)


LADDER = """
(declare-fun cost () Real)
(declare-fun x () Real)
(declare-fun p () Bool)
(declare-fun q () Bool)
(declare-fun r () Bool)
(assert (>= cost x))
(assert (<= x 10))
(assert (or (<= x 1) p))
(assert (or (<= x 3) q))
(assert (or (<= x 5) r))
(minimize cost)
"""


def test_entailment_after_a_backjump_resumes_from_the_surviving_ask(monkeypatch):
    """An ask at level 0, a decision whose bound entails two atoms, and a
    backjump to level 0: the level-0 ask survives the backjump, no bound
    tightened since, so the next ask asks nothing and, like a full scan,
    finds nothing."""
    bridge = omt.TheoryBridge(parse_problem(LADDER), OmtConfig())
    sat, formula = bridge.sat, bridge.formula
    sat.client = bridge
    assert sat.propagate() is None and sat.decision_level == 0
    x = formula.rat_var("x")
    ladder = [formula.lit_for_atom(*normalize_atom({x: 1}, -k, "<=")) for k in (1, 3, 5)]
    assert all(sat.value(lit) == 0 for lit in ladder)
    sat.trail_lim.append(len(sat.trail))
    sat.enqueue(ladder[0])
    assert sat.propagate() is None
    assert sat.trail[sat.trail_lim[0]:] == ladder  # two theory propagations
    sat.cancel_until(0)
    asks = []
    entailed = bridge.lra.entailed
    monkeypatch.setattr(bridge.lra, "entailed", lambda atom: asks.append(atom) or entailed(atom))
    props = bridge._entailed_props(sat)
    assert asks == []
    assert props == _FullScanEntailment._entailed_props(bridge, sat) == []
    assert len(asks) == 3  # the full scan asks the ladder's three atoms


class _EagerWitness:
    """Reference: makes the concrete model of each improving model at
    once, from the simplex state it was found in."""

    def minimize(self):
        best = self.best
        found = super().minimize()
        if self.best is not best:
            self.eager = self.snapshot_model(self.lra.beta, self.current_literals())
        return found

    def outcome(self, status):
        out = super().outcome(status)
        if out.model is not None:
            out.epsilon, out.model = self.eager
        return out


def test_lazy_witness_matches_an_eager_snapshot(monkeypatch):
    """The model and epsilon made once at the end from the kept simplex
    values equal the ones made when the best model was found, on
    finished and on interrupted searches."""
    families = [parse_problem(p.read_text()) for p in sorted(FAMILIES.glob("*.smt2"))]
    problems = families + [corpus_problem(seed) for seed in range(100)]
    problems += [encode_pb(*random_pb(seed, 16)) for seed in range(8)]
    configs = [
        OmtConfig(schema=cfg.schema, search=cfg.search, max_loops=max_loops)
        for cfg in ALL_CONFIGS
        for max_loops in (None, 1, 2)
    ]
    eager = (
        type("EagerBridge", (_EagerWitness, omt.TheoryBridge), {}),
        type("EagerInlineBridge", (_EagerWitness, omt.InlineBridge), {}),
    )
    lazy = (omt.TheoryBridge, omt.InlineBridge)
    interrupted_models = 0
    for i, problem in enumerate(problems):
        for cfg in configs:
            outs = []
            for offline, inline in (lazy, eager):
                monkeypatch.setattr(omt, "TheoryBridge", offline)
                monkeypatch.setattr(omt, "InlineBridge", inline)
                outs.append(solve(problem, cfg))
            assert outs[0] == outs[1], (i, cfg)
            interrupted_models += outs[0].status == "interrupted" and outs[0].model is not None
    assert interrupted_models > 0


def test_lower_trace_rises_to_the_reported_value():
    problems = [strip_packing_problem(4, 1, 2)[0], jobshop_problem(4, 3, 1)[0]]
    for problem in problems:
        for cfg in ALL_CONFIGS:
            out = solve(problem, cfg)
            trace = out.lower_trace
            assert trace, cfg
            assert all(a < b for a, b in zip(trace, trace[1:])), (cfg, trace)
            assert trace[-1] <= out.value, (cfg, trace, out.value)


# -- exact result values and the simplex's scale -----------------------------


def test_result_values_are_fractions():
    """Inside the simplex an integral value is an ``int``; every value of
    an outcome is a ``Fraction`` (a Bool in the model a ``bool``), and an
    ``int / int`` left on the way out would make a ``float``.  Corpus
    seeds 348 and 390 reach epsilon limits with integral fields."""
    problems = [parse_problem(p.read_text()) for p in sorted(FAMILIES.glob("*.smt2"))]
    problems += [corpus_problem(seed) for seed in range(400)]
    strict_models = 0
    for i, problem in enumerate(problems):
        for cfg in ALL_CONFIGS:
            out = solve(problem, cfg)
            _assert_fraction_values(problem, out, (i, cfg))
            strict_models += out.epsilon is not None and out.epsilon < Fraction(1, 2)
    assert strict_models > 0  # some models are materialized at a strict bound


def _assert_fraction_values(problem, out, where):
    rat_names = set(problem.formula.rat_names)
    assert out.value is None or type(out.value) is Fraction, where
    assert out.epsilon is None or type(out.epsilon) is Fraction, where
    assert all(type(q) is Fraction for q in out.lower_trace), where
    for name, val in (out.model or {}).items():
        assert type(val) is (Fraction if name in rat_names else bool), (where, name)


def test_int_range_bounds_give_fraction_values():
    """A library caller may build the range from ``int`` bounds; the
    outcome's values are ``Fraction`` all the same, the upper bound an
    unsat outcome reports included."""
    text = "(declare-fun cost () Real)(assert (>= cost 10))(minimize cost)"
    base = parse_problem(text)
    pb = ([[1, 2], [-1, 3], [2, 3]], [3, 4, 5])  # optimum 4: b2 alone
    cases = [
        (OmtProblem(base.formula, base.cost, 0, 5), "unsat", 5),
        (OmtProblem(base.formula, base.cost, 0, 16), "optimum", 10),
        (encode_pb(3, *pb, lb=0, ub=4), "unsat", 4),
        (encode_pb(3, *pb, lb=1, ub=7), "optimum", 4),
    ]
    for i, (problem, status, value) in enumerate(cases):
        for cfg in ALL_CONFIGS:
            out = solve(problem, cfg)
            assert (out.status, out.value) == (status, value), (i, cfg)
            _assert_fraction_values(problem, out, (i, cfg))


def test_float_range_bounds_match_int_and_fraction_bounds():
    """A float range bound is taken as its exact Fraction, as
    ``normalize_atom`` takes a float coefficient: under the four
    configurations, float, ``int`` and ``Fraction`` bounds of the same
    values give equal outcomes, with ``Fraction`` values."""
    text = "(declare-fun cost () Real)(assert (> cost 10))(minimize cost)"
    base = parse_problem(text)
    pb = ([[1, 2], [-1, 3], [2, 3]], [3, 4, 5])  # optimum 4: b2 alone
    bounds = [
        ((0.5, 16.0), (Fraction(1, 2), 16), (Fraction(1, 2), Fraction(16))),
        ((3.0, 5.0), (3, 5), (Fraction(3), Fraction(5))),
        ((2.25, None), (Fraction(9, 4), None), (Fraction(9, 4), None)),
    ]
    for i, spellings in enumerate(bounds):
        problems = [OmtProblem(base.formula, base.cost, lb, ub) for lb, ub in spellings]
        problems += [encode_pb(3, *pb, lb=lb, ub=ub) for lb, ub in spellings]
        assert type(problems[0].lb) is Fraction and problems[0].lb == spellings[2][0]
        for cfg in ALL_CONFIGS:
            for group in (problems[:3], problems[3:]):
                outs = [solve(problem, cfg) for problem in group]
                assert outs[0] == outs[1] == outs[2], (i, cfg)
                _assert_fraction_values(group[0], outs[0], (i, cfg))
    assert solve(OmtProblem(base.formula, base.cost, 0.5, 3)).status == "unsat"
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            OmtProblem(base.formula, base.cost, 0, bad)


def _floats(obj):
    """The floats anywhere inside ``obj``: containers, atoms and
    delta-rationals are walked, keys included."""
    if type(obj) is float:
        return [obj]
    if isinstance(obj, DeltaRational):
        return _floats(obj.real) + _floats(obj.eps)
    if isinstance(obj, Atom):
        return _floats(obj.coeffs) + _floats(obj.const)
    if isinstance(obj, dict):
        return _floats(list(obj.items()))
    if isinstance(obj, (list, tuple)):
        return [f for item in obj for f in _floats(item)]
    return []


def test_no_float_reaches_the_simplex_or_the_outcome(monkeypatch):
    """Atom fields are ints where integral, and ``/`` on two ints would
    make a float: after every solve no float is in any atom, in the
    simplex's values, bounds, rows or denominators, or in the outcome.
    Slacks made after a pivot, whose rows divide atom coefficients by
    row denominators, are among those checked."""
    solvers = []
    substituted = []

    class Recording(lra.LraSolver):
        def __init__(self, *args):
            super().__init__(*args)
            solvers.append(self)

        def _expand(self, coeffs):
            substituted.append(any(vid in self.rows for vid, _ in coeffs))
            return super()._expand(coeffs)

    monkeypatch.setattr(omt, "LraSolver", Recording)
    monkeypatch.setattr(lra, "LraSolver", Recording)
    problems = [parse_problem(p.read_text()) for p in sorted(FAMILIES.glob("*.smt2"))]
    problems += [encode_pb(*random_pb(seed, num_bools=8)) for seed in range(5)]
    problems += [corpus_problem(seed) for seed in range(100)]
    for i, problem in enumerate(problems):
        f = problem.formula
        assert not _floats([f.atom_of(v) for v in range(1, f.num_solver_vars + 1)]), i
        for cfg in ALL_CONFIGS:
            del solvers[:]
            out = solve(problem, cfg)
            assert solvers, (i, cfg)
            for s in solvers:
                state = (s.beta, s.lower, s.upper, s.rows, s.den, s.slack_of, s.bounds_of)
                assert not _floats(state), (i, cfg)
            fields = (out.value, out.epsilon, out.lower_trace, out.model)
            assert not _floats(fields), (i, cfg)
    assert any(substituted)  # some slack rows were made over basic variables


def test_scaled_simplex_matches_unit_scale(monkeypatch):
    """The simplex keeps its values times ``problem_scale``; with the
    scale forced to 1 every outcome, model, epsilon, lower trace and
    search counter is the same.  The inputs have fractional constants
    or range bounds, or neither, and run under the four configurations
    and inline without the pure-literal filter, where conflict
    generalization runs."""
    strips = [parse_problem(p.read_text()) for p in sorted(FAMILIES.glob("strip-*.smt2"))]
    strips += [strip_packing_problem(n, 1, seed)[0] for n in (3, 4) for seed in (0, 1)]
    problems = strips + [corpus_problem(seed) for seed in range(100)]
    for problem in strips[3:5] + problems[-20:] + [parse_problem(EX1)]:
        problems.append(OmtProblem(problem.formula, problem.cost, Fraction(-7, 3), Fraction(61, 4)))
    configs = ALL_CONFIGS + [
        OmtConfig(schema="inline", search=search, pure_literal=False)
        for search in ("linear", "binary")
    ]
    problem_scale = omt.problem_scale
    scales = []

    def recorded_scale(formula, lb, ub):
        scales.append(problem_scale(formula, lb, ub))
        return scales[-1]

    for i, problem in enumerate(problems):
        for cfg in configs:
            monkeypatch.setattr(omt, "problem_scale", recorded_scale)
            scaled = solve(problem, cfg)
            monkeypatch.setattr(omt, "problem_scale", lambda formula, lb, ub: 1)
            assert scaled == solve(problem, cfg), (i, cfg)
    assert {1, 12}.issubset(scales)  # integral inputs, and the strips' denominators 2, 3, 4


# sha256 of every whole outcome below, in order: status, value, attained,
# model, epsilon, lower trace and counters; it changes only when the search
# or one of the numbers it reports does, the types of those numbers included
OUTCOMES_SHA256 = "b3562f063ede75cebf7419aa1871e69dbb590bbaf78577bce462524e538dfb7b"


def test_outcomes_are_pinned_on_the_corpus_and_the_families():
    problems = [corpus_problem(seed) for seed in range(300)]
    problems += [parse_problem(p.read_text()) for p in sorted(FAMILIES.glob("*.smt2"))]
    assert len(problems) == 306
    digest = hashlib.sha256()
    for problem in problems:
        for cfg in ALL_CONFIGS:
            out = solve(problem, cfg)
            model = None if out.model is None else sorted(out.model.items())
            fields = (out.status, out.value, out.attained, model, out.epsilon)
            digest.update(repr(fields + (out.lower_trace, out.stats)).encode())
    assert digest.hexdigest() == OUTCOMES_SHA256


# -- the reader's Boolean structure against the reference solver ------------


def test_boolean_structure_matches_the_oracle():
    mismatches = []
    for seed in range(250):
        text = boolean_structure_text(seed)
        problem = parse_problem(text)
        want = oracle_solve(problem)
        expect = (want.status, want.value, want.attained)
        for cfg in ALL_CONFIGS:
            out = solve(problem, cfg)
            got = (out.status, out.value, out.attained)
            if got != expect:
                mismatches.append((seed, cfg, got, expect))
            elif out.model is not None and not (
                model_satisfies(problem, out.model) and text_holds(text, out.model)
            ):
                mismatches.append((seed, cfg, "model violates the input"))
    assert not mismatches, mismatches[:3]


@pytest.mark.parametrize("body", ["(= p (not (= x 1)))", "(= p (=> (= x 1) q))"])
@pytest.mark.parametrize("extra", ["", "(assert p)", "(assert (not p))"])
def test_equality_negated_inside_a_bool_equality(body, extra):
    problem = parse_problem(
        "(declare-fun cost () Real)(declare-fun x () Real)"
        "(declare-fun p () Bool)(declare-fun q () Bool)"
        f"(assert (>= cost x))(assert (>= x (- 3)))(assert {body}){extra}(minimize cost)"
    )
    want = oracle_solve(problem)
    for cfg in ALL_CONFIGS:
        out = solve(problem, cfg)
        got = (out.status, out.value, out.attained)
        assert got == (want.status, want.value, want.attained), cfg


def test_flat_implication_with_a_thousand_arguments():
    names = [f"p{i}" for i in range(1000)]
    problem = parse_problem(
        "(declare-fun cost () Real)"
        + "".join(f"(declare-fun {n} () Bool)" for n in names)
        + f"(assert (=> {' '.join(names)}))(assert (>= cost 1))(minimize cost)"
    )
    # one clause: the negated premises and the conclusion
    assert [len(c) for c in problem.formula.clauses] == [1000, 1]
    out = solve(problem)
    assert (out.status, out.value) == ("optimum", 1)


# -- pivot budget ------------------------------------------------------------
# on jobshop_problem(5, 4, 2) one check or minimization takes at most 11
# pivots under any configuration, and a whole search 233-375


def test_exhausted_pivot_budget_interrupts_every_configuration(monkeypatch):
    problem, _ = jobshop_problem(5, 4, 2)
    monkeypatch.setattr(lra, "MAX_PIVOTS", 2)
    for cfg in ALL_CONFIGS:
        out = solve(problem, cfg)
        assert out.status == "interrupted", cfg
        assert out.stats.simplex_pivots > 0, cfg


def test_pivot_budget_is_per_call(monkeypatch):
    problem, _ = jobshop_problem(5, 4, 2)
    monkeypatch.setattr(lra, "MAX_PIVOTS", 12)
    for cfg in ALL_CONFIGS:
        out = solve(problem, cfg)
        assert out.status == "optimum", cfg
        assert crosscheck(problem, out)[0], cfg
        # the counter stays the lifetime total
        assert out.stats.simplex_pivots > 12, cfg
