"""Cost-minimizing search over the CDCL and simplex cores.

Two engines find the minimum of a designated rational variable subject
to a CNF formula, both shrinking one candidate range [l, u[, which one
``CostRange`` owns: its ends, the alternation of linear and binary
steps, the loop count and budget, and the trace of lower ends.

``solve`` runs the engine that ``OmtConfig.schema`` names:

* offline: repeated full solver calls.  Linear steps ask for any
  model and learn a unit bound just below its minimized cost; binary
  steps solve under an assumed pivot bound cost < (l+u)/2 and use the
  unsat core to decide which half survives.
* inline: a single solver run.  The range is re-derived at every
  return to decision level 0 from the unit-implied bounds on the cost
  variable, pivot bounds are injected as decision suggestions, and each
  complete model triggers minimize / learn-a-tighter-bound / restart
  inside the run.  Theory conflicts that involve the pivot are
  generalized by maximizing the bound they refute, which turns one
  conflict into a jump of the whole lower end of the range.  This fires
  only when the pivot atom reaches the simplex: the pivot occurs in no
  input clause, so the default pure-literal filter never asserts it,
  and only with ``pure_literal=False`` does a conflict involve it.

Values are exact; strict minima are reported as unattained infima with
a model materialized at a safely small epsilon.

Every early stop (the deadline, the loop budget, the per-call pivot
budget of the simplex) raises ``lra.Interrupted``, which the engines
report as an interrupted search with the best model so far.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, lcm
from numbers import Real
from typing import Optional

from .arith import (
    _ZERO,
    EQ,
    LE,
    LT,
    DeltaRational,
    Value,
    _make,
    eps_part,
    exact,
    integral_or_fraction,
    materialize_epsilon,
    quotient,
    real_part,
)
from .formula import ATOM, Atom, CnfFormula, OmtProblem, normalize_atom
from .lra import Interrupted, LraSolver, conjunction_min, minimize_var
from .sat import SatSolver, TheoryClient

OPTIMUM = "optimum"
UNSAT = "unsat"
UNBOUNDED = "unbounded"
INTERRUPTED = "interrupted"

OFFLINE = "offline"
INLINE = "inline"
LINEAR = "linear"
BINARY = "binary"


@dataclass
class OmtConfig:
    """How ``solve`` searches.  ``timeout`` is None or a real number of
    seconds that is not nan (``inf`` never stops the search), and
    ``max_loops`` is None or an ``int`` of at least 0, bounding the
    range-update iterations.  The offline schema counts one loop per
    solver call.  The inline schema counts one per return to decision
    level 0 that finds the unit-implied bounds on the cost changed; a run
    that ends in a level-0 conflict stops before that visit, so its last
    update is not counted, and with ``max_loops=0`` such a run can still
    return its optimum.  A ``bool`` is neither a timeout nor a loop
    budget.  The three switches are ``bool``s.  Anything else raises
    ValueError."""

    schema: str = INLINE
    search: str = BINARY  # binary alternates with linear steps unless always_binary
    always_binary: bool = False
    early_pruning: bool = True
    pure_literal: bool = True
    timeout: Optional[float] = None  # seconds
    max_loops: Optional[int] = None  # bound on range-update iterations

    def __post_init__(self):
        if self.schema not in (OFFLINE, INLINE):
            raise ValueError(f"unknown schema {self.schema!r}")
        if self.search not in (LINEAR, BINARY):
            raise ValueError(f"unknown search mode {self.search!r}")
        for name in ("always_binary", "early_pruning", "pure_literal"):
            if type(getattr(self, name)) is not bool:
                raise ValueError(f"{name} {getattr(self, name)!r} is not a bool")
        _seconds(self.timeout)
        k = self.max_loops
        if k is not None and (isinstance(k, bool) or not isinstance(k, int) or k < 0):
            raise ValueError(f"max_loops {k!r} is not an int of at least 0")


@dataclass
class SearchStats:
    decisions: int = 0
    conflicts: int = 0
    restarts: int = 0
    theory_checks: int = 0
    minimize_calls: int = 0
    pivots: int = 0  # pivot bounds actually tried
    loops: int = 0  # range-update iterations
    simplex_pivots: int = 0


@dataclass
class OmtOutcome:
    status: str
    value: Optional[Fraction] = None
    attained: bool = False
    model: Optional[dict] = None  # var name -> Fraction
    epsilon: Optional[Fraction] = None  # substituted for delta in the model
    lower_trace: list = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)


# ---------------------------------------------------------------------------
# shared plumbing


def _seconds(timeout) -> Optional[float]:
    """The timeout rule of ``OmtConfig`` and ``crosscheck``: None, or a
    real number that is not a ``bool`` or nan, as float seconds (+-inf
    beyond float range); anything else raises ValueError."""
    if timeout is None:
        return None
    if isinstance(timeout, bool) or not isinstance(timeout, Real) or timeout != timeout:
        raise ValueError(f"timeout {timeout!r} is not a number of seconds")
    try:
        return float(timeout)
    except OverflowError:
        return inf if timeout > 0 else -inf


def deadline(timeout) -> Optional[float]:
    """The ``time.monotonic()`` value ``timeout`` (see ``_seconds``)
    seconds from now, or None without a timeout."""
    s = _seconds(timeout)
    return None if s is None else time.monotonic() + s


def problem_scale(formula: CnfFormula, lb, ub) -> int:
    """The scale of a problem's simplex values: the lcm of the
    denominators of every atom constant and of the range bounds, so
    that every bound of the input is integral once scaled."""
    dens = {atom.const.denominator for atom in formula.payload if type(atom) is Atom}
    dens.update(q.denominator for q in (lb, ub) if q is not None)
    return lcm(*dens)


def _cost_atom(problem: OmtProblem, value, rel: str):
    """(atom, polarity) of (cost rel value), already canonical: the one
    coefficient is 1 and the constant is -value in normal form."""
    return Atom(((problem.cost, 1),), -integral_or_fraction(exact(value)), rel), True


class TheoryBridge(TheoryClient):
    """Feeds the trail's arithmetic literals into the simplex solver.

    Asserted atoms are tracked per trail position so backjumps rewind the
    arithmetic state to exactly the surviving prefix.  Literals whose
    polarity occurs in no input clause are not asserted (they cannot be
    needed to satisfy anything and relaxing them only improves minima);
    assumption literals are exempted via ``forced_lits``.

    The bridge owns one engine's whole state: a private copy of the
    formula (the input stays reusable), the SAT solver loaded with its
    clauses and the units pinning the cost into [lb, ub[, the simplex
    solver with the deadline, the counters, the cost range and the best
    model found so far.

    The simplex keeps its values times ``problem_scale``; they are
    divided back where they leave it: the minimum of the cost and the
    root bounds on the cost (``_unscaled``), and each number of the
    model (``snapshot_model``).  The cost range, the cost atoms and the
    outcome are in problem units.
    """

    def __init__(self, problem: OmtProblem, config: OmtConfig):
        self.problem = problem
        self.cfg = config
        self.stats = SearchStats()
        self.formula = formula = problem.formula.copy()
        self.sat = SatSolver()
        self.sat.ensure_vars(formula.num_solver_vars)
        for cl in formula.clauses:
            self.sat.add_clause(cl)
        self.lra = LraSolver(len(formula.rat_names), problem_scale(formula, problem.lb, problem.ub))
        self.ptr = 0
        self.marks: list[tuple] = []  # (trail_pos, lra_mark, atom, polarity)
        self.forced_lits: set[int] = set()
        # solver vars of the theory atoms by the simplex variable they bound,
        # for entailment; an atom joins at the first fixpoint after it is
        # registered
        self.atoms_on: dict[int, list[int]] = {}
        self.registered = 0  # solver vars looked at for new atoms
        # one (trail length after its propagations, len(lra.undo), number
        # of solver vars) per entailment ask whose trail prefix survives,
        # keys strictly ascending; empty when every bounded variable must
        # be asked again
        self.asks: list[tuple[int, int, int]] = []
        self.lra.deadline = deadline(config.timeout)
        if problem.lb is not None:
            self.sat.add_clause([-self.cost_lit(problem.lb, LT)])
        if problem.ub is not None:
            self.sat.add_clause([self.cost_lit(problem.ub, LT)])
        self.range = CostRange(config, problem.lb, problem.ub)
        # (minimum, scaled problem-variable values, asserted literals) of
        # the best model so far; ``outcome`` makes the concrete model
        self.best: Optional[tuple] = None

    def cost_lit(self, value: Fraction, rel: str) -> int:
        """Solver literal for (cost rel value), registering the atom if new."""
        lit = self.formula.lit_for_atom(*_cost_atom(self.problem, value, rel))
        self.sat.ensure_vars(self.formula.num_solver_vars)
        return lit

    # -- trail -> simplex

    def _assert_up_to(self, solver, upto: int):
        """Assert the theory literals of ``trail[ptr:upto]``, each marked
        with its trail position and ``len(lra.undo)`` before it.  Skipped:
        negated equalities, which are split before they reach the core,
        and with the pure-literal filter a polarity that occurs in no
        input clause, unless it is in ``forced_lits``."""
        trail, lra, marks = solver.trail, self.lra, self.marks
        kind, payload = self.formula.kind, self.formula.payload
        occ_pos, occ_neg = solver.occ_pos, solver.occ_neg
        forced = self.forced_lits
        pure = self.cfg.pure_literal
        undo = lra.undo
        for pos in range(self.ptr, upto):
            lit = trail[pos]
            v = lit if lit > 0 else -lit
            if kind[v - 1] != ATOM:
                continue
            atom = payload[v - 1]
            if lit < 0 and atom.rel == EQ:
                continue
            if pure and (occ_pos if lit > 0 else occ_neg)[v] == 0 and lit not in forced:
                continue
            marks.append((pos, len(undo), atom, lit > 0))
            confl = lra.assert_atom(atom, lit > 0, lit)
            if confl is not None:
                self.ptr = pos + 1
                return confl
        if self.ptr < upto:
            self.ptr = upto
        return None

    def on_backjump(self, solver, trail_len: int):
        target = None
        while self.marks and self.marks[-1][0] >= trail_len:
            target = self.marks.pop()[1]
        if target is not None:
            self.lra.backtrack_to(target)
        if self.ptr > trail_len:
            self.ptr = trail_len
        asks = self.asks
        while asks and asks[-1][0] > trail_len:
            asks.pop()

    def after_bcp(self, solver, complete: bool):
        self.lra.check_deadline()
        if not (self.cfg.early_pruning or complete):
            return None
        confl = self._assert_up_to(solver, len(solver.trail))
        if confl is not None:
            return ("conflict", self.transform_conflict(solver, confl))
        status, clause = self.lra.check()
        self.stats.theory_checks += 1
        if status == "unsat":
            return ("conflict", self.transform_conflict(solver, clause))
        if complete:
            return self.on_theory_sat(solver)
        props = self._entailed_props(solver)
        if props:
            return ("propagate", props)
        return None

    def _entailed_props(self, solver):
        """Literals the bounds force among the unassigned theory atoms.

        Only a bound on an atom's own variable can force it, so each
        newly registered atom is indexed by that variable, in ascending
        solver var order, and the atoms asked are the unassigned ones on
        the variables to ask, in ascending solver var order.

        Each ask leaves a checkpoint (key, ``len(lra.undo)``, number of
        solver vars), its key the trail length once ``SatSolver.propagate``
        has enqueued the literals returned; a later ask at the same key
        replaces it, and a backjump below the key drops it.  With no
        checkpoint left every bounded variable is asked.  Otherwise the
        last one bounds the ask: the atoms on the variables whose bounds
        tightened since (``lra.undo`` past its length) and the atoms
        registered since.  This is exact: the checkpoint's trail prefix,
        its own propagations included, has survived, so the bounds then
        are a subset of the bounds now, an atom unassigned now was
        unassigned then and not entailed, and on an untouched variable it
        is not entailed now.

        Indexing an atom makes its slack, and the slacks are made in the
        order a scan asking every unassigned atom would make them, so
        the pivots Bland's rule picks do not change.  The first call
        runs at level 0 before any decision: every atom assigned by then
        has been asserted in trail order, and every other one is indexed
        in ascending var order, as the scan would ask it.  Every atom
        registered later comes from ``cost_lit``, a bound with
        coefficient 1 on the cost variable, which makes no slack."""
        formula, lra = self.formula, self.lra
        n = formula.num_solver_vars
        atoms_on = self.atoms_on
        for v in range(self.registered + 1, n + 1):
            atom = formula.atom_of(v)
            if atom is not None:
                atoms_on.setdefault(lra.effective_bounds(atom, True)[0][0], []).append(v)
        self.registered = n
        assign, bounded, asks = solver.assign, lra.bounded, self.asks
        if asks:
            _, asked_at, known = asks[-1]
            to_ask = {entry[0] for entry in lra.undo[asked_at:]}
            asked = {v for x in to_ask for v in atoms_on.get(x, ()) if assign[v] == 0}
            for v in range(known + 1, n + 1):
                atom = formula.atom_of(v)
                if (
                    atom is not None
                    and assign[v] == 0
                    and lra.effective_bounds(atom, True)[0][0] in bounded
                ):
                    asked.add(v)
        else:
            asked = [v for x in bounded for v in atoms_on.get(x, ()) if assign[v] == 0]
        asked = sorted(asked)
        out = []
        for v in asked:
            ent = lra.entailed(formula.atom_of(v))
            if ent is None:
                continue
            value, reasons = ent
            lit = v if value else -v
            out.append((lit, [lit] + [-r for r in reasons]))
        key = len(solver.trail) + len(out)
        if asks and asks[-1][0] == key:
            asks.pop()
        asks.append((key, len(lra.undo), n))
        return out

    # -- hooks for the engines

    def transform_conflict(self, solver, clause):
        return clause

    def on_theory_sat(self, solver):
        return None  # plain decision procedure: accept the model

    # -- models and outcome

    def minimize(self):
        """Minimize the cost over the current simplex state and keep the
        model if it is the best so far.  Returns (minimum, literal of the
        bound that excludes it and everything above), or None when the
        cost is unbounded.

        Only the simplex values and the asserted literals are kept;
        ``outcome`` makes the concrete model of the last best one."""
        self.stats.minimize_calls += 1
        m = minimize_var(self.lra, self.problem.cost)
        if m is None:
            return None
        m = self._unscaled(m)
        if self.best is None or m < self.best[0]:
            n = len(self.formula.rat_names)
            self.best = (m, self.lra.beta[:n], self.current_literals())
        return m, self.cost_lit(real_part(m), LT if eps_part(m) == 0 else LE)

    def outcome(self, status: str) -> OmtOutcome:
        """The engine's result with its final counters.  ``status`` is
        UNBOUNDED, INTERRUPTED (the best model so far is attached), or
        OPTIMUM for an exhausted range, which becomes UNSAT with the
        input upper bound, as a ``Fraction``, as its value when no model
        was found."""
        sat_stats = self.sat.stats
        self.stats.decisions = sat_stats.decisions
        self.stats.conflicts = sat_stats.conflicts
        self.stats.restarts = sat_stats.restarts
        self.stats.simplex_pivots = self.lra.pivot_count
        self.stats.loops = self.range.loops
        # values may be ints inside; the outcome's are Fractions
        trace = [Fraction(q) for q in self.range.trace]
        out = OmtOutcome(status, lower_trace=trace, stats=self.stats)
        if status == UNBOUNDED:
            return out
        if self.best is None:
            if status == OPTIMUM:
                ub = self.problem.ub
                out.status, out.value = UNSAT, None if ub is None else Fraction(ub)
            return out
        m, beta, literals = self.best
        out.epsilon, out.model = self.snapshot_model(beta, literals)
        out.value, out.attained = Fraction(real_part(m)), eps_part(m) == 0
        return out

    def current_literals(self):
        return [(atom, pol) for (_, _, atom, pol) in self.marks]

    def _unscaled(self, v: Value) -> Value:
        """A simplex value in problem units."""
        d = self.lra.scale
        if d == 1:
            return v
        e = eps_part(v)
        return _make(quotient(real_part(v), d), e if e is _ZERO else quotient(e, d))

    def snapshot_model(self, beta, literals):
        """(epsilon, concrete model) of the problem variables' simplex
        values ``beta`` under the asserted ``literals``.

        The values stay scaled by D = ``lra.scale``: each literal's value
        is then D times its unscaled one, which has the same signs and
        the same ratio of real to delta part, so the epsilon is that of
        the unscaled values.  Each model entry is one ``Fraction``, its
        value divided by D."""
        d = self.lra.scale
        eps = Fraction(materialize_epsilon(beta, literals, d), 2)
        model = {}
        for name, v in zip(self.formula.rat_names, beta):
            if type(v) is int:
                model[name] = Fraction(v, d)
            elif type(v) is DeltaRational:
                model[name] = (v.real + v.eps * eps) / d
            else:
                model[name] = v / d
        return eps, model


def compute_pivot(l, u) -> Fraction:
    """Exact midpoint of a finite cost range.

    Raises ValueError when either bound is missing (infinite range).
    """
    if l is None or u is None:
        raise ValueError("compute_pivot needs two finite bounds")
    return (Fraction(l) + Fraction(u)) / 2


class CostRange:
    """The candidate range [l, u[ of the cost, shrunk by both engines.

    The ends are delta-rational bounds on the cost in problem units (the
    simplex keeps its bounds scaled): ``lo`` is l or l+delta and ``hi``
    is u-delta or u (None while unknown), so the range is empty when
    ``hi < lo``.  A model lowers ``hi``; a refuted pivot or a unit bound
    raises ``lo``, and ``trace`` records each new value of l.  ``loops`` counts the
    range-update iterations (offline: solver calls; inline: changes of
    the root bounds) against ``max_loops``.
    """

    def __init__(self, config: OmtConfig, lb: Optional[Fraction], ub: Optional[Fraction]):
        self.binary = config.search == BINARY
        self.always_binary = config.always_binary
        self.max_loops = config.max_loops
        self.lo = None if lb is None else DeltaRational(lb)
        self.hi = None if ub is None else DeltaRational(ub, -1)
        self.trace: list = [] if lb is None else [lb]
        self.loops = 0
        self.steps = 0  # non-degenerate pivot() calls, for the alternation

    def empty(self) -> bool:
        return self.lo is not None and self.hi is not None and self.hi < self.lo

    def count_loop(self):
        """Count one range-update iteration; raises Interrupted instead
        once ``max_loops`` of them have run."""
        if self.max_loops is not None and self.loops >= self.max_loops:
            raise Interrupted(f"more than {self.max_loops} range updates")
        self.loops += 1

    def raise_lo(self, lo: Value):
        self.lo = lo
        real = real_part(lo)
        if not self.trace or self.trace[-1] != real:
            self.trace.append(real)

    def pivot(self) -> Optional[Fraction]:
        """The midpoint to probe next, or None for a linear step.  Binary
        steps alternate with linear ones unless ``always_binary``."""
        if not self.binary or self.lo is None or self.hi is None:
            return None
        l, u = real_part(self.lo), real_part(self.hi)
        if not self.always_binary:
            if l == u:
                # degenerate range: only an attainment probe is left, and a
                # pivot at the midpoint would contradict the learned bounds
                return None
            self.steps += 1
            if self.steps % 2 == 0:
                return None
        return compute_pivot(l, u)


# ---------------------------------------------------------------------------
# offline engine


def _offline_search(bridge: TheoryBridge) -> OmtOutcome:
    sat, rng = bridge.sat, bridge.range

    while not rng.empty():
        rng.count_loop()
        pivot = rng.pivot()
        if pivot is not None:
            plit = bridge.cost_lit(pivot, LT)
            bridge.forced_lits = {plit}
            bridge.stats.pivots += 1
            res = sat.solve([plit], bridge)
            bridge.forced_lits = set()
        else:
            plit = None
            res = sat.solve((), bridge)

        if res.status == "sat":
            found = bridge.minimize()
            if found is None:
                return bridge.outcome(UNBOUNDED)
            m, ulit = found
            # the bound ulit asserts
            rng.hi = DeltaRational(real_part(m), 0 if eps_part(m) else -1)
            sat.add_clause([ulit])
        elif plit is not None and plit in res.core:
            rng.raise_lo(DeltaRational(pivot))
            sat.add_clause([-plit])
        else:
            break  # unsat independently of the pivot: range exhausted

    return bridge.outcome(OPTIMUM)


# ---------------------------------------------------------------------------
# inline engine


class InlineBridge(TheoryBridge):
    """Runs the whole optimization inside one solver call."""

    def __init__(self, problem: OmtProblem, config: OmtConfig):
        super().__init__(problem, config)
        self.u_lit: Optional[int] = None  # the root literal that asserts range.hi
        self.suggest: Optional[int] = None
        self.pivot_lit: Optional[int] = None
        self.pivot_val: Optional[Fraction] = None
        # the running result of _scan_root_bounds and the length of the
        # level-0 trail it has read
        self.root_bounds: tuple = (self.range.lo, None, None)
        self.root_scanned = 0

    # -- range maintenance at level 0

    def _scan_root_bounds(self, solver):
        """(lo, hi, literal asserting hi) from the input lower bound and
        the unit-implied bounds on the cost variable; of equal upper
        bounds, the one earliest on the trail.

        The level-0 trail only grows between visits, so each call reads
        only the literals added since the last one, from its result."""
        best_lo, best_up, best_lit = self.root_bounds
        trail, atom_of, cost = solver.trail, self.formula.atom_of, self.problem.cost
        for pos in range(self.root_scanned, len(trail)):
            lit = trail[pos]
            atom = atom_of(abs(lit))
            if atom is None:
                continue
            sv = atom.single_var()
            if sv is None or sv[0] != cost:
                continue
            polarity = lit > 0
            if not polarity and atom.rel == EQ:
                continue
            for _, is_lower, val in self.lra.effective_bounds(atom, polarity):
                val = self._unscaled(val)
                if is_lower:
                    if best_lo is None or val > best_lo:
                        best_lo = val
                elif best_up is None or val < best_up:
                    best_up, best_lit = val, lit
        self.root_scanned = len(trail)
        self.root_bounds = (best_lo, best_up, best_lit)
        return self.root_bounds

    def on_level_zero(self, solver):
        self.lra.check_deadline()
        rng = self.range
        lo, hi, self.u_lit = self._scan_root_bounds(solver)
        # root units only accumulate, so the scan never loses an end
        if lo != rng.lo or hi != rng.hi:
            rng.count_loop()
            rng.hi = hi
            if lo is not None:
                rng.raise_lo(lo)
        if rng.empty():
            return ("halt", OPTIMUM)
        pivot = rng.pivot()
        self.suggest = None
        if pivot is None:
            self.pivot_lit = self.pivot_val = None
        else:
            lit = self.cost_lit(pivot, LT)
            if solver.value(lit) == 0:
                self.suggest = self.pivot_lit = lit
                self.pivot_val = pivot
        return None

    def suggest_decision(self, solver):
        """The pivot literal, once, while it is unassigned; the solver
        takes it as its next decision."""
        lit = self.suggest
        if lit is None or solver.value(lit) != 0:
            return None
        self.suggest = None
        self.stats.pivots += 1
        return lit

    # -- model handling

    def on_theory_sat(self, solver):
        self.lra.check_deadline()
        found = self.minimize()
        if found is None:
            return ("halt", UNBOUNDED)
        m, ulit = found
        solver.add_lemma([ulit], learnt=False)
        if self.pivot_lit is not None and solver.value(self.pivot_lit) == 1:
            # the pivot unit is only a consequence when the fresh upper
            # bound sits below the pivot; the minimum can land on or
            # above it because pivot atoms are pure-literal invisible
            if m <= self.pivot_val:
                solver.add_lemma([self.pivot_lit])
        blocking = self._blocking_clause(ulit)
        if blocking is not None:
            solver.add_lemma(blocking)
        return ("restart",)

    def _blocking_clause(self, ulit: int):
        """Clause forbidding the current theory assignment together with
        the not-yet-improved bound; valid because the assignment's
        minimum was just computed."""
        mark = self.lra.mark()
        confl = self.lra.assert_atom(self.formula.atom_of(ulit), True, ulit)
        if confl is None:
            status, clause = self.lra.check()
            confl = clause if status == "unsat" else None
        self.lra.backtrack_to(mark)
        return confl

    # -- conflict generalization

    def transform_conflict(self, solver, clause):
        p = self.pivot_lit
        if p is None or -p not in clause or solver.value(p) != 1:
            return clause
        eta_lits = [l for l in clause if l != -p]
        if not eta_lits:
            return clause
        eta = []
        for l in eta_lits:
            atom = self.formula.atom_of(abs(l))
            if atom is None:
                return clause
            eta.append((atom, l < 0))
        status, val = conjunction_min(eta, self.problem.cost)
        if status != "min":
            return clause
        if self.u_lit is not None and val > self.range.hi:
            # the core attaches a conflict clause without removing
            # repeats, so -u_lit goes in at most once
            u = -self.u_lit
            return eta_lits if u in eta_lits else eta_lits + [u]
        if real_part(val) > self.pivot_val:
            litr = self.cost_lit(real_part(val), LT)
            solver.add_lemma(eta_lits + [-litr])
            solver.add_lemma([-p, litr])
        return clause


def _inline_search(bridge: InlineBridge) -> OmtOutcome:
    res = bridge.sat.solve((), bridge)
    if res.status == "sat":
        raise RuntimeError("inline search ended in a plain sat state")
    # a halt carries the final status; unsat means the range is exhausted
    return bridge.outcome(res.halt if res.status == "halted" else OPTIMUM)


# ---------------------------------------------------------------------------
# entry points


def solve(problem: OmtProblem, config: Optional[OmtConfig] = None) -> OmtOutcome:
    """Minimize the problem's cost with the engine ``config.schema`` names
    (default: inline binary search)."""
    config = config if config is not None else OmtConfig()
    if config.schema == OFFLINE:
        bridge, search = TheoryBridge(problem, config), _offline_search
    else:
        bridge, search = InlineBridge(problem, config), _inline_search
    try:
        return search(bridge)
    except Interrupted:
        return bridge.outcome(INTERRUPTED)


def smt_decide(problem: OmtProblem, extra_literals=(), config: Optional[OmtConfig] = None) -> str:
    """Plain satisfiability of the problem's formula, range units included,
    plus optional extra (atom, polarity) unit literals.  Returns 'sat' or
    'unsat'.  The core never asserts a negated equality, so t != 0
    enters as the clause t > 0 or t < 0, the negated weak halves that
    ``cnfize`` splits one into.  An extra literal on a variable id the
    problem does not declare raises ValueError."""
    bridge = TheoryBridge(problem, config if config is not None else OmtConfig())
    formula, sat = bridge.formula, bridge.sat
    for atom, pol in extra_literals:
        for v, _ in atom.coeffs:
            if not 0 <= v < len(formula.rat_names):
                raise ValueError(f"extra literal on undeclared variable id {v}")
        if pol or atom.rel != EQ:
            lits = [formula.lit_for_atom(atom, pol)]
        else:
            term = dict(atom.coeffs)
            neg = {v: -c for v, c in term.items()}
            halves = (normalize_atom(term, atom.const, LE), normalize_atom(neg, -atom.const, LE))
            lits = [formula.lit_for_atom(half, not p) for half, p in halves]
        sat.ensure_vars(formula.num_solver_vars)
        sat.add_clause(lits)
    try:
        res = sat.solve((), bridge)
    except Interrupted:
        raise TimeoutError("decision query interrupted") from None
    return res.status


def crosscheck(
    problem: OmtProblem, outcome: OmtOutcome, timeout: Optional[float] = None
) -> tuple[bool, str]:
    """Validate an outcome with decision queries, each on a fresh engine
    built from the same SAT and simplex cores as the search.  With a
    ``timeout`` (seconds), each query gets the time that remains of it,
    and one that runs out raises TimeoutError; one that ``OmtConfig``
    would refuse raises ValueError."""
    end = deadline(timeout)

    def decide(extra_literals=()):
        remaining = None if end is None else end - time.monotonic()
        return smt_decide(problem, extra_literals, OmtConfig(timeout=remaining))

    if outcome.status == UNSAT:
        st = decide()
        if st != "unsat":
            return False, "reported unsat but the formula is satisfiable in range"
        return True, "unsat confirmed"
    if outcome.status == UNBOUNDED:
        st = decide()
        if st != "sat":
            return False, "reported unbounded but the formula is unsatisfiable"
        return True, "unbounded: satisfiability confirmed"
    if outcome.status != OPTIMUM:
        return True, f"nothing to check for status {outcome.status}"
    v = outcome.value
    if outcome.attained:
        if decide([_cost_atom(problem, v, LT)]) != "unsat":
            return False, "a model strictly below the reported optimum exists"
        if decide([_cost_atom(problem, v, EQ)]) != "sat":
            return False, "the reported optimum value is not realizable"
        return True, "optimum confirmed"
    if decide([_cost_atom(problem, v, LE)]) != "unsat":
        return False, "a model at or below the reported infimum exists"
    gaps = [Fraction(1, 2 ** 32)]
    if outcome.epsilon is not None:
        gaps.append(outcome.epsilon)
    if problem.ub is not None:
        gaps.append((problem.ub - v) / 2)
    eps = min(g for g in gaps if g > 0)
    if decide([_cost_atom(problem, v + eps, EQ)]) != "sat":
        return False, "no model exists just above the reported infimum"
    return True, "infimum confirmed"
