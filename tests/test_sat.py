"""Propositional core: propagation, learning, assumptions, cores."""

import random
from dataclasses import replace

from helpers import (
    ALL_CONFIGS,
    FAMILIES,
    boolean_structure_text,
    brute_sat,
    corpus_problem,
    random_cnf,
    random_pb,
)
from omtq import encode_pb, lra, omt, solve
from omtq.parser import parse_problem
from omtq.sat import Clause, SatSolver, luby


def _fresh(nvars, clauses):
    s = SatSolver()
    s.ensure_vars(nvars)
    for c in clauses:
        s.add_clause(list(c))
    return s


def _holds(model, clause):
    return any(model[l - 1] if l > 0 else not model[-l - 1] for l in clause)


def test_luby_sequence():
    assert [luby(i) for i in range(10)] == [1, 1, 2, 1, 1, 2, 4, 1, 1, 2]


def test_trivial_cases():
    s = SatSolver()
    assert s.solve().status == "sat"
    s = _fresh(1, [[1], [-1]])
    assert s.solve().status == "unsat"
    s = _fresh(2, [[]])
    assert s.solve().status == "unsat"


def test_unit_chain_propagates():
    s = _fresh(4, [[1], [-1, 2], [-2, 3], [-3, 4]])
    res = s.solve()
    assert res.status == "sat"
    assert all(res.model[v] == 1 for v in (1, 2, 3, 4))


def test_agreement_with_brute_force():
    for seed in range(1500):
        nvars, clauses = random_cnf(seed)
        res = _fresh(nvars, clauses).solve()
        assert (res.status == "sat") == brute_sat(nvars, clauses), seed
        if res.status == "sat":
            model = [res.model[v] == 1 for v in range(1, nvars + 1)]
            assert all(_holds(model, c) for c in clauses), seed


def test_assumptions_respected_in_models():
    for seed in range(400):
        nvars, clauses = random_cnf(seed, max_vars=10)
        rng = random.Random(seed ^ 0xC0DE)
        assumptions = []
        seen = set()
        for _ in range(rng.randrange(1, 5)):
            v = rng.randrange(1, nvars + 1)
            if v in seen:
                continue
            seen.add(v)
            assumptions.append(v if rng.random() < 0.5 else -v)
        res = _fresh(nvars, clauses).solve(assumptions)
        want = brute_sat(nvars, clauses, fixed=tuple(assumptions))
        assert (res.status == "sat") == want, seed
        if res.status == "sat":
            model = [res.model[v] == 1 for v in range(1, nvars + 1)]
            assert all(_holds(model, [a]) for a in assumptions), seed


def test_cores_are_subsets_and_unsatisfiable():
    checked = 0
    for seed in range(400):
        nvars, clauses = random_cnf(seed, max_vars=10)
        rng = random.Random(seed ^ 0xFACE)
        assumptions = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, nvars + 1), min(3, nvars))
        ]
        res = _fresh(nvars, clauses).solve(assumptions)
        if res.status != "unsat":
            continue
        checked += 1
        assert set(res.core) <= set(assumptions), seed
        assert not brute_sat(nvars, clauses, fixed=tuple(res.core)), seed
    assert checked > 50


def test_assumption_falsified_by_level_zero_units():
    # units fix every variable, so the trail fills before any decision;
    # the contradicted assumption must still surface as unsat
    clauses = [[4], [2, -1, -3], [1, 4], [-1, -2, 4], [4, -3], [-2], [1]]
    s = _fresh(4, clauses)
    res = s.solve([4, 2, -3])
    assert res.status == "unsat"
    assert set(res.core) <= {4, 2, -3}
    assert not brute_sat(4, clauses, fixed=tuple(res.core))


def test_incremental_reuse_across_calls():
    s = _fresh(3, [[1, 2], [-1, 2], [2, 3]])
    assert s.solve([2]).status == "sat"
    assert s.solve([-2]).status == "unsat"
    assert s.solve([-2]).core == [-2]
    # adding a clause after solving keeps the solver usable
    s.add_clause([-2, 3])
    res = s.solve([2])
    assert res.status == "sat"
    assert res.model[3] == 1


def test_empty_core_when_formula_itself_is_unsat():
    s = _fresh(2, [[1], [-1]])
    res = s.solve([2])
    assert res.status == "unsat"
    assert res.core == []


def test_stats_move():
    nvars, clauses = random_cnf(41)
    s = _fresh(nvars, clauses)
    s.solve()
    assert s.stats.propagations > 0


# -- the hot loops against a per-literal reference ---------------------------


def _clause(lits, learnt=False) -> Clause:
    """The reference's clause: ``Clause`` has no constructor, since only
    ``_attach_clause`` builds one, so the fields are set here one by one."""
    c = Clause.__new__(Clause)
    c.lits = list(lits)
    c.learnt = learnt
    c.activity = 0.0
    return c


class ReferenceSatSolver(SatSolver):
    """The core written one literal at a time: every read goes through
    ``value``, every assignment through ``enqueue``, every clause,
    ``analyze``'s and the client's included, goes through its own
    validating ``add_clause``, whose two ``max`` scans pick the watches
    on any trail, ``analyze``
    bumps one variable and one clause at a time, ``reduce_db`` deletes
    one clause at a time and each decision scans every variable.
    ``SatSolver`` must search exactly like it."""

    def new_var(self) -> int:
        self.nvars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason_.append(None)
        self.activity.append(0.0)
        self.free.append(0.0)
        self.phase.append(False)
        return self.nvars

    def _attach(self, c: Clause):
        self.watches.setdefault(c.lits[0], []).append(c)
        self.watches.setdefault(c.lits[1], []).append(c)

    def add_clause(self, lits, learnt=False):
        seen = {}
        out = []
        for l in lits:
            if -l in seen:
                return None
            if l not in seen:
                seen[l] = True
                out.append(l)
        c = _clause(out, learnt)
        if not out:
            self.unsat = True
            return c
        if len(out) == 1:
            self._pending_units.append(c)
            return c

        def rank(l):
            return (1 << 30) if self.value(l) == 0 else self.level[abs(l)]

        a = max(range(len(out)), key=lambda i: rank(out[i]))
        out[0], out[a] = out[a], out[0]
        s = max(range(1, len(out)), key=lambda i: rank(out[i]))
        out[1], out[s] = out[s], out[1]
        c.lits = out
        (self.learnts if learnt else self.clauses).append(c)
        self._attach(c)
        return c

    def _attach_clause(self, lits, learnt):
        # the inherited ``_search`` hands ``analyze``'s clause over here:
        # the reference validates and orders it like every other clause
        return self.add_clause(lits, learnt)

    def _bcp(self):
        if self.decision_level == 0 and self._pending_units:
            pending, self._pending_units = self._pending_units, []
            for c in pending:
                unassigned = None
                satisfied = False
                nfree = 0
                for l in c.lits:
                    v = self.value(l)
                    if v == 1:
                        satisfied = True
                        break
                    if v == 0:
                        nfree += 1
                        unassigned = l
                if satisfied or nfree > 1:
                    continue
                if nfree == 0:
                    return c
                self.enqueue(unassigned, c)
        while self.qhead < len(self.trail):
            p = self.trail[self.qhead]
            self.qhead += 1
            falsified = -p
            ws = self.watches.get(falsified)
            if not ws:
                continue
            keep = []
            i = 0
            confl = None
            while i < len(ws):
                c = ws[i]
                i += 1
                lits = c.lits
                if lits[0] == falsified:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                if self.value(first) == 1:
                    keep.append(c)
                    continue
                moved = False
                for j in range(2, len(lits)):
                    if self.value(lits[j]) != -1:
                        lits[1], lits[j] = lits[j], lits[1]
                        self.watches.setdefault(lits[1], []).append(c)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(c)
                if self.value(first) == -1:
                    keep.extend(ws[i:])
                    confl = c
                    break
                self.enqueue(first, c)
            self.watches[falsified] = keep
            if confl is not None:
                self.qhead = len(self.trail)
                return confl
        return None

    def propagate(self):
        while True:
            confl = self._bcp()
            if confl is not None:
                return confl
            complete = len(self.trail) == self.nvars
            resp = self.client.after_bcp(self, complete)
            if resp is None:
                return None
            tag = resp[0]
            if tag == "conflict":
                return self.add_clause(resp[1], learnt=True)
            if tag == "propagate":
                for lit, reason_lits in resp[1]:
                    self.enqueue(lit, self.add_clause(reason_lits, learnt=True))
                continue
            if tag in ("restart", "halt"):
                return resp
            raise ValueError(f"bad client response {tag!r}")

    def bump_clause(self, c: Clause):
        c.activity += self.cla_inc
        if c.activity > 1e20:
            for cl in self.learnts:
                cl.activity *= 1e-20
            self.cla_inc *= 1e-20

    def analyze(self, confl):
        learnt = [0]
        seen = [False] * (self.nvars + 1)
        counter = 0
        p = None
        index = len(self.trail)
        c = confl
        while True:
            if c.learnt:
                self.bump_clause(c)
            for q in c.lits:
                v = abs(q)
                if p is not None and q == p:
                    continue
                if self.level[v] == 0:
                    continue
                if not seen[v]:
                    seen[v] = True
                    self.activity[v] += self.var_inc
                    if self.activity[v] > 1e100:
                        self._rescale_activity()
                    if self.level[v] >= self.decision_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                if seen[abs(self.trail[index])]:
                    break
            p = self.trail[index]
            v = abs(p)
            counter -= 1
            if counter == 0:
                break
            c = self.reason_[v]
            seen[v] = False
        learnt[0] = -p
        if len(learnt) == 1:
            bt = 0
        else:
            m = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
            learnt[1], learnt[m] = learnt[m], learnt[1]
            bt = self.level[abs(learnt[1])]
        return learnt, bt

    def reduce_db(self):
        locked = {id(self.reason_[abs(l)]) for l in self.trail if self.reason_[abs(l)] is not None}
        removable = [c for c in self.learnts if len(c.lits) > 2 and id(c) not in locked]
        removable.sort(key=lambda c: c.activity)
        for c in removable[: len(removable) // 2]:
            for l in c.lits[:2]:
                w = self.watches.get(l)
                if w and c in w:
                    w.remove(c)
            self.learnts.remove(c)

    def _pick_branch_var(self) -> int:
        best, best_act = 0, -1.0
        for v in range(1, self.nvars + 1):
            if self.assign[v] == 0 and self.activity[v] > best_act:
                best, best_act = v, self.activity[v]
        return best


class ReferenceLraSolver(lra.LraSolver):
    """Bland's entering variable by a sorted scan that stops at the
    first variable able to move."""

    def _entering(self, row, need_raise):
        for y in sorted(row):
            a = row[y]
            up, lo, b = self.upper[y], self.lower[y], self.beta[y]
            below_upper = up is None or b < up[0]
            above_lower = lo is None or b > lo[0]
            if need_raise:
                ok = (a > 0 and below_upper) or (a < 0 and above_lower)
            else:
                ok = (a > 0 and above_lower) or (a < 0 and below_upper)
            if ok:
                return y
        return None


def _leveled_pair(rng, nvars, levels):
    """The same trail in a ``SatSolver`` and a ``ReferenceSatSolver``:
    one to three variables per level, about a third of them left free."""
    pair = (SatSolver(), ReferenceSatSolver())
    for s in pair:
        s.ensure_vars(nvars)
    order = rng.sample(range(1, nvars + 1), nvars)
    for _ in range(levels):
        for s in pair:
            s.trail_lim.append(len(s.trail))
        for _ in range(rng.randint(1, 3)):
            if len(order) > nvars // 3:
                v = order.pop()
                lit = v if rng.random() < 0.5 else -v
                for s in pair:
                    s.enqueue(lit)
    for s in pair:
        assert s._bcp() is None  # no clauses yet: marks the trail propagated
    return pair


def test_add_clause_watches_the_two_highest_ranked_literals():
    """On trails at levels 1 to 6, with several variables per level and
    some left free, a new clause is watched on the same two literals as
    the two-``max`` reference: an unassigned literal first, then the
    highest level, ties to the earliest position."""
    rng = random.Random(7)
    ties = 0
    for trial in range(3000):
        nvars = rng.randint(4, 14)
        s, ref = _leveled_pair(rng, nvars, rng.randint(1, 6))
        width = rng.randint(2, min(nvars, 7))
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), width)]
        got, want = s.add_clause(lits), ref.add_clause(lits)
        assert got.lits == want.lits, trial
        ranks = [s.level[abs(l)] if s.assign[abs(l)] else None for l in lits]
        ties += len(set(ranks)) < len(ranks)
    assert ties > 1000


def _clause_db(s):
    """Everything ``add_clause`` leaves behind, clause literal order
    included."""
    return (
        [(c.lits, c.learnt) for c in s.clauses],
        [(c.lits, c.learnt) for c in s.learnts],
        [(c.lits, c.learnt) for c in s._pending_units],
        [(l, [c.lits for c in ws]) for l, ws in s.watches.items()],
        s.unsat,
    )


def test_add_clause_on_an_empty_trail_matches_the_reference():
    """Loading clauses into a fresh core, where the watches are the first
    two literals without a rank scan, leaves the same clauses, pending
    units, watch lists and unsat flag as the reference; the clause sets
    mix empty, unit, short and long clauses with repeated literals and
    tautologies, some of them learnt."""
    rng = random.Random(19)
    seen = {"empty": 0, "unit": 0, "long": 0, "repeat": 0, "tautology": 0, "learnt": 0}
    for trial in range(600):
        nvars = rng.randint(1, 12)
        s, ref = SatSolver(), ReferenceSatSolver()
        for solver in (s, ref):
            solver.ensure_vars(nvars)
        for _ in range(rng.randint(1, 30)):
            r = rng.random()
            width = 0 if r < 0.03 else 1 if r < 0.2 else rng.randint(2, 3) if r < 0.8 else rng.randint(4, 14)
            lits = [rng.choice((1, -1)) * rng.randint(1, nvars) for _ in range(width)]
            learnt = rng.random() < 0.1
            kept = list(dict.fromkeys(lits))
            tautology = any(-l in kept for l in kept)
            seen["empty"] += width == 0
            seen["unit"] += len(kept) == 1
            seen["long"] += len(kept) > 3 and not tautology
            seen["repeat"] += len(kept) < width
            seen["tautology"] += tautology
            seen["learnt"] += learnt
            got, want = s.add_clause(lits, learnt), ref.add_clause(lits, learnt)
            assert (got is None) == (want is None), trial
        assert not s.trail
        assert _clause_db(s) == _clause_db(ref), trial
    assert min(seen.values()) > 200, seen


def test_ensure_vars_matches_new_var():
    arrays = ("assign", "level", "reason_", "activity", "free", "phase")
    for steps in ([0], [1], [5], [3, 3], [2, 7], [6, 4, 9]):
        bulk, single = SatSolver(), ReferenceSatSolver()
        for n in steps:
            bulk.ensure_vars(n)
            while single.nvars < n:
                single.new_var()
        assert bulk.nvars == single.nvars == max(steps)
        for name in arrays:
            got, want = getattr(bulk, name), getattr(single, name)
            assert got == want and [type(x) for x in got] == [type(x) for x in want], (steps, name)


def test_add_clause_on_a_partial_trail_misses_no_propagation():
    """A clause added on a partly assigned trail, after a backjump to any
    level at which it is neither satisfied, unit nor false, is caught by
    propagation: falsifying its free literals one decision at a time
    implies the last one."""
    rng = random.Random(11)
    driven = 0
    for trial in range(3000):
        nvars = rng.randint(4, 12)
        s, _ = _leveled_pair(rng, nvars, rng.randint(1, 6))
        width = rng.randint(2, min(nvars, 6))
        lits = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), width)]
        c = s.add_clause(lits)
        s.cancel_until(rng.randint(0, s.decision_level))
        values = [s.value(l) for l in c.lits]
        if 1 in values or values.count(0) < 2:
            continue  # satisfied, or unit or false: the caller's case
        driven += 1
        while True:
            free = [l for l in c.lits if s.value(l) == 0]
            s.trail_lim.append(len(s.trail))
            s.enqueue(-free[0])
            confl = s._bcp()
            values = [s.value(l) for l in c.lits]
            if len(free) == 2:
                assert confl is None and values.count(1) == 1, trial
                break
            assert confl is None and values.count(0) == len(free) - 1, trial
    assert driven > 1000


def test_search_matches_the_per_literal_reference(monkeypatch):
    """``SatSolver`` and ``LraSolver._entering`` against the per-literal
    reference core and the sorted Bland scan, in lockstep through whole
    optimization runs: equal search counters, SAT propagations and the
    final learnt clauses, literal order included (it records every watch
    choice and every clause deletion).  The reference assigns through
    ``enqueue`` and picks each decision by the per-variable scan, so
    this also checks the in-place assignments and the ``free`` pick."""
    problems = [parse_problem(p.read_text()) for p in sorted(FAMILIES.glob("*.smt2"))]
    problems += [encode_pb(*random_pb(seed)) for seed in range(4)]
    problems += [corpus_problem(seed) for seed in range(30)]
    problems += [parse_problem(boolean_structure_text(seed)) for seed in range(30)]
    reductions = 0
    for i, problem in enumerate(problems):
        for cfg in ALL_CONFIGS:
            runs = []
            for sat_base, lra_base in (
                (SatSolver, lra.LraSolver),
                (ReferenceSatSolver, ReferenceLraSolver),
            ):
                solvers = []

                class Recording(sat_base):
                    reductions = 0

                    def __init__(self):
                        super().__init__()
                        solvers.append(self)

                    def reduce_db(self):
                        self.reductions += 1
                        super().reduce_db()

                monkeypatch.setattr(omt, "SatSolver", Recording)
                monkeypatch.setattr(omt, "LraSolver", lra_base)
                monkeypatch.setattr(lra, "LraSolver", lra_base)
                out = solve(problem, cfg)
                runs.append((
                    out.status,
                    out.value,
                    out.stats,
                    [(s.stats, [c.lits for c in s.learnts]) for s in solvers],
                ))
                reductions += sum(s.reductions for s in solvers)
            assert runs[0] == runs[1], (i, cfg)
    assert reductions > 0  # learnt clauses were deleted


def _two_max_order(s, lits):
    """``lits`` as ``add_clause`` would watch them, by the reference's
    two ``max`` scans: an unassigned literal ranks above every level, and
    ties go to the earliest position."""
    out = list(lits)
    if len(out) < 2:
        return out

    def rank(l):
        return (1 << 30) if s.value(l) == 0 else s.level[abs(l)]

    a = max(range(len(out)), key=lambda i: rank(out[i]))
    out[0], out[a] = out[a], out[0]
    b = max(range(1, len(out)), key=lambda i: rank(out[i]))
    out[1], out[b] = out[b], out[1]
    return out


def test_solver_made_clauses_enter_as_add_clause_would_watch_them(monkeypatch):
    """The intake contract, through whole optimization runs on the
    families files, 4 random pb problems, 100 corpus problems and 30
    Boolean-structure problems under the four configurations,
    with the pure-literal filter on and off.  No conflict or reason
    clause the bridge returns repeats a literal or is a tautology.  Each
    clause the core attaches without ``add_clause``, the bridge's and
    ``analyze``'s, is watched on the two literals ``add_clause``'s rank
    rule would choose; ``analyze``'s is already in that order."""
    counts = {"learnt": 0, "conflict": 0, "reason": 0}

    class Checked(SatSolver):
        entry = None  # the entry the clause being attached came through

        def add_clause(self, lits, learnt=False):
            self.entry = "add_clause"
            try:
                return super().add_clause(lits, learnt)
            finally:
                self.entry = None

        def _attach_ranked(self, lits, learnt):
            if self.entry is not None:
                return super()._attach_ranked(lits, learnt)
            # a conflict or reason clause of the bridge
            assert len({abs(l) for l in lits}) == len(lits), lits
            kind = "reason" if lits and self.value(lits[0]) == 0 else "conflict"
            counts[kind] += 1
            want = _two_max_order(self, lits)
            self.entry = kind
            try:
                c = super()._attach_ranked(lits, learnt)
            finally:
                self.entry = None
            assert c.lits == want and c.learnt, (kind, lits)
            return c

        def _attach_clause(self, lits, learnt):
            if self.entry is None:  # analyze's first-UIP clause
                assert len({abs(l) for l in lits}) == len(lits), lits
                assert _two_max_order(self, lits) == lits, lits
                counts["learnt"] += 1
            return super()._attach_clause(lits, learnt)

    monkeypatch.setattr(omt, "SatSolver", Checked)
    problems = [parse_problem(p.read_text()) for p in sorted(FAMILIES.glob("*.smt2"))]
    problems += [encode_pb(*random_pb(seed)) for seed in range(4)]
    problems += [corpus_problem(seed) for seed in range(100)]
    problems += [parse_problem(boolean_structure_text(seed)) for seed in range(30)]
    for i, problem in enumerate(problems):
        for cfg in ALL_CONFIGS:
            for pure_literal in (True, False):
                out = solve(problem, replace(cfg, pure_literal=pure_literal))
                assert out.status != "interrupted", (i, cfg, pure_literal)
    assert min(counts.values()) > 1000, counts


def test_pick_matches_the_scan_across_activity_rescales(monkeypatch):
    """With ``var_inc`` started at 1e99, activities pass 1e100 within a
    few dozen conflicts, so ``_rescale_activity`` runs mid-search and
    rebuilds ``free``.  At every decision of whole optimization runs on
    the families files, ``free`` is ``activity`` on the unassigned
    variables and -1.0 elsewhere, and the pick equals the per-variable
    scan."""
    counts = {"decisions": 0, "rescales": 0}

    class Checked(SatSolver):
        def __init__(self):
            super().__init__()
            self.var_inc = 1e99

        def _rescale_activity(self):
            counts["rescales"] += 1
            super()._rescale_activity()

        def _pick_branch_var(self):
            want = [-1.0] + [-1.0 if x else a for a, x in zip(self.activity[1:], self.assign[1:])]
            assert self.free == want
            v = super()._pick_branch_var()
            assert v == ReferenceSatSolver._pick_branch_var(self)
            counts["decisions"] += 1
            return v

    monkeypatch.setattr(omt, "SatSolver", Checked)
    for path in sorted(FAMILIES.glob("*.smt2")):
        problem = parse_problem(path.read_text())
        for cfg in ALL_CONFIGS:
            assert solve(problem, cfg).status == "optimum", (path.name, cfg)
    assert counts["rescales"] > 10 and counts["decisions"] > 1000, counts
