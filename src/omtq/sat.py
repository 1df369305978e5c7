"""Conflict-driven clause learning SAT core with theory hooks.

Classic two-watched-literal CDCL: first-UIP learning, activity-based
decisions with phase saving, Luby restarts, activity-driven deletion of
learned clauses.  Three extras matter for the optimization layer built
on top:

* assumption literals with unsat-core extraction (final conflict
  analysis down to the assumptions),
* clauses added between calls, including already-unit ones, so each
  call continues the previous search under a stronger formula (nothing
  added is ever retracted),
* a client object consulted at propagation fixpoints, on backjumps and
  at decision level zero, through which the theory solver and the
  optimization schemas plug in.  A solver always holds a client: the
  shared no-op ``TheoryClient`` until ``solve`` is given one, and again
  once that call returns or raises, so no engine stays reachable from
  its solver after its search.

The core trusts its client and checks none of this: a literal the
client propagates is unassigned, it propagates at most one literal per
variable at a time, each reason clause leads with its literal, no reason
or conflict clause is a tautology (every literal of a conflict, and
every one of a reason but the first, is false under the trail), and none
repeats a literal.

The hot loops (propagation, watch selection, conflict analysis) make no
method call per literal: they read ``assign`` directly, a literal ``l``
being true when ``assign[l] == 1`` for ``l > 0`` and ``assign[-l] == -1``
otherwise.  ``value`` is the accessor for clients.

Every clause enters the core through ``_attach_clause``, which stores
it, watches its first two literals and queues a one-literal clause as a
pending unit.  ``_attach_ranked`` puts it in watch order first: on a
nonempty trail a rank scan moves its two highest-level literals to the
front; on an empty trail, as when a fresh core is loaded, every literal
is unassigned and the watches are the first two literals, as MiniSat
does.  ``add_clause`` is the validating entry, for input, engine and
``add_lemma`` clauses: it drops repeated literals and tautologies before
``_attach_ranked`` and keeps no record of where a clause came from.  The
clauses the core makes itself skip those checks, which they cannot fail.
The client's conflict and reason clauses go to ``_attach_ranked``.
``analyze``'s first-UIP clause goes to ``_attach_clause`` as it comes:
its UIP is first and its first highest-level literal second, which is
what the rank scan would pick after the backjump.

Every assignment goes through ``enqueue`` but one: the watch loop of
``_bcp``, the hot path, writes ``assign``, ``level``, ``reason_``,
``free`` and ``trail`` in place and adds its trail growth to
``stats.propagations``, which ``enqueue`` bumps by one per literal.

Decisions come from ``free``, an activity list kept beside ``activity``:
``free[v]`` is ``activity[v]`` while ``v`` is unassigned and -1.0 once
it is assigned (and at index 0).  Every assignment writes -1.0,
``cancel_until`` writes the activity back, ``_rescale_activity``
rebuilds the list, and ``analyze`` bumps only assigned variables, so a
bump leaves ``free`` alone.  The pick is ``free.index(max(free))``: the
unassigned variable of highest activity, ties to the smallest, found by
two C-level passes over a list that nothing rebuilds per decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import neg
from typing import Optional


class Clause:
    """Built only by ``SatSolver._attach_clause``."""

    __slots__ = ("lits", "learnt", "activity")

    def __repr__(self):
        return f"Clause({self.lits}{' L' if self.learnt else ''})"


class TheoryClient:
    """No-op client; the optimization engines subclass this.  A solver
    holds the shared ``NO_CLIENT`` whenever no ``solve`` call has given
    it another."""

    def after_bcp(self, solver, complete: bool):
        """Called at every propagation fixpoint.  May return None,
        ('conflict', lits) with every literal false, ('propagate',
        [(lit, [lit, *false_lits]), ...]) with at least one pair, each
        literal unassigned and on a variable of its own, ('restart',)
        once lemmas have been added with ``add_lemma``, or ('halt',
        payload).  No conflict or reason clause holds a literal twice:
        the core attaches them without ``add_clause``'s checks."""
        return None

    def on_backjump(self, solver, trail_len: int):
        pass

    def on_level_zero(self, solver):
        """Called once per return to decision level 0 (propagation done).
        May return ('halt', payload)."""
        return None

    def suggest_decision(self, solver) -> Optional[int]:
        """An unassigned literal to decide next, or None; the solver
        always takes a returned literal."""
        return None


NO_CLIENT = TheoryClient()


@dataclass
class SolveResult:
    status: str  # sat / unsat / halted
    model: Optional[list] = None  # assignment array indexed by var, values +-1
    core: Optional[list] = None  # subset of the assumption literals
    halt: object = None


@dataclass
class SatStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0


def luby(i: int) -> int:
    """i-th element (0-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    sz, seq = 1, 0
    while sz < i + 1:
        seq += 1
        sz = 2 * sz + 1
    while sz - 1 != i:
        sz = (sz - 1) >> 1
        seq -= 1
        i = i % sz
    return 2 ** seq


RESTART_UNIT = 100
UNASSIGNED_RANK = 1 << 30  # above every decision level, in _attach_ranked
VAR_DECAY = 0.95
CLA_DECAY = 0.999


class SatSolver:
    def __init__(self):
        self.nvars = 0
        self.assign = [0]  # index 0 unused
        self.level = [0]
        self.reason_: list[Optional[Clause]] = [None]
        self.activity = [0.0]
        self.free = [-1.0]  # activity while unassigned, else -1.0
        self.phase = [False]

        self.clauses: list[Clause] = []
        self.learnts: list[Clause] = []
        self._pending_units: list[Clause] = []
        self.watches: dict[int, list[Clause]] = {}

        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0

        self.unsat = False  # the empty clause was added or derived

        self.var_inc = 1.0
        self.cla_inc = 1.0
        self.max_learnts = 300.0

        self.stats = SatStats()
        self.client: TheoryClient = NO_CLIENT
        self._lz_pending = True

    # -- variables ---------------------------------------------------------

    def ensure_vars(self, n: int):
        """Grow to ``n`` variables, numbered from 1; each starts
        unassigned, at activity 0 and with negative saved phase."""
        k = n - self.nvars
        if k <= 0:
            return
        self.nvars = n
        self.assign += [0] * k
        self.level += [0] * k
        self.reason_ += [None] * k
        self.activity += [0.0] * k
        self.free += [0.0] * k
        self.phase += [False] * k

    def value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    @property
    def decision_level(self) -> int:
        return len(self.trail_lim)

    # -- clauses -----------------------------------------------------------

    def add_clause(self, lits, learnt: bool = False) -> Optional[Clause]:
        """Add a clause; duplicates inside the clause are removed and
        tautologies dropped.  Callable at any decision level.  The clause
        does not propagate here: a one-literal clause waits for the next
        level-0 propagation pass, a longer one is watched on its two
        highest-level literals, and a caller whose clause is already unit
        or false under the trail enqueues its literal or calls
        ``add_lemma`` instead.

        This is the validating entry, for input, engine and lemma
        clauses; ``learnt`` only picks the list that stores the clause.
        The clauses the core makes itself cannot fail its checks and skip
        them: the client's conflicts and reasons go straight to
        ``_attach_ranked``, ``analyze``'s clauses to ``_attach_clause``."""
        out = list(dict.fromkeys(lits))
        if not set(out).isdisjoint(map(neg, out)):
            return None  # tautology
        return self._attach_ranked(out, learnt)

    def _attach_ranked(self, lits: list, learnt: bool) -> Clause:
        """``_attach_clause`` with the two highest-ranked literals moved
        to the front, so no propagation is missed when the clause arrives
        already (partly) assigned: an unassigned literal ranks above every
        level, and ties go to the first.  On an empty trail every literal
        is unassigned, so the watches are the first two literals and no
        rank is computed."""
        if len(lits) > 1 and self.trail:
            assign, level = self.assign, self.level
            rank = [level[v] if assign[v] else UNASSIGNED_RANK for v in map(abs, lits)]
            a = rank.index(max(rank))
            lits[0], lits[a] = lits[a], lits[0]
            rank[0], rank[a] = rank[a], rank[0]
            s = rank.index(max(rank[1:]), 1)
            lits[1], lits[s] = lits[s], lits[1]
        return self._attach_clause(lits, learnt)

    def _attach_clause(self, lits: list, learnt: bool) -> Clause:
        """Store a clause of distinct, non-complementary literals that
        are already in watch order, and take ``lits`` as its literal
        list: the empty clause marks the core unsat, a one-literal clause
        waits as a pending unit, and a longer one is watched on its first
        two literals."""
        c = Clause.__new__(Clause)
        c.lits = lits
        c.learnt = learnt
        c.activity = 0.0
        if len(lits) < 2:
            if lits:
                self._pending_units.append(c)
            else:
                self.unsat = True
            return c
        (self.learnts if learnt else self.clauses).append(c)
        watches = self.watches
        watches.setdefault(lits[0], []).append(c)
        watches.setdefault(lits[1], []).append(c)
        return c

    # -- trail -------------------------------------------------------------

    def enqueue(self, lit: int, reason: Optional[Clause] = None):
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason_[v] = reason
        self.free[v] = -1.0
        self.trail.append(lit)
        self.stats.propagations += 1

    def cancel_until(self, lvl: int):
        trail, trail_lim = self.trail, self.trail_lim
        if len(trail_lim) <= lvl:
            return
        bound = trail_lim[lvl]
        assign, phase, reason = self.assign, self.phase, self.reason_
        free, activity = self.free, self.activity
        for lit in trail[bound:]:
            v = lit if lit > 0 else -lit
            phase[v] = lit > 0
            assign[v] = 0
            reason[v] = None
            free[v] = activity[v]
        del trail[bound:]
        del trail_lim[lvl:]
        self.qhead = bound
        self.client.on_backjump(self, bound)
        if lvl == 0:
            self._lz_pending = True

    # -- propagation -------------------------------------------------------

    def add_lemma(self, lits):
        """Add a learnt clause that may be unit or false under the trail:
        the next level-0 propagation pass examines it, as it does every
        one-literal clause."""
        c = self.add_clause(lits, True)
        if c is not None and len(c.lits) > 1:
            self._pending_units.append(c)

    def _bcp(self) -> Optional[Clause]:
        """Unit propagation from ``qhead``; returns a false clause or None.
        The watch loop assigns in place, as ``enqueue`` would."""
        assign, trail, watches = self.assign, self.trail, self.watches
        lvl = len(self.trail_lim)
        if not lvl and self._pending_units:
            pending, self._pending_units = self._pending_units, []
            for c in pending:
                # the literals not false: none is a conflict, one unassigned a unit
                live = [l for l in c.lits if (assign[l] if l > 0 else -assign[-l]) != -1]
                if not live:
                    return c
                if len(live) == 1 and assign[abs(live[0])] == 0:
                    self.enqueue(live[0], c)
        level, reason, free = self.level, self.reason_, self.free
        start = len(trail)
        confl = None
        qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            ws = watches.get(falsified)
            if not ws:
                continue
            # compact the watch list in place: ws[:j] are the clauses that
            # stay, ws[i:] the ones not yet visited
            n = len(ws)
            i = j = 0
            while i < n:
                c = ws[i]
                i += 1
                lits = c.lits
                first = lits[0]
                if first == falsified:
                    first = lits[0] = lits[1]
                    lits[1] = falsified
                val = assign[first] if first > 0 else -assign[-first]
                if val == 1:
                    ws[j] = c
                    j += 1
                    continue
                k = 2
                size = len(lits)
                while k < size:
                    l = lits[k]
                    if (assign[l] if l > 0 else -assign[-l]) != -1:
                        lits[k] = lits[1]
                        lits[1] = l
                        watches.setdefault(l, []).append(c)
                        break
                    k += 1
                else:  # no other watch: the clause is unit or false
                    ws[j] = c
                    j += 1
                    if val == -1:
                        confl = c
                        break
                    if first > 0:
                        assign[first] = 1
                        v = first
                    else:
                        v = -first
                        assign[v] = -1
                    level[v] = lvl
                    reason[v] = c
                    free[v] = -1.0
                    trail.append(first)
            if confl is not None:
                ws[j:] = ws[i:]
                qhead = len(trail)
                break
            del ws[j:]
        self.qhead = qhead
        self.stats.propagations += len(trail) - start
        return confl

    def propagate(self):
        """BCP plus theory fixpoint.  Returns None, a conflicting Clause,
        or the client's ('restart',) or ('halt', payload) directive,
        verbatim.  Theory conflicts and reasons are kept as learnt
        clauses."""
        while True:
            confl = self._bcp()
            if confl is not None:
                return confl
            complete = len(self.trail) == self.nvars
            resp = self.client.after_bcp(self, complete)
            if resp is None:
                return None
            tag = resp[0]
            # copied, as the core reorders the literals of its clauses
            if tag == "conflict":
                return self._attach_ranked(list(resp[1]), True)
            if tag == "propagate":
                # each reason clause is attached before its literal is
                # assigned: the rank scan reads ``assign``
                for lit, reason_lits in resp[1]:
                    self.enqueue(lit, self._attach_ranked(list(reason_lits), True))
                continue
            if tag in ("restart", "halt"):
                return resp
            raise ValueError(f"bad client response {tag!r}")

    # -- conflict analysis -------------------------------------------------

    def _rescale_activity(self):
        activity, assign = self.activity, self.assign
        for i in range(1, self.nvars + 1):
            activity[i] *= 1e-100
        self.var_inc *= 1e-100
        self.free[1:] = [-1.0 if x else a for a, x in zip(activity[1:], assign[1:])]

    def analyze(self, confl: Clause):
        """First-UIP learning.  Returns (learnt_lits, backjump_level)."""
        level, trail, activity = self.level, self.trail, self.activity
        lvl = len(self.trail_lim)
        var_inc, cla_inc = self.var_inc, self.cla_inc
        learnt = [0]
        seen = [False] * (self.nvars + 1)
        counter = 0
        p = 0
        index = len(trail)
        c = confl
        while True:
            if c.learnt:
                c.activity += cla_inc
                if c.activity > 1e20:
                    for cl in self.learnts:
                        cl.activity *= 1e-20
                    self.cla_inc *= 1e-20
                    cla_inc = self.cla_inc
            for q in c.lits:
                if q == p:
                    # the literal this reason clause implied; already resolved
                    continue
                v = q if q > 0 else -q
                qlvl = level[v]
                if qlvl == 0 or seen[v]:
                    continue
                seen[v] = True
                activity[v] += var_inc
                if activity[v] > 1e100:
                    self._rescale_activity()
                    var_inc = self.var_inc
                if qlvl >= lvl:
                    counter += 1
                else:
                    learnt.append(q)
            while True:
                index -= 1
                p = trail[index]
                v = p if p > 0 else -p
                if seen[v]:
                    break
            counter -= 1
            if counter == 0:
                break
            c = self.reason_[v]
            seen[v] = False
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        # put the highest-level of the remaining literals second
        m, bt = 1, level[abs(learnt[1])]
        for i in range(2, len(learnt)):
            qlvl = level[abs(learnt[i])]
            if qlvl > bt:
                m, bt = i, qlvl
        learnt[1], learnt[m] = learnt[m], learnt[1]
        return learnt, bt

    def analyze_final(self, p: int) -> list[int]:
        """Core of assumptions implying the failure of assumption ``p``."""
        if self.decision_level == 0:
            return [p]
        return [p] + self._assumption_core({abs(p)})

    def _assumption_core(self, seen: set) -> list[int]:
        """Assumptions, the decisions of the assumption prefix of the
        trail, from which the variables in ``seen`` were derived."""
        core = []
        for i in range(len(self.trail) - 1, self.trail_lim[0] - 1, -1):
            lit = self.trail[i]
            v = abs(lit)
            if v not in seen:
                continue
            r = self.reason_[v]
            if r is None:
                core.append(lit)
            else:
                for l in r.lits:
                    if abs(l) != v and self.level[abs(l)] > 0:
                        seen.add(abs(l))
        return core

    # -- clause db ---------------------------------------------------------

    def reduce_db(self):
        """Delete the less active half of the unlocked learnt clauses
        longer than two literals, in one pass over the learnts and over
        each affected watch list; the survivors keep their order."""
        locked = {id(self.reason_[abs(l)]) for l in self.trail if self.reason_[abs(l)] is not None}
        removable = [c for c in self.learnts if len(c.lits) > 2 and id(c) not in locked]
        removable.sort(key=lambda c: c.activity)
        dead = set(removable[: len(removable) // 2])
        self.learnts[:] = [c for c in self.learnts if c not in dead]
        for l in {l for c in dead for l in c.lits[:2]}:
            w = self.watches[l]
            w[:] = [c for c in w if c not in dead]

    # -- search ------------------------------------------------------------

    def _pick_branch_var(self) -> int:
        """The unassigned variable of highest activity, ties to the
        smallest; some variable must be unassigned."""
        free = self.free
        return free.index(max(free))

    def _decide(self, lit: int):
        """Open a decision level with ``lit`` as its decision."""
        self.trail_lim.append(len(self.trail))
        self.stats.decisions += 1
        self.enqueue(lit, None)

    def solve(self, assumptions=(), client: TheoryClient = NO_CLIENT) -> SolveResult:
        """Search under ``assumptions``, consulting ``client``; the solver
        drops the client when the call returns or raises."""
        self.client = client
        try:
            return self._search(list(assumptions))
        finally:
            self.client = NO_CLIENT

    def _search(self, assumptions: list) -> SolveResult:
        self.cancel_until(0)
        self._lz_pending = True
        if self.unsat:
            return SolveResult("unsat", core=[])
        restart_num = 0
        conflicts_since = 0
        restart_at = luby(0) * RESTART_UNIT  # conflicts before the next restart
        use_restarts = not assumptions
        trail_lim = self.trail_lim

        while True:
            confl = self.propagate()
            if isinstance(confl, tuple):
                if confl[0] == "halt":
                    return SolveResult("halted", halt=confl[1])
                self.cancel_until(0)  # ('restart',)
                self._lz_pending = True
                continue
            if confl is not None:
                self.stats.conflicts += 1
                conflicts_since += 1
                # make sure the conflict clause has a literal at the
                # current level (theory lemmas may lag behind)
                top = max(map(self.level.__getitem__, map(abs, confl.lits)), default=0)
                if top < len(trail_lim):
                    self.cancel_until(top)
                if not trail_lim:
                    self.unsat = True
                    return SolveResult("unsat", core=[])
                if assumptions and len(trail_lim) <= len(assumptions):
                    seen = {abs(l) for l in confl.lits if self.level[abs(l)] > 0}
                    return SolveResult("unsat", core=self._assumption_core(seen))
                learnt, bt = self.analyze(confl)
                self.cancel_until(bt)
                # the UIP is unassigned after the backjump
                c = self._attach_clause(learnt, True)
                if len(learnt) > 1:
                    self.enqueue(learnt[0], c)
                # a unit learnt clause propagates via the pending queue
                self.var_inc /= VAR_DECAY
                self.cla_inc /= CLA_DECAY
                if len(self.learnts) > self.max_learnts + len(self.trail):
                    self.reduce_db()
                    self.max_learnts *= 1.05
                continue

            if self._lz_pending and not trail_lim:
                self._lz_pending = False
                resp = self.client.on_level_zero(self)
                if resp is not None and resp[0] == "halt":
                    return SolveResult("halted", halt=resp[1])
                continue  # the visit may have queued suggestions or units

            if len(self.trail) == self.nvars:
                # propagation can fill the trail before the decision loop
                # has placed every assumption; a falsified one still means
                # unsat under these assumptions
                for p in assumptions:
                    if self.value(p) == -1:
                        return SolveResult("unsat", core=self.analyze_final(p))
                return SolveResult("sat", model=list(self.assign))

            if use_restarts and conflicts_since >= restart_at:
                restart_num += 1
                restart_at = luby(restart_num) * RESTART_UNIT
                conflicts_since = 0
                self.stats.restarts += 1
                self.cancel_until(0)
                continue

            # assumptions first, then suggestions, then activity
            if len(trail_lim) < len(assumptions):
                p = assumptions[len(trail_lim)]
                val = self.value(p)
                if val == 1:
                    trail_lim.append(len(self.trail))
                    continue
                if val == -1:
                    core = self.analyze_final(p)
                    return SolveResult("unsat", core=core)
                self._decide(p)
                continue

            lit = self.client.suggest_decision(self)
            if lit is None:
                # the trail is not full, so some variable is unassigned
                v = self._pick_branch_var()
                lit = v if self.phase[v] else -v
            self._decide(lit)

