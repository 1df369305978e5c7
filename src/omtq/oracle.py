"""Reference results by elimination and enumeration.

Deliberately simple and slow: Fourier-Motzkin elimination for conjunctions
and exhaustive branching over the propositional structure for whole
problems.  The search engines are tested against these, so nothing in
here may import from the solver modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .arith import EQ, LE, LT
from .formula import Atom, OmtProblem

MAX_FM_VARS = 8
MAX_FM_ROWS = 64
MAX_ENUM_VARS = 22

OPTIMUM = "optimum"
UNSAT = "unsat"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"


@dataclass
class FmResult:
    status: str  # optimum / infeasible / unbounded
    value: Optional[Fraction] = None
    attained: bool = False


def _row_of_literal(atom: Atom, polarity: bool):
    coeffs = dict(atom.coeffs)
    const = atom.const
    if polarity:
        return coeffs, const, atom.rel
    if atom.rel == EQ:
        raise ValueError("negated equality in a conjunction")
    neg = {v: -c for v, c in coeffs.items()}
    rel = LT if atom.rel == LE else LE
    return neg, -const, rel


def _normalize_row(coeffs, const, rel):
    coeffs = {v: Fraction(c) for v, c in coeffs.items() if Fraction(c) != 0}
    return coeffs, Fraction(const), rel


def _div(a, b) -> Fraction:
    """``a / b`` as a Fraction: atom fields may be ints, and ``/`` on two
    ints makes a float."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b)
    return a / b


def _ground_ok(const, rel) -> bool:
    if rel == LE:
        return const <= 0
    if rel == LT:
        return const < 0
    return const == 0


def fm_minimize(literals, objective: int, extra_rows: Iterable = ()) -> FmResult:
    """Minimum of ``objective`` subject to a conjunction of atom literals.

    ``literals`` is an iterable of (Atom, polarity) pairs; ``extra_rows``
    may carry raw (coeffs, const, rel) triples.  Small inputs only: at
    most 8 distinct variables and 64 rows, else ValueError.
    """
    rows = []
    for atom, pol in literals:
        rows.append(_row_of_literal(atom, pol))
    for r in extra_rows:
        rows.append(_normalize_row(*r))

    # equalities become two weak inequalities
    expanded = []
    for coeffs, const, rel in rows:
        if rel == EQ:
            expanded.append((dict(coeffs), const, LE))
            expanded.append(({v: -c for v, c in coeffs.items()}, -const, LE))
        else:
            expanded.append((dict(coeffs), const, rel))
    rows = expanded

    variables = {objective}
    for coeffs, _, _ in rows:
        variables.update(coeffs)
    if len(variables) > MAX_FM_VARS:
        raise ValueError(f"fm_minimize guard: {len(variables)} variables")
    if len(rows) > MAX_FM_ROWS:
        raise ValueError(f"fm_minimize guard: {len(rows)} rows")

    def sift(rows):
        """Drop ground rows (checking them) and dedupe; None if contradictory."""
        live = {}
        for coeffs, const, rel in rows:
            coeffs = {v: c for v, c in coeffs.items() if c != 0}
            if not coeffs:
                if not _ground_ok(const, rel):
                    return None
                continue
            lead = abs(coeffs[min(coeffs)])
            scaled = ({v: _div(c, lead) for v, c in coeffs.items()}, _div(const, lead), rel)
            key = tuple(sorted(scaled[0].items())) + (scaled[1],)
            old = live.get(key)
            if old is None or (old[2] == LE and rel == LT):
                live[key] = scaled
        return list(live.values())

    rows = sift(rows)
    if rows is None:
        return FmResult(INFEASIBLE)

    for v in sorted(variables):
        if v == objective:
            continue
        lowers, uppers, rest = [], [], []
        for coeffs, const, rel in rows:
            a = coeffs.get(v, Fraction(0))
            if a < 0:
                lowers.append((coeffs, const, rel, a))
            elif a > 0:
                uppers.append((coeffs, const, rel, a))
            else:
                rest.append((coeffs, const, rel))
        new_rows = rest
        for lc, lconst, lrel, la in lowers:
            for uc, uconst, urel, ua in uppers:
                # scale lower by ua (>0) and upper by -la (>0), then add
                coeffs = {}
                for w, c in lc.items():
                    if w != v:
                        coeffs[w] = coeffs.get(w, Fraction(0)) + c * ua
                for w, c in uc.items():
                    if w != v:
                        coeffs[w] = coeffs.get(w, Fraction(0)) + c * (-la)
                const = lconst * ua + uconst * (-la)
                rel = LT if LT in (lrel, urel) else LE
                new_rows.append((coeffs, const, rel))
        rows = sift(new_rows)
        if rows is None:
            return FmResult(INFEASIBLE)
        if len(rows) > 20000:
            raise ValueError("fm_minimize blow-up; input too large")

    # what's left bounds the objective alone
    lower = None  # (value, strict)
    upper = None
    for coeffs, const, rel in rows:
        a = coeffs[objective]
        bound = _div(-const, a)
        strict = rel == LT
        if a > 0:  # a*obj + const rel 0  ->  obj <= bound
            if upper is None or bound < upper[0] or (bound == upper[0] and strict and not upper[1]):
                upper = (bound, strict)
        else:  # obj >= bound
            if lower is None or bound > lower[0] or (bound == lower[0] and strict and not lower[1]):
                lower = (bound, strict)

    if lower is not None and upper is not None:
        lv, ls = lower
        uv, us = upper
        if lv > uv or (lv == uv and (ls or us)):
            return FmResult(INFEASIBLE)
    if lower is None:
        return FmResult(UNBOUNDED)
    return FmResult(OPTIMUM, lower[0], attained=not lower[1])


@dataclass
class OracleOutcome:
    status: str  # optimum / unsat / unbounded
    value: Optional[Fraction] = None
    attained: bool = False


def oracle_solve(problem: OmtProblem) -> OracleOutcome:
    """Optimum by branching over the propositional structure and running
    fm_minimize on every consistent branch.  Exact but exponential;
    refuses instances with more than ~20 branch variables."""
    f = problem.formula
    clauses = [list(c) for c in f.clauses]
    used_vars = sorted({abs(l) for c in clauses for l in c})
    if len(used_vars) > MAX_ENUM_VARS:
        raise ValueError(f"oracle_solve guard: {len(used_vars)} variables")

    bound_rows = []
    if problem.lb is not None:
        bound_rows.append(({problem.cost: Fraction(-1)}, problem.lb, LE))
    if problem.ub is not None:
        bound_rows.append(({problem.cost: Fraction(1)}, -problem.ub, LT))

    assign: dict[int, bool] = {}
    best: Optional[FmResult] = None
    state = {"unbounded": False, "feasible": False}

    def clause_state(cl):
        """True if satisfied, None if open, or the open literal list."""
        open_lits = []
        for lit in cl:
            val = assign.get(abs(lit))
            if val is None:
                open_lits.append(lit)
            elif val == (lit > 0):
                return True
        return open_lits

    def leaf():
        lits = []
        for v, val in assign.items():
            atom = f.atom_of(v)
            if atom is None:
                continue
            if not val and atom.rel == EQ:
                # clauses never hold negated equalities, so a false
                # equality label carries no arithmetic constraint
                continue
            lits.append((atom, val))
        res = fm_minimize(lits, problem.cost, extra_rows=bound_rows)
        if res.status == INFEASIBLE:
            return
        state["feasible"] = True
        if res.status == UNBOUNDED:
            state["unbounded"] = True
            return
        nonlocal best
        if (
            best is None
            or res.value < best.value
            or (res.value == best.value and res.attained and not best.attained)
        ):
            best = res

    def search():
        if state["unbounded"]:
            return
        branch_clause = None
        for cl in clauses:
            st = clause_state(cl)
            if st is True:
                continue
            if not st:
                return  # propositionally falsified
            branch_clause = st
            break
        if branch_clause is None:
            leaf()
            return
        v = abs(branch_clause[0])
        for val in (True, False):
            assign[v] = val
            search()
            del assign[v]

    search()

    if state["unbounded"]:
        return OracleOutcome(UNBOUNDED)
    if best is None:
        return OracleOutcome(UNSAT, value=problem.ub)
    return OracleOutcome(OPTIMUM, best.value, best.attained)
