"""Incremental simplex over conjunctions of atoms."""

import math
import random
import time
from fractions import Fraction

import pytest

from helpers import FAMILIES, random_literals
from omtq.arith import EQ, LE, LT, DeltaRational, eps_part, real_part
from omtq.formula import normalize_atom
from omtq.lra import Interrupted, LraSolver, minimize_var
from omtq.omt import InlineBridge, OmtConfig
from omtq.oracle import fm_minimize
from omtq.parser import parse_problem
from test_arith import _normal_value


def _lit(coeffs, const, op):
    return normalize_atom(coeffs, const, op)


def _satisfied(atom, polarity, valuation) -> bool:
    val = atom.delta_value(valuation)
    zero = DeltaRational(0)
    if atom.rel == EQ:
        assert polarity, "negated equalities never reach the core"
        return val == zero
    if atom.rel == LE:
        return val <= zero if polarity else val > zero
    return val < zero if polarity else val >= zero


def _run(lits):
    """Assert everything on a solver over variables 0..2; returns
    (verdict, solver)."""
    lra = LraSolver(3)
    for i, (atom, pol) in enumerate(lits):
        if lra.assert_atom(atom, pol, i + 1) is not None:
            return False, lra
    return lra.check()[0] == "sat", lra


def test_single_variable_window():
    a1 = _lit({0: 1}, -10, LE)  # x <= 10
    a2 = _lit({0: 1}, 2, ">=")  # x >= -2
    sat, lra = _run([a1, a2])
    assert sat
    v = lra.beta[0]
    assert DeltaRational(-2) <= v <= DeltaRational(10)


def test_immediate_bound_clash_names_both_reasons():
    lra = LraSolver(2)
    le, pol = _lit({0: 1}, -1, LE)  # x <= 1
    ge, pog = _lit({0: 1}, -2, ">=")  # x >= 2
    assert lra.assert_atom(le, pol, 7) is None
    confl = lra.assert_atom(ge, pog, 9)
    assert confl is not None
    assert sorted(confl) == [-9, -7]


def test_strict_window_is_satisfiable_symbolically():
    gt, p1 = _lit({0: 1}, 0, ">")  # x > 0
    lt, p2 = _lit({0: 1}, Fraction(-1, 1000), LT)  # x < 1/1000
    sat, lra = _run([(gt, p1), (lt, p2)])
    assert sat
    v = lra.beta[0]
    assert v.real == 0 and v.eps > 0 or 0 < v.real < Fraction(1, 1000)


def test_strict_against_weak_is_unsat():
    gt, p1 = _lit({0: 1}, 0, ">")  # x > 0
    le, p2 = _lit({0: 1}, 0, LE)  # x <= 0
    sat, _ = _run([(gt, p1), (le, p2)])
    assert not sat


def test_row_conflict_collects_bound_reasons():
    lra = LraSolver(2)
    s, sp = _lit({0: 1, 1: 1}, 0, LE)  # x + y <= 0
    x1, xp = _lit({0: 1}, -1, ">=")  # x >= 1
    y1, yp = _lit({1: 1}, -1, ">=")  # y >= 1
    assert lra.assert_atom(s, sp, 1) is None
    assert lra.assert_atom(x1, xp, 2) is None
    assert lra.assert_atom(y1, yp, 3) is None
    status, confl = lra.check()
    assert status == "unsat"
    assert set(confl) <= {-1, -2, -3}
    assert len(confl) >= 2


def test_shared_slack_for_both_orientations():
    # x + y <= 2 and x + y >= 5 are different atoms over one term; they
    # must land on the same slack variable and clash immediately
    lra = LraSolver(2)
    a, ap = _lit({0: 1, 1: 1}, -2, LE)
    b, bp = _lit({0: 2, 1: 2}, -10, ">=")
    assert a != b
    assert lra.assert_atom(a, ap, 1) is None
    confl = lra.assert_atom(b, bp, 2)
    assert len(lra.slack_of) == 1
    assert confl is not None and sorted(confl) == [-2, -1]


def test_equality_pins_both_sides():
    eq, ep = _lit({0: 1, 1: -1}, -3, EQ)  # x - y = 3
    y2, yp = _lit({1: 1}, -2, EQ)  # y = 2
    sat, lra = _run([(eq, ep), (y2, yp)])
    assert sat
    assert lra.beta[0] == DeltaRational(5)
    assert lra.beta[1] == DeltaRational(2)


# the bounds (is_lower, eps) on an atom's own term h that each literal
# asserts, all at -const: the canonical atom is (h + const rel 0)
_TERM_BOUNDS = {
    (LE, True): [(False, 0)],
    (LE, False): [(True, 1)],
    (LT, True): [(False, -1)],
    (LT, False): [(True, 0)],
    (EQ, True): [(True, 0), (False, 0)],
}


@pytest.mark.parametrize("scale", [1, 12])
def test_effective_bounds_are_the_scaled_delta_bounds(scale):
    """Each literal bounds its slack by DeltaRational(-const, eps) times
    the scale, negated and with the sides swapped when the slack is the
    term's negation; every field is in normal form.  The constant 1/5
    has a denominator that does not divide 12."""
    for coeffs in ({0: 1}, {0: -1}, {0: 1, 1: -2}, {0: -1, 1: 2}):
        for const in (0, 3, Fraction(-3, 4), Fraction(1, 5)):
            for rel in (LE, LT, EQ):
                atom, _ = _lit(coeffs, const, rel)
                lra = LraSolver(2, scale)
                vid, flipped = lra.slack_for(atom.coeffs)
                k = -scale if flipped else scale
                for pol in (True, False):
                    if (rel, pol) == (EQ, False):
                        with pytest.raises(ValueError):
                            lra.effective_bounds(atom, pol)
                        continue
                    got = lra.effective_bounds(atom, pol)
                    assert got == [
                        (vid, is_lower != flipped, DeltaRational(-atom.const, eps) * k)
                        for is_lower, eps in _TERM_BOUNDS[rel, pol]
                    ], (atom, pol)
                    assert all(_normal_value(v) for _, _, v in got)


def test_backtracking_restores_bounds():
    lra = LraSolver(2)
    a, ap = _lit({0: 1}, -5, LE)  # x <= 5
    lra.assert_atom(a, ap, 1)
    m = lra.mark()
    b, bp = _lit({0: 1}, -7, ">=")  # x >= 7, clashes
    confl = lra.assert_atom(b, bp, 2)
    assert confl is not None
    lra.backtrack_to(m)
    c, cp = _lit({0: 1}, -3, ">=")  # x >= 3 fits
    assert lra.assert_atom(c, cp, 3) is None
    assert lra.check()[0] == "sat"
    assert DeltaRational(3) <= lra.beta[0] <= DeltaRational(5)


def test_pivots_survive_backtracking():
    lra = LraSolver(2)
    s, sp = _lit({0: 1, 1: 1}, -4, LE)  # x + y <= 4
    g, gp = _lit({0: 1, 1: 1}, -3, ">=")  # x + y >= 3
    y0, yp = _lit({1: 1}, 0, ">=")  # y >= 0
    lra.assert_atom(s, sp, 1)
    lra.assert_atom(g, gp, 2)
    lra.assert_atom(y0, yp, 3)
    assert lra.check()[0] == "sat"
    m = lra.mark()
    tight, tp = _lit({0: 1}, -10, ">=")  # x >= 10, forces unsat
    lra.assert_atom(tight, tp, 4)
    assert lra.check()[0] == "unsat"
    lra.backtrack_to(m)
    # rows were pivoted during the failed check; state must still repair
    assert lra.check()[0] == "sat"
    total = lra.beta[0] + lra.beta[1]
    assert DeltaRational(3) <= total <= DeltaRational(4)


def test_past_deadline_interrupts_a_pivoting_check():
    lra = LraSolver(2)
    s, sp = _lit({0: 1, 1: 1}, 0, LE)  # x + y <= 0
    x1, xp = _lit({0: 1}, -1, ">=")  # x >= 1, so y must pivot in
    assert lra.assert_atom(s, sp, 1) is None
    assert lra.assert_atom(x1, xp, 2) is None
    lra.deadline = time.monotonic() - 1
    with pytest.raises(Interrupted):
        lra.check()
    assert lra.pivot_count == 0
    lra.deadline = None
    assert lra.check()[0] == "sat"
    assert lra.beta[0] >= DeltaRational(1)
    assert lra.beta[0] + lra.beta[1] <= DeltaRational(0)


def test_entailment_from_bounds():
    lra = LraSolver(2)
    a, ap = _lit({0: 1}, -2, LE)  # x <= 2
    lra.assert_atom(a, ap, 5)
    loose, _ = _lit({0: 1}, -3, LE)  # x <= 3 follows
    got = lra.entailed(loose)
    assert got is not None
    value, reasons = got
    assert value is True
    assert reasons == [5]
    below, _ = _lit({0: 1}, 3, ">=")  # x >= -3 is not decided by x <= 2
    assert lra.entailed(below) is None
    high, _ = _lit({0: 1}, -4, ">=")  # x >= 4 contradicts x <= 2
    got = lra.entailed(high)
    assert got == (False, [5])


def _entailment_follows_bounds(lra, coeffs):
    """Ask the same atom (term <= 3) under changing bounds on the term:
    the answer must follow the current bounds, not an earlier call."""
    le3, _ = _lit(coeffs, -3, LE)
    le2, p2 = _lit(coeffs, -2, LE)
    ge5, p5 = _lit(coeffs, -5, ">=")
    m = lra.mark()
    assert lra.assert_atom(le2, p2, 1) is None
    assert lra.entailed(le3) == (True, [1])
    lra.backtrack_to(m)
    assert lra.entailed(le3) is None
    assert lra.assert_atom(ge5, p5, 2) is None
    assert lra.entailed(le3) == (False, [2])


def test_entailment_is_recomputed_after_backtracking():
    _entailment_follows_bounds(LraSolver(1), {0: 1})


def test_entailment_is_recomputed_after_a_pivot():
    lra = LraSolver(2)
    ge1, p1 = _lit({0: 1, 1: 1}, -1, ">=")  # x + y >= 1
    le3, _ = _lit({0: 1, 1: 1}, -3, LE)
    assert lra.assert_atom(ge1, p1, 9) is None
    assert lra.entailed(le3) is None
    (slack,) = lra.slack_of.values()
    assert slack in lra.rows
    assert lra.check()[0] == "sat"
    assert slack not in lra.rows  # the check pivoted the slack out
    _entailment_follows_bounds(lra, {0: 1, 1: 1})


def test_agreement_with_elimination_oracle():
    for seed in range(300):
        lits = random_literals(seed)
        sat, lra = _run(lits)
        assert sat == (fm_minimize(lits, 0).status != "infeasible"), seed
        if sat:
            for atom, pol in lits:
                assert _satisfied(atom, pol, lra.beta), seed


class _FullScanSolver(LraSolver):
    """Reference: picks the violated basic variable by scanning every
    row, ignoring the candidate set."""

    def _violated(self):
        for x in sorted(self.rows):
            lo, up = self.lower[x], self.upper[x]
            if lo is not None and self.beta[x] < lo[0]:
                return x, True, lo[0]
            if up is not None and self.beta[x] > up[0]:
                return x, False, up[0]
        return None


def _assert_tableau_holds(lra, where):
    assert set(lra.den) == set(lra.rows), where
    assert lra.bounded == {
        v for v in range(len(lra.beta)) if lra.lower[v] is not None or lra.upper[v] is not None
    }, where
    for b, row in lra.rows.items():
        d = lra.den[b]
        assert type(d) is int and d > 0, where
        assert all(type(a) is int for a in row.values()), where
        assert math.gcd(d, *row.values()) == 1, where
        beta = lra.beta
        real = sum((Fraction(a, d) * real_part(beta[y]) for y, a in row.items()), Fraction(0))
        eps = sum((Fraction(a, d) * eps_part(beta[y]) for y, a in row.items()), Fraction(0))
        assert beta[b] == DeltaRational(real, eps), where
    for v, val in enumerate(lra.beta):
        lo, up = lra.lower[v], lra.upper[v]
        assert lo is None or lo[0] <= val, where
        assert up is None or val <= up[0], where
        # a value is a plain number unless its delta part is nonzero
        assert _normal_value(val), (where, v)
        assert lo is None or _normal_value(lo[0]), (where, v)
        assert up is None or _normal_value(up[0]), (where, v)


def _same_state(lra, ref):
    return (lra.beta, lra.rows, lra.den, lra.lower, lra.upper) == (
        ref.beta, ref.rows, ref.den, ref.lower, ref.upper
    )


def test_candidate_set_check_matches_a_full_row_scan():
    """Random assert/mark/backtrack/check sequences, run on a solver and on
    a full-scan reference in lockstep: every answer and the whole state
    must agree, and a sat check must leave every row equation exact and
    every variable within its bounds."""
    for seed in range(150):
        rng = random.Random(seed)
        nvars = rng.randint(3, 5)
        pool = [lit for j in range(4) for lit in random_literals(seed * 4 + j, nvars)]
        lra, ref = LraSolver(nvars), _FullScanSolver(nvars)
        marks = []
        for step in range(40):
            where = (seed, step)
            roll = rng.random()
            if roll < 0.5:
                atom, pol = rng.choice(pool)
                reason = step + 1
                got = lra.assert_atom(atom, pol, reason)
                assert got == ref.assert_atom(atom, pol, reason), where
            elif roll < 0.65:
                marks.append((lra.mark(), ref.mark()))
            elif roll < 0.8:
                if marks:
                    i = rng.randrange(len(marks))
                    m, mr = marks[i]
                    del marks[i:]  # later marks point past the restored state
                    lra.backtrack_to(m)
                    ref.backtrack_to(mr)
            else:
                got = lra.check()
                assert got == ref.check(), where
                if got[0] == "sat":
                    _assert_tableau_holds(lra, where)
            assert _same_state(lra, ref), where


class _FractionTableauSolver(LraSolver):
    """Reference: the tableau as rows of Fraction coefficients, each over
    the denominator 1, updated with Fraction arithmetic."""

    def _expand(self, coeffs):
        acc = {}
        for vid, a in coeffs:
            a = Fraction(a)  # atoms hold ints where integral
            if vid in self.rows:
                for y, b in self.rows[vid].items():
                    old = acc.get(y)
                    acc[y] = a * b if old is None else old + a * b
            else:
                old = acc.get(vid)
                acc[vid] = a if old is None else old + a
        return {y: a for y, a in acc.items() if a != 0}, 1

    def _update_nonbasic(self, x, v):
        beta = self.beta
        delta = v - beta[x]
        for b, row in self.rows.items():
            a = row.get(x)
            if a:
                beta[b] = beta[b] + delta * a
                self.candidates.add(b)
        beta[x] = v

    def _pivot(self, leave, enter):
        self.call_pivots += 1
        self.pivot_count += 1
        row = self.rows.pop(leave)
        del self.den[leave]
        a = row.pop(enter)
        new_row = {leave: Fraction(1) / a}
        for z, coeff in row.items():
            new_row[z] = -coeff / a
        self.rows[enter] = new_row
        self.den[enter] = 1
        self.candidates.discard(leave)
        self.candidates.add(enter)
        for b, r in self.rows.items():
            if b == enter:
                continue
            cy = r.pop(enter, None)
            if cy:
                for z, coeff in new_row.items():
                    old = r.get(z)
                    if old is None:
                        r[z] = cy * coeff
                    else:
                        nv = old + cy * coeff
                        if nv:
                            r[z] = nv
                        else:
                            del r[z]

    def _pivot_and_update(self, leave, enter, v):
        beta = self.beta
        a = self.rows[leave][enter]
        d = v - beta[leave]
        theta = DeltaRational(real_part(d) / a, eps_part(d) / a)
        beta[leave] = v
        beta[enter] = beta[enter] + theta
        for b, row in self.rows.items():
            if b == leave:
                continue
            ab = row.get(enter)
            if ab:
                beta[b] = beta[b] + theta * ab
                self.candidates.add(b)
        self._pivot(leave, enter)


def _same_tableau(lra, ref):
    """Same assignment, bounds and candidates, and each fraction-free row
    equal to the reference's Fraction row."""
    if (lra.beta, lra.lower, lra.upper, lra.candidates) != (
        ref.beta, ref.lower, ref.upper, ref.candidates
    ):
        return False
    if lra.rows.keys() != ref.rows.keys():
        return False
    return all(
        {y: Fraction(a, lra.den[b]) for y, a in row.items()} == ref.rows[b]
        for b, row in lra.rows.items()
    )


def test_fraction_free_rows_match_a_fraction_tableau():
    """Random assert/mark/backtrack/check/minimize_var sequences, run on a
    solver and on a Fraction-tableau reference in lockstep: answers,
    assignments, bounds, candidates and every row coefficient agree."""
    general_rows = 0
    for seed in range(150):
        rng = random.Random(seed)
        nvars = rng.randint(3, 5)
        pool = [lit for j in range(4) for lit in random_literals(seed * 4 + j, nvars)]
        lra, ref = LraSolver(nvars), _FractionTableauSolver(nvars)
        marks = []
        feasible = True
        for step in range(40):
            where = (seed, step)
            roll = rng.random()
            if roll < 0.45:
                atom, pol = rng.choice(pool)
                reason = step + 1
                got = lra.assert_atom(atom, pol, reason)
                assert got == ref.assert_atom(atom, pol, reason), where
                feasible = False
            elif roll < 0.6:
                marks.append((lra.mark(), ref.mark()))
            elif roll < 0.7:
                if marks:
                    i = rng.randrange(len(marks))
                    m, mr = marks[i]
                    del marks[i:]
                    lra.backtrack_to(m)
                    ref.backtrack_to(mr)
            elif roll < 0.85 or not feasible:
                got = lra.check()
                assert got == ref.check(), where
                feasible = got[0] == "sat"
                if feasible:
                    _assert_tableau_holds(lra, where)
            else:
                cid = rng.randrange(len(lra.beta))
                assert minimize_var(lra, cid) == minimize_var(ref, cid), where
                _assert_tableau_holds(lra, where)
            assert _same_tableau(lra, ref), where
            general_rows += any(d != 1 for d in lra.den.values())
    assert general_rows > 0  # the sequences reach rows of non-unit ratios


def test_family_rows_stay_unit():
    """On the paper's families every tableau entry is a unit and every
    row denominator stays 1."""
    problem = parse_problem((FAMILIES / "jobshop-5x4-s2.smt2").read_text())
    bridge = InlineBridge(problem, OmtConfig())
    bridge.sat.solve((), bridge)
    lra = bridge.lra
    assert lra.pivot_count > 0
    assert set(lra.den.values()) == {1}
    assert all(type(a) is int for row in lra.rows.values() for a in row.values())
