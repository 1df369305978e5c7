"""Incremental simplex solver for conjunctions of linear rational atoms.

General simplex over a tableau of slack variables, in the style used by
lazy SMT solvers: every distinct homogeneous linear term gets a slack
variable and one tableau row, asserted atoms become bounds on variables,
and a Bland-rule pivoting loop repairs the assignment or reports an
(irredundant, not necessarily minimal) conflict built from the bound
reasons.  Strict bounds are handled symbolically with delta-rationals.

Assertions are scoped with mark()/backtrack_to(); pivots persist across
backtracking, only bounds are undone, so the current assignment always
satisfies every row.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .arith import DeltaRational
from .formula import Atom, EQ, LE, LT

MAX_PIVOTS = 1_000_000


class LraConflict(Exception):
    pass


class LraSolver:
    """Variables are registered under caller-chosen hashable keys and
    addressed internally by dense integer ids."""

    def __init__(self):
        self.keys: list = []
        self.var_of_key: dict = {}
        self.rows: dict[int, dict[int, Fraction]] = {}
        self.beta: list[DeltaRational] = []
        self.lower: list[Optional[tuple[DeltaRational, int]]] = []
        self.upper: list[Optional[tuple[DeltaRational, int]]] = []
        self.slack_of: dict[tuple, int] = {}
        # (atom, polarity) -> effective_bounds entries; safe to keep for the
        # solver's lifetime because pivots never renumber variables and an
        # atom's bound values are constants
        self.bounds_of: dict[tuple[Atom, bool], list] = {}
        self.undo: list[tuple] = []
        self.pivot_count = 0

    # -- variables and slacks ---------------------------------------------

    def new_var(self, key) -> int:
        if key in self.var_of_key:
            return self.var_of_key[key]
        vid = len(self.keys)
        self.keys.append(key)
        self.var_of_key[key] = vid
        self.beta.append(DeltaRational(0))
        self.lower.append(None)
        self.upper.append(None)
        return vid

    def var(self, key) -> int:
        return self.var_of_key[key]

    def _expand(self, coeffs: list[tuple[int, Fraction]]) -> dict[int, Fraction]:
        """Rewrite a combination of variables over the current nonbasics."""
        acc: dict[int, Fraction] = {}
        for vid, a in coeffs:
            if vid in self.rows:
                for y, b in self.rows[vid].items():
                    acc[y] = acc.get(y, Fraction(0)) + a * b
            else:
                acc[vid] = acc.get(vid, Fraction(0)) + a
        return {y: a for y, a in acc.items() if a != 0}

    def slack_for(self, coeffs) -> tuple[int, bool]:
        """Variable representing the term, plus a flag telling whether the
        stored orientation is the negation of the requested one.

        ``coeffs`` is an iterable of (key, coefficient) pairs."""
        ids = sorted((self.new_var(k), Fraction(a)) for k, a in coeffs)
        flipped = ids[0][1] < 0
        if flipped:
            ids = [(v, -a) for v, a in ids]
        if len(ids) == 1 and ids[0][1] == 1:
            return ids[0][0], flipped
        key = tuple(ids)
        vid = self.slack_of.get(key)
        if vid is None:
            vid = len(self.keys)
            name = f"!s{len(self.slack_of)}"
            self.keys.append(name)
            self.var_of_key[name] = vid
            self.lower.append(None)
            self.upper.append(None)
            row = self._expand(ids)
            val = DeltaRational(0)
            for y, a in row.items():
                val = val + self.beta[y].scaled(a)
            self.beta.append(val)
            self.rows[vid] = row
            self.slack_of[key] = vid
        return vid, flipped

    # -- bound bookkeeping -------------------------------------------------

    @staticmethod
    def _atom_bounds(atom: Atom, polarity: bool):
        """Bound entries (is_lower, value) implied by the literal, for the
        atom's own orientation of the term.

        The canonical atom is (h + const rel 0), so the homogeneous part
        h is bounded by -const."""
        c = -atom.const
        if atom.rel == LE:
            if polarity:
                return [(False, DeltaRational(c))]
            return [(True, DeltaRational(c, Fraction(1)))]
        if atom.rel == LT:
            if polarity:
                return [(False, DeltaRational(c, Fraction(-1)))]
            return [(True, DeltaRational(c))]
        if atom.rel == EQ:
            if polarity:
                return [(True, DeltaRational(c)), (False, DeltaRational(c))]
            raise ValueError("negated equality reached the arithmetic core")
        raise ValueError(f"unknown relation {atom.rel!r}")

    def effective_bounds(self, atom: Atom, polarity: bool):
        """List of (var, is_lower, value) bounds asserted by the literal.

        Computed once per literal; callers must not mutate the list."""
        out = self.bounds_of.get((atom, polarity))
        if out is not None:
            return out
        vid, flipped = self.slack_for(atom.coeffs)
        out = []
        for is_lower, val in self._atom_bounds(atom, polarity):
            if flipped:
                out.append((vid, not is_lower, val.scaled(Fraction(-1))))
            else:
                out.append((vid, is_lower, val))
        self.bounds_of[(atom, polarity)] = out
        return out

    def mark(self) -> int:
        return len(self.undo)

    def backtrack_to(self, m: int):
        while len(self.undo) > m:
            vid, which, old = self.undo.pop()
            if which == "lo":
                self.lower[vid] = old
            else:
                self.upper[vid] = old

    def _update_nonbasic(self, x: int, v: DeltaRational):
        delta = v - self.beta[x]
        for b, row in self.rows.items():
            a = row.get(x)
            if a:
                self.beta[b] = self.beta[b] + delta.scaled(a)
        self.beta[x] = v

    def assert_atom(self, atom: Atom, polarity: bool, reason: int) -> Optional[list[int]]:
        """Assert one literal; returns a conflict clause (list of solver
        literals) on an immediate bound clash, else None."""
        for vid, is_lower, val in self.effective_bounds(atom, polarity):
            if is_lower:
                cur = self.lower[vid]
                if cur is not None and val <= cur[0]:
                    continue
                up = self.upper[vid]
                if up is not None and val > up[0]:
                    return dedupe_lits([-reason, -up[1]])
                self.undo.append((vid, "lo", cur))
                self.lower[vid] = (val, reason)
                if vid not in self.rows and self.beta[vid] < val:
                    self._update_nonbasic(vid, val)
            else:
                cur = self.upper[vid]
                if cur is not None and val >= cur[0]:
                    continue
                lo = self.lower[vid]
                if lo is not None and val < lo[0]:
                    return dedupe_lits([-reason, -lo[1]])
                self.undo.append((vid, "up", cur))
                self.upper[vid] = (val, reason)
                if vid not in self.rows and self.beta[vid] > val:
                    self._update_nonbasic(vid, val)
        return None

    # -- the check loop ----------------------------------------------------

    def _pivot(self, leave: int, enter: int):
        """Swap a basic and a nonbasic variable."""
        row = self.rows.pop(leave)
        a = row.pop(enter)
        new_row = {leave: Fraction(1) / a}
        for z, coeff in row.items():
            new_row[z] = -coeff / a
        self.rows[enter] = new_row
        for b, r in self.rows.items():
            if b == enter:
                continue
            cy = r.pop(enter, None)
            if cy:
                for z, coeff in new_row.items():
                    nv = r.get(z, Fraction(0)) + cy * coeff
                    if nv == 0:
                        r.pop(z, None)
                    else:
                        r[z] = nv
        self.pivot_count += 1
        if self.pivot_count > MAX_PIVOTS:
            raise LraConflict("pivot budget exhausted")

    def _pivot_and_update(self, leave: int, enter: int, v: DeltaRational):
        a = self.rows[leave][enter]
        theta = (v - self.beta[leave]).divided(a)
        self.beta[leave] = v
        self.beta[enter] = self.beta[enter] + theta
        for b, row in self.rows.items():
            if b == leave:
                continue
            ab = row.get(enter)
            if ab:
                self.beta[b] = self.beta[b] + theta.scaled(ab)
        self._pivot(leave, enter)

    def check(self):
        """Repair feasibility.  Returns ('sat', None) or ('unsat', clause)."""
        while True:
            broken = None
            for x in sorted(self.rows):
                lo = self.lower[x]
                up = self.upper[x]
                if lo is not None and self.beta[x] < lo[0]:
                    broken = (x, True, lo[0])
                    break
                if up is not None and self.beta[x] > up[0]:
                    broken = (x, False, up[0])
                    break
            if broken is None:
                return "sat", None
            x, need_raise, target = broken
            row = self.rows[x]
            enter = None
            for y in sorted(row):
                a = row[y]
                if need_raise:
                    ok = (a > 0 and self._below_upper(y)) or (a < 0 and self._above_lower(y))
                else:
                    ok = (a > 0 and self._above_lower(y)) or (a < 0 and self._below_upper(y))
                if ok:
                    enter = y
                    break
            if enter is None:
                reasons = [self.lower[x][1] if need_raise else self.upper[x][1]]
                for y in sorted(row):
                    a = row[y]
                    if (a > 0) == need_raise:
                        reasons.append(self.upper[y][1])
                    else:
                        reasons.append(self.lower[y][1])
                return "unsat", dedupe_lits([-r for r in reasons])
            self._pivot_and_update(x, enter, target)

    def _below_upper(self, y: int) -> bool:
        up = self.upper[y]
        return up is None or self.beta[y] < up[0]

    def _above_lower(self, y: int) -> bool:
        lo = self.lower[y]
        return lo is None or self.beta[y] > lo[0]

    # -- bound-based entailment -------------------------------------------

    def entailed(self, atom: Atom) -> Optional[tuple[bool, list[int]]]:
        """If the current bounds force the atom's truth value, return
        (value, reason_literals); reasons are the asserted literals whose
        bounds subsume the atom."""
        entries = self.effective_bounds(atom, True)
        forced_true: list[int] = []
        for vid, is_lower, val in entries:
            if is_lower:
                lo = self.lower[vid]
                if lo is None or lo[0] < val:
                    forced_true = []
                    break
                forced_true.append(lo[1])
            else:
                up = self.upper[vid]
                if up is None or up[0] > val:
                    forced_true = []
                    break
                forced_true.append(up[1])
        else:
            if forced_true:
                return True, dedupe_lits(forced_true)
        for vid, is_lower, val in entries:
            if is_lower:
                up = self.upper[vid]
                if up is not None and up[0] < val:
                    return False, [up[1]]
            else:
                lo = self.lower[vid]
                if lo is not None and lo[0] > val:
                    return False, [lo[1]]
        return None

    # -- model -------------------------------------------------------------

    def value_of(self, key) -> DeltaRational:
        vid = self.var_of_key.get(key)
        if vid is None:
            return DeltaRational(0)
        return self.beta[vid]


def dedupe_lits(lits) -> list[int]:
    seen = set()
    out = []
    for l in lits:
        if l not in seen:
            seen.add(l)
            out.append(l)
    return out
