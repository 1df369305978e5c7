"""Incremental simplex solver for conjunctions of linear rational atoms.

General simplex over a tableau of slack variables, in the style used by
lazy SMT solvers: every distinct homogeneous linear term gets a slack
variable and one tableau row, asserted atoms become bounds on variables,
and a Bland-rule pivoting loop repairs the assignment or reports an
(irredundant, not necessarily minimal) conflict built from the bound
reasons.  Strict bounds are handled symbolically with delta-rationals.

There is one numbering.  ``LraSolver(n)`` makes the problem variables
``0..n-1``, the ids the atoms' coefficient lists already use, and each
slack takes the next free id from ``n`` up, in the order the slacks are
made.

Assertions are scoped with mark()/backtrack_to(); pivots persist across
backtracking, only bounds are undone, so the current assignment always
satisfies every row.

Rows are fraction-free.  The row of basic variable b holds ``int``
coefficients over one positive ``int`` denominator,
``den[b] * b = sum(rows[b][y] * y)``, and ``den[b]`` and the
coefficients have no common factor, so each rational row has exactly
one such form.  A pivot multiplies rows by the entering coefficient's
magnitude and divides out a ``gcd`` only when a denominator is not 1;
on rows of unit coefficients it does integer additions alone.  Every
choice the search makes reads the coefficients' signs or exact ratios,
so it pivots as a tableau of ``Fraction`` entries would.

Values are in ``arith``'s form: a plain number, an ``int`` when
integral, else a ``Fraction``, unless a strict bound puts a nonzero
delta part in, which only a ``DeltaRational`` carries.  So on most
updates the simplex adds ints, and every update leaves its result in
normal form.  A pivot that repairs a bound walks the rows once: each
other row that holds the entering variable has its basic variable's
value moved and is rewritten in the same pass.

``LraSolver(n, scale)`` keeps every value times one positive ``int``
scale D: ``effective_bounds`` multiplies each bound by D, its delta
part included.  Rows and slacks do not depend on D, and
every update and comparison is linear in the values, so the assignment
is exactly D times the one an unscaled solver reaches, through the same
pivots.  A caller that picks D divides by it where values leave the
solver: the result of ``minimize_var``, ``beta`` and the values of
``effective_bounds``.  The search engines choose D so that the bounds
of the input's atoms are integral, and on most inputs so is the whole
assignment; ``LraSolver(n)`` has D = 1.

Bounds and first rows come from the atoms' integers.  A bound is
``-num * D / den`` for the atom's constant num/den, plus 0 or ±D
deltas, made as an ``int`` whenever den divides D; only an atom
registered after the scale was chosen, such as a cost bound, may need
a ``Fraction``.  A slack whose variables are all nonbasic, as every
slack made before the first pivot is, gets its row as the
coefficients' numerators over the lcm of their denominators.

``check`` does not scan every row for a violated bound.  The solver
keeps a set of candidate basic variables that may be out of bounds: a
basic variable joins it when its value changes, when one of its bounds
tightens, or when it enters the basis, and leaves it when it leaves the
basis or a scan finds it within its bounds.  Every violated basic
variable is a candidate, so scanning the sorted candidates finds the
same smallest violated variable a full scan would, and Bland's rule
makes the same pivots.

``bounded`` is the set of variables with at least one asserted bound:
``assert_atom`` adds a variable when it sets a bound and
``backtrack_to`` removes it when both of its bounds are back to
``None``.  An atom can only be entailed by a bound on its own variable,
so a caller that propagates by ``entailed`` need only ask about atoms on
these variables.

``minimize_var`` drives one variable to its minimum on the same
tableau, so the search's cost minimization and conflict generalization
(``conjunction_min``) share the pivots, the bounds and the entering rule
of ``check``.

Each ``check`` and each ``minimize_var`` call may pivot at most
``MAX_PIVOTS`` times, and no pivot starts once ``LraSolver.deadline``
has passed; either way ``_pivot`` raises ``Interrupted``, which the
engines report as an interrupted search.  The engines test the same
deadline through ``check_deadline`` between simplex calls.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .arith import _ZERO, Value, _make, quotient
from .formula import Atom, EQ, LE, LT

MAX_PIVOTS = 1_000_000  # per check or minimize_var call


class Interrupted(Exception):
    """The one early stop of a search: a single check or minimization
    needed more than MAX_PIVOTS pivots, the solver's deadline passed
    (``check_deadline``), or the search's loop budget ran out."""


class LraSolver:
    """Variables are dense integer ids: the problem variables ``0..n-1``,
    then the slacks."""

    def __init__(self, n: int, scale: int = 1):
        self.scale = scale  # every value is kept times this positive int
        self.rows: dict[int, dict[int, int]] = {}
        self.den: dict[int, int] = {}  # basic variable -> row denominator
        self.beta: list[Value] = [0] * n
        self.lower: list[Optional[tuple[Value, int]]] = [None] * n
        self.upper: list[Optional[tuple[Value, int]]] = [None] * n
        self.slack_of: dict[tuple, int] = {}
        # (atom, polarity) -> effective_bounds entries; safe to keep for the
        # solver's lifetime because pivots never renumber variables and an
        # atom's bound values are constants
        self.bounds_of: dict[tuple[Atom, bool], list] = {}
        self.undo: list[tuple] = []
        # basic variables that may violate a bound; every violated basic
        # variable is in here
        self.candidates: set[int] = set()
        self.bounded: set[int] = set()  # variables with a lower or upper bound
        self.pivot_count = 0  # over the solver's lifetime
        self.call_pivots = 0  # since the current check or minimize_var began
        self.deadline: Optional[float] = None  # time.monotonic() value

    # -- slacks -------------------------------------------------------------

    def _expand(self, coeffs: tuple) -> tuple[dict[int, int], int]:
        """Rewrite a combination of variables over the current nonbasics,
        as a fraction-free row and its denominator.

        ``coeffs`` is canonical: distinct variables, no zeros, each an
        ``int`` or a non-integral ``Fraction``.  When none of them is
        basic, as for every slack made before the first pivot, the row
        is their numerators over the lcm of their denominators;
        otherwise basic variables are substituted by their rows, each
        entry divided by the row denominator with ``quotient``, which
        never makes a float."""
        rows = self.rows
        for vid, _ in coeffs:
            if vid in rows:
                break
        else:
            den = lcm(*[a.denominator for _, a in coeffs])
            return {vid: a.numerator * (den // a.denominator) for vid, a in coeffs}, den
        acc: dict = {}
        for vid, a in coeffs:
            row = rows.get(vid)
            if row is None:
                acc[vid] = acc.get(vid, 0) + a
            else:
                d = self.den[vid]
                for y, c in row.items():
                    acc[y] = acc.get(y, 0) + quotient(a * c, d)
        acc = {y: a for y, a in acc.items() if a != 0}
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*(a.denominator for a in acc.values()))
        return {y: a.numerator * (den // a.denominator) for y, a in acc.items()}, den

    def slack_for(self, coeffs) -> tuple[int, bool]:
        """Variable representing the term, plus a flag telling whether the
        stored orientation is the negation of the requested one.

        ``coeffs`` is an atom's canonical coefficient tuple: (var, coeff)
        pairs sorted by var, no zeros, each coefficient an ``int`` when
        integral, so the sign test, the negation and the ``slack_of``
        lookup run on ints for integral atoms."""
        flipped = coeffs[0][1] < 0
        if flipped:
            coeffs = tuple((v, -a) for v, a in coeffs)
        if len(coeffs) == 1 and coeffs[0][1] == 1:
            return coeffs[0][0], flipped
        vid = self.slack_of.get(coeffs)
        if vid is None:
            vid = len(self.beta)
            self.lower.append(None)
            self.upper.append(None)
            row, den = self._expand(coeffs)
            beta = self.beta
            val = 0
            for y, a in row.items():
                val = val + beta[y] * a
            beta.append(_times(val, 1, den))
            self.rows[vid] = row
            self.den[vid] = den
            self.slack_of[coeffs] = vid
        return vid, flipped

    # -- bound bookkeeping -------------------------------------------------

    def effective_bounds(self, atom: Atom, polarity: bool):
        """List of (var, is_lower, value) bounds asserted by the literal,
        values times ``scale``, their delta parts included.

        The canonical atom is (h + const rel 0), so the homogeneous part
        h is bounded by -const: the value is ``-num * k / den`` for the
        constant num/den and the signed scale k (negative when the slack
        is h's negation), plus 0 or ±k deltas.

        Computed once per literal; callers must not mutate the list."""
        key = (atom, polarity)
        out = self.bounds_of.get(key)
        if out is not None:
            return out
        vid, flipped = self.slack_for(atom.coeffs)
        k = -self.scale if flipped else self.scale
        const = atom.const
        den = const.denominator
        if k % den:
            real = Fraction(-const.numerator * k, den)
        else:
            real = -const.numerator * (k // den)
        rel = atom.rel
        if rel == LE:
            if polarity:  # h <= c
                out = [(vid, flipped, _make(real, _ZERO))]
            else:  # h > c
                out = [(vid, not flipped, _make(real, k))]
        elif rel == LT:
            if polarity:  # h < c
                out = [(vid, flipped, _make(real, -k))]
            else:  # h >= c
                out = [(vid, not flipped, _make(real, _ZERO))]
        elif rel == EQ:
            if not polarity:
                raise ValueError("negated equality reached the arithmetic core")
            value = _make(real, _ZERO)
            out = [(vid, not flipped, value), (vid, flipped, value)]
        else:
            raise ValueError(f"unknown relation {rel!r}")
        self.bounds_of[key] = out
        return out

    def mark(self) -> int:
        return len(self.undo)

    def backtrack_to(self, m: int):
        lower, upper, undo = self.lower, self.upper, self.undo
        while len(undo) > m:
            vid, which, old = undo.pop()
            if which == "lo":
                lower[vid] = old
            else:
                upper[vid] = old
            if old is None and lower[vid] is None and upper[vid] is None:
                self.bounded.discard(vid)

    def _update_nonbasic(self, x: int, v: Value):
        beta, den = self.beta, self.den
        delta = v - beta[x]
        for b, row in self.rows.items():
            a = row.get(x)
            if a:
                beta[b] = _plus_times(beta[b], delta, a, den[b])
                self.candidates.add(b)
        beta[x] = v

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
                    return list(dict.fromkeys([-reason, -up[1]]))
                self.undo.append((vid, "lo", cur))
                self.lower[vid] = (val, reason)
                self.bounded.add(vid)
                if vid in self.rows:
                    self.candidates.add(vid)
                elif self.beta[vid] < val:
                    self._update_nonbasic(vid, val)
            else:
                cur = self.upper[vid]
                if cur is not None and val >= cur[0]:
                    continue
                lo = self.lower[vid]
                if lo is not None and val < lo[0]:
                    return list(dict.fromkeys([-reason, -lo[1]]))
                self.undo.append((vid, "up", cur))
                self.upper[vid] = (val, reason)
                self.bounded.add(vid)
                if vid in self.rows:
                    self.candidates.add(vid)
                elif self.beta[vid] > val:
                    self._update_nonbasic(vid, val)
        return None

    # -- the check loop ----------------------------------------------------

    def check_deadline(self):
        """Raise Interrupted once the deadline has passed."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise Interrupted("deadline passed")

    def _pivot(self, leave: int, enter: int, theta: Optional[Value] = None):
        """Swap a basic and a nonbasic variable.  With ``theta``, the
        entering variable has just moved by it: the same walk over the
        rows moves the value of each other basic variable that holds it,
        before rewriting that row."""
        if self.call_pivots >= MAX_PIVOTS:
            raise Interrupted(f"more than {MAX_PIVOTS} pivots in one call")
        self.check_deadline()
        self.call_pivots += 1
        self.pivot_count += 1
        den, beta, candidates = self.den, self.beta, self.candidates
        row = self.rows.pop(leave)
        a = row.pop(enter)
        # a * enter = den[leave] * leave - (the rest of the row); the new
        # row inherits the old one's lack of a common factor
        if a > 0:
            new_row = {leave: den.pop(leave)}
            for z, coeff in row.items():
                new_row[z] = -coeff
            d = a
        else:
            new_row = {leave: -den.pop(leave)}
            new_row.update(row)
            d = -a
        self.rows[enter] = new_row
        den[enter] = d
        candidates.discard(leave)
        candidates.add(enter)
        for b, r in self.rows.items():
            if b == enter:
                continue
            cy = r.pop(enter, None)
            if cy:
                db = den[b]
                if theta is not None:
                    # b moves by theta * cy / db
                    beta[b] = _plus_times(beta[b], theta, cy, db)
                    candidates.add(b)
                # den[b] * b = cy * enter + rest; multiply through by d
                if d != 1:
                    for z in r:
                        r[z] *= d
                    db *= d
                    den[b] = db
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
                if db != 1:
                    g = gcd(db, *r.values())
                    if g != 1:
                        den[b] = db // g
                        for z in r:
                            r[z] //= g

    def _pivot_and_update(self, leave: int, enter: int, v: Value):
        beta = self.beta
        theta = _times(v - beta[leave], self.den[leave], self.rows[leave][enter])
        beta[leave] = v
        beta[enter] = _plus_times(beta[enter], theta, 1, 1)
        self._pivot(leave, enter, theta)

    def _violated(self):
        """(x, need_raise, bound) for the smallest basic variable x outside
        its bounds, or None; candidates found within bounds are dropped."""
        for x in sorted(self.candidates):
            lo = self.lower[x]
            if lo is not None and self.beta[x] < lo[0]:
                return x, True, lo[0]
            up = self.upper[x]
            if up is not None and self.beta[x] > up[0]:
                return x, False, up[0]
            self.candidates.discard(x)
        return None

    def _entering(self, row: dict[int, int], need_raise: bool) -> Optional[int]:
        """Bland's rule: the smallest nonbasic variable of the row that can
        move the row's basic variable up (``need_raise``) or down, or None.

        One unsorted walk over the row keeps the smallest eligible
        variable seen; a variable above it is skipped before its bounds
        are read.  Rows hold no zero coefficients, so ``y`` must rise
        exactly when the sign of its coefficient agrees with
        ``need_raise``."""
        lower, upper, beta = self.lower, self.upper, self.beta
        best = None
        for y, a in row.items():
            if best is not None and y > best:
                continue
            if (a > 0) == need_raise:
                up = upper[y]
                if up is None or beta[y] < up[0]:
                    best = y
            else:
                lo = lower[y]
                if lo is None or beta[y] > lo[0]:
                    best = y
        return best

    def check(self):
        """Repair feasibility.  Returns ('sat', None) or ('unsat', clause).

        Raises Interrupted after MAX_PIVOTS pivots or past the deadline."""
        self.call_pivots = 0
        while True:
            broken = self._violated()
            if broken is None:
                return "sat", None
            x, need_raise, target = broken
            row = self.rows[x]
            enter = self._entering(row, need_raise)
            if enter is None:
                reasons = [self.lower[x][1] if need_raise else self.upper[x][1]]
                for y in sorted(row):
                    a = row[y]
                    if (a > 0) == need_raise:
                        reasons.append(self.upper[y][1])
                    else:
                        reasons.append(self.lower[y][1])
                return "unsat", list(dict.fromkeys(-r for r in reasons))
            self._pivot_and_update(x, enter, target)

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
                return True, list(dict.fromkeys(forced_true))
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


def _times(v: Value, num: int, den: int) -> Value:
    """``v * num / den`` in normal form for nonzero ints; no
    multiplication for a unit ratio."""
    if den < 0:
        num, den = -num, -den
    if den == 1:
        if num == 1:
            w = v
        elif num == -1:
            w = -v
        else:
            w = v * num
    else:
        w = v * Fraction(num, den)
    return w.numerator if type(w) is Fraction and w.denominator == 1 else w


def _plus_times(u: Value, v: Value, num: int, den: int) -> Value:
    """``u + v * num / den`` in normal form for nonzero ints and
    ``den > 0``; a unit ratio costs one addition or subtraction."""
    if den == 1:
        if num == 1:
            w = u + v
        elif num == -1:
            w = u - v
        else:
            w = u + v * num
    else:
        w = u + v * Fraction(num, den)
    return w.numerator if type(w) is Fraction and w.denominator == 1 else w


def minimize_var(lra: LraSolver, cid: int) -> Optional[Value]:
    """Drive variable ``cid`` to its minimum over the asserted bounds and
    return that minimum, or None when ``cid`` is unbounded below.  The
    minimum is a plain number, or a ``DeltaRational`` when it is not
    attained.

    Bounded-variable simplex descent with Bland's rule (smallest entering
    index, smallest leaving index among tied ratios).  The solver must be
    in a feasible state (check() returned sat) and stays in one, with
    ``cid`` at its minimum.  A minimum with a positive eps part means the
    real infimum is its real part but is not attained, because only
    strict bounds block further descent.

    Raises Interrupted after MAX_PIVOTS pivots or past the deadline."""
    lra.call_pivots = 0
    if cid not in lra.rows:
        owner = None
        for b in sorted(lra.rows):
            if lra.rows[b].get(cid):
                owner = b
                break
        if owner is None:
            lo = lra.lower[cid]
            if lo is None:
                return None
            if lra.beta[cid] != lo[0]:
                lra._update_nonbasic(cid, lo[0])
            return lo[0]
        lra._pivot(owner, cid)

    while True:
        row = lra.rows[cid]
        enter = lra._entering(row, False)
        if enter is None:
            return lra.beta[cid]
        direction = -1 if row[enter] > 0 else 1

        # ratio test: how far can `enter` move in `direction`
        best_theta = None
        leave_id = None
        leave_target = None
        own = lra.lower[enter] if direction < 0 else lra.upper[enter]
        if own is not None:
            best_theta = _times(lra.beta[enter] - own[0], -direction, 1)
            leave_id, leave_target = enter, own[0]
        for b in sorted(lra.rows):
            ab = lra.rows[b].get(enter)
            if not ab:
                continue
            rate = ab * direction
            if rate > 0:
                bound = lra.upper[b]
                if bound is None:
                    continue
                theta = _times(bound[0] - lra.beta[b], lra.den[b], rate)
            else:
                bound = lra.lower[b]
                if bound is None:
                    continue
                theta = _times(lra.beta[b] - bound[0], lra.den[b], -rate)
            if (
                best_theta is None
                or theta < best_theta
                or (theta == best_theta and b < leave_id)
            ):
                best_theta = theta
                leave_id, leave_target = b, bound[0]
        if best_theta is None:
            return None
        if leave_id == enter:
            lra._update_nonbasic(enter, leave_target)
        else:
            lra._pivot_and_update(leave_id, enter, leave_target)
            if leave_id == cid:
                # the minimized variable itself hit its own lower bound
                # and left the basis; it cannot go below that bound
                return lra.beta[cid]


def conjunction_min(literals, cost: int) -> tuple[str, Optional[Value]]:
    """Minimum of variable ``cost`` under a conjunction of atom literals,
    computed on a fresh solver.  Returns ('unsat', None), ('unbounded',
    None) or ('min', value), the value a plain number, or a
    ``DeltaRational`` when the minimum is not attained."""
    n = 1 + max([cost] + [atom.coeffs[-1][0] for atom, _ in literals])
    lra = LraSolver(n)
    for i, (atom, polarity) in enumerate(literals):
        if lra.assert_atom(atom, polarity, i + 1) is not None:
            return "unsat", None
    if lra.check()[0] == "unsat":
        return "unsat", None
    value = minimize_var(lra, cost)
    if value is None:
        return "unbounded", None
    return "min", value
