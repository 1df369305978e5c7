"""Exact minimization of one variable over a feasible simplex state.

Bounded-variable simplex descent with Bland's rule (smallest entering
index, smallest leaving index among tied ratios), run directly on the
tableau of an ``LraSolver`` that has just answered sat.  Values are
delta-rationals: a minimum with a positive epsilon part means the real
infimum equals the rational part but is not attained, because only
strict bounds block further descent.

Feasibility is preserved: after minimization the solver state is still a
model of all asserted bounds, with the target variable at its minimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import DeltaRational
from .lra import LraSolver

UNBOUNDED = "unbounded"
MINIMUM = "min"


@dataclass
class MinResult:
    status: str  # MINIMUM or UNBOUNDED
    value: Optional[DeltaRational] = None

    @property
    def attained(self) -> bool:
        return self.status == MINIMUM and self.value.eps == 0


def minimize_var(lra: LraSolver, cid: int) -> MinResult:
    """Drive variable ``cid`` to its minimum over the asserted bounds.
    The solver must be in a feasible state (check() returned sat).

    Raises ``lra.PivotBudgetExhausted`` after ``lra.MAX_PIVOTS`` pivots."""
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
                return MinResult(UNBOUNDED)
            if lra.beta[cid] != lo[0]:
                lra._update_nonbasic(cid, lo[0])
            return MinResult(MINIMUM, lo[0])
        lra._pivot(owner, cid)

    while True:
        row = lra.rows[cid]
        enter = direction = None
        for y in sorted(row):
            a = row[y]
            if a > 0 and lra._above_lower(y):
                enter, direction = y, -1
                break
            if a < 0 and lra._below_upper(y):
                enter, direction = y, 1
                break
        if enter is None:
            return MinResult(MINIMUM, lra.beta[cid])

        # ratio test: how far can `enter` move in `direction`
        best_theta = None
        leave_id = None
        leave_target = None
        if direction < 0:
            own = lra.lower[enter]
        else:
            own = lra.upper[enter]
        if own is not None:
            best_theta = (lra.beta[enter] - own[0]).scaled(Fraction(direction, -1))
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
                theta = (bound[0] - lra.beta[b]).divided(rate)
            else:
                bound = lra.lower[b]
                if bound is None:
                    continue
                theta = (lra.beta[b] - bound[0]).divided(-rate)
            if (
                best_theta is None
                or theta < best_theta
                or (theta == best_theta and b < leave_id)
            ):
                best_theta = theta
                leave_id, leave_target = b, bound[0]
        if best_theta is None:
            return MinResult(UNBOUNDED)
        if leave_id == enter:
            lra._update_nonbasic(enter, leave_target)
        else:
            lra._pivot_and_update(leave_id, enter, leave_target)
            if leave_id == cid:
                # the minimized variable itself hit its own lower bound
                # and left the basis; it cannot go below that bound
                return MinResult(MINIMUM, lra.beta[cid])


def conjunction_min(literals, cost_key) -> tuple[str, Optional[DeltaRational]]:
    """Minimum of a variable under a conjunction of atom literals, computed
    on a fresh solver.  ``cost_key`` must match the keying used in the
    atoms' coefficient lists.  Returns ('unsat', None), ('unbounded',
    None) or ('min', value)."""
    lra = LraSolver()
    cid = lra.new_var(cost_key)
    for i, (atom, polarity) in enumerate(literals):
        confl = lra.assert_atom(atom, polarity, i + 1)
        if confl is not None:
            return "unsat", None
    status, _ = lra.check()
    if status == "unsat":
        return "unsat", None
    res = minimize_var(lra, cid)
    if res.status == UNBOUNDED:
        return UNBOUNDED, None
    return MINIMUM, res.value
