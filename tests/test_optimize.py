"""Objective minimization on a feasible simplex state."""

from helpers import bounded_literals
from omtq.arith import DeltaRational, eps_part, real_part
from omtq.formula import normalize_atom
from omtq.lra import LraSolver, conjunction_min, minimize_var
from omtq.oracle import fm_minimize


def _lits(*specs):
    return [normalize_atom(c, k, op) for (c, k, op) in specs]


def test_simple_lower_bound_is_attained():
    status, val = conjunction_min(_lits(({0: 1}, -3, ">=")), 0)
    assert status == "min"
    assert val == DeltaRational(3)


def test_strict_bound_gives_unattained_minimum():
    status, val = conjunction_min(_lits(({0: 1}, -3, ">")), 0)
    assert status == "min"
    assert val.real == 3 and val.eps > 0


def test_descent_through_a_row():
    # cost >= x and x >= 2: the row forces cost down to 2
    status, val = conjunction_min(
        _lits(({0: 1, 1: -1}, 0, ">="), ({1: 1}, -2, ">=")), 0
    )
    assert status == "min"
    assert val == DeltaRational(2)


def test_equality_fixes_the_objective():
    status, val = conjunction_min(_lits(({0: 1}, -7, "=")), 0)
    assert status == "min"
    assert val == DeltaRational(7)


def test_unbounded_objective():
    status, val = conjunction_min(_lits(({0: 1}, -3, "<=")), 0)
    assert status == "unbounded"
    assert val is None


def test_infeasible_conjunction():
    status, val = conjunction_min(
        _lits(({0: 1}, -3, ">="), ({0: 1}, 0, "<=")), 0
    )
    assert status == "unsat"
    assert val is None


def test_chained_descent():
    # cost >= 2x, x > 1, so inf cost = 2 unattained
    status, val = conjunction_min(
        _lits(({0: 1, 1: -2}, 0, ">="), ({1: 1}, -1, ">")), 0
    )
    assert status == "min"
    assert val.real == 2 and val.eps > 0


def test_minimize_preserves_feasibility():
    lra = LraSolver(2)
    cid = 0
    lits = _lits(
        ({0: 1, 1: 1}, -4, ">="),  # cost + y >= 4
        ({1: 1}, -3, "<="),  # y <= 3
        ({0: 1}, -10, "<="),  # cost <= 10
    )
    for i, (atom, pol) in enumerate(lits):
        assert lra.assert_atom(atom, pol, i + 1) is None
    assert lra.check()[0] == "sat"
    res = minimize_var(lra, cid)
    assert res == DeltaRational(1)
    # the state is a model with the objective at the reported minimum
    assert lra.beta[0] == DeltaRational(1)
    assert lra.check()[0] == "sat"


def test_objective_leaving_basis_at_its_own_bound():
    # cost is basic via the equality row and its own bound is binding
    lra = LraSolver(2)
    cid = 0
    lits = _lits(
        ({0: 1, 1: -1}, 0, "="),  # cost = y
        ({0: 1}, -2, ">="),  # cost >= 2
        ({1: 1}, -8, "<="),  # y <= 8
    )
    for i, (atom, pol) in enumerate(lits):
        assert lra.assert_atom(atom, pol, i + 1) is None
    assert lra.check()[0] == "sat"
    assert minimize_var(lra, cid) == DeltaRational(2)


def test_free_variable_is_unbounded():
    lra = LraSolver(1)
    cid = 0
    assert minimize_var(lra, cid) is None


def test_agreement_with_elimination_oracle():
    for seed in range(300):
        lits = bounded_literals(seed)
        status, val = conjunction_min(lits, 0)
        want = fm_minimize(lits, 0)
        assert status == {"optimum": "min", "infeasible": "unsat", "unbounded": "unbounded"}[
            want.status
        ], seed
        if status == "min":
            assert real_part(val) == want.value, seed
            assert (eps_part(val) == 0) == want.attained, seed
