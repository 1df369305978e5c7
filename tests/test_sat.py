"""Propositional core: propagation, learning, assumptions, cores."""

import random

from helpers import brute_sat, random_cnf
from omtq.sat import SatSolver, luby


def _fresh(nvars, clauses):
    s = SatSolver()
    for _ in range(nvars):
        s.new_var()
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
