"""Structured encoders, instance generators and their reproducibility."""

from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    cnf_rows,
    jobshop_oracle,
    random_pb,
    reference_encode_pb,
    strip_layout_ok,
    strip_oracle,
    truth_table,
    typed_digest,
)
from omtq import OmtConfig, solve
from omtq.formula import normalize_atom
from omtq.encodings import (
    SplitMix64,
    encode_ldp,
    encode_lgdp,
    encode_pb,
    jobshop_instance,
    jobshop_problem,
    smt_rat,
    strip_packing_instance,
    strip_packing_problem,
)


def test_splitmix_reference_values():
    # published first outputs for seed 0
    r = SplitMix64(0)
    assert r.next_u64() == 0xE220A8397B1DCDAF
    assert r.next_u64() == 0x6E789E6AA1B965F4


def test_splitmix_streams_are_reproducible():
    a = [SplitMix64(99).next_u64() for _ in range(4)]
    b = [SplitMix64(99).next_u64() for _ in range(4)]
    assert a != [SplitMix64(100).next_u64() for _ in range(4)]
    assert a == b


def test_splitmix_helpers_stay_in_range():
    r = SplitMix64(7)
    for _ in range(200):
        assert 2 <= r.randint(2, 5) <= 5


def test_smt_rat_forms():
    assert smt_rat(Fraction(3)) == "3"
    assert smt_rat(Fraction(1, 2)) == "(/ 1 2)"
    assert smt_rat(Fraction(-7, 3)) == "(- (/ 7 3))"
    assert smt_rat(Fraction(-4)) == "(- 4)"


# -- structured encoders -----------------------------------------------------


def test_ldp_disjunction_choice():
    # (cost >= 3 or cost >= 5) and cost >= x and (x >= 1 or x >= 2)
    prob = encode_ldp(
        ["cost", "x"],
        "cost",
        [
            [({"cost": 1}, ">=", 3), ({"cost": 1}, ">=", 5)],
            [({"cost": 1, "x": -1}, ">=", 0)],
            [({"x": 1}, ">=", 1), ({"x": 1}, ">=", 2)],
        ],
        lb=0,
        ub=10,
    )
    for schema in ("offline", "inline"):
        out = solve(prob, OmtConfig(schema=schema))
        assert out.status == "optimum"
        assert out.value == 3 and out.attained


def test_ldp_and_lgdp_name_a_missing_cost_or_coefficient():
    triple = ({"x": 1}, "<=", 1)
    for encode, wrap in ((encode_ldp, lambda t: [[t]]), (encode_lgdp, lambda t: [[[t]]])):
        with pytest.raises(ValueError, match="'c' is not in variables"):
            encode(["x"], "c", wrap(triple))
        with pytest.raises(ValueError, match="'y' is not in variables"):
            encode(["x"], "x", wrap(({"y": 1}, "<=", 1)))


def test_lgdp_indicators_guard_alternatives():
    prob = encode_lgdp(
        ["cost", "x"],
        "cost",
        [
            [
                [({"cost": 1}, ">=", 3), ({"cost": 1, "x": -1}, ">=", 0)],
                [({"cost": 1}, ">=", 5)],
            ],
            [[({"x": 1}, ">=", 2)]],
        ],
        lb=0,
        ub=10,
        exclusive=True,
    )
    assert prob.formula.prop("y0_0") is not None
    assert prob.formula.prop("y1_0") is not None
    for schema in ("offline", "inline"):
        out = solve(prob, OmtConfig(schema=schema))
        assert out.status == "optimum"
        assert out.value == 3 and out.attained


def test_lgdp_exclusive_adds_pairwise_blocking():
    # indicators only imply their constraints, so exclusivity restricts
    # indicator patterns without changing the reachable optimum
    base = dict(
        variables=["cost"],
        cost="cost",
        disjunctions=[
            [
                [({"cost": 1}, ">=", 1)],
                [({"cost": 1}, ">=", 0)],
            ]
        ],
        lb=0,
        ub=10,
    )
    loose = encode_lgdp(**base)
    strict = encode_lgdp(**base, exclusive=True)
    assert len(strict.formula.clauses) == len(loose.formula.clauses) + 1
    y0 = strict.formula.prop("y0_0")
    y1 = strict.formula.prop("y0_1")
    assert sorted([-y0, -y1]) in [sorted(c) for c in strict.formula.clauses]
    assert solve(loose, OmtConfig()).value == 0
    assert solve(strict, OmtConfig()).value == 0


def test_pb_weighted_selection():
    # clauses (b1 or b2), (b2 or b3), (not b1 or not b2); weights 3, 1, 4
    prob = encode_pb(3, [[1, 2], [2, 3], [-1, -2]], [3, 1, 4])
    for schema in ("offline", "inline"):
        out = solve(prob, OmtConfig(schema=schema))
        assert out.status == "optimum"
        assert out.value == 1 and out.attained
        # contribution variables decode the chosen set
        assert out.model["w2"] == 1
        assert out.model["w1"] == 0


def test_pb_zero_weight_and_forced_true():
    prob = encode_pb(2, [[1], [2]], [0, 5])
    out = solve(prob, OmtConfig())
    assert out.value == 5


def test_pb_bounds_every_contribution():
    # one unit clause for each end of each contribution's range [0, weight]
    f = encode_pb(2, [[1, 2]], [3, 0]).formula
    units = {(f.atom_of(abs(c[0])), c[0] > 0) for c in f.clauses if len(c) == 1}
    for name, weight in (("w1", 3), ("w2", 0)):
        w = f.rat_names.index(name)
        assert normalize_atom({w: 1}, 0, ">=") in units, name
        assert normalize_atom({w: 1}, -weight, "<=") in units, name


def _small_pb(seed: int):
    """A ``random_pb`` draw with 8-12 Booleans, about a quarter of the
    weights zeroed, and clause ratios up to 6, so that some draws are
    unsat."""
    rng = SplitMix64(1000 + seed)
    n, clauses, weights = random_pb(seed, rng.randint(8, 12), (2.0, 3.5, 4.5, 6.0)[seed % 4])
    return n, clauses, [0 if rng.randint(0, 3) == 0 else w for w in weights]


def test_pb_optima_match_brute_force():
    draws = {"unsat": 0, "zero weight": 0}
    for seed in range(40):
        n, clauses, weights = _small_pb(seed)
        ok = cnf_rows(n, clauses)
        table = truth_table(n).astype(bool)
        costs = table @ np.array(weights)
        draws["unsat"] += not ok.any()
        draws["zero weight"] += 0 in weights
        prob = encode_pb(n, clauses, weights)
        for schema in ("offline", "inline"):
            for search in ("linear", "binary"):
                out = solve(prob, OmtConfig(schema=schema, search=search))
                where = (seed, schema, search)
                if not ok.any():
                    assert (out.status, out.value) == ("unsat", sum(weights) + 1), where
                    continue
                assert (out.status, out.value, out.attained) == ("optimum", costs[ok].min(), True), where
                # the witness decodes: each contribution is 0 or its weight,
                # they sum to the cost, and some assignment that switches on
                # exactly the weighted Booleans read off satisfies the clauses
                w = [out.model[f"w{i + 1}"] for i in range(n)]
                assert all(wi in (0, weights[i]) for i, wi in enumerate(w)), where
                assert out.model["cost"] == sum(w) == out.value, where
                fits = ok.copy()
                for i, weight in enumerate(weights):
                    if weight:
                        fits &= table[:, i] == (w[i] == weight)
                assert fits.any(), where
    assert draws["unsat"] >= 3 and draws["zero weight"] >= 20, draws


def test_pb_validation():
    # the messages are the reference encoder's
    for args in ((2, [], [1]), (1, [], [-2]), (1, [[2]], [1]), (2, [[1, 0]], [1, 1])):
        messages = []
        for encode in (encode_pb, reference_encode_pb):
            with pytest.raises(ValueError) as exc:
                encode(*args)
            messages.append(str(exc.value))
        assert messages[0] == messages[1], args


@pytest.mark.parametrize(
    "clauses, weights, num_bools",
    [
        ([[1.5]], [1, 1], 2),
        ([["1"]], [1, 1], 2),
        ([[None]], [1, 1], 2),
        ([[True]], [1, 1], 2),
        ([[1, -2.0]], [1, 1], 2),
        ([[1]], [float("inf"), 1], 2),
        ([[1]], [1, float("-inf")], 2),
        ([[1]], [float("nan"), 1], 2),
        ([[1]], [None, 1], 2),
        # the Boolean count: a float, a bool, a negative int, a string
        ([[1]], [1, 1], 2.0),
        ([[1]], [1], True),
        ([], [], -1),
        ([[1]], [1, 1], "2"),
    ],
)
def test_pb_rejects_non_int_literals_and_weights_without_a_finite_value(clauses, weights, num_bools):
    with pytest.raises(ValueError):
        encode_pb(num_bools, clauses, weights)


def test_encode_pb_matches_the_reference():
    """The atoms built in normal form give the same problem as the
    reference, which sends each one through ``normalize_atom``: clauses,
    kinds, every atom field with its type, names, cost and range."""
    inputs = [(random_pb(seed), {}) for seed in range(20)]
    clauses = [[1, -2], [2, 3], [-1, -3, 2]]
    for weights in ([0, 3, 1], [Fraction(3, 2), 1, 2], [Fraction(5, 2), 4, 1], [7.5, 2, 0], [0, 0, 0]):
        inputs.append(((3, clauses, weights), {}))
    inputs.append(((3, clauses, [1, Fraction(1, 3), 2]), {"lb": 1, "ub": Fraction(7, 2)}))
    for args, kwargs in inputs:
        assert typed_digest(encode_pb(*args, **kwargs)) == typed_digest(reference_encode_pb(*args, **kwargs)), args


# -- generators --------------------------------------------------------------


def test_strip_text_is_deterministic_per_seed():
    t1, m1 = strip_packing_instance(4, Fraction(3, 2), 11)
    t2, m2 = strip_packing_instance(4, Fraction(3, 2), 11)
    t3, _ = strip_packing_instance(4, Fraction(3, 2), 12)
    assert t1 == t2
    assert m1 == m2
    assert t1 != t3


@pytest.mark.parametrize("seed", ["1", 1.5, True, None])
def test_generators_reject_a_seed_that_is_not_an_int(seed):
    with pytest.raises(ValueError, match="seed"):
        strip_packing_instance(2, 1, seed)
    with pytest.raises(ValueError, match="seed"):
        jobshop_instance(2, 2, seed)


def test_generators_take_every_int_seed_modulo_two_to_the_64():
    """A negative or a wide seed is reduced to 64 bits; only the header
    comment that echoes the seed differs."""
    for make in (lambda s: strip_packing_instance(3, 1, s), lambda s: jobshop_instance(2, 2, s)):
        for seed in (-1, 2**64 + 5):
            text, wrapped = make(seed)[0], make(seed % 2**64)[0]
            assert text.split("\n", 1)[1] == wrapped.split("\n", 1)[1]


def test_strip_meta_matches_problem():
    prob, meta = strip_packing_problem(3, 1, 5)
    assert meta["n"] == 3 and meta["width"] == 1 and meta["seed"] == 5
    assert len(meta["pieces"]) == 3
    assert prob.lb == 0
    assert prob.formula.rat_names[prob.cost] == "length"
    names = prob.formula.rat_names
    assert "x0" in names and "y2" in names


def test_strip_optimum_and_layout():
    prob, meta = strip_packing_problem(4, 1, 2)
    want = strip_oracle(meta)
    assert want <= meta["ub"]
    out = solve(prob, OmtConfig(schema="inline", search="binary"))
    assert out.status == "optimum"
    assert out.value == want and out.attained
    assert strip_layout_ok(meta, out.model)


def test_jobshop_text_is_deterministic_per_seed():
    t1, _ = jobshop_instance(3, 2, 4)
    t2, _ = jobshop_instance(3, 2, 4)
    t3, _ = jobshop_instance(3, 2, 5)
    assert t1 == t2
    assert t1 != t3


def test_jobshop_meta_matches_problem():
    prob, meta = jobshop_problem(3, 2, 0)
    assert meta["jobs"] == 3 and meta["machines"] == 2
    assert len(meta["durations"]) == 3
    assert all(len(row) == 2 for row in meta["durations"])
    # prefix sums include the full-length total per job
    for i, row in enumerate(meta["durations"]):
        assert meta["prefix"][i][-1] == sum(row)
    assert prob.formula.rat_names[prob.cost] == "makespan"


def test_jobshop_optimum_and_schedule():
    prob, meta = jobshop_problem(3, 2, 1)
    want = jobshop_oracle(meta)
    out = solve(prob, OmtConfig(schema="offline", search="binary"))
    assert out.status == "optimum"
    assert out.value == want and out.attained
    # the makespan covers every job's full run
    for i in range(meta["jobs"]):
        start = out.model[f"s{i}"]
        assert start >= 0
        assert start + meta["prefix"][i][-1] <= out.model["makespan"]


def test_jobshop_single_job_has_no_contention():
    prob, meta = jobshop_problem(1, 3, 9)
    out = solve(prob, OmtConfig())
    assert out.value == sum(meta["durations"][0])
