"""Structured encoders, instance generators and their reproducibility."""

from fractions import Fraction

import pytest

from helpers import jobshop_oracle, strip_layout_ok, strip_oracle
from omtq import OmtConfig, solve
from omtq.encodings import (
    SplitMix64,
    approx_sqrt,
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


def test_approx_sqrt():
    assert approx_sqrt(4) == 2
    assert approx_sqrt(9) == 3
    s3 = approx_sqrt(3)
    assert s3 * s3 <= 3 < (s3 + Fraction(1, 10000)) ** 2


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


def test_pb_validation():
    with pytest.raises(ValueError):
        encode_pb(2, [], [1])
    with pytest.raises(ValueError):
        encode_pb(1, [], [-2])
    with pytest.raises(ValueError):
        encode_pb(1, [[2]], [1])


# -- generators --------------------------------------------------------------


def test_strip_text_is_deterministic_per_seed():
    t1, m1 = strip_packing_instance(4, Fraction(3, 2), 11)
    t2, m2 = strip_packing_instance(4, Fraction(3, 2), 11)
    t3, _ = strip_packing_instance(4, Fraction(3, 2), 12)
    assert t1 == t2
    assert m1 == m2
    assert t1 != t3


def test_strip_meta_matches_problem():
    prob, meta = strip_packing_problem(3, 1, 5)
    assert meta["n"] == 3 and meta["width"] == 1 and meta["seed"] == 5
    assert len(meta["pieces"]) == 3
    assert prob.lb == 0
    assert prob.cost_name == "length"
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
    assert prob.cost_name == "makespan"


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
