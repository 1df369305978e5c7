"""Exact rational and delta-rational arithmetic."""

from fractions import Fraction

import pytest

from omtq.arith import (
    EQ,
    LE,
    LT,
    DeltaRational,
    eps_part,
    format_rat,
    materialize_epsilon,
    parse_rat,
    real_part,
)
from omtq.formula import normalize_atom


def test_parse_rat_accepts_the_printed_form():
    for q in (Fraction(0), Fraction(-3), Fraction(22, 7), Fraction(-5, 8)):
        assert parse_rat(format_rat(q)) == q
    assert parse_rat(" 3/4 ") == Fraction(3, 4)
    assert parse_rat("2.5") == Fraction(5, 2)


def test_parse_rat_rejects_junk():
    with pytest.raises(ValueError):
        parse_rat("seven")
    with pytest.raises(ValueError):
        parse_rat("1/0")
    for text in ("1.-5", "1.+5", "-1.-5", "-.5", "1.5_0"):
        with pytest.raises(ValueError):
            parse_rat(text)


def test_parse_rat_strips_only_smtlib_whitespace():
    assert parse_rat(" 3 ") == 3
    assert parse_rat("\t\r\n-7/2\n") == Fraction(-7, 2)
    for text in ("\x0b3", "\x0c7/2", "3\x0b", "\u00a05"):
        with pytest.raises(ValueError):
            parse_rat(text)


def test_format_rat():
    assert format_rat(Fraction(3)) == "3"
    assert format_rat(Fraction(-7, 2)) == "-7/2"


def test_delta_ordering_is_lexicographic():
    a = DeltaRational(1, 0)
    b = DeltaRational(1, 1)
    c = DeltaRational(1, -1)
    d = DeltaRational(2, -5)
    assert c < a < b < d
    assert a == DeltaRational(1)
    assert a != b
    assert hash(a) == hash(DeltaRational(1, 0))


def test_delta_arithmetic():
    a = DeltaRational(3, 1)
    b = DeltaRational(1, -2)
    assert a + b == DeltaRational(4, -1)
    assert a - b == DeltaRational(2, 3)
    assert -a == DeltaRational(-3, -1)
    assert a * Fraction(1, 2) == DeltaRational(Fraction(3, 2), Fraction(1, 2))
    assert _substitute(a, Fraction(1, 8)) == Fraction(25, 8)
    assert DeltaRational(1) == 1 and type(DeltaRational(1)) is int
    assert DeltaRational(Fraction(6, 3), Fraction(0)) == 2
    assert type(DeltaRational(Fraction(6, 3), Fraction(0))) is int


def _substitute(v, epsilon) -> Fraction:
    """The concrete value of ``v`` with delta fixed to ``epsilon``."""
    return real_part(v) + eps_part(v) * Fraction(epsilon)


# int and Fraction values, each with a zero and a non-zero eps; the
# reals repeat so that comparisons also tie on real and fall to eps
DELTA_INPUTS = [
    (real, eps)
    for real in (0, 2, Fraction(2), Fraction(-3, 4))
    for eps in (0, Fraction(0), 1, Fraction(-1, 3))
]
SCALARS = [0, 1, -2, Fraction(3, 5), Fraction(-7, 2), Fraction(4, 2)]


def _normal(q) -> bool:
    """The number form: an int iff the value is integral, else a
    Fraction with denominator > 1."""
    if type(q) is int:
        return True
    return type(q) is Fraction and q.denominator > 1


def _normal_value(v) -> bool:
    """The value form: a plain number in normal form, or a DeltaRational
    with a nonzero eps whose fields are in normal form."""
    if type(v) is DeltaRational:
        return _normal(v.real) and _normal(v.eps) and v.eps != 0
    return _normal(v)


def _check_value(v, real, eps, operands):
    """``v`` is real + eps * delta; in normal form when a DeltaRational
    operator made it, a plain number exactly when eps is 0."""
    assert (real_part(v), eps_part(v)) == (real, eps)
    if not any(type(x) is DeltaRational for x in operands):
        return  # int and Fraction arithmetic is Python's own
    assert _normal_value(v), v
    assert (type(v) is DeltaRational) == (eps != 0), v
    if eps == 0:
        assert hash(v) == hash(Fraction(real))
    else:
        assert hash(v) == hash((v.real, v.eps)) == hash((Fraction(real), Fraction(eps)))


def test_delta_rational_matches_pair_arithmetic():
    """Every operator on values against (real, eps) pairs, with an int, a
    Fraction or a DeltaRational on either side; results are in normal
    form, a plain number exactly when eps is 0.  A Fraction on the left
    of a DeltaRational takes Fraction's reflected-operation path."""
    for r1, e1 in DELTA_INPUTS:
        a = DeltaRational(r1, e1)
        assert _normal_value(a) and (type(a) is DeltaRational) == (e1 != 0), a
        _check_value(a, r1, e1, [a])
        _check_value(-a, -r1, -e1, [a])
        for k in SCALARS:
            _check_value(a * k, r1 * k, e1 * k, [a])
            _check_value(k * a, r1 * k, e1 * k, [a])
        for r2, e2 in DELTA_INPUTS:
            b = DeltaRational(r2, e2)
            _check_value(a + b, r1 + r2, e1 + e2, [a, b])
            _check_value(a - b, r1 - r2, e1 - e2, [a, b])
            pa, pb = (r1, e1), (r2, e2)
            assert (a < b) == (pa < pb)
            assert (a <= b) == (pa <= pb)
            assert (a > b) == (pa > pb)
            assert (a >= b) == (pa >= pb)
            assert (a == b) == (pa == pb)
            assert (a != b) == (pa != pb)


def _atom(coeffs, const, op):
    atom, pol = normalize_atom(coeffs, const, op)
    return atom, pol


def test_materialize_epsilon_weak_bounds_allow_one():
    # x <= 5 at x = 3: any epsilon works, capped at 1
    atom, pol = _atom({0: 1}, -5, LE)
    val = {0: DeltaRational(3)}
    assert materialize_epsilon(val, [(atom, pol)]) == 1


def test_materialize_epsilon_strict_bound_halves_the_slack():
    # at x = delta the weak bound x <= 1/2 tolerates the full half,
    # the strict one x < 1/2 only half of that
    val = {0: DeltaRational(0, 1)}
    weak, wp = _atom({0: 1}, Fraction(-1, 2), LE)
    strict, sp = _atom({0: 1}, Fraction(-1, 2), LT)
    assert materialize_epsilon(val, [(weak, wp)]) == Fraction(1, 2)
    eps = materialize_epsilon(val, [(strict, sp)])
    assert eps == Fraction(1, 4)
    assert _substitute(val[0], eps) < Fraction(1, 2)


def test_materialize_epsilon_is_exact_on_integral_fields():
    # at x = 2*delta with int fields: eps0 is 1/2 for x <= 1 and 1/4 for
    # x < 1, each a Fraction (1 / 2 on two ints would be a float)
    val = {0: DeltaRational(0, 2)}
    weak, wp = _atom({0: 1}, -1, LE)
    strict, sp = _atom({0: 1}, -1, LT)
    for literal, want in (((weak, wp), Fraction(1, 2)), ((strict, sp), Fraction(1, 4))):
        eps = materialize_epsilon(val, [literal])
        assert type(eps) is Fraction and eps == want


def test_materialize_epsilon_receding_witness_is_unconstrained():
    # x < 5 at x = 5 - delta moves away from the bound as epsilon grows
    atom, pol = _atom({0: 1}, -5, LT)
    val = {0: DeltaRational(5, -1)}
    assert materialize_epsilon(val, [(atom, pol)]) == 1


def test_materialize_epsilon_scales_with_slack():
    # x < 1/8 at x = delta: epsilon must stay below 1/8
    atom, pol = _atom({0: 1}, Fraction(-1, 8), LT)
    val = {0: DeltaRational(0, 1)}
    eps = materialize_epsilon(val, [(atom, pol)])
    assert 0 < eps < Fraction(1, 8)
    assert _substitute(val[0], eps) < Fraction(1, 8)


def test_materialize_epsilon_negated_literal():
    # not (x <= 2) means x > 2; x = 2 + delta needs every positive epsilon
    atom, pol = _atom({0: 1}, -2, LE)
    val = {0: DeltaRational(2, 1)}
    eps = materialize_epsilon(val, [(atom, not pol)])
    assert eps > 0
    assert _substitute(val[0], eps) > 2


def test_materialize_epsilon_equality_must_hold_symbolically():
    atom, pol = _atom({0: 1}, -2, EQ)
    ok = {0: DeltaRational(2)}
    assert materialize_epsilon(ok, [(atom, pol)]) == 1
    broken = {0: DeltaRational(2, 1)}
    with pytest.raises(ValueError):
        materialize_epsilon(broken, [(atom, pol)])


def test_materialize_epsilon_rejects_violated_literal():
    atom, pol = _atom({0: 1}, -5, LE)
    val = {0: DeltaRational(6)}
    with pytest.raises(ValueError):
        materialize_epsilon(val, [(atom, pol)])
