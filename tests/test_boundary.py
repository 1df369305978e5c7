"""One table for the numbers a library caller hands in.

Every numeric parameter of the library's entry points takes each kind of
value below.  An ``int``, a ``Fraction`` or a finite float gives the same
result as its exact ``Fraction``; any other value raises ValueError,
never TypeError or ZeroDivisionError.  Where None means "absent" (a range
bound, a timeout) it is accepted, and a timeout also takes +-inf, which
acts as +-10**400 does.
"""

from decimal import Decimal
from fractions import Fraction
from math import inf, nan

import pytest

from helpers import typed_digest
from omtq import OmtConfig, crosscheck, solve
from omtq.encodings import encode_ldp, encode_pb, jobshop_instance, strip_packing_instance
from omtq.formula import BAtom, CnfFormula, OmtProblem, cnfize, normalize_atom
from omtq.parser import parse_problem

KINDS = {
    "int": 3,
    "Fraction": Fraction(7, 2),
    "float": 0.75,
    "inf": inf,
    "-inf": -inf,
    "nan": nan,
    "True": True,
    "False": False,
    "str": "3",
    "str-zero": "0",
    "None": None,
    "Decimal": Decimal(3),
    "list": [],
}

# the value each valid kind must act as
EXACT = {"int": Fraction(3), "Fraction": Fraction(7, 2), "float": Fraction(3, 4)}
OPTIONAL = {**EXACT, "None": None}
TIMEOUT = {**OPTIONAL, "inf": 10**400, "-inf": -(10**400)}

TINY = parse_problem("(declare-fun cost () Real)(assert (>= cost 1))(minimize cost)")
TINY_OUTCOME = solve(TINY)


def _marked(obj):
    """``obj`` with each float in its tuples, lists and dicts marked, so
    a result that holds a float never equals one that holds its exact
    value."""
    if type(obj) is float:
        return ("float", obj)
    if isinstance(obj, (tuple, list)):
        return tuple(_marked(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _marked(x) for k, x in obj.items()}
    return obj


def _atom(coeffs, const):
    atom, polarity = normalize_atom(coeffs, const, "<=")
    return atom.coeffs, atom.const, atom.rel, polarity


def _leaf(const):
    f = CnfFormula()
    x = f.new_rat_var("x")
    cnfize(BAtom({x: 1}, const, "<="), f)
    return typed_digest(OmtProblem(f, x))


def _range(lb, ub):
    problem = OmtProblem(TINY.formula, TINY.cost, lb, ub)
    return problem.lb, problem.ub, solve(problem)


def _ldp(coeff, rhs):
    return typed_digest(encode_ldp(["x", "c"], "c", [[({"x": coeff, "c": -1}, "<=", rhs)], [({"x": 1}, ">=", 1)]]))


def _crosscheck(timeout):
    try:
        return crosscheck(TINY, TINY_OUTCOME, timeout=timeout)
    except TimeoutError:
        return "interrupted"


# parameter -> (the call, the kinds it takes with the value each acts as)
SITES = {
    "normalize_atom-coefficient": (lambda q: _atom({0: q, 1: 1}, 1), EXACT),
    "normalize_atom-constant": (lambda q: _atom({0: 2}, q), EXACT),
    "BAtom-constant": (_leaf, EXACT),
    "OmtProblem-lb": (lambda q: _range(q, None), OPTIONAL),
    "OmtProblem-ub": (lambda q: _range(None, q), OPTIONAL),
    "encode_pb-weight": (lambda q: typed_digest(encode_pb(2, [[1, 2]], [q, 1])), EXACT),
    "encode_ldp-coefficient": (lambda q: _ldp(q, 1), EXACT),
    "encode_ldp-rhs": (lambda q: _ldp(1, q), EXACT),
    "strip_packing_instance-width": (lambda q: strip_packing_instance(2, q, 1), EXACT),
    "OmtConfig-timeout": (lambda q: solve(TINY, OmtConfig(timeout=q)), TIMEOUT),
    "crosscheck-timeout": (_crosscheck, TIMEOUT),
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("site", SITES)
def test_each_numeric_parameter_takes_exact_numbers_only(site, kind):
    call, valid = SITES[site]
    value = KINDS[kind]
    if kind in valid:
        assert _marked(call(value)) == _marked(call(valid[kind]))
    else:
        with pytest.raises(ValueError):
            call(value)


@pytest.mark.parametrize("timeout", ["1", True, "abc"])
def test_crosscheck_refuses_a_timeout_that_is_not_seconds(timeout):
    """``crosscheck`` takes a timeout by ``OmtConfig``'s rule, so it
    neither reads a ``str`` as seconds nor a ``bool`` as 0 or 1, and
    refuses ``'abc'`` with the rule's own message."""
    with pytest.raises(ValueError, match="is not a number of seconds"):
        crosscheck(TINY, TINY_OUTCOME, timeout=timeout)


@pytest.mark.parametrize(
    "generate, args",
    [
        (strip_packing_instance, (0, 1, 1)),
        (strip_packing_instance, (2, -1, 1)),
        (strip_packing_instance, (2, 0, 1)),
        (strip_packing_instance, (2, "1", 1)),
        (strip_packing_instance, (2, True, 1)),
        (strip_packing_instance, (2.0, 1, 1)),
        (jobshop_instance, (0, 2, 1)),
        (jobshop_instance, (2, 0, 1)),
        (jobshop_instance, (True, 2, 1)),
    ],
    ids=["n-0", "width-minus-1", "width-0", "width-str", "width-True", "n-float", "jobs-0", "machines-0", "jobs-True"],
)
def test_generators_refuse_sizes_that_make_no_instance(generate, args):
    with pytest.raises(ValueError):
        generate(*args)
