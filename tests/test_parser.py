"""Textual input format."""

from fractions import Fraction

import pytest

from omtq.arith import EQ
from omtq.parser import MAX_DEPTH, ParseError, parse_problem, parse_sexprs

EX1 = """
(set-logic QF_LRA)
(declare-fun cost () Real)
(declare-fun a () Real)
(set-info :lb 0)
(set-info :ub 16)
(assert (>= cost (+ a 15)))
(assert (>= a 0))
(minimize cost)
(check-sat)
"""


def test_sexpr_reader():
    nodes = parse_sexprs("(a (b 1) c) ; trailing comment\n()")
    assert len(nodes) == 2
    assert nodes[0].head() == "a"
    assert nodes[0].items[1].items[1].text == "1"
    assert nodes[1].items == []


def test_sexpr_reader_reports_imbalance():
    with pytest.raises(ParseError, match="unclosed"):
        parse_sexprs("(assert (> x 0)")
    with pytest.raises(ParseError, match="unbalanced"):
        parse_sexprs("(assert x))")


def test_reference_instance():
    prob = parse_problem(EX1)
    assert prob.cost_name == "cost"
    assert prob.lb == 0
    assert prob.ub == 16
    assert prob.formula.rat_names == ["cost", "a"]
    # two unit clauses over two distinct atoms
    assert sorted(len(c) for c in prob.formula.clauses) == [1, 1]


def test_arithmetic_operators():
    prob = parse_problem(
        """
        (declare-fun x () Real)
        (declare-fun y () Real)
        (assert (<= (+ (* 2 x) (- y) (/ x 4) 1.5) (- 7 (* y 3))))
        (minimize x)
        """
    )
    (clause,) = prob.formula.clauses
    (lit,) = clause
    atom = prob.formula.atom_of(abs(lit))
    # 2x - y + x/4 + 3/2 <= 7 - 3y  ==>  (9/4)x + 2y - 11/2 <= 0, scaled by 4/9
    assert atom.eval_concrete({0: 0, 1: 0})
    assert atom.eval_concrete({0: Fraction(22, 9), 1: 0})
    assert not atom.eval_concrete({0: 3, 1: 0})


def test_boolean_structure_and_props():
    prob = parse_problem(
        """
        (declare-fun x () Real)
        (declare-fun p () Bool)
        (declare-fun q () Bool)
        (assert (or p (and (not q) (> x 1))))
        (assert (=> p q))
        (assert (= p q))
        (minimize x)
        """
    )
    assert prob.formula.prop("p") is not None
    assert len(prob.formula.clauses) >= 3


def test_equality_between_reals_is_an_atom():
    prob = parse_problem(
        """
        (declare-fun x () Real)
        (declare-fun y () Real)
        (assert (= x y))
        (minimize x)
        """
    )
    (clause,) = prob.formula.clauses
    atom = prob.formula.atom_of(abs(clause[0]))
    assert atom.rel == EQ


def test_negative_and_fractional_set_info():
    prob = parse_problem(
        """
        (declare-fun x () Real)
        (set-info :lb (- 3))
        (set-info :ub (/ 7 2))
        (assert (>= x 0))
        (minimize x)
        """
    )
    assert prob.lb == -3
    assert prob.ub == Fraction(7, 2)


def test_unknown_identifier_position():
    with pytest.raises(ParseError) as info:
        parse_problem("(declare-fun x () Real)\n(assert (> y 0))\n(minimize x)")
    assert info.value.line == 2
    assert "unknown identifier" in str(info.value)


@pytest.mark.parametrize("literal", ["1.-5", "1.+5"])
def test_malformed_decimal_is_a_parse_error(literal):
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_problem(f"(declare-fun x () Real)(assert (<= x {literal}))(minimize x)")


@pytest.mark.parametrize("literal", ["1e3", "1_0", ".5"])
def test_numeral_outside_smtlib_is_a_parse_error(literal):
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_problem(f"(declare-fun x () Real)(assert (>= x {literal}))(minimize x)")


def test_sort_errors():
    with pytest.raises(ParseError, match="used in a term"):
        parse_problem(
            "(declare-fun p () Bool)(declare-fun x () Real)"
            "(assert (> p 0))(minimize x)"
        )
    with pytest.raises(ParseError, match="used as a Bool"):
        parse_problem(
            "(declare-fun x () Real)(assert (or x))(minimize x)"
        )
    with pytest.raises(ParseError, match="unsupported sort"):
        parse_problem("(declare-fun n () Int)(minimize n)")


def test_nonlinear_rejected():
    with pytest.raises(ParseError, match="nonlinear"):
        parse_problem(
            "(declare-fun x () Real)(assert (> (* x x) 1))(minimize x)"
        )
    with pytest.raises(ParseError, match="non-constant"):
        parse_problem(
            "(declare-fun x () Real)(assert (> (/ 1 x) 1))(minimize x)"
        )
    with pytest.raises(ParseError, match="division by zero"):
        parse_problem(
            "(declare-fun x () Real)(assert (> (/ x 0) 1))(minimize x)"
        )


def test_declaration_errors():
    with pytest.raises(ParseError, match="redeclaration"):
        parse_problem(
            "(declare-fun x () Real)(declare-fun x () Bool)(minimize x)"
        )
    with pytest.raises(ParseError, match="zero-arity"):
        parse_problem("(declare-fun f (Real) Real)(minimize f)")


def test_minimize_errors():
    with pytest.raises(ParseError, match="no 'minimize'"):
        parse_problem("(declare-fun x () Real)(assert (> x 0))")
    with pytest.raises(ParseError, match="duplicate"):
        parse_problem(
            "(declare-fun x () Real)(minimize x)(minimize x)"
        )
    with pytest.raises(ParseError, match="not a declared Real"):
        parse_problem("(declare-fun p () Bool)(minimize p)")


def test_unknown_command():
    with pytest.raises(ParseError, match="unknown command"):
        parse_problem("(frobnicate)")


def test_empty_range_rejected_at_parse_time():
    with pytest.raises(ParseError, match="empty cost range"):
        parse_problem(
            "(declare-fun x () Real)(set-info :lb 4)(set-info :ub 4)"
            "(assert (> x 0))(minimize x)"
        )


def _nest(pairs, leaf, levels):
    """``leaf`` inside ``levels`` applications, cycling through the
    (opening, closing) text pairs."""
    chosen = [pairs[i % len(pairs)] for i in range(levels)]
    return "".join(o for o, _ in chosen) + leaf + "".join(c for _, c in reversed(chosen))


def _depth(text):
    depth = deepest = 0
    for ch in text:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        deepest = max(deepest, depth)
    return deepest


# assertion bodies nesting ``levels`` deep, one per connective and operator
NESTINGS = {
    "and": lambda levels: _nest([("(and p ", ")")], "p", levels),
    "or": lambda levels: _nest([("(or (= x 1) ", ")")], "(= x 2)", levels - 1),
    "not": lambda levels: _nest([("(not ", ")")], "(= x 1)", levels - 1),
    "=>": lambda levels: _nest([("(=> p (= x 1) ", ")")], "(= x 2)", levels - 1),
    "bool =": lambda levels: _nest([("(= p ", ")")], "(= x 1)", levels - 1),
    "mixed": lambda levels: _nest(
        [("(= p ", ")"), ("(or p ", ")"), ("(not ", ")"), ("(and (= x 1) ", ")"), ("(=> ", " p)")],
        "(= x 2)",
        levels - 1,
    ),
    "arithmetic": lambda levels: "(<= "
    + _nest([("(+ 1 ", ")"), ("(- ", ")"), ("(* 2 ", ")"), ("(/ ", " 2)")], "x", levels - 1)
    + " 0)",
}


@pytest.mark.parametrize("shape", sorted(NESTINGS))
def test_every_connective_parses_nested_to_the_cap(shape):
    def text(levels):
        body = NESTINGS[shape](levels)
        return (
            "(declare-fun cost () Real)(declare-fun x () Real)(declare-fun p () Bool)"
            f"(assert {body})(minimize cost)"
        )

    at_cap = text(MAX_DEPTH - 1)  # the assert adds a level
    assert _depth(at_cap) == MAX_DEPTH
    assert parse_problem(at_cap).formula.clauses
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_problem(text(MAX_DEPTH))


def test_nesting_past_the_cap_is_a_parse_error():
    text = "(declare-fun p () Bool)(assert " + "(and p " * 3000 + "p" + ")" * 3000 + ")"
    with pytest.raises(ParseError, match="nesting deeper than") as info:
        parse_problem(text)
    # reported at the first parenthesis past the cap
    assert (info.value.line, info.value.col) == (1, 32 + 7 * (MAX_DEPTH - 1))
