"""Textual input format."""

import re
import time
from fractions import Fraction

import pytest

from helpers import (
    FAMILIES,
    _reference_tokens,
    boolean_structure_text,
    eval_concrete,
    input_outcome,
    reference_parse_problem,
    reference_parse_sexprs,
    typed_digest,
)
from omtq import SplitMix64
from omtq.arith import _NUMERAL, EQ
from omtq.encodings import jobshop_instance, strip_packing_instance
from omtq.parser import MAX_DEPTH, ParseError, parse_problem, position, read_tree
from test_formula import PINNED_TEXTS

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
    toks, nodes = read_tree("(a (b 1) c) ; trailing comment\n()")
    assert toks == ["(", "a", "(", "b", "1", ")", "c", ")", "(", ")"]
    # an atom is its token index; a list is [open, close, item, ...]
    assert nodes == [[0, 7, 1, [2, 5, 3, 4], 6], [8, 9]]
    assert len(nodes) == 2
    assert toks[nodes[0][2]] == "a"
    assert toks[nodes[0][3][3]] == "1"
    assert nodes[1][2:] == []


def test_sexpr_nodes_carry_their_position():
    text = "; c\n\t(a\r\n  (b  12) c)"
    toks, (node,) = read_tree(text)
    assert (type(node), position(text, node[0]), toks[node[0]]) == (list, (2, 2), "(")
    a, inner, c = node[2:]
    assert (toks[a], position(text, a), type(a)) == ("a", (2, 3), int)
    assert (toks[inner[2]], position(text, inner[0])) == ("b", (3, 3))
    assert [(toks[n], position(text, n)[1]) for n in inner[2:]] == [("b", 4), ("12", 7)]
    assert (toks[c], position(text, c)) == ("c", (3, 11))
    # a list whose first item is a list has no head
    assert read_tree("(())")[1] == [[0, 3, [1, 2]]]


def test_sexpr_reader_reports_imbalance():
    with pytest.raises(ParseError, match="unclosed") as info:
        read_tree("(assert (> x 0)")
    assert str(info.value) == "1:1: unclosed '('"
    with pytest.raises(ParseError, match="unbalanced") as info:
        read_tree("(assert x))")
    assert str(info.value) == "1:11: unbalanced ')'"


def test_reference_instance():
    prob = parse_problem(EX1)
    assert prob.formula.rat_names[prob.cost] == "cost"
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
    assert eval_concrete(atom, {0: 0, 1: 0})
    assert eval_concrete(atom, {0: Fraction(22, 9), 1: 0})
    assert not eval_concrete(atom, {0: 3, 1: 0})


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


@pytest.mark.parametrize("literal", ["1/0", "-3/0", "+0/0", "007/000"])
@pytest.mark.parametrize("where", ["(assert (<= x {}))", "(set-info :ub {})", "(assert (<= (* {} x) 1))"])
def test_zero_denominator_numeral_is_a_division_by_zero(literal, where):
    """A p/0 numeral is refused at its token, as ``(/ 1 0)`` is, not
    reported as an unknown identifier."""
    text = "(declare-fun x () Real)\n  " + where.format(literal) + "(minimize x)"
    col = 3 + where.index("{}")  # 1-based, after the two-space indent
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == f"2:{col}: division by zero"


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


# -- quoted symbols and strings


def test_quoted_symbols_and_strings_are_single_atoms():
    toks, (info,) = read_tree('(set-info :source |a; b (c)|)')
    assert [toks[n] for n in info[2:]] == ["set-info", ":source", "|a; b (c)|"]
    toks, (info,) = read_tree('(set-info :status "sat ; x ""q"" )")')
    assert toks[info[4]] == '"sat ; x ""q"" )"'


@pytest.mark.parametrize(
    "header",
    ["(set-info :source |a; b|)\n", '(set-info :source "x ( y")\n'],
)
def test_header_with_quoted_delimiters_parses(header):
    prob = parse_problem(header + EX1 + '(set-info :status "sat ; x")')
    assert prob.formula.rat_names[prob.cost] == "cost"
    assert len(prob.formula.clauses) == 2


def test_positions_after_a_multi_line_quoted_token():
    text = (
        "(set-info :source |first line\n"
        "  second ) line ;\n"
        "last|) (declare-fun x () Real)\n"
        "(assert (> y 0))(minimize x)"
    )
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == "4:12: unknown identifier 'y'"
    _, nodes = read_tree(text)
    assert position(text, nodes[1][0]) == (3, 8)


def test_list_nodes_carry_their_source_span():
    text = '; c (\n\t(a\r\n  (b |x\ny| 12) "s\n" c) ; )\n()'
    _, nodes = read_tree(text)
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]

    def offset(i):
        line, col = position(text, i)
        return line_starts[line - 1] + col - 1

    def spans(node):
        if type(node) is int:
            return []
        span = text[offset(node[0]):offset(node[1]) + 1]
        return [span] + [s for item in node[2:] for s in spans(item)]

    assert [s for node in nodes for s in spans(node)] == [
        '(a\r\n  (b |x\ny| 12) "s\n" c)',
        "(b |x\ny| 12)",
        "()",
    ]


def test_quoted_and_plain_symbols_are_different_names():
    prob = parse_problem(
        "(declare-fun |x| () Real)(declare-fun x () Real)(assert (>= |x| x))(minimize |x|)"
    )
    assert prob.formula.rat_names == ["|x|", "x"]
    assert prob.formula.rat_names[prob.cost] == "|x|"


def test_unterminated_quote_reads_as_an_atom():
    toks, nodes = read_tree('(a |b c) "d')
    assert [toks[n] for n in nodes[0][2:]] == ["a", "|b", "c"]
    assert toks[nodes[1]] == '"d'


# inputs whose quoted tokens span lines or hold '(', ')' and ';', each
# followed by an error, with the message the reader printed when every
# token carried its position; the reference reader has no quoted tokens
DECLARE_X = "(declare-fun x () Real)"
QUOTED_ERRORS = [
    (DECLARE_X + "\n(set-info :source |a\n(b) ; c|)\n(assert (> y 0))(minimize x)",
     "4:12: unknown identifier 'y'"),
    (DECLARE_X + '(set-info :status "l1\n;(\n""q"")" ) (assert (> x |y\n)|))',
     "3:24: unknown identifier '|y\\n)|'"),
    ('"s\n(" )', "2:4: unbalanced ')'"),
    ("(set-info :a |x\ny|\n (assert", "3:2: unclosed '('"),
    ('(set-info :a "p\n;q") ' + "(" * (MAX_DEPTH + 1), "2:206: nesting deeper than 200 levels"),
    (DECLARE_X + "\n  |a (\nb;| (minimize x)", "2:3: expected a command, got '|a (\\nb;|'"),
    ("(declare-fun |p\nq;)| () Int)", "2:9: unsupported sort 'Int'"),
    ('(set-info :s "a""\n""b")\n(minimize "c\nd")',
     "3:11: minimize target '\"c\\nd\"' is not a declared Real"),
    (DECLARE_X + '(set-info :a |(\n;)|)(set-info :b "\n(""\n")\n\n (assert (or z))',
     "6:14: unknown identifier 'z'"),
    ('(set-info :a |;\n|)(set-info :b "(\n")  (assert (<= x 1))) ', "3:22: unbalanced ')'"),
]


@pytest.mark.parametrize("text, message", QUOTED_ERRORS)
def test_positions_after_quoted_tokens(text, message):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert str(info.value) == message


def test_a_long_blank_and_comment_tail_reads_fast():
    """A tail of 10^6 blanks and comments, some holding parentheses,
    reads in one pass; an error after it is placed past the tail."""
    unit = "  \t; (x) )(\r\n"
    tail = unit * (10**6 // len(unit))
    assert len(tail) >= 10**6 - len(unit)
    start = time.perf_counter()
    with_tail = parse_problem(EX1 + tail)
    with pytest.raises(ParseError) as info:
        parse_problem(EX1 + tail + " (frobnicate)")
    assert time.perf_counter() - start < 5.0
    assert typed_digest(with_tail) == typed_digest(parse_problem(EX1))
    line = EX1.count("\n") + tail.count("\n") + 1
    assert str(info.value) == f"{line}:2: unknown command 'frobnicate'"


# characters the reader's two token passes could tell apart: every ASCII
# character, and non-ASCII ones that str.split counts as blanks
SPLIT_PROBES = [chr(i) for i in range(128)] + ["\x85", "\xa0", "\u2028"]


def _reader_tokens(text):
    """Each significant token with its line and column, or the
    ``ParseError`` message."""
    try:
        toks, _ = read_tree(text)
    except ParseError as exc:
        return str(exc)
    return [(tok, *position(text, i)) for i, tok in enumerate(toks)]


def _reference_reader_tokens(text):
    try:
        reference_parse_sexprs(text)
    except ParseError as exc:
        return str(exc)
    return [(tok, line, col) for _, tok, line, col in _reference_tokens(text)]


@pytest.mark.parametrize("ch", SPLIT_PROBES, ids=lambda ch: f"U+{ord(ch):04X}")
def test_tokens_match_the_reference_around_any_character(ch):
    """Texts holding ``ch`` inside, before and after an atom read into
    the reference reader's tokens and positions, whichever pass reads
    them.  The reference has no quoted tokens, so each text holds one
    ``ch`` only, and a lone quote starts an atom."""
    for text in (f"(a {ch}bc\n d)", f"(a b{ch}c\n d)", f"(a bc{ch}\n d)"):
        assert _reader_tokens(text) == _reference_reader_tokens(text), repr(text)


# -- reserved names


@pytest.mark.parametrize("name", ["3", "007", "-1", "2.5", "1/2", "1/0"])
@pytest.mark.parametrize("sort", ["Real", "Bool"])
def test_numerals_cannot_be_declared(name, sort):
    with pytest.raises(ParseError) as info:
        parse_problem(f"(declare-fun c () Real)\n  (declare-fun {name} () {sort})(minimize c)")
    assert str(info.value) == f"2:16: cannot declare the numeral {name!r}"


@pytest.mark.parametrize("name", ["true", "false"])
def test_bool_constants_cannot_be_declared(name):
    with pytest.raises(ParseError) as info:
        parse_problem(f"(declare-fun {name} () Bool)(declare-fun c () Real)(minimize c)")
    assert str(info.value) == f"1:14: cannot declare the constant {name!r}"


def test_a_declared_numeral_cannot_shadow_the_constant():
    with pytest.raises(ParseError, match="1:14: cannot declare the numeral '3'"):
        parse_problem(
            "(declare-fun 3 () Real)(declare-fun c () Real)"
            "(assert (>= c 3))(assert (<= 3 0))(minimize c)"
        )


# -- lockstep with the reference input stage (tests/helpers.py)


def _family_texts():
    texts = [path.read_text() for path in sorted(FAMILIES.glob("*.smt2"))]
    assert len(texts) == 6
    return texts


LOCKSTEP_INPUTS = {
    "families": _family_texts,
    "strip": lambda: [
        strip_packing_instance(n, width, seed)[0]
        for n in range(2, 7)
        for width in (Fraction(1), Fraction(3, 2))
        for seed in (1, 2)
    ],
    "jobshop": lambda: [
        jobshop_instance(j, m, 1)[0] for j in range(2, 6) for m in range(2, 5)
    ],
    "pinned": lambda: PINNED_TEXTS,
    "boolean": lambda: [boolean_structure_text(seed) for seed in range(200)],
}


@pytest.mark.parametrize("group", sorted(LOCKSTEP_INPUTS))
def test_input_stage_matches_the_reference(group):
    for text in LOCKSTEP_INPUTS[group]():
        expected = input_outcome(reference_parse_problem, text)
        assert expected[0] == "ok"
        assert input_outcome(parse_problem, text) == expected


# inputs the reader or builder rejects, or accepts only barely, each
# compared with the reference by its outcome: the typed digest, or the
# ParseError and its line:column message
EDGE_INPUTS = [
    "(assert (> x 0)",
    "(assert x))",
    ")",
    "x",
    "()",
    "(frobnicate)",
    "(declare-fun x () Real)\n  (assert (> y 0))\n(minimize x)",
    "(declare-fun x () Real)\r\n\t(assert\t(>  (+ x 1)   z)) ; y\n(minimize x)",
    "; header (\n\n   (declare-fun x () Real) ; (\n(assert (<= x (* x x)))(minimize x)",
    "(declare-fun x () Real)(declare-fun x () Bool)(minimize x)",
    "(declare-fun f (Real) Real)",
    "(declare-fun n () Int)",
    "(declare-fun x Real)",
    "(declare-fun (x) () Real)",
    "(declare-fun x () Real)(assert (> (+) 0))(minimize x)",
    "(declare-fun x () Real)(assert (> (-) 0))(minimize x)",
    "(declare-fun x () Real)(assert (> (* 2) 0))(minimize x)",
    "(declare-fun x () Real)(assert (> (/ x) 0))(minimize x)",
    "(declare-fun x () Real)(assert (> (/ 1 x) 1))(minimize x)",
    "(declare-fun x () Real)(assert (> (/ x (- 2 2)) 1))(minimize x)",
    "(declare-fun x () Real)(assert (> (max x 1) 1))(minimize x)",
    "(declare-fun x () Real)(assert (> ((+ x) 1) 1))(minimize x)",
    "(declare-fun p () Bool)(declare-fun x () Real)(assert (> p 0))(minimize x)",
    "(declare-fun x () Real)(assert (or x))(minimize x)",
    "(declare-fun x () Real)(assert ((and true)))(minimize x)",
    "(assert (and))",
    "(assert (or))",
    "(assert (not true false))",
    "(assert (=> true))",
    "(declare-fun x () Real)(assert (<= x))(minimize x)",
    "(assert (xor true false))",
    "(assert true false)",
    "(declare-fun x () Real)(minimize)",
    "(minimize (+ x))",
    "(declare-fun x () Real)(minimize y)",
    "(declare-fun x () Real)(minimize x)(minimize x)",
    "(declare-fun p () Bool)(minimize p)",
    "(declare-fun x () Real)(declare-fun y () Real)(set-info :lb y)(minimize x)",
    "(declare-fun x () Real)(set-info :lb 4)(set-info :ub (/ 8 2))(minimize x)",
    "(declare-fun x () Real)(assert (> x 0))",
    "(declare-fun x () Real)(assert (>= x 1.-5))(minimize x)",
    "(declare-fun x () Real)(assert (>= x 1/0))(minimize x)",
    "(declare-fun x () Real)(assert (>= x \u0663))(minimize x)",
    "(declare-fun x () Real)(assert (>= x \u00b2))(minimize x)",
    "(declare-fun p () Bool)(assert " + "(and p " * MAX_DEPTH + "p" + ")" * MAX_DEPTH + ")",
    "(declare-fun x () Real)(assert (>= x \x0b3))(minimize x)",
    "(declare-fun x () Real)(declare-fun y () Real)(assert (<= (* x y z) 1))(minimize x)",
    "(declare-fun x () Real)(set-info :ub (/ x (- 2 2)))(minimize x)",
    # accepted
    "(declare-fun x () Real)(set-info :lb 007)(set-info :ub 7/2)(assert (>= (* 0 x) (- 0)))"
    "(minimize x)",
    "(declare-fun x () Real)(set-info :lb (* 2 (/ 1 2)))(set-info :ub (/ 9 -3.0))(minimize x)",
    "(declare-fun x () Real)(declare-fun y () Real)(set-info :lb (- 3))(set-info :ub 5)"
    "(assert (= (* (/ 2 3) x) (- (* 3 y) (/ 1 3))))(assert (not (= (* -2 x) (* 0.5 y))))"
    "(assert (< (+ (* 3 (/ x 3)) (- y y) 1.25) (* 4 (/ 3 4))))(minimize x)",
    "(declare-fun x () Real)(declare-fun y () Real)(assert (> (- (* 2 x) (* 4 y)) 6))"
    "(assert (<= (* -3 y) x))(assert (or (> 1 0) (< 0 1)))(minimize y)",
    # products and quotients whose factors cancel, negate or divide
    "(declare-fun x () Real)(declare-fun y () Real)(assert (<= (* (- x x) y) 1))(minimize x)",
    "(declare-fun x () Real)(assert (<= (- (* 2 x)) 1))(assert (> (/ (* 3 x) (/ 3 2)) (- 1)))"
    "(minimize x)",
    "(declare-fun x () Real)(set-info :lb (+ x (- x)))(set-info :ub 3)(minimize x)",
    "(declare-fun x () Real)(declare-fun y () Real)(assert (< (* 0.5 (* 2 x) 3) (/ (+ y 1) 0.25)))"
    "(assert (>= (- (* 1/3 x) (* 3 (/ x 9))) (- y)))(minimize x)",
    # a negated equality repeated in two clauses, each occurrence with its
    # own label, and an inequality repeated in both polarities
    "(declare-fun x () Real)(declare-fun p () Bool)(assert (or (not (= x 1)) p))"
    "(assert (or (not (= x 1)) (not p)))(assert (or (> x 0) p))(assert (or (not (> x 0)) (not p)))"
    "(minimize x)",
]


# edge inputs whose outcome differs from the reference's on purpose: the
# reference reads a p/0 numeral as an unknown identifier
FIXED_SINCE_REFERENCE = {
    "(declare-fun x () Real)(assert (>= x 1/0))(minimize x)": (
        "ParseError",
        "1:38: division by zero",
    ),
}


@pytest.mark.parametrize("text", EDGE_INPUTS)
def test_edge_inputs_match_the_reference(text):
    expected = FIXED_SINCE_REFERENCE.get(text) or input_outcome(reference_parse_problem, text)
    assert input_outcome(parse_problem, text) == expected


def _mutant(seed: int, texts) -> str:
    """One of ``texts`` with one to three single-character deletions,
    insertions or replacements, never bringing in a quote."""
    alphabet = "()()  \n\t;x01-/.+*<=>:"
    rng = SplitMix64(seed)
    text = texts[seed % len(texts)]
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text) - 1)
        ch = alphabet[rng.randint(0, len(alphabet) - 1)]
        edit = rng.randint(0, 2)
        text = text[:i] + ("" if edit == 0 else ch) + text[i + (edit != 1):]
    return text


def _is_numeral(text: str) -> bool:
    return _NUMERAL.fullmatch(text) is not None


def _declares_reserved(text: str) -> bool:
    """Does ``text`` declare a numeral or a Bool constant?  The reference
    accepted such a declaration; it is now an error on purpose."""
    try:
        nodes = reference_parse_sexprs(text)
    except ParseError:
        return False
    return any(
        node.head() == "declare-fun"
        and len(node.items) > 1
        and node.items[1].is_atom
        and (node.items[1].text in ("true", "false") or _is_numeral(node.items[1].text))
        for node in nodes
    )


def test_mutated_families_match_the_reference():
    texts = _family_texts()
    kinds = {}
    for seed in range(300):
        text = _mutant(seed, texts)
        if _declares_reserved(text):
            continue
        expected = input_outcome(reference_parse_problem, text)
        assert input_outcome(parse_problem, text) == expected, f"mutant {seed}"
        kinds[expected[0]] = kinds.get(expected[0], 0) + 1
    # the mutants exercise both the accepted and the rejected paths
    assert sum(kinds.values()) >= 280
    assert kinds.get("ok", 0) >= 30 and kinds.get("ParseError", 0) >= 100, kinds


# insertions the reader mutants add to _mutant's single characters: a
# Windows line end, and comments that hold parentheses, one ending its
# line and one running to the next newline
READER_EDITS = ("\r\n", "; (x)) (\n", ";)(")


def _reader_mutant(seed: int) -> str:
    """A ``boolean_structure_text`` text with up to two of the
    ``READER_EDITS`` inserted, then, in half the cases, ``_mutant``'s
    edits; in one case of four an assertion first nests to ``MAX_DEPTH``
    or one level past it."""
    rng = SplitMix64(seed)
    text = boolean_structure_text(seed)
    if rng.randint(0, 3) == 0:
        lines = text.split("\n")
        k = next(i for i, line in enumerate(lines) if line.startswith("(assert "))
        levels = MAX_DEPTH + rng.randint(0, 1) - _depth(lines[k])
        lines[k] = "(assert " + "(and true " * levels + lines[k][8:-1] + ")" * levels + ")"
        text = "\n".join(lines)
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(0, len(text))
        text = text[:i] + READER_EDITS[rng.randint(0, len(READER_EDITS) - 1)] + text[i:]
    if rng.randint(0, 1):
        text = _mutant(rng.randint(0, 1 << 30), [text])
    return text


def _has_zero_denominator(text: str) -> bool:
    """Does ``text`` hold a p/0 numeral, which the reference reads as an
    unknown identifier?"""
    return any(
        _is_numeral(tok) and "/" in tok and int(tok.split("/")[1]) == 0
        for tok in re.findall(r"[^ \t\r\n();]+", text)
    )


def test_mutated_boolean_texts_match_the_reference():
    """The reader and builder against the reference on quote-free texts
    with Windows line ends, comments holding parentheses and nesting at
    and past the cap: the same digest, or the same message and line:column."""
    kinds = {}
    for seed in range(240):
        text = _reader_mutant(seed)
        if _declares_reserved(text) or _has_zero_denominator(text):
            continue
        expected = input_outcome(reference_parse_problem, text)
        assert input_outcome(parse_problem, text) == expected, f"mutant {seed}"
        kind = "nesting" if "nesting deeper" in expected[-1] else expected[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert sum(kinds.values()) >= 230, kinds
    assert kinds.get("ok", 0) >= 60 and kinds.get("ParseError", 0) >= 100, kinds
    assert kinds.get("nesting", 0) >= 15, kinds
