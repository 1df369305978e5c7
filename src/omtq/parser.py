"""Reader for the SMT-LIB-flavored input format.

Supported commands: declare-fun (zero-arity Real or Bool), assert,
minimize (exactly one, naming a declared Real), set-info with :lb / :ub
range hints, and the no-ops set-logic / set-option / check-sat / exit.
Boolean structure may use and, or, not, =>, = (on Bools) and the
comparisons =, <=, <, >=, > on linear terms built from +, -, * and
constant division.  An n-ary (=> a1 ... an b) reads as
(or (not a1) ... (not an) b).  Parentheses nest at most MAX_DEPTH
deep.  Errors carry line:column positions.

The reader splits the text in one regular-expression pass into tokens
that cover every character: a comment, a newline, a run of other
blanks, a parenthesis or an atom.  Line and column come from the token
lengths, so no Python code runs per character.  A ``|quoted symbol|``
or a ``"string"`` is one atom, whatever it holds (parentheses,
semicolons, newlines), and keeps its delimiters in its text, so ``|x|``
and ``x`` are different names.  Numerals and the constants ``true``
and ``false`` cannot be declared.

The reader also gives each list node its character span in the text.
The builder keys its one memo by that span's text: a ``<=``, ``<``,
``>=`` or ``>`` application that repeats, character for character, an
earlier one of the same input returns the leaf already built.  A
repeat then costs a lookup instead of the term and the canonical atom,
because the CNF walk gives each leaf its literal once per sign.  The
memo only holds applications that were built without error, and what
they mean cannot change later in the input, because a name cannot be
declared twice.  ``=`` keeps one leaf per occurrence: the CNF walk
gives each negated equality leaf its own label for its split halves,
so sharing the leaf would change the clauses.  The memo lives and dies
with one ``parse_problem`` call.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .arith import _NUMERAL, parse_rat
from .formula import (
    BAnd,
    BAtom,
    BConst,
    BIff,
    BNot,
    BOr,
    BProp,
    BoolExpr,
    CnfFormula,
    LinTerm,
    OmtProblem,
    cnfize,
    conj,
)

COMPARISONS = ("<=", "<", ">=", ">")

# every application of these is Bool-valued, '=' included whatever its operands
BOOL_HEADS = ("and", "or", "not", "=>", "=") + COMPARISONS

# Deepest parenthesis nesting accepted, counting the command's own
# parenthesis.  The reader and the CNF conversion recurse once per level
# (the conversion up to three frames per level); from the top level of a
# program with Python's default recursion limit of 1000, nested 'or's
# over equalities overflow past about 330 levels, and the cap leaves the
# rest of the stack to the caller.
MAX_DEPTH = 200


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class SExpr:
    """A list node (``items`` set, ``text`` None) or an atom (``text``
    set, ``items`` None), with the 1-based position of its first
    character.  The reader also gives each list node its character span
    in the input, ``start`` (its '(') up to ``end`` (just past its
    ')')."""

    __slots__ = ("items", "text", "line", "col", "start", "end")

    def __init__(self, items: Optional[list], text: Optional[str], line: int, col: int):
        self.items = items
        self.text = text
        self.line = line
        self.col = col

    @property
    def is_atom(self) -> bool:
        return self.items is None

    def head(self) -> Optional[str]:
        if self.items and self.items[0].is_atom:
            return self.items[0].text
        return None

    def __repr__(self):
        body = self.text if self.items is None else self.items
        return f"SExpr({body!r} at {self.line}:{self.col})"


# One token per alternative: a comment, a newline, a run of other
# blanks, a parenthesis, a quoted symbol, a string literal or an atom.
# findall silently skips what no alternative matches, so together they
# must cover every character: an unterminated quote starts an atom.
_TOKEN = re.compile(r';[^\n]*|\n|[ \t\r]+|[()]|\|[^|]*\||"(?:[^"]|"")*"|[^ \t\r\n();]+')


# the reader makes nodes without calling SExpr.__init__, which costs a
# Python call per token
_new_node = object.__new__


def parse_sexprs(text: str) -> list[SExpr]:
    top: list[SExpr] = []
    stack: list[SExpr] = []  # open lists, innermost last
    items = top  # where the next node goes
    line = col = 1
    base = 0  # offset of the current line's first character in text
    for tok in _TOKEN.findall(text):
        c = tok[0]
        if c == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", line, col)
            node = _new_node(SExpr)
            node.items = []
            node.text = None
            node.line = line
            node.col = col
            node.start = base + col - 1
            items.append(node)
            stack.append(node)
            items = node.items
            col += 1
        elif c == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            stack.pop().end = base + col
            items = stack[-1].items if stack else top
            col += 1
        elif c == "\n":
            base += col
            line += 1
            col = 1
        elif c == " " or c == "\t" or c == "\r" or c == ";":
            col += len(tok)  # a comment ends at the newline token
        else:  # an atom
            node = _new_node(SExpr)
            node.items = None
            node.text = tok
            node.line = line
            node.col = col
            items.append(node)
            if (c == "|" or c == '"') and "\n" in tok:
                line += tok.count("\n")
                last = tok.rindex("\n")
                base += col + last
                col = len(tok) - last
            else:
                col += len(tok)
    if stack:
        raise ParseError("unclosed '('", stack[-1].line, stack[-1].col)
    return top


def _try_rat(node: SExpr) -> Optional[Fraction]:
    """The value of a numeral atom, or None when the atom is no numeral;
    a numeral with a zero denominator, such as ``1/0``, is a
    ``ParseError`` at its token, as ``(/ 1 0)`` is."""
    text = node.text
    if _NUMERAL.fullmatch(text) is None:
        return None
    try:
        return parse_rat(text)
    except ValueError:
        raise ParseError("division by zero", node.line, node.col) from None


class _ProblemBuilder:
    def __init__(self, text: str):
        self.text = text
        # source text of an inequality application -> its leaf
        self.inequalities: dict[str, BAtom] = {}
        self.formula = CnfFormula()
        self.asserts: list[BoolExpr] = []
        self.cost: Optional[int] = None
        self.lb: Optional[Fraction] = None
        self.ub: Optional[Fraction] = None

    # -- terms

    def term(self, node: SExpr) -> LinTerm:
        if node.is_atom:
            text = node.text
            # declare-fun refuses numerals, so a declared name is none
            rid = self.formula.rat_var(text)
            if rid is not None:
                return LinTerm({rid: 1})
            if text.isdigit() and text.isascii():
                return LinTerm(const=int(text))
            q = _try_rat(node)
            if q is not None:
                return LinTerm(const=q)
            if self.formula.prop(text) is not None:
                raise ParseError(f"Bool variable {node.text!r} used in a term", node.line, node.col)
            raise ParseError(f"unknown identifier {node.text!r}", node.line, node.col)
        head = node.head()
        args = node.items[1:]
        if head == "+":
            if not args:
                raise ParseError("'+' needs arguments", node.line, node.col)
            acc = LinTerm()
            for a in args:
                acc.add(self.term(a))
            return acc
        if head == "-":
            if not args:
                raise ParseError("'-' needs arguments", node.line, node.col)
            acc = self.term(args[0])
            if len(args) == 1:
                return acc.scale(-1)
            for a in args[1:]:
                acc.add(self.term(a).scale(-1))
            return acc
        if head == "*":
            if len(args) < 2:
                raise ParseError("'*' needs two arguments", node.line, node.col)
            parts = [self.term(a) for a in args]
            nonground = [p for p in parts if not p.is_ground()]
            if len(nonground) > 1:
                raise ParseError("nonlinear product", node.line, node.col)
            factor = 1
            for p in parts:
                if p.is_ground():
                    factor *= p.const
            if not nonground:
                return LinTerm(const=factor)
            return nonground[0].scale(factor)
        if head == "/":
            if len(args) != 2:
                raise ParseError("'/' needs two arguments", node.line, node.col)
            num = self.term(args[0])
            den = self.term(args[1])
            if not den.is_ground():
                raise ParseError("division by a non-constant", args[1].line, args[1].col)
            if den.const == 0:
                raise ParseError("division by zero", args[1].line, args[1].col)
            d = den.const
            return num.scale(Fraction(1, d) if type(d) is int else 1 / d)
        raise ParseError(f"unknown arithmetic operator {head!r}", node.line, node.col)

    # -- sort dispatch for '='

    def _looks_boolean(self, node: SExpr) -> bool:
        if node.is_atom:
            if node.text in ("true", "false"):
                return True
            return self.formula.prop(node.text) is not None
        return node.head() in BOOL_HEADS

    # -- boolean expressions

    def bool_expr(self, node: SExpr) -> BoolExpr:
        if node.is_atom:
            if node.text == "true":
                return BConst(True)
            if node.text == "false":
                return BConst(False)
            pv = self.formula.prop(node.text)
            if pv is not None:
                return BProp(pv)
            if self.formula.rat_var(node.text) is not None:
                raise ParseError(
                    f"Real variable {node.text!r} used as a Bool", node.line, node.col
                )
            raise ParseError(f"unknown identifier {node.text!r}", node.line, node.col)
        head = node.head()
        if head is None:
            raise ParseError("expected an operator application", node.line, node.col)
        args = node.items[1:]
        if head == "and":
            if not args:
                raise ParseError("'and' needs arguments", node.line, node.col)
            return BAnd([self.bool_expr(a) for a in args])
        if head == "or":
            if not args:
                raise ParseError("'or' needs arguments", node.line, node.col)
            return BOr([self.bool_expr(a) for a in args])
        if head == "not":
            if len(args) != 1:
                raise ParseError("'not' needs one argument", node.line, node.col)
            return BNot(self.bool_expr(args[0]))
        if head == "=>":
            if len(args) < 2:
                raise ParseError("'=>' needs two arguments", node.line, node.col)
            # right-associative, so (=> a1 a2 b) is a1 => (a2 => b)
            return BOr([BNot(self.bool_expr(a)) for a in args[:-1]] + [self.bool_expr(args[-1])])
        if head in COMPARISONS:
            key = self.text[node.start:node.end]
            leaf = self.inequalities.get(key)
            if leaf is None:
                leaf = self.inequalities[key] = self._comparison(node, head, args)
            return leaf
        if head == "=":
            if len(args) == 2 and (self._looks_boolean(args[0]) or self._looks_boolean(args[1])):
                return BIff(self.bool_expr(args[0]), self.bool_expr(args[1]))
            return self._comparison(node, head, args)
        raise ParseError(f"unknown operator {head!r}", node.line, node.col)

    def _comparison(self, node: SExpr, head: str, args: list[SExpr]) -> BAtom:
        if len(args) != 2:
            raise ParseError(f"{head!r} compares exactly two operands", node.line, node.col)
        diff = self.term(args[0]).add(self.term(args[1]).scale(-1))
        return BAtom(diff.coeffs, diff.const, head)

    # -- commands

    def command(self, node: SExpr):
        if node.is_atom:
            raise ParseError(f"expected a command, got {node.text!r}", node.line, node.col)
        head = node.head()
        args = node.items[1:]
        if head == "declare-fun":
            if (
                len(args) != 3
                or not args[0].is_atom
                or args[1].is_atom
                or not args[2].is_atom
            ):
                raise ParseError("expected (declare-fun name () Sort)", node.line, node.col)
            name, params, sort = args[0].text, args[1].items, args[2].text
            if name in ("true", "false"):
                raise ParseError(f"cannot declare the constant {name!r}", args[0].line, args[0].col)
            if _NUMERAL.fullmatch(name) is not None:
                raise ParseError(f"cannot declare the numeral {name!r}", args[0].line, args[0].col)
            if params:
                raise ParseError("only zero-arity declarations are supported", args[1].line, args[1].col)
            if self.formula.rat_var(name) is not None or self.formula.prop(name) is not None:
                raise ParseError(f"redeclaration of {name!r}", args[0].line, args[0].col)
            if sort == "Real":
                self.formula.new_rat_var(name)
            elif sort == "Bool":
                self.formula.new_prop(name)
            else:
                raise ParseError(f"unsupported sort {sort!r}", args[2].line, args[2].col)
        elif head == "assert":
            if len(args) != 1:
                raise ParseError("'assert' takes one expression", node.line, node.col)
            self.asserts.append(self.bool_expr(args[0]))
        elif head == "minimize":
            if len(args) != 1 or not args[0].is_atom:
                raise ParseError("'minimize' takes one declared Real variable", node.line, node.col)
            if self.cost is not None:
                raise ParseError("duplicate 'minimize'", node.line, node.col)
            rid = self.formula.rat_var(args[0].text)
            if rid is None:
                raise ParseError(
                    f"minimize target {args[0].text!r} is not a declared Real",
                    args[0].line,
                    args[0].col,
                )
            self.cost = rid
        elif head == "set-info":
            if len(args) >= 2 and args[0].is_atom and args[0].text in (":lb", ":ub"):
                value = self.term(args[1])
                if not value.is_ground():
                    raise ParseError("range bound must be a constant", args[1].line, args[1].col)
                if args[0].text == ":lb":
                    self.lb = Fraction(value.const)
                else:
                    self.ub = Fraction(value.const)
            # other annotations are ignored
        elif head in ("check-sat", "exit", "set-logic", "set-option", "get-objectives", "get-model"):
            pass
        else:
            raise ParseError(f"unknown command {head!r}", node.line, node.col)

    def finish(self) -> OmtProblem:
        if self.cost is None:
            raise ParseError("input contains no 'minimize' command", 1, 1)
        cnfize(conj(self.asserts), self.formula)
        try:
            return OmtProblem(self.formula, self.cost, self.lb, self.ub)
        except ValueError as exc:
            raise ParseError(str(exc), 1, 1) from exc


def parse_problem(text: str) -> OmtProblem:
    builder = _ProblemBuilder(text)
    for node in parse_sexprs(text):
        builder.command(node)
    return builder.finish()
