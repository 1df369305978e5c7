"""Reader for the SMT-LIB-flavored input format.

Supported commands: declare-fun (zero-arity Real or Bool), assert,
minimize (exactly one, naming a declared Real), set-info with :lb / :ub
range hints, and the no-ops set-logic / set-option / check-sat / exit.
Boolean structure may use and, or, not, =>, = (on Bools) and the
comparisons =, <=, <, >=, > on linear terms built from +, -, * and
constant division.  An n-ary (=> a1 ... an b) reads as
(or (not a1) ... (not an) b).  Parentheses nest at most MAX_DEPTH
deep.  Errors carry line:column positions.

The reader splits the text in one regular-expression pass into its
significant tokens: a parenthesis or an atom, with the blanks and
comments before each skipped by the same match.  A ``|quoted symbol|``
or a ``"string"`` is one atom, whatever it holds (parentheses,
semicolons, newlines), and keeps its delimiters in its text, so ``|x|``
and ``x`` are different names.  Numerals and the constants ``true``
and ``false`` cannot be declared.

The tree holds token indices, not token objects: an atom is its index
into the token list (an ``int``), and a list is the Python list
``[index of its '(', index of its ')', item, ...]``.  No position is
recorded while reading.  A ``ParseError`` finds the line and column of
the token it names with ``position``, which reads the text a second
time, token by token, counting newlines; that pass runs once, for the
input that fails.

The builder keys its one memo by an application's tokens: a ``<=``,
``<``, ``>=`` or ``>`` application whose tokens repeat an earlier one of
the same input returns the leaf already built.  A repeat then costs a
lookup instead of the term and the canonical atom, because the CNF walk
gives each leaf its literal once per sign.  The memo only holds
applications that were built without error, and what they mean cannot
change later in the input, because a name cannot be declared twice.
``=`` keeps one leaf per occurrence: the CNF walk gives each negated
equality leaf its own label for its split halves, so sharing the leaf
would change the clauses.  The memo lives and dies with one
``parse_problem`` call.
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


# a parenthesis, a quoted symbol, a string literal or an atom; an
# unterminated quote starts an atom
_SIGNIFICANT = r'[()]|\|[^|]*\||"(?:[^"]|"")*"|[^ \t\r\n();]+'

# One match per significant token, the blanks and comments before it
# included.  Every position matches, so nothing backtracks; the group is
# empty only at the end of the text.
_SCAN = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*(" + _SIGNIFICANT + ")?")

# One token per alternative: a comment, a newline, a run of other
# blanks or a significant token.  findall silently skips what no
# alternative matches, so together they cover every character.
_TOKEN = re.compile(r";[^\n]*|\n|[ \t\r]+|" + _SIGNIFICANT)


def position(text: str, i: int) -> tuple[int, int]:
    """The 1-based line and column of significant token ``i`` of
    ``text``.  A newline inside a quoted token counts, too."""
    line = col = 1
    for tok in _TOKEN.findall(text):
        c = tok[0]
        if c == "\n":
            line += 1
            col = 1
        elif c == " " or c == "\t" or c == "\r" or c == ";":
            col += len(tok)  # a comment ends at the newline token
        elif i:
            i -= 1
            if (c == "|" or c == '"') and "\n" in tok:
                line += tok.count("\n")
                col = len(tok) - tok.rindex("\n")
            else:
                col += len(tok)
        else:
            return line, col
    raise IndexError(f"text has no significant token {i}")


def read_tree(text: str) -> tuple[list[str], list]:
    """The significant tokens of ``text`` and its top-level nodes: an
    atom is its token index, a list is ``[open, close, item, ...]``
    with the indices of its parentheses."""
    toks = _SCAN.findall(text)
    while toks and not toks[-1]:  # the empty matches at the end
        toks.pop()
    top: list = []
    stack: list = []  # open lists, innermost last
    items = top  # where the next node goes
    for i, tok in enumerate(toks):
        if tok == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", *position(text, i))
            node = [i, i]
            items.append(node)
            stack.append(node)
            items = node
        elif tok == ")":
            if not stack:
                raise ParseError("unbalanced ')'", *position(text, i))
            stack.pop()[1] = i
            items = stack[-1] if stack else top
        else:
            items.append(i)
    if stack:
        raise ParseError("unclosed '('", *position(text, stack[-1][0]))
    return toks, top


class _ProblemBuilder:
    def __init__(self, text: str, toks: list[str]):
        self.text = text
        self.toks = toks
        # tokens of an inequality application -> its leaf
        self.inequalities: dict[tuple, BAtom] = {}
        self.formula = CnfFormula()
        self.asserts: list[BoolExpr] = []
        self.cost: Optional[int] = None
        self.lb: Optional[Fraction] = None
        self.ub: Optional[Fraction] = None

    def _error(self, msg: str, node) -> ParseError:
        """A ``ParseError`` at the first token of ``node``."""
        return ParseError(msg, *position(self.text, node if type(node) is int else node[0]))

    def _head(self, node: list) -> Optional[str]:
        """The text of the list's first item when that is an atom."""
        if len(node) > 2 and type(node[2]) is int:
            return self.toks[node[2]]
        return None

    def _try_rat(self, node: int) -> Optional[Fraction]:
        """The value of a numeral atom, or None when the atom is no
        numeral; a numeral with a zero denominator, such as ``1/0``, is
        a ``ParseError`` at its token, as ``(/ 1 0)`` is."""
        text = self.toks[node]
        if _NUMERAL.fullmatch(text) is None:
            return None
        try:
            return parse_rat(text)
        except ValueError:
            raise self._error("division by zero", node) from None

    # -- terms

    def term(self, node) -> LinTerm:
        if type(node) is int:
            text = self.toks[node]
            # declare-fun refuses numerals, so a declared name is none
            rid = self.formula.rat_var(text)
            if rid is not None:
                return LinTerm({rid: 1})
            if text.isdigit() and text.isascii():
                return LinTerm(const=int(text))
            q = self._try_rat(node)
            if q is not None:
                return LinTerm(const=q)
            if self.formula.prop(text) is not None:
                raise self._error(f"Bool variable {text!r} used in a term", node)
            raise self._error(f"unknown identifier {text!r}", node)
        head = self._head(node)
        args = node[3:]
        if head == "+":
            if not args:
                raise self._error("'+' needs arguments", node)
            acc = LinTerm()
            for a in args:
                acc.add(self.term(a))
            return acc
        if head == "-":
            if not args:
                raise self._error("'-' needs arguments", node)
            acc = self.term(args[0])
            if len(args) == 1:
                return acc.scale(-1)
            for a in args[1:]:
                acc.add(self.term(a).scale(-1))
            return acc
        if head == "*":
            if len(args) < 2:
                raise self._error("'*' needs two arguments", node)
            parts = [self.term(a) for a in args]
            nonground = [p for p in parts if not p.is_ground()]
            if len(nonground) > 1:
                raise self._error("nonlinear product", node)
            factor = 1
            for p in parts:
                if p.is_ground():
                    factor *= p.const
            if not nonground:
                return LinTerm(const=factor)
            return nonground[0].scale(factor)
        if head == "/":
            if len(args) != 2:
                raise self._error("'/' needs two arguments", node)
            num = self.term(args[0])
            den = self.term(args[1])
            if not den.is_ground():
                raise self._error("division by a non-constant", args[1])
            if den.const == 0:
                raise self._error("division by zero", args[1])
            d = den.const
            return num.scale(Fraction(1, d) if type(d) is int else 1 / d)
        raise self._error(f"unknown arithmetic operator {head!r}", node)

    # -- sort dispatch for '='

    def _looks_boolean(self, node) -> bool:
        if type(node) is int:
            text = self.toks[node]
            if text in ("true", "false"):
                return True
            return self.formula.prop(text) is not None
        return self._head(node) in BOOL_HEADS

    # -- boolean expressions

    def bool_expr(self, node) -> BoolExpr:
        if type(node) is int:
            text = self.toks[node]
            if text == "true":
                return BConst(True)
            if text == "false":
                return BConst(False)
            pv = self.formula.prop(text)
            if pv is not None:
                return BProp(pv)
            if self.formula.rat_var(text) is not None:
                raise self._error(f"Real variable {text!r} used as a Bool", node)
            raise self._error(f"unknown identifier {text!r}", node)
        head = self._head(node)
        if head is None:
            raise self._error("expected an operator application", node)
        args = node[3:]
        if head == "and":
            if not args:
                raise self._error("'and' needs arguments", node)
            return BAnd([self.bool_expr(a) for a in args])
        if head == "or":
            if not args:
                raise self._error("'or' needs arguments", node)
            return BOr([self.bool_expr(a) for a in args])
        if head == "not":
            if len(args) != 1:
                raise self._error("'not' needs one argument", node)
            return BNot(self.bool_expr(args[0]))
        if head == "=>":
            if len(args) < 2:
                raise self._error("'=>' needs two arguments", node)
            # right-associative, so (=> a1 a2 b) is a1 => (a2 => b)
            return BOr([BNot(self.bool_expr(a)) for a in args[:-1]] + [self.bool_expr(args[-1])])
        if head in COMPARISONS:
            key = tuple(self.toks[node[0]:node[1]])
            leaf = self.inequalities.get(key)
            if leaf is None:
                leaf = self.inequalities[key] = self._comparison(node, head, args)
            return leaf
        if head == "=":
            if len(args) == 2 and (self._looks_boolean(args[0]) or self._looks_boolean(args[1])):
                return BIff(self.bool_expr(args[0]), self.bool_expr(args[1]))
            return self._comparison(node, head, args)
        raise self._error(f"unknown operator {head!r}", node)

    def _comparison(self, node: list, head: str, args: list) -> BAtom:
        if len(args) != 2:
            raise self._error(f"{head!r} compares exactly two operands", node)
        diff = self.term(args[0]).add(self.term(args[1]).scale(-1))
        return BAtom(diff.coeffs, diff.const, head)

    # -- commands

    def command(self, node):
        toks = self.toks
        if type(node) is int:
            raise self._error(f"expected a command, got {toks[node]!r}", node)
        head = self._head(node)
        args = node[3:]
        if head == "declare-fun":
            if (
                len(args) != 3
                or type(args[0]) is not int
                or type(args[1]) is int
                or type(args[2]) is not int
            ):
                raise self._error("expected (declare-fun name () Sort)", node)
            name, sort = toks[args[0]], toks[args[2]]
            if name in ("true", "false"):
                raise self._error(f"cannot declare the constant {name!r}", args[0])
            if _NUMERAL.fullmatch(name) is not None:
                raise self._error(f"cannot declare the numeral {name!r}", args[0])
            if len(args[1]) > 2:
                raise self._error("only zero-arity declarations are supported", args[1])
            if self.formula.rat_var(name) is not None or self.formula.prop(name) is not None:
                raise self._error(f"redeclaration of {name!r}", args[0])
            if sort == "Real":
                self.formula.new_rat_var(name)
            elif sort == "Bool":
                self.formula.new_prop(name)
            else:
                raise self._error(f"unsupported sort {sort!r}", args[2])
        elif head == "assert":
            if len(args) != 1:
                raise self._error("'assert' takes one expression", node)
            self.asserts.append(self.bool_expr(args[0]))
        elif head == "minimize":
            if len(args) != 1 or type(args[0]) is not int:
                raise self._error("'minimize' takes one declared Real variable", node)
            if self.cost is not None:
                raise self._error("duplicate 'minimize'", node)
            target = toks[args[0]]
            rid = self.formula.rat_var(target)
            if rid is None:
                raise self._error(f"minimize target {target!r} is not a declared Real", args[0])
            self.cost = rid
        elif head == "set-info":
            if len(args) >= 2 and type(args[0]) is int and toks[args[0]] in (":lb", ":ub"):
                value = self.term(args[1])
                if not value.is_ground():
                    raise self._error("range bound must be a constant", args[1])
                if toks[args[0]] == ":lb":
                    self.lb = Fraction(value.const)
                else:
                    self.ub = Fraction(value.const)
            # other annotations are ignored
        elif head in ("check-sat", "exit", "set-logic", "set-option", "get-objectives", "get-model"):
            pass
        else:
            raise self._error(f"unknown command {head!r}", node)

    def finish(self) -> OmtProblem:
        if self.cost is None:
            raise ParseError("input contains no 'minimize' command", 1, 1)
        cnfize(conj(self.asserts), self.formula)
        try:
            return OmtProblem(self.formula, self.cost, self.lb, self.ub)
        except ValueError as exc:
            raise ParseError(str(exc), 1, 1) from exc


def parse_problem(text: str) -> OmtProblem:
    toks, top = read_tree(text)
    builder = _ProblemBuilder(text, toks)
    for node in top:
        builder.command(node)
    return builder.finish()
