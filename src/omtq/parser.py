"""Reader for the SMT-LIB-flavored input format.

Supported commands: declare-fun (zero-arity Real or Bool), assert,
minimize (exactly one, naming a declared Real), set-info with :lb / :ub
range hints, and the no-ops set-logic / set-option / check-sat / exit.
Boolean structure may use and, or, not, =>, = (on Bools) and the
comparisons =, <=, <, >=, > on linear terms built from +, -, * and
constant division.  An n-ary (=> a1 ... an b) reads as
(or (not a1) ... (not an) b).  Parentheses nest at most MAX_DEPTH
deep.  Errors carry line:column positions.

The reader splits the text into its significant tokens: a parenthesis
or an atom.  Most inputs are ASCII and hold no quote and no blank but
space, tab, CR and LF, SMT-LIB's whitespace; there the comments are cut
out and the parenthesized text is split with ``str.split``, which finds
the same tokens in a fraction of the time.  Every other text takes one
regular-expression pass, with the blanks and comments before each token
skipped by the same match; it is the pass that reads quotes.  A
``|quoted symbol|`` or a ``"string"`` is one atom, whatever it holds
(parentheses, semicolons, newlines), and keeps its delimiters in its
text, so ``|x|`` and ``x`` are different names.  Numerals and the
constants ``true`` and ``false`` cannot be declared.

The tree holds token indices, not token objects: an atom is its index
into the token list (an ``int``), and a list is the Python list
``[index of its '(', index of its ')', item, ...]``.  No position is
recorded while reading.  A ``ParseError`` finds the line and column of
the token it names with ``position``, which runs ``_SCAN`` over the
text a second time, up to that token, and counts the newlines before
its offset; that pass runs once, for the input that fails.

The builder reads a comparison into one coefficient map: each operand
adds its variables, times the factor the operators above it apply, into
the map and returns its constant times that factor, so a sum or a
difference makes no term object.  An operand of ``*`` or ``/`` goes into
a map of its own first, as the factor is known only once all operands
are read; the operands are read in order, so the first error in the text
is the one raised.

The builder keys its one memo by an application's tokens: a ``<=``,
``<``, ``>=`` or ``>`` application whose tokens repeat an earlier one of
the same input returns the leaf already built.  A repeat then costs a
lookup instead of the term and the canonical atom, because the CNF walk
gives each leaf its literal once, whatever the signs it occurs under.
The memo only holds applications that were built without error, and
what they mean cannot change later in the input, because a name cannot
be declared twice.
``=`` keeps one leaf per occurrence: the CNF walk gives each negated
equality leaf its own label for its split halves, so sharing the leaf
would change the clauses.  The memo lives and dies with one
``parse_problem`` call.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from typing import Optional

from .arith import _NUMERAL, integral_or_fraction, parse_rat, quotient
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

# The quote delimiters, and the ASCII characters that str.split counts
# as blanks and SMT-LIB does not.  An ASCII text holding none of them
# splits, once its comments are gone and its parentheses are spaced
# out, into exactly the tokens of _SCAN.
_SPLIT_UNSAFE = '|"\x0b\x0c\x1c\x1d\x1e\x1f'

_COMMENT = re.compile(r";[^\n]*")


def position(text: str, i: int) -> tuple[int, int]:
    """The 1-based line and column of significant token ``i`` of
    ``text``, from the offset of its ``_SCAN`` match.  A newline inside
    a quoted token counts, too."""
    m = next(islice(_SCAN.finditer(text), i, None), None)
    start = -1 if m is None else m.start(1)  # -1: the empty match at the end
    if start < 0:
        raise IndexError(f"text has no significant token {i}")
    return text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)


def read_tree(text: str) -> tuple[list[str], list]:
    """The significant tokens of ``text`` and its top-level nodes: an
    atom is its token index, a list is ``[open, close, item, ...]``
    with the indices of its parentheses."""
    if text.isascii() and not any(c in text for c in _SPLIT_UNSAFE):
        plain = _COMMENT.sub("", text) if ";" in text else text
        toks = plain.replace("(", " ( ").replace(")", " ) ").split()
    else:
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

    def term(self, node, k, acc: dict):
        """Add ``k`` times the variable part of the term ``node`` into
        ``acc`` (variable id -> coefficient) and return ``k`` times its
        constant; ``k`` is a nonzero number in normal form.  A term is
        constant when the coefficients it adds are all zero."""
        if type(node) is int:
            text = self.toks[node]
            # declare-fun refuses numerals, so a declared name is none
            rid = self.formula.rat_var(text)
            if rid is not None:
                acc[rid] = acc.get(rid, 0) + k
                return 0
            if text.isdigit() and text.isascii():
                return k * int(text)
            q = self._try_rat(node)
            if q is not None:
                return integral_or_fraction(k * q)
            if self.formula.prop(text) is not None:
                raise self._error(f"Bool variable {text!r} used in a term", node)
            raise self._error(f"unknown identifier {text!r}", node)
        head = self._head(node)
        args = node[3:]
        if head == "+" or head == "-":
            if not args:
                raise self._error(f"{head!r} needs arguments", node)
            if head == "-" and len(args) == 1:
                return self.term(args[0], -k, acc)
            const = self.term(args[0], k, acc)
            if head == "-":
                k = -k
            for a in args[1:]:
                const += self.term(a, k, acc)
            return const
        if head == "*":
            if len(args) < 2:
                raise self._error("'*' needs two arguments", node)
            linear = None  # (variable part, constant) of the non-constant operand
            nonlinear = False
            for a in args:
                part: dict = {}
                c = self.term(a, 1, part)
                if not any(part.values()):
                    k *= c
                elif linear is None:
                    linear = part, c
                else:
                    nonlinear = True
            if nonlinear:
                raise self._error("nonlinear product", node)
            k = integral_or_fraction(k)
            if linear is None:
                return k
        elif head == "/":
            if len(args) != 2:
                raise self._error("'/' needs two arguments", node)
            part = {}
            linear = part, self.term(args[0], 1, part)
            den: dict = {}
            d = self.term(args[1], 1, den)
            if any(den.values()):
                raise self._error("division by a non-constant", args[1])
            if d == 0:
                raise self._error("division by zero", args[1])
            k = quotient(k, d)
        else:
            raise self._error(f"unknown arithmetic operator {head!r}", node)
        # k times the one non-constant operand of a product or a quotient
        part, c = linear
        for v, coeff in part.items():
            acc[v] = acc.get(v, 0) + k * coeff
        return k * c

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
        if head == "and" or head == "or":
            if not args:
                raise self._error(f"{head!r} needs arguments", node)
            return (BAnd if head == "and" else BOr)([self.bool_expr(a) for a in args])
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
        coeffs: dict = {}
        const = self.term(args[0], 1, coeffs)
        const += self.term(args[1], -1, coeffs)
        return BAtom(coeffs, const, head)

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
                coeffs: dict = {}
                value = Fraction(self.term(args[1], 1, coeffs))
                if any(coeffs.values()):
                    raise self._error("range bound must be a constant", args[1])
                if toks[args[0]] == ":lb":
                    self.lb = value
                else:
                    self.ub = value
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
