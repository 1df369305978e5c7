"""Canonical atoms, CNF formulas and problem instances.

Atoms are kept in the canonical shape (term rel 0) with rel in {<=, <, =}
so that syntactically different spellings of the same constraint share
one propositional variable.  CNF conversion is the polarity-based
Tseitin variant (Plaisted-Greenbaum): definitional clauses are emitted
only for the polarities that actually occur, which keeps the result
equisatisfiable, linear in size, and lets models of the output project
onto models of the input.  The same walk keeps negated equalities away
from the theory solver: an equality leaf met in a negative position
continues as the conjunction of its two weak halves, whose negation is
a disjunction of two strict inequalities.

The canonical ``Atom`` keeps every coefficient and constant in
``arith``'s normal form: an ``int`` when integral, else a ``Fraction``
with denominator > 1; ``normalize_atom`` puts a raw comparison's
numbers into it in one pass that leaves an ``int`` as it is and takes
any other as ``arith.exact`` does.  Integral input, the common case, is
then hashed and turned into simplex rows and bounds as machine-word
ints, and every layer that
divides an atom field does so with ``arith.quotient`` or another exact
``Fraction`` division.  An ``Atom`` is a ``__slots__`` value holding its
three fields and their hash, computed once when it is built; it refuses
field assignment and pickles by its fields.  The search's outcome is the
boundary where values are ``Fraction`` again: its model and epsilon are
made from the simplex's scaled values, one ``Fraction`` per reported
number (see ``omt.TheoryBridge.snapshot_model``).  ``OmtProblem``'s
range stays ``Fraction`` as the parser reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .arith import EQ, LE, LT, exact, integral_or_fraction, quotient

# ---------------------------------------------------------------------------
# atoms


class Atom:
    """Canonical atom: coeffs (sorted var/coeff pairs) rel-compared to 0.

    The lowest-id variable's coefficient has absolute value 1; equalities
    additionally fix its sign to +1 so both orientations hash equally.

    A value: it equals only another ``Atom`` with equal fields, and
    assigning to a field raises ``AttributeError``.
    """

    # each number is an int when integral, else a Fraction (denominator > 1):
    # coeffs is ((var, coeff), ...) sorted by var, no zeros; rel is LE, LT or EQ
    __slots__ = ("coeffs", "const", "rel", "_hash")

    # atoms key the theory solver's per-literal caches, so the hash of the
    # fields is computed once instead of on every lookup; the fields are
    # set through their slots, since ``__setattr__`` refuses
    def __init__(self, coeffs: tuple, const: Union[int, Fraction], rel: str):
        _set_coeffs(self, coeffs)
        _set_const(self, const)
        _set_rel(self, rel)
        _set_hash(self, hash((coeffs, const, rel)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an Atom")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an Atom")

    def __eq__(self, other):
        if type(other) is not Atom:
            return NotImplemented
        return self.coeffs == other.coeffs and self.const == other.const and self.rel == other.rel

    def __hash__(self):
        return self._hash

    # string hashes differ between processes, so a pickled atom is rebuilt
    # from its fields instead of carrying the stored hash along
    def __reduce__(self):
        return Atom, (self.coeffs, self.const, self.rel)

    def single_var(self):
        """(var, coeff) when the atom mentions exactly one variable."""
        if len(self.coeffs) == 1:
            return self.coeffs[0]
        return None

    def delta_value(self, valuation, scale=1):
        """The term plus the constant under a map var -> simplex value
        (see ``arith``), with the constant taken ``scale`` times: for
        values kept times a positive ``scale``, the result is ``scale``
        times the unscaled one.  It mixes the parts of the values, so
        read it with ``real_part``/``eps_part``."""
        acc = self.const * scale
        for v, c in self.coeffs:
            acc = acc + valuation[v] * c
        return acc

    def __repr__(self):
        parts = " + ".join(f"{c}*x{v}" for v, c in self.coeffs)
        return f"({parts} + {self.const} {self.rel} 0)"


_set_coeffs, _set_const, _set_rel, _set_hash = [getattr(Atom, name).__set__ for name in Atom.__slots__]

# relation -> (canonical relation, whether the term is negated, polarity)
_RELATIONS = {
    LE: (LE, False, True),
    LT: (LT, False, True),
    EQ: (EQ, False, True),
    "!=": (EQ, False, False),
    ">=": (LE, True, True),
    ">": (LT, True, True),
}


def _relation(op) -> tuple[str, bool, bool]:
    """``_RELATIONS[op]``; any other relation raises ValueError."""
    try:
        return _RELATIONS[op]
    except (KeyError, TypeError):  # TypeError: an unhashable op
        raise ValueError(f"unknown relation {op!r}") from None


def normalize_atom(coeffs: dict, const, op: str) -> tuple[Atom, bool]:
    """Canonicalize a raw comparison into (atom, polarity).

    ``op`` is one of <=, <, =, !=, >=, >; the raw constraint is
    (sum coeffs + const) op 0.  The term must mention at least one
    variable (callers fold ground comparisons first).  Each coefficient
    and the constant is an ``int``, a ``Fraction`` or a finite float,
    which is taken as its exact ``Fraction`` (``arith.exact``); the atom
    holds each in normal form, an ``int`` when integral, else a
    ``Fraction``.  Any other relation or number, a ``bool`` or a ``str``
    included, raises ValueError.
    """
    rel, negated, polarity = _relation(op)
    # an int, the common case, is in normal form already; a zero is dropped once checked
    pairs = sorted(
        [(v, q) for v, c in coeffs.items() if (q := c if type(c) is int else integral_or_fraction(exact(c)))]
    )
    if not pairs:
        raise ValueError("ground comparison reached normalize_atom")
    if type(const) is not int:
        const = integral_or_fraction(exact(const))
    # divide by the lead coefficient, or by its absolute value for an
    # inequality, which keeps its direction; negate for >= and >
    lead = pairs[0][1]
    if rel != EQ and lead < 0:
        lead = -lead
    if negated:
        lead = -lead
    if lead == -1:
        pairs = [(v, -c) for v, c in pairs]
        const = -const
    elif lead != 1:
        pairs = [(v, quotient(c, lead)) for v, c in pairs]
        const = quotient(const, lead)
    return Atom(tuple(pairs), const, rel), polarity


# ---------------------------------------------------------------------------
# boolean expression AST (input to cnfize)


class BoolExpr:
    __slots__ = ()


@dataclass(frozen=True)
class BConst(BoolExpr):
    value: bool


@dataclass(frozen=True)
class BProp(BoolExpr):
    var: int  # propositional solver variable


class BAtom(BoolExpr):
    """Raw comparison leaf; canonicalized during CNF conversion.  Its
    numbers are taken in normal form as ``normalize_atom`` takes them."""

    __slots__ = ("coeffs", "const", "op")

    def __init__(self, coeffs, const, op):
        self.coeffs = {v: c if type(c) is int else integral_or_fraction(exact(c)) for v, c in coeffs.items()}
        self.const = const if type(const) is int else integral_or_fraction(exact(const))
        self.op = op


class BNot(BoolExpr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        self.arg = arg


class BAnd(BoolExpr):
    __slots__ = ("args",)

    def __init__(self, args):
        self.args = list(args)


class BOr(BoolExpr):
    __slots__ = ("args",)

    def __init__(self, args):
        self.args = list(args)


class BIff(BoolExpr):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs, rhs):
        self.lhs = lhs
        self.rhs = rhs


TRUE = BConst(True)
FALSE = BConst(False)


def conj(args) -> BoolExpr:
    args = list(args)
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return BAnd(args)


def disj(args) -> BoolExpr:
    args = list(args)
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return BOr(args)


# ---------------------------------------------------------------------------
# CNF container


PROP = "prop"
ATOM = "atom"
LABEL = "label"


class CnfFormula:
    """Clause set over solver variables 1..n plus the meaning of each var.

    Solver literals are signed ints.  A variable is either a named
    proposition, a theory atom, or a fresh CNF label.  Rational
    (theory) variables live in a separate table indexed from 0.
    """

    def __init__(self):
        self.clauses: list[list[int]] = []
        self.kind: list[str] = []  # kind[v-1]
        self.payload: list = []  # name / Atom / None
        self.rat_names: list[str] = []
        self._rat_ids: dict[str, int] = {}
        self._prop_ids: dict[str, int] = {}
        self._atom_ids: dict[Atom, int] = {}

    # -- variables

    def new_rat_var(self, name: str) -> int:
        if name in self._rat_ids:
            raise ValueError(f"duplicate rational variable {name!r}")
        vid = len(self.rat_names)
        self.rat_names.append(name)
        self._rat_ids[name] = vid
        return vid

    def rat_var(self, name: str) -> Optional[int]:
        return self._rat_ids.get(name)

    def _new_solver_var(self, kind: str, payload) -> int:
        self.kind.append(kind)
        self.payload.append(payload)
        return len(self.kind)

    def new_prop(self, name: str) -> int:
        if name in self._prop_ids:
            raise ValueError(f"duplicate Bool variable {name!r}")
        v = self._new_solver_var(PROP, name)
        self._prop_ids[name] = v
        return v

    def prop(self, name: str) -> Optional[int]:
        return self._prop_ids.get(name)

    def new_label(self) -> int:
        return self._new_solver_var(LABEL, None)

    def lit_for_atom(self, atom: Atom, polarity: bool = True) -> int:
        v = self._atom_ids.get(atom)
        if v is None:
            v = self._new_solver_var(ATOM, atom)
            self._atom_ids[atom] = v
        return v if polarity else -v

    def atom_of(self, var: int) -> Optional[Atom]:
        if self.kind[var - 1] == ATOM:
            return self.payload[var - 1]
        return None

    @property
    def num_solver_vars(self) -> int:
        return len(self.kind)

    def add_clause(self, lits: Iterable[int]):
        self.clauses.append(list(lits))

    def copy(self) -> "CnfFormula":
        """Independent clone; the search engines register new atoms and
        clauses on their copy so the input formula stays reusable."""
        f = CnfFormula()
        f.clauses = [list(c) for c in self.clauses]
        f.kind = list(self.kind)
        f.payload = list(self.payload)
        f.rat_names = list(self.rat_names)
        f._rat_ids = dict(self._rat_ids)
        f._prop_ids = dict(self._prop_ids)
        f._atom_ids = dict(self._atom_ids)
        return f


# ---------------------------------------------------------------------------
# CNF conversion


def _fold_ground(coeffs, const, op) -> Optional[bool]:
    """Truth value when the comparison has no variables, else None; an
    unknown relation raises ValueError, as in ``normalize_atom``."""
    if any(coeffs.values()):
        return None
    rel, negated, polarity = _relation(op)
    if negated:
        const = -const
    return (const <= 0 if rel == LE else const < 0 if rel == LT else const == 0) == polarity


class _Cnfizer:
    def __init__(self, formula: CnfFormula):
        self.f = formula
        self.labels: dict[int, int] = {}  # id(node) -> label var
        self.defined: set[tuple[int, bool]] = set()
        self.halves: dict[int, BAnd] = {}  # id(equality leaf) -> its halves
        # comparison leaf -> its literal under the positive sign, or its
        # folded truth value; the parser hands a repeated inequality in as
        # one leaf, so a leaf is normalized once whatever its signs
        self.leaf_lits: dict[BAtom, Union[int, bool]] = {}

    def _split_negated(self, node: BoolExpr, sign: bool) -> tuple[BoolExpr, bool]:
        """An equality leaf t = 0 that occurs negatively (``=`` under sign
        False, ``!=`` under sign True) continues as its weak halves
        t <= 0 and -t <= 0 under sign False, so the clauses never hold a
        negated equality.  The halves are built once per leaf from its
        raw coefficients; other nodes pass through."""
        if isinstance(node, BAtom) and node.op == ("!=" if sign else EQ):
            halves = self.halves.get(id(node))
            if halves is None:
                neg = {v: -c for v, c in node.coeffs.items()}
                halves = BAnd([BAtom(node.coeffs, node.const, LE), BAtom(neg, -node.const, LE)])
                self.halves[id(node)] = halves
            return halves, False
        return node, sign

    def pos_lit(self, part: BoolExpr) -> Union[int, bool]:
        """Literal standing for ``part`` in a positive clause position.

        Returns True/False when the part folds to a constant.
        """
        sign = True
        while isinstance(part, BNot):
            sign = not sign
            part = part.arg
        part, sign = self._split_negated(part, sign)
        if isinstance(part, BConst):
            return part.value == sign
        if isinstance(part, BAtom):
            lit = self.leaf_lits.get(part)
            if lit is None:
                lit = _fold_ground(part.coeffs, part.const, part.op)
                if lit is None:
                    lit = self.f.lit_for_atom(*normalize_atom(part.coeffs, part.const, part.op))
                self.leaf_lits[part] = lit
            if type(lit) is bool:
                return lit == sign
            return lit if sign else -lit
        if isinstance(part, BProp):
            return part.var if sign else -part.var
        q = self.labels.get(id(part))
        if q is None:
            q = self.f.new_label()
            self.labels[id(part)] = q
        key = (q, sign)
        if key not in self.defined:
            self.defined.add(key)
            guard = -q if sign else q
            for cl in self.clauses(part, sign):
                if cl is True:
                    continue
                if cl is False:
                    self.f.add_clause([guard])
                    break
                self.f.add_clause([guard] + cl)
        return q if sign else -q

    def _clause(self, parts) -> Union[bool, list[int]]:
        out = []
        for p in parts:
            lit = self.pos_lit(p)
            if lit is True:
                return True
            if lit is False:
                continue
            out.append(lit)
        if not out:
            return False
        return out

    def clauses(self, expr: BoolExpr, polarity: bool):
        """Yield clauses (lists of lits), True (tautology) or False (empty)."""
        expr, polarity = self._split_negated(expr, polarity)
        if isinstance(expr, BConst):
            yield True if expr.value == polarity else False
            return
        if isinstance(expr, (BProp, BAtom)):
            lit = self.pos_lit(expr if polarity else BNot(expr))
            yield lit if isinstance(lit, bool) else [lit]
            return
        if isinstance(expr, BNot):
            yield from self.clauses(expr.arg, not polarity)
            return
        if isinstance(expr, BAnd):
            if polarity:
                for a in expr.args:
                    yield from self.clauses(a, True)
            else:
                yield self._clause([BNot(a) for a in expr.args])
            return
        if isinstance(expr, BOr):
            if polarity:
                yield self._clause(list(expr.args))
            else:
                for a in expr.args:
                    yield from self.clauses(a, False)
            return
        if isinstance(expr, BIff):
            a, b = expr.lhs, expr.rhs
            if polarity:
                yield self._clause([BNot(a), b])
                yield self._clause([a, BNot(b)])
            else:
                yield self._clause([a, b])
                yield self._clause([BNot(a), BNot(b)])
            return
        raise TypeError(f"not a BoolExpr: {expr!r}")


def cnfize(expr: BoolExpr, into: Optional[CnfFormula] = None) -> CnfFormula:
    """Clausify ``expr`` in one walk and append the result to ``into``
    (or a fresh formula).  An input that folds to false yields the empty
    clause."""
    f = into if into is not None else CnfFormula()
    conv = _Cnfizer(f)
    for cl in conv.clauses(expr, True):
        if cl is True:
            continue
        if cl is False:
            f.add_clause([])
        else:
            f.add_clause(cl)
    return f


# ---------------------------------------------------------------------------
# optimization problem


@dataclass
class OmtProblem:
    """CNF formula plus the cost variable to minimize and optional range.

    The range convention is [lb, ub[: the lower bound is admissible, the
    upper is not.  Bounds are enforced as unit constraints by the search
    engines, not stored inside the clause set.  A bound is None, an
    ``int`` or a ``Fraction``, each kept as it is, or a finite float,
    kept as its exact ``Fraction`` (``arith.exact``); any other value, a
    ``bool`` or a ``str`` included, raises ValueError.  So does a
    clause literal that is not a nonzero ``int`` naming one of the
    formula's solver variables, and a ``cost`` that is not the ``int``
    index of one of its rational variables (a ``bool`` is not an index).
    """

    formula: CnfFormula
    cost: int
    lb: Optional[Fraction] = None
    ub: Optional[Fraction] = None

    def __post_init__(self):
        cost = self.cost
        if type(cost) is not int or not 0 <= cost < len(self.formula.rat_names):
            raise ValueError(f"cost {cost!r} is not the int index of a declared variable")
        self.lb = None if self.lb is None else exact(self.lb)
        self.ub = None if self.ub is None else exact(self.ub)
        if self.lb is not None and self.ub is not None and not (self.lb < self.ub):
            raise ValueError("empty cost range: require lb < ub")
        n = self.formula.num_solver_vars
        for cl in self.formula.clauses:
            for lit in cl:
                if type(lit) is not int or not (lit and -n <= lit <= n):
                    raise ValueError(f"clause literal {lit!r} names no solver variable")
                if lit < 0 and self.formula.atom_of(-lit) is not None:
                    if self.formula.atom_of(-lit).rel == EQ:
                        raise ValueError(
                            "negated equality literal in clause set; "
                            "split it into strict inequalities first"
                        )
