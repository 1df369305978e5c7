"""Shared generators and reference checkers for the test suite.

Nothing in here consults the search engines: reference answers come from
numpy enumeration (Boolean), Fourier-Motzkin (conjunctions), and exact
longest-path reasoning over difference constraints (packing/scheduling).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional
from unittest import mock

import numpy as np

from omtq import OmtConfig, SplitMix64, formula
from omtq.arith import EQ, LE, LT, integral_or_fraction, parse_rat
from omtq.formula import (
    ATOM,
    Atom,
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
    normalize_atom,
)
from omtq.parser import BOOL_HEADS, COMPARISONS, MAX_DEPTH, ParseError

FAMILIES = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "families"

ALL_CONFIGS = [
    OmtConfig(schema=schema, search=search)
    for schema in ("offline", "inline")
    for search in ("linear", "binary")
]

# the reference instance: optimum 15, attained
EX1 = """
(declare-fun cost () Real)
(declare-fun a () Real)
(set-info :lb 0)
(set-info :ub 16)
(assert (>= cost (+ a 15)))
(assert (>= a 0))
(minimize cost)
"""

# a vanishing range: the infimum 0 is not attained, as every model has a > 0
ZENO = """
(declare-fun cost () Real)
(declare-fun a () Real)
(set-info :lb 0)
(set-info :ub 16)
(assert (>= cost a))
(assert (or (> a 0) (> a 1)))
(minimize cost)
"""

# ---------------------------------------------------------------------------
# random CNF + brute force (numpy)


def random_cnf(seed: int, max_vars: int = 16):
    """Random 3-CNF: (nvars, clauses) with signed 1-based literals."""
    rng = SplitMix64(seed)
    nvars = 3 + rng.randint(0, max_vars - 3)
    nclauses = 1 + rng.randint(0, 3 * nvars)
    clauses = []
    for _ in range(nclauses):
        width = 1 + rng.randint(0, 2)
        lits = []
        seen = set()
        while len(lits) < width:
            v = 1 + rng.randint(0, nvars - 1)
            if v in seen:
                continue
            seen.add(v)
            lits.append(v if rng.randint(0, 1) else -v)
        clauses.append(lits)
    return nvars, clauses


def random_pb(seed: int, num_bools: int = 30, ratio: float = 3.5):
    """Weighted random 3-CNF, the shape of the benchmark's ``pb`` pool:
    (num_bools, clauses, weights) for ``encode_pb``."""
    rng = SplitMix64(seed)
    clauses = []
    for _ in range(round(num_bools * ratio)):
        chosen = set()
        while len(chosen) < 3:
            chosen.add(rng.randint(1, num_bools))
        clauses.append([v if rng.randint(0, 1) else -v for v in sorted(chosen)])
    weights = [rng.randint(1, 9) for _ in range(num_bools)]
    return num_bools, clauses, weights


# ``encode_pb`` as it was when every atom went through ``normalize_atom``
# from Fraction coefficients and constants, kept verbatim: the encoder
# that builds its atoms in normal form must hand on the same problem
def reference_encode_pb(num_bools: int, clauses, weights, lb=Fraction(0), ub=None) -> OmtProblem:
    """Weighted Boolean minimization as clause-level structure.

    ``clauses`` uses signed 1-based indices over the Boolean variables,
    ``weights`` gives one nonnegative weight per variable; the cost is
    the sum of weights of the Booleans set to true.  Equality atoms are
    introduced only positively, so the arithmetic core never faces a
    negated equality.

    Each contribution ``w_i`` also gets the unit clauses ``w_i >= 0`` and
    ``w_i <= weight_i``, right after its Boolean's two clamp clauses.
    The clamps imply both, so the models and the optimum are the same;
    with every ``w_i`` bounded from level 0 the cost row is bounded too,
    and the simplex refutes a partial assignment as soon as the weights
    already switched on reach the cost's upper bound.
    """
    weights = [Fraction(w) for w in weights]
    if len(weights) != num_bools:
        raise ValueError("one weight per Boolean variable required")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    f = CnfFormula()
    cost = f.new_rat_var("cost")
    contrib = [f.new_rat_var(f"w{i + 1}") for i in range(num_bools)]
    bools = [f.new_prop(f"b{i + 1}") for i in range(num_bools)]
    for cl in clauses:
        lits = []
        for sl in cl:
            if not (1 <= abs(sl) <= num_bools):
                raise ValueError(f"literal {sl} out of range")
            v = bools[abs(sl) - 1]
            lits.append(v if sl > 0 else -v)
        f.add_clause(lits)
    for i in range(num_bools):
        zero, _ = normalize_atom({contrib[i]: Fraction(1)}, Fraction(0), "=")
        full, _ = normalize_atom({contrib[i]: Fraction(1)}, -weights[i], "=")
        lz = f.lit_for_atom(zero, True)
        lw = f.lit_for_atom(full, True)
        f.add_clause([-bools[i], lw])
        f.add_clause([bools[i], lz])
        for op, rhs in ((">=", Fraction(0)), ("<=", -weights[i])):
            f.add_clause([f.lit_for_atom(*normalize_atom({contrib[i]: Fraction(1)}, rhs, op))])
    total = {cost: Fraction(1)}
    for i, c in enumerate(contrib):
        total[c] = total.get(c, Fraction(0)) - Fraction(1)
    eq_cost, _ = normalize_atom(total, Fraction(0), "=")
    f.add_clause([f.lit_for_atom(eq_cost, True)])
    if ub is None:
        ub = sum(weights, Fraction(0)) + 1
    return OmtProblem(f, cost, lb, ub)


def truth_table(nvars: int):
    """Bool matrix of shape (2**nvars, nvars): row r = assignment r."""
    rows = np.arange(1 << nvars, dtype=np.uint32)
    return (rows[:, None] >> np.arange(nvars, dtype=np.uint32)[None, :]) & 1


def cnf_rows(nvars: int, clauses) -> np.ndarray:
    """Boolean vector over all 2**nvars assignments: formula satisfied?"""
    table = truth_table(nvars).astype(bool)
    ok = np.ones(1 << nvars, dtype=bool)
    for cl in clauses:
        cl_ok = np.zeros(1 << nvars, dtype=bool)
        for lit in cl:
            col = table[:, abs(lit) - 1]
            cl_ok |= col if lit > 0 else ~col
        ok &= cl_ok
    return ok


def brute_sat(nvars: int, clauses, fixed=()) -> bool:
    """Exhaustive satisfiability, optionally under fixed literals."""
    ok = cnf_rows(nvars, clauses)
    table = truth_table(nvars).astype(bool)
    for lit in fixed:
        col = table[:, abs(lit) - 1]
        ok &= col if lit > 0 else ~col
    return bool(ok.any())


# ---------------------------------------------------------------------------
# random arithmetic material


def _random_row(rng: SplitMix64, nvars: int, max_width: int = 3):
    width = 1 + rng.randint(0, min(max_width, nvars) - 1)
    chosen = []
    while len(chosen) < width:
        v = rng.randint(0, nvars - 1)
        if v not in chosen:
            chosen.append(v)
    coeffs = {}
    for v in chosen:
        c = 0
        while c == 0:
            c = rng.randint(-4, 4)
        coeffs[v] = Fraction(c)
    return coeffs, Fraction(rng.randint(-8, 8))


def random_literals(seed: int, nvars: int = 3, allow_eq: bool = True):
    """Conjunction of (Atom, polarity) literals over vars 0..nvars-1."""
    rng = SplitMix64(seed)
    n = 1 + rng.randint(0, 5)
    lits = []
    for _ in range(n):
        coeffs, const = _random_row(rng, nvars)
        roll = rng.randint(0, 9)
        if roll < 4:
            op = "<="
        elif roll < 7:
            op = "<"
        elif roll < 9 or not allow_eq:
            op = ">="
        else:
            op = "="
        atom, pol = normalize_atom(coeffs, const, op)
        if rng.randint(0, 1) and atom.rel != EQ:
            pol = not pol
        lits.append((atom, pol))
    return lits


def bounded_literals(seed: int, nvars: int = 3):
    """Like random_literals but var 0 always gets a finite lower bound,
    so minimization along it cannot be unbounded."""
    lits = random_literals(seed, nvars, allow_eq=True)
    rng = SplitMix64(seed ^ 0xB0D1)
    atom, pol = normalize_atom({0: Fraction(1)}, Fraction(rng.randint(-8, 0)), ">=")
    lits.append((atom, pol))
    return lits


# ---------------------------------------------------------------------------
# random whole problems (the oracle-agreement corpus)


def corpus_problem(seed: int) -> OmtProblem:
    """Small random optimization instance; var 0 is the cost."""
    rng = SplitMix64(seed)
    f = CnfFormula()
    nrat = 1 + rng.randint(0, 3)
    names = ["cost"] + [f"x{i}" for i in range(1, nrat)]
    for name in names:
        f.new_rat_var(name)
    nprop = rng.randint(0, 4)
    props = [f.new_prop(f"p{i}") for i in range(nprop)]

    pool = []
    natoms = 2 + rng.randint(0, 6)
    for k in range(natoms):
        if k == 0:
            # keep the cost mentioned somewhere
            coeffs = {0: Fraction(rng.randint(1, 4))}
            const = Fraction(rng.randint(-8, 8))
        else:
            coeffs, const = _random_row(rng, nrat)
        roll = rng.randint(0, 9)
        if roll < 4:
            op = "<="
        elif roll < 6:
            op = "<"
        elif roll < 9:
            op = ">="
        else:
            op = "="
        pool.append(normalize_atom(coeffs, const, op))

    nclauses = 2 + rng.randint(0, 4)
    for _ in range(nclauses):
        width = 1 + rng.randint(0, 2)
        lits = []
        for _ in range(width):
            if props and rng.randint(0, 9) < 3:
                p = props[rng.randint(0, len(props) - 1)]
                lits.append(p if rng.randint(0, 1) else -p)
            else:
                atom, pol = pool[rng.randint(0, len(pool) - 1)]
                if rng.randint(0, 1) and atom.rel != EQ:
                    pol = not pol
                lits.append(f.lit_for_atom(atom, pol))
        f.add_clause(lits)
    # anchor clause: some finite lower bound on cost in half the cases,
    # leaving the rest free to be unbounded or range-cut
    if rng.randint(0, 1):
        atom, pol = normalize_atom({0: Fraction(1)}, Fraction(rng.randint(-8, 0)), ">=")
        f.add_clause([f.lit_for_atom(atom, pol)])

    lb = ub = None
    if rng.randint(0, 1):
        lb = Fraction(rng.randint(-8, 4))
        ub = lb + 1 + rng.randint(0, 12)
    return OmtProblem(f, cost=0, lb=lb, ub=ub)


# ---------------------------------------------------------------------------
# difference-constraint reasoning (exact, Fractions)


def least_solution(n: int, edges, floor):
    """Least x with x[v] >= x[u]+w for (u,v,w) in edges and x[i] >= floor[i].

    Returns the vector or None when no solution exists (positive cycle).
    """
    x = list(floor)
    for _ in range(n):
        changed = False
        for u, v, w in edges:
            cand = x[u] + w
            if cand > x[v]:
                x[v] = cand
                changed = True
        if not changed:
            return x
    return None  # still relaxing after n rounds: positive cycle


def strip_oracle(meta) -> Fraction:
    """Minimal strip length by enumerating one disjunct per piece pair."""
    pieces = meta["pieces"]
    width = meta["width"]
    cap = meta["ub"]
    n = meta["n"]
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    best = [None]

    def descend(idx, x_edges, y_edges):
        xs = least_solution(n, x_edges, [Fraction(0)] * n)
        if xs is None:
            return
        used = max(xs[i] + pieces[i][0] for i in range(n))
        if used > cap or (best[0] is not None and used >= best[0]):
            return
        ys = least_solution(n, y_edges, [pieces[i][1] for i in range(n)])
        if ys is None or any(y > width for y in ys):
            return
        if idx == len(pairs):
            best[0] = used
            return
        i, k = pairs[idx]
        li, hi = pieces[i]
        lk, hk = pieces[k]
        descend(idx + 1, x_edges + [(i, k, li)], y_edges)  # i left of k
        descend(idx + 1, x_edges + [(k, i, lk)], y_edges)  # k left of i
        descend(idx + 1, x_edges, y_edges + [(k, i, hi)])  # k below i
        descend(idx + 1, x_edges, y_edges + [(i, k, hk)])  # i below k

    descend(0, [], [])
    assert best[0] is not None, "strip instance must be feasible"
    return best[0]


def jobshop_oracle(meta) -> Fraction:
    """Minimal makespan by enumerating stage precedences per job pair."""
    jobs = meta["jobs"]
    machines = meta["machines"]
    prefix = meta["prefix"]
    total = [prefix[i][machines] for i in range(jobs)]
    slots = [(i, k, j) for i in range(jobs) for k in range(i + 1, jobs)
             for j in range(machines)]
    best = [None]

    def descend(idx, edges):
        starts = least_solution(jobs, edges, [Fraction(0)] * jobs)
        if starts is None:
            return
        span = max(starts[i] + total[i] for i in range(jobs))
        if best[0] is not None and span >= best[0]:
            return
        if idx == len(slots):
            best[0] = span
            return
        i, k, j = slots[idx]
        descend(idx + 1, edges + [(i, k, prefix[i][j + 1] - prefix[k][j])])
        descend(idx + 1, edges + [(k, i, prefix[k][j + 1] - prefix[i][j])])

    descend(0, [])
    assert best[0] is not None, "jobshop instance must be feasible"
    return best[0]


def strip_layout_ok(meta, model) -> bool:
    """No two decoded rectangles overlap and all sit inside the strip."""
    n = meta["n"]
    width = meta["width"]
    rects = []
    for i in range(n):
        li, hi = meta["pieces"][i]
        x = model[f"x{i}"]
        y = model[f"y{i}"]
        if x < 0 or y - hi < 0 or y > width:
            return False
        if x + li > model["length"]:
            return False
        rects.append((x, x + li, y - hi, y))
    for i in range(n):
        for k in range(i + 1, n):
            ax0, ax1, ay0, ay1 = rects[i]
            bx0, bx1, by0, by1 = rects[k]
            if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                return False
    return True


# ---------------------------------------------------------------------------
# witness checking


def eval_concrete(atom: Atom, valuation) -> bool:
    """Truth of ``atom`` under a map var -> Fraction."""
    total = atom.const + sum((Fraction(valuation[v]) * c for v, c in atom.coeffs), Fraction(0))
    if atom.rel == LE:
        return total <= 0
    if atom.rel == LT:
        return total < 0
    return total == 0


def model_satisfies(problem: OmtProblem, model: dict) -> bool:
    """Does a rational valuation extend to a full model of the clauses?

    Atom literals are evaluated under the valuation; what remains is a
    plain Boolean CNF over propositions and definition labels, decided
    exhaustively.
    """
    f = problem.formula
    valuation = {i: model[name] for i, name in enumerate(f.rat_names)}

    residual = []
    for clause in f.clauses:
        lits = []
        satisfied = False
        for lit in clause:
            atom = f.atom_of(abs(lit))
            if atom is None:
                lits.append(lit)
                continue
            if eval_concrete(atom, valuation) == (lit > 0):
                satisfied = True
                break
        if satisfied:
            continue
        if not lits:
            return False
        residual.append(lits)
    if not residual:
        return True

    vars_left = sorted({abs(l) for cl in residual for l in cl})
    remap = {v: i + 1 for i, v in enumerate(vars_left)}
    mapped = [[(1 if l > 0 else -1) * remap[abs(l)] for l in cl] for cl in residual]
    return brute_sat(len(vars_left), mapped)


# ---------------------------------------------------------------------------
# random Boolean structure in the textual format


def boolean_structure_text(seed: int) -> str:
    """SMT-LIB text over 1-3 Reals (the first is the cost) and 0-3 Bools.

    Assertions nest and, or, not, n-ary => and Bool = around comparisons,
    equalities among them, so equalities occur under every sign and
    inside both sides of a Bool =.  A lower bound on the cost and a range
    are each added in half the cases.
    """
    rng = SplitMix64(seed)
    reals = ["cost"] + [f"x{i}" for i in range(1, 1 + rng.randint(0, 2))]
    bools = [f"p{i}" for i in range(rng.randint(0, 3))]

    def num(q):
        return str(q) if q >= 0 else f"(- {-q})"

    def comparison():
        op = ("=", "=", "<=", "<", ">=", ">")[rng.randint(0, 5)]
        if rng.randint(0, 9) == 0:
            return f"({op} {num(rng.randint(-1, 1))} 0)"  # ground
        chosen = []
        for _ in range(rng.randint(1, 2)):
            v = reals[rng.randint(0, len(reals) - 1)]
            if v not in chosen:
                chosen.append(v)
        # signs are random, so half the leading coefficients are negative
        coeffs = [rng.randint(1, 3) * (1 if rng.randint(0, 1) else -1) for _ in chosen]
        terms = " ".join(f"(* {num(c)} {v})" for c, v in zip(coeffs, chosen))
        return f"({op} (+ {terms}) {num(rng.randint(-4, 4))})"

    def expr(depth):
        roll = rng.randint(0, 9) if depth else 0
        if roll < 3:
            if bools and rng.randint(0, 3) == 0:
                return bools[rng.randint(0, len(bools) - 1)]
            return comparison()
        if roll == 3:
            return f"(not {expr(depth - 1)})"
        if roll < 6:
            return f"({('and', 'or')[roll - 4]} {expr(depth - 1)} {expr(depth - 1)})"
        if roll < 8:
            args = " ".join(expr(depth - 1) for _ in range(rng.randint(2, 3)))
            return f"(=> {args})"
        return f"(= {expr(depth - 1)} {expr(depth - 1)})"

    lines = [f"(declare-fun {v} () Real)" for v in reals]
    lines += [f"(declare-fun {b} () Bool)" for b in bools]
    lines.append(f"(assert {expr(2)})")
    if rng.randint(0, 1):
        lines.append(f"(assert {expr(1)})")
    if rng.randint(0, 1):
        lines.append(f"(assert (>= cost {num(rng.randint(-6, 0))}))")
    if rng.randint(0, 1):
        lb = rng.randint(-6, 2)
        lines.append(f"(set-info :lb {num(lb)})")
        lines.append(f"(set-info :ub {num(lb + 1 + rng.randint(0, 8))})")
    lines.append("(minimize cost)")
    return "\n".join(lines) + "\n"


COMPARE = {
    "=": operator.eq, "<=": operator.le, "<": operator.lt, ">=": operator.ge, ">": operator.gt
}


def text_holds(text: str, model: dict) -> bool:
    """Do the assertions of ``text`` hold under the rational valuation
    ``model`` for some value of its Bools?  Evaluates the S-expressions
    of the reference reader directly, so the check shares no reader,
    Boolean AST or CNF with the package."""
    nodes = reference_parse_sexprs(text)
    bools = [
        n.items[1].text for n in nodes if n.head() == "declare-fun" and n.items[3].text == "Bool"
    ]
    asserts = [n.items[1] for n in nodes if n.head() == "assert"]

    def value(node, env):
        if node.is_atom:
            return env[node.text] if node.text in env else Fraction(node.text)
        head, args = node.head(), [value(a, env) for a in node.items[1:]]
        if head == "and":
            return all(args)
        if head == "or":
            return any(args)
        if head == "not":
            return not args[0]
        if head == "=>":
            return not all(args[:-1]) or args[-1]
        if head == "+":
            return sum(args, Fraction(0))
        if head == "-":
            return -args[0] if len(args) == 1 else args[0] - sum(args[1:], Fraction(0))
        if head == "*":
            return args[0] * args[1]
        return COMPARE[head](*args)

    for row in truth_table(len(bools)).astype(bool):
        env = dict(model, **{b: bool(t) for b, t in zip(bools, row)})
        if all(value(a, env) for a in asserts):
            return True
    return False


# ---------------------------------------------------------------------------
# reference input stage
#
# The reader, builder and canonicalization as they were when every
# coefficient was a Fraction from the first token on and the reader
# walked the text one character at a time.  The bodies are kept as they
# were; only the names carry a Reference prefix.  ``reference_parse_problem``
# runs them with omtq's CNF walk, whose only arithmetic is the two
# functions it swaps in, so the whole input stage is the old one.


@dataclass
class ReferenceSExpr:
    items: Optional[list]  # None for atoms
    text: Optional[str]
    line: int
    col: int

    @property
    def is_atom(self) -> bool:
        return self.items is None

    def head(self) -> Optional[str]:
        if self.items and self.items[0].is_atom:
            return self.items[0].text
        return None


def _reference_tokens(text: str):
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif ch in "()":
            yield (ch, ch, line, col)
            col += 1
            i += 1
        else:
            j = i
            while j < n and text[j] not in " \t\r\n();":
                j += 1
            yield ("atom", text[i:j], line, col)
            col += j - i
            i = j


def reference_parse_sexprs(text: str) -> list[ReferenceSExpr]:
    stack: list[ReferenceSExpr] = []
    top: list[ReferenceSExpr] = []
    for kind, tok, line, col in _reference_tokens(text):
        if kind == "(":
            if len(stack) == MAX_DEPTH:
                raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", line, col)
            stack.append(ReferenceSExpr([], None, line, col))
        elif kind == ")":
            if not stack:
                raise ParseError("unbalanced ')'", line, col)
            node = stack.pop()
            (stack[-1].items if stack else top).append(node)
        else:
            node = ReferenceSExpr(None, tok, line, col)
            (stack[-1].items if stack else top).append(node)
    if stack:
        raise ParseError("unclosed '('", stack[-1].line, stack[-1].col)
    return top


def _reference_try_rat(text: str) -> Optional[Fraction]:
    try:
        return parse_rat(text)
    except ValueError:
        return None


class _ReferenceProblemBuilder:
    def __init__(self):
        self.formula = CnfFormula()
        self.asserts: list[BoolExpr] = []
        self.cost: Optional[int] = None
        self.lb: Optional[Fraction] = None
        self.ub: Optional[Fraction] = None

    # -- terms

    def term(self, node: ReferenceSExpr) -> ReferenceLinTerm:
        if node.is_atom:
            q = _reference_try_rat(node.text)
            if q is not None:
                return ReferenceLinTerm(const=q)
            rid = self.formula.rat_var(node.text)
            if rid is not None:
                return ReferenceLinTerm({rid: 1})
            if self.formula.prop(node.text) is not None:
                raise ParseError(f"Bool variable {node.text!r} used in a term", node.line, node.col)
            raise ParseError(f"unknown identifier {node.text!r}", node.line, node.col)
        head = node.head()
        args = node.items[1:]
        if head == "+":
            if not args:
                raise ParseError("'+' needs arguments", node.line, node.col)
            acc = ReferenceLinTerm()
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
            factor = Fraction(1)
            for p in parts:
                if p.is_ground():
                    factor *= p.const
            if not nonground:
                return ReferenceLinTerm(const=factor)
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
            return num.scale(Fraction(1) / den.const)
        raise ParseError(f"unknown arithmetic operator {head!r}", node.line, node.col)

    # -- sort dispatch for '='

    def _looks_boolean(self, node: ReferenceSExpr) -> bool:
        if node.is_atom:
            if node.text in ("true", "false"):
                return True
            return self.formula.prop(node.text) is not None
        return node.head() in BOOL_HEADS

    # -- boolean expressions

    def bool_expr(self, node: ReferenceSExpr) -> BoolExpr:
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
        if head in COMPARISONS or head == "=":
            if len(args) != 2:
                raise ParseError(f"{head!r} compares exactly two operands", node.line, node.col)
            if head == "=" and (self._looks_boolean(args[0]) or self._looks_boolean(args[1])):
                return BIff(self.bool_expr(args[0]), self.bool_expr(args[1]))
            diff = self.term(args[0]).add(self.term(args[1]).scale(-1))
            return BAtom(diff.coeffs, diff.const, head)
        raise ParseError(f"unknown operator {head!r}", node.line, node.col)

    # -- commands

    def command(self, node: ReferenceSExpr):
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
                    self.lb = value.const
                else:
                    self.ub = value.const
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


class ReferenceLinTerm:
    """Mutable builder for sum(coeff_i * var_i) + const over variable ids."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0):
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for v, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[v] = c
        self.const = Fraction(const)

    def copy(self) -> "ReferenceLinTerm":
        t = ReferenceLinTerm()
        t.coeffs = dict(self.coeffs)
        t.const = self.const
        return t

    def add_var(self, var: int, coeff) -> "ReferenceLinTerm":
        c = self.coeffs.get(var, Fraction(0)) + Fraction(coeff)
        if c:
            self.coeffs[var] = c
        else:
            self.coeffs.pop(var, None)
        return self

    def add(self, other: "ReferenceLinTerm") -> "ReferenceLinTerm":
        for v, c in other.coeffs.items():
            self.add_var(v, c)
        self.const += other.const
        return self

    def scale(self, k) -> "ReferenceLinTerm":
        k = Fraction(k)
        if k == 0:
            self.coeffs = {}
            self.const = Fraction(0)
            return self
        self.coeffs = {v: c * k for v, c in self.coeffs.items()}
        self.const *= k
        return self

    def is_ground(self) -> bool:
        return not self.coeffs


def reference_normalize_atom(coeffs: dict, const, op: str) -> tuple[Atom, bool]:
    """Canonicalize a raw comparison into (atom, polarity).

    ``op`` is one of <=, <, =, !=, >=, >; the raw constraint is
    (sum coeffs + const) op 0.  The term must mention at least one
    variable (callers fold ground comparisons first).
    """
    term = {v: Fraction(c) for v, c in coeffs.items() if Fraction(c) != 0}
    const = Fraction(const)
    if not term:
        raise ValueError("ground comparison reached reference_normalize_atom")

    polarity = True
    if op == ">=":
        op = LE
        term = {v: -c for v, c in term.items()}
        const = -const
    elif op == ">":
        op = LT
        term = {v: -c for v, c in term.items()}
        const = -const
    elif op == "!=":
        op = EQ
        polarity = False

    first = min(term)
    lead = term[first]
    if op == EQ:
        scale = 1 / lead  # may be negative: equalities are symmetric
    else:
        scale = 1 / abs(lead)
    if scale != 1:
        term = {v: c * scale for v, c in term.items()}
        const = const * scale

    pairs = tuple(sorted(term.items()))
    return Atom(pairs, const, op), polarity


def _reference_fold_ground(coeffs, const, op) -> Optional[bool]:
    """Truth value when the comparison has no variables, else None."""
    if any(Fraction(c) != 0 for c in coeffs.values()):
        return None
    c = Fraction(const)
    if op in (LE, ">="):
        return c <= 0 if op == LE else -c <= 0
    if op in (LT, ">"):
        return c < 0 if op == LT else -c < 0
    if op == EQ:
        return c == 0
    if op == "!=":
        return c != 0
    raise ValueError(f"bad op {op!r}")


def _reference_normal_atom(coeffs: dict, const, op: str) -> tuple[Atom, bool]:
    """``reference_normalize_atom`` with the atom's numbers put in the
    form the canonical atoms now hold: an int when integral, else a
    Fraction."""
    atom, polarity = reference_normalize_atom(coeffs, const, op)
    pairs = tuple((v, integral_or_fraction(c)) for v, c in atom.coeffs)
    return Atom(pairs, integral_or_fraction(atom.const), atom.rel), polarity


def reference_parse_problem(text: str) -> OmtProblem:
    with mock.patch.multiple(
        formula,
        normalize_atom=_reference_normal_atom,
        _fold_ground=_reference_fold_ground,
    ):
        builder = _ReferenceProblemBuilder()
        for node in reference_parse_sexprs(text):
            builder.command(node)
        return builder.finish()


def _typed(value):
    if isinstance(value, tuple):
        return tuple(_typed(v) for v in value)
    return (type(value).__name__, value)


def typed_digest(problem: OmtProblem):
    """Everything the input stage hands on, each number with its type:
    clauses, kinds, every atom field, names, cost variable and range."""
    f = problem.formula
    payload = [
        (_typed(p.coeffs), _typed(p.const), p.rel) if kind == ATOM else p
        for kind, p in zip(f.kind, f.payload)
    ]
    return (
        f.clauses,
        f.kind,
        payload,
        f.rat_names,
        problem.cost,
        _typed(problem.lb),
        _typed(problem.ub),
    )


def input_outcome(parse, text: str):
    """("ok", typed digest) or ("ParseError", message) of ``parse``."""
    try:
        return "ok", typed_digest(parse(text))
    except ParseError as exc:
        return "ParseError", str(exc)
