"""Problem encoders and benchmark instance generators.

Three encoders build optimization problems from structured input:

* encode_ldp: conjunction of disjunctions of linear constraints, written
  directly as clause-shaped Boolean structure over atoms.
* encode_lgdp: the same disjunctive structure with named indicator
  Booleans guarding each alternative (one indicator per alternative,
  at least one per disjunction, optionally mutually exclusive).
* encode_pb: weighted Boolean objective.  Every weighted Boolean gets a
  rational contribution variable clamped to {0, w} by positive equality
  atoms and held in its range [0, w] by two unit bounds, and the cost
  equals their sum.  The four atoms of each contribution are built
  directly as canonical atoms in normal form (int coefficients, an int
  constant for an integral weight); only the cost equality goes through
  ``normalize_atom``.

Two generator families emit instances in the textual input format (and
round-trip them through the parser, so the returned problem always
matches the emitted text): rectangle packing into a strip of fixed
width minimizing used length, and zero-wait job-shop scheduling
minimizing the makespan.  Randomness comes from an explicit splitmix64
generator so instances are reproducible across platforms.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import EQ, LE, exact, integral_or_fraction
from .formula import (
    Atom,
    BAtom,
    BNot,
    BOr,
    BProp,
    CnfFormula,
    OmtProblem,
    cnfize,
    conj,
    disj,
    normalize_atom,
)
from .parser import parse_problem

# ---------------------------------------------------------------------------
# deterministic pseudo-random numbers

MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: tiny, fast, and identical on every platform.  A seed
    that is no ``int``, or is a ``bool``, raises ValueError."""

    def __init__(self, seed: int):
        if type(seed) is not int:
            raise ValueError(f"seed {seed!r} is not an int")
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]."""
        return lo + self.next_u64() % (hi - lo + 1)


# ---------------------------------------------------------------------------
# structured encoders


class _Ids(dict):
    """Variable ids by name; a name missing from ``variables`` raises
    ValueError."""

    def __missing__(self, name):
        raise ValueError(f"name {name!r} is not in variables")


def _atom(ids: dict, coeffs: dict, op: str, rhs) -> BAtom:
    return BAtom({ids[name]: c for name, c in coeffs.items()}, -exact(rhs), op)


def _declare(f: CnfFormula, variables) -> dict:
    return _Ids((name, f.new_rat_var(name)) for name in variables)


def encode_ldp(variables, cost: str, disjunctions, lb=None, ub=None) -> OmtProblem:
    """Disjunctions of single linear constraints.

    ``disjunctions`` is a list of clauses; each clause is a list of
    (coeffs, op, rhs) triples with name-keyed coefficient dicts, whose
    numbers are taken as ``normalize_atom`` takes them.  A cost or
    coefficient name missing from ``variables`` raises ValueError.
    """
    f = CnfFormula()
    ids = _declare(f, variables)
    parts = []
    for clause in disjunctions:
        parts.append(disj([_atom(ids, c, op, rhs) for (c, op, rhs) in clause]))
    cnfize(conj(parts), f)
    return OmtProblem(f, ids[cost], lb, ub)


def encode_lgdp(variables, cost: str, disjunctions, lb=None, ub=None, exclusive: bool = False) -> OmtProblem:
    """Disjunctive structure with indicator Booleans.

    Each alternative is a list of (coeffs, op, rhs) triples; alternative
    j of disjunction k gets an indicator y<k>_<j> implying all its
    constraints, and each disjunction requires at least one indicator
    (pairwise exclusion is optional on top).  Names are checked as in
    ``encode_ldp``.
    """
    f = CnfFormula()
    ids = _declare(f, variables)
    parts = []
    for k, alts in enumerate(disjunctions):
        ys = [f.new_prop(f"y{k}_{j}") for j in range(len(alts))]
        parts.append(disj([BProp(y) for y in ys]))
        for y, constraints in zip(ys, alts):
            body = conj([_atom(ids, c, op, rhs) for (c, op, rhs) in constraints])
            parts.append(BOr([BNot(BProp(y)), body]))
        if exclusive:
            for a in range(len(ys)):
                for b in range(a + 1, len(ys)):
                    parts.append(BOr([BNot(BProp(ys[a])), BNot(BProp(ys[b]))]))
    cnfize(conj(parts), f)
    return OmtProblem(f, ids[cost], lb, ub)


def encode_pb(num_bools: int, clauses, weights, lb=Fraction(0), ub=None) -> OmtProblem:
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

    Each contribution's four atoms are built in canonical normal form,
    as ``normalize_atom`` would give them: ``w_i >= 0`` is
    ``-w_i <= 0``, and ``-weight_i`` is an int when the weight is
    integral.

    A ``num_bools`` that is not a nonnegative ``int`` (a ``bool`` is
    not one), a literal that is not a nonzero ``int`` naming one of the
    Booleans, or a weight that ``arith.exact`` refuses (a ``str``
    included), is a ``ValueError``.
    """
    if not isinstance(num_bools, int) or isinstance(num_bools, bool) or num_bools < 0:
        raise ValueError(f"num_bools {num_bools!r} is not a nonnegative int")
    weights = [exact(w) for w in weights]
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
            if type(sl) is not int or not (1 <= abs(sl) <= num_bools):
                raise ValueError(f"literal {sl!r} out of range")
            v = bools[abs(sl) - 1]
            lits.append(v if sl > 0 else -v)
        f.add_clause(lits)
    lit_for_atom, add_clause = f.lit_for_atom, f.add_clause
    for b, w, weight in zip(bools, contrib, weights):
        minus = integral_or_fraction(-weight)
        one = ((w, 1),)
        lz = lit_for_atom(Atom(one, 0, EQ))
        lw = lit_for_atom(Atom(one, minus, EQ))
        add_clause([-b, lw])
        add_clause([b, lz])
        add_clause([lit_for_atom(Atom(((w, -1),), 0, LE))])
        add_clause([lit_for_atom(Atom(one, minus, LE))])
    total = {cost: 1}
    total.update((w, -1) for w in contrib)
    eq_cost, _ = normalize_atom(total, 0, "=")
    add_clause([lit_for_atom(eq_cost)])
    if ub is None:
        ub = sum(weights, Fraction(0)) + 1
    return OmtProblem(f, cost, lb, ub)


# ---------------------------------------------------------------------------
# textual instance emission helpers


def smt_rat(q: Fraction) -> str:
    q = Fraction(q)
    if q < 0:
        return f"(- {smt_rat(-q)})"
    if q.denominator == 1:
        return str(q.numerator)
    return f"(/ {q.numerator} {q.denominator})"


def _check_size(name: str, k):
    if type(k) is not int or k < 1:
        raise ValueError(f"{name} {k!r} is not an int of at least 1")


# ---------------------------------------------------------------------------
# rectangle strip packing


def strip_packing_instance(n: int, width: Fraction, seed: int) -> tuple[str, dict]:
    """Pack n rectangles into a strip of the given width, minimizing the
    used length.  Returns (instance text, metadata).

    Rectangles are axis-aligned and may not rotate; (x_i, y_i) is the
    top-left corner, the piece occupies [x_i, x_i+L_i] x [y_i-H_i, y_i].
    A shelf heuristic supplies a feasible length that upper-bounds the
    optimum and is asserted as a hard cap.  An ``n`` below 1 or that is
    no ``int``, a ``width`` that is not positive or that ``arith.exact``
    refuses, or a ``seed`` that ``SplitMix64`` refuses raises ValueError.
    """
    _check_size("n", n)
    width = Fraction(exact(width))
    if width <= 0:
        raise ValueError(f"width {width} is not positive")
    rng = SplitMix64(seed)
    pieces = []
    for _ in range(n):
        length = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        height = width * Fraction(rng.randint(1, 4), 4)
        pieces.append((length, height))

    # shelf heuristic: stack pieces into width-filling columns, sorted by
    # height; the total of the column lengths is an achievable length
    order = sorted(range(n), key=lambda i: (-pieces[i][1], i))
    ub = Fraction(0)
    col_len = Fraction(0)
    col_height = Fraction(0)
    for i in order:
        length, height = pieces[i]
        if col_height + height > width and col_height > 0:
            ub += col_len
            col_len = Fraction(0)
            col_height = Fraction(0)
        col_height += height
        col_len = max(col_len, length)
    ub += col_len

    lines = []
    lines.append(f"; strip packing: n={n} width={width} seed={seed}")
    lines.append(f"; pieces (length height): " + " ".join(f"({l} {h})" for l, h in pieces))
    lines.append(f"; shelf length bound: {ub}")
    lines.append("(set-logic QF_LRA)")
    lines.append("(set-info :lb 0)")
    for i in range(n):
        lines.append(f"(declare-fun x{i} () Real)")
        lines.append(f"(declare-fun y{i} () Real)")
    lines.append("(declare-fun length () Real)")
    for i, (length, height) in enumerate(pieces):
        lines.append(f"(assert (>= x{i} 0))")
        lines.append(f"(assert (<= (+ x{i} {smt_rat(length)}) length))")
        lines.append(f"(assert (>= y{i} {smt_rat(height)}))")
        lines.append(f"(assert (<= y{i} {smt_rat(width)}))")
    for i in range(n):
        li, hi = pieces[i]
        for k in range(i + 1, n):
            lk, hk = pieces[k]
            lines.append(
                "(assert (or "
                f"(<= (+ x{i} {smt_rat(li)}) x{k}) "
                f"(<= (+ x{k} {smt_rat(lk)}) x{i}) "
                f"(>= (- y{i} {smt_rat(hi)}) y{k}) "
                f"(>= (- y{k} {smt_rat(hk)}) y{i})))"
            )
    lines.append(f"(assert (<= length {smt_rat(ub)}))")
    lines.append("(minimize length)")
    lines.append("(check-sat)")
    text = "\n".join(lines) + "\n"
    meta = {"pieces": pieces, "width": width, "ub": ub, "n": n, "seed": seed}
    return text, meta


def strip_packing_problem(n: int, width, seed: int) -> tuple[OmtProblem, dict]:
    text, meta = strip_packing_instance(n, width, seed)
    return parse_problem(text), meta


# ---------------------------------------------------------------------------
# zero-wait job shop


def jobshop_instance(jobs: int, machines: int, seed: int) -> tuple[str, dict]:
    """Zero-wait job shop: every job visits machines 0..m-1 in order with
    no waiting between stages, one job per machine at a time; minimize
    the makespan.  Returns (instance text, metadata).  ``jobs`` and
    ``machines`` are ``int``s of at least 1 and ``seed`` is an ``int``
    that is not a ``bool``, else ValueError is raised."""
    _check_size("jobs", jobs)
    _check_size("machines", machines)
    rng = SplitMix64(seed)
    dur = [[rng.randint(1, 8) for _ in range(machines)] for _ in range(jobs)]
    prefix = []
    for i in range(jobs):
        acc = [Fraction(0)]
        for j in range(machines):
            acc.append(acc[-1] + dur[i][j])
        prefix.append(acc)  # prefix[i][j] = work before stage j

    lines = []
    lines.append(f"; zero-wait job shop: jobs={jobs} machines={machines} seed={seed}")
    lines.append("; durations: " + " ".join("(" + " ".join(map(str, row)) + ")" for row in dur))
    lines.append("(set-logic QF_LRA)")
    lines.append("(set-info :lb 0)")
    for i in range(jobs):
        lines.append(f"(declare-fun s{i} () Real)")
    lines.append("(declare-fun makespan () Real)")
    for i in range(jobs):
        lines.append(f"(assert (>= s{i} 0))")
        lines.append(f"(assert (<= (+ s{i} {smt_rat(prefix[i][machines])}) makespan))")
    for i in range(jobs):
        for k in range(i + 1, jobs):
            for j in range(machines):
                # job i finishes stage j before job k starts it, or vice versa
                a = f"(<= (+ s{i} {smt_rat(prefix[i][j + 1])}) (+ s{k} {smt_rat(prefix[k][j])}))"
                b = f"(<= (+ s{k} {smt_rat(prefix[k][j + 1])}) (+ s{i} {smt_rat(prefix[i][j])}))"
                lines.append(f"(assert (or {a} {b}))")
    lines.append("(minimize makespan)")
    lines.append("(check-sat)")
    text = "\n".join(lines) + "\n"
    meta = {"durations": dur, "jobs": jobs, "machines": machines, "seed": seed, "prefix": prefix}
    return text, meta


def jobshop_problem(jobs: int, machines: int, seed: int) -> tuple[OmtProblem, dict]:
    text, meta = jobshop_instance(jobs, machines, seed)
    return parse_problem(text), meta
