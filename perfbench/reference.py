"""Reference answers and witness checks that share no code with omtq.

Nothing here imports the solver.  It holds:

* an evaluator for the SMT-LIB text the benchmark feeds the solver, used
  to check every witness model against the input it came from;
* a branch and bound for weighted Boolean minimization, used once by
  ``make_refs.py`` to store the expected optima of the ``pb`` pool;
* a witness check for the weighted Boolean encoding.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------------------
# SMT-LIB text: reading and evaluation


def read_sexprs(text: str) -> list:
    """Nested lists of token strings; ';' starts a comment."""
    stack: list[list] = [[]]
    for line in text.splitlines():
        line = line.split(";", 1)[0]
        for tok in line.replace("(", " ( ").replace(")", " ) ").split():
            if tok == "(":
                stack.append([])
            elif tok == ")":
                if len(stack) == 1:
                    raise ValueError("unbalanced ')'")
                done = stack.pop()
                stack[-1].append(done)
            else:
                stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced '('")
    return stack[0]


class SmtText:
    """Declarations, assertions, objective and range of one input."""

    def __init__(self, text: str):
        self.reals: list[str] = []
        self.bools: list[str] = []
        self.asserts: list = []
        self.cost = None
        self.lb = self.ub = None
        for cmd in read_sexprs(text):
            head = cmd[0]
            if head == "declare-fun":
                (self.reals if cmd[3] == "Real" else self.bools).append(cmd[1])
            elif head == "assert":
                self.asserts.append(cmd[1])
            elif head == "minimize":
                self.cost = cmd[1]
            elif head == "set-info" and cmd[1] in (":lb", ":ub"):
                value = _term(cmd[2], {})
                if cmd[1] == ":lb":
                    self.lb = value
                else:
                    self.ub = value

    def satisfied_by(self, model: dict) -> bool:
        """Whether the Real valuation extends, by some choice of the Bool
        variables, to a model of every assertion and of the range."""
        if any(name not in model for name in self.reals):
            return False
        cost = model[self.cost]
        if (self.lb is not None and cost < self.lb) or (self.ub is not None and cost >= self.ub):
            return False
        for values in product((False, True), repeat=len(self.bools)):
            env = dict(model)
            env.update(zip(self.bools, values))
            if all(_formula(a, env) for a in self.asserts):
                return True
        return False


def _term(node, env) -> Fraction:
    if isinstance(node, str):
        if node in env:
            return env[node]
        return Fraction(node)
    head, args = node[0], [_term(a, env) for a in node[1:]]
    if head == "+":
        return sum(args, Fraction(0))
    if head == "-":
        return -args[0] if len(args) == 1 else args[0] - sum(args[1:], Fraction(0))
    if head == "*":
        out = Fraction(1)
        for a in args:
            out *= a
        return out
    if head == "/":
        return args[0] / args[1]
    raise ValueError(f"unknown term operator {head!r}")


_COMPARE = {
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "=": lambda a, b: a == b,
}


def _formula(node, env) -> bool:
    if isinstance(node, str):
        if node in ("true", "false"):
            return node == "true"
        return env[node]
    head, args = node[0], node[1:]
    if head == "and":
        return all(_formula(a, env) for a in args)
    if head == "or":
        return any(_formula(a, env) for a in args)
    if head == "not":
        return not _formula(args[0], env)
    if head == "=>":
        return not all(_formula(a, env) for a in args[:-1]) or _formula(args[-1], env)
    return _COMPARE[head](_term(args[0], env), _term(args[1], env))


# ---------------------------------------------------------------------------
# weighted Boolean minimization


def pb_optimum(num_bools: int, clauses, weights):
    """Least total weight of a satisfying assignment, or None when the
    clauses are unsatisfiable.  Branch and bound over the variables in
    index order; a clause is checked once its last variable is set."""
    closing = [[] for _ in range(num_bools + 1)]
    for cl in clauses:
        closing[max(abs(l) for l in cl)].append(cl)
    value = [None] * (num_bools + 1)
    best = [None]

    def descend(v, cost):
        if best[0] is not None and cost >= best[0]:
            return
        if v > num_bools:
            best[0] = cost
            return
        for choice in (False, True):
            value[v] = choice
            if all(any(value[abs(l)] == (l > 0) for l in cl) for cl in closing[v]):
                descend(v + 1, cost + (weights[v - 1] if choice else 0))
        value[v] = None

    descend(1, 0)
    return best[0]


def pb_witness_ok(num_bools: int, clauses, weights, model: dict) -> bool:
    """The encoding's model names the cost ``cost`` and the weight
    contributions ``w1..wn``; each contribution is 0 or its full weight
    and decides the matching Boolean, which must satisfy every clause."""
    truth = [None]
    for i in range(num_bools):
        w = model.get(f"w{i + 1}")
        if w == weights[i] and w != 0:
            truth.append(True)
        elif w == 0:
            truth.append(False)
        else:
            return False
    if model.get("cost") != sum(model[f"w{i + 1}"] for i in range(num_bools)):
        return False
    return all(any(truth[abs(l)] == (l > 0) for l in cl) for cl in clauses)
