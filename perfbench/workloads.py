"""The benchmark's three workloads: inputs, requests and answer checks.

A workload is a list of instances.  Every instance runs under each of
the paper's four configurations, and one instance under one
configuration is one request: input to ``OmtOutcome``, through the
public API only (``parse_problem`` or ``encode_pb``, then ``solve``).

* ``families``: the paper's own benchmark, strip packing and zero-wait
  job shop, from a fixed pool stored in ``data/`` with optima found by
  enumeration (``make_refs.py``).  The seed sets the request order.
* ``pb``: weighted Boolean minimization over random 3-CNF, from a fixed
  pool in ``data/pb.json`` with optima found by branch and bound.  The
  seed sets the request order.
* ``corpus``: many tiny random instances drawn from the seed, written as
  SMT-LIB text and answered by ``omtq.oracle.oracle_solve``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from reference import SmtText, pb_witness_ok

DATA = Path(__file__).resolve().parent / "data"

CONFIGS = ("offline-linear", "offline-binary", "inline-linear", "inline-binary")
WORKLOADS = ("families", "pb", "corpus")

# per-request deadline handed to the solver; the slowest request seen
# in any workload takes about 3 s
REQUEST_TIMEOUT_S = 60.0

# corpus instances per run: 4000 requests make a round of a few seconds,
# and drawing them plus one oracle call each takes about 1.5 s
CORPUS_SIZE = 1000


@dataclass
class Expected:
    status: str
    value: Optional[Fraction] = None
    attained: bool = False


@dataclass
class Instance:
    name: str
    build: Callable  # omtq module -> OmtProblem, the request's input stage
    expected: Expected
    cost: str  # name of the objective variable in the model
    witness_ok: Callable  # model dict -> bool


class SplitMix64:
    """Deterministic generator for the corpus, kept apart from omtq's."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next() % (hi - lo + 1)


# ---------------------------------------------------------------------------
# families and pb: fixed pools with stored optima


def _text_instance(name: str, text: str, expected: Expected) -> Instance:
    smt = SmtText(text)
    return Instance(name, lambda omtq: omtq.parse_problem(text), expected, smt.cost, smt.satisfied_by)


def load_families() -> list[Instance]:
    refs = json.loads((DATA / "families.json").read_text())
    out = []
    for entry in refs:
        text = (DATA / "families" / entry["file"]).read_text()
        expected = Expected("optimum", Fraction(entry["optimum"]), True)
        out.append(_text_instance(entry["file"], text, expected))
    return out


def load_pb() -> list[Instance]:
    out = []
    for entry in json.loads((DATA / "pb.json").read_text()):
        n, clauses = entry["num_bools"], entry["clauses"]
        weights = [Fraction(w) for w in entry["weights"]]
        if entry["optimum"] is None:
            expected = Expected("unsat")
        else:
            expected = Expected("optimum", Fraction(entry["optimum"]), True)

        def build(omtq, n=n, clauses=clauses, weights=weights):
            return omtq.encode_pb(n, clauses, weights)

        def witness_ok(model, n=n, clauses=clauses, weights=weights):
            return pb_witness_ok(n, clauses, weights, model)

        out.append(Instance(entry["name"], build, expected, "cost", witness_ok))
    return out


# ---------------------------------------------------------------------------
# corpus: tiny random instances as text


def _num(q: int) -> str:
    return f"(- {-q})" if q < 0 else str(q)


def corpus_text(rng: SplitMix64) -> str:
    """1-4 rationals (the first is the cost), up to 4 Bools, 2-8 atoms in
    2-6 clauses, an optional lower bound on the cost and an optional
    range; the mix covers optimum, strict infimum, unsat and unbounded."""
    nrat = rng.randint(1, 4)
    reals = ["cost"] + [f"x{i}" for i in range(1, nrat)]
    bools = [f"p{i}" for i in range(rng.randint(0, 4))]
    atoms = []
    for k in range(rng.randint(2, 8)):
        if k == 0:
            terms = [(rng.randint(1, 4), "cost")]
        else:
            chosen = []
            for _ in range(rng.randint(1, min(3, nrat))):
                v = reals[rng.randint(0, nrat - 1)]
                if v not in chosen:
                    chosen.append(v)
            terms = [(rng.randint(1, 4) * (1 if rng.randint(0, 1) else -1), v) for v in chosen]
        op = ("<=", "<=", "<=", "<=", "<", "<", ">=", ">=", ">=", "=")[rng.randint(0, 9)]
        lhs = "(+ " + " ".join(f"(* {_num(c)} {v})" for c, v in terms) + ")"
        atoms.append((f"({op} {lhs} {_num(rng.randint(-8, 8))})", op == "="))
    lines = ["(set-logic QF_LRA)"]
    lines += [f"(declare-fun {v} () Real)" for v in reals]
    lines += [f"(declare-fun {b} () Bool)" for b in bools]
    for _ in range(rng.randint(2, 6)):
        lits = []
        for _ in range(rng.randint(1, 3)):
            if bools and rng.randint(0, 9) < 3:
                lit = bools[rng.randint(0, len(bools) - 1)]
            else:
                lit, is_eq = atoms[rng.randint(0, len(atoms) - 1)]
                if is_eq:
                    lits.append(lit)  # equalities stay positive
                    continue
            lits.append(f"(not {lit})" if rng.randint(0, 1) else lit)
        lines.append(f"(assert (or {' '.join(lits)}))")
    if rng.randint(0, 1):
        lines.append(f"(assert (>= cost {_num(rng.randint(-8, 0))}))")
    if rng.randint(0, 1):
        lb = rng.randint(-8, 4)
        lines.append(f"(set-info :lb {_num(lb)})")
        lines.append(f"(set-info :ub {_num(lb + rng.randint(1, 13))})")
    lines += ["(minimize cost)", "(check-sat)"]
    return "\n".join(lines) + "\n"


def load_corpus(omtq, seed: int, size: int) -> list[Instance]:
    rng = SplitMix64(seed)
    out = []
    for i in range(size):
        text = corpus_text(rng)
        ref = omtq.oracle.oracle_solve(omtq.parse_problem(text))
        expected = Expected(ref.status, ref.value, ref.attained)
        out.append(_text_instance(f"corpus-{i}", text, expected))
    return out


def load(workload: str, omtq, seed: int) -> list[Instance]:
    if workload == "families":
        return load_families()
    if workload == "pb":
        return load_pb()
    if workload == "corpus":
        return load_corpus(omtq, seed, CORPUS_SIZE)
    raise ValueError(f"unknown workload {workload!r}")


def request_order(instances: list[Instance], seed: int) -> list[tuple[Instance, str]]:
    """Every instance under every configuration, in a seeded order."""
    pairs = [(inst, cfg) for inst in instances for cfg in CONFIGS]
    random.Random(seed).shuffle(pairs)
    return pairs


# ---------------------------------------------------------------------------
# answer check


def answer_error(instance: Instance, outcome) -> Optional[str]:
    """Why the outcome disagrees with the reference, or None when it agrees."""
    exp = instance.expected
    if outcome.status != exp.status:
        return f"status {outcome.status}, expected {exp.status}"
    if exp.status != "optimum":
        return None
    if outcome.value != exp.value or outcome.attained != exp.attained:
        return (
            f"optimum {outcome.value} (attained={outcome.attained}), "
            f"expected {exp.value} (attained={exp.attained})"
        )
    if outcome.model is None or not instance.witness_ok(outcome.model):
        return "witness model violates the input"
    cost = outcome.model[instance.cost]
    if (cost != exp.value) if exp.attained else (cost <= exp.value):
        return f"witness cost {cost} does not match the optimum {exp.value}"
    return None
