"""Write the fixed instance pools of ``families`` and ``pb`` with their
expected optima.  Run from the repository root:

    python3 perfbench/make_refs.py

The instance texts come from omtq's own generators, so the pools are the
paper's benchmark families.  The optima come from enumerators that share
no code with the solver: the strip-packing and job-shop oracles of the
test suite (``tests/helpers.py``), which enumerate the problems'
combinatorial choices, and ``reference.pb_optimum``.  The benchmark only
reads what this script writes.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent))

from omtq import jobshop_instance, strip_packing_instance  # noqa: E402
from reference import pb_optimum  # noqa: E402
from tests.helpers import jobshop_oracle, strip_oracle  # noqa: E402
from workloads import DATA, SplitMix64  # noqa: E402

# smallest first, so that the self-test's short pool takes the quick ones;
# one request takes 0.1-2.5 s on a 2-core x86 host under Python 3.11
FAMILIES = (
    ("jobshop", 5, 4, 2),
    ("jobshop", 5, 5, 1),
    ("strip", 6, 1, 3),
    ("strip", 6, 1, 1),
    ("strip", 7, 1, 1),
    ("jobshop", 6, 5, 1),
)

PB_SEEDS = range(1, 9)
PB_BOOLS = 30
PB_CLAUSE_RATIO = 3.5


def families():
    out_dir = DATA / "families"
    out_dir.mkdir(parents=True, exist_ok=True)
    refs = []
    for kind, a, b, seed in FAMILIES:
        if kind == "strip":
            text, meta = strip_packing_instance(a, Fraction(b), seed)
            # the optimum does not depend on the pieces' order, and the
            # oracle prunes much sooner when the largest pieces come first
            pieces = sorted(meta["pieces"], key=lambda p: -p[0] * p[1])
            optimum = strip_oracle(dict(meta, pieces=pieces))
            name = f"strip-n{a}-w{b}-s{seed}.smt2"
        else:
            text, meta = jobshop_instance(a, b, seed)
            optimum = jobshop_oracle(meta)
            name = f"jobshop-{a}x{b}-s{seed}.smt2"
        (out_dir / name).write_text(text)
        refs.append({"file": name, "optimum": str(optimum)})
        print(name, optimum, flush=True)
    (DATA / "families.json").write_text(json.dumps(refs, indent=1) + "\n")


def pb_instance(seed: int):
    rng = SplitMix64(seed)
    clauses = []
    for _ in range(round(PB_BOOLS * PB_CLAUSE_RATIO)):
        chosen = set()
        while len(chosen) < 3:
            chosen.add(rng.randint(1, PB_BOOLS))
        clauses.append([v if rng.randint(0, 1) else -v for v in sorted(chosen)])
    weights = [rng.randint(1, 9) for _ in range(PB_BOOLS)]
    return clauses, weights


def pb():
    refs = []
    for seed in PB_SEEDS:
        clauses, weights = pb_instance(seed)
        optimum = pb_optimum(PB_BOOLS, clauses, weights)
        refs.append({
            "name": f"pb-{PB_BOOLS}-s{seed}",
            "num_bools": PB_BOOLS,
            "clauses": clauses,
            "weights": weights,
            "optimum": optimum,
        })
        print(refs[-1]["name"], optimum, flush=True)
    (DATA / "pb.json").write_text(json.dumps(refs) + "\n")


if __name__ == "__main__":
    families()
    pb()
