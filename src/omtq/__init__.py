"""Exact optimization of a rational variable modulo linear arithmetic."""

from .arith import DeltaRational, format_rat, parse_rat
from .encodings import (
    SplitMix64,
    encode_ldp,
    encode_lgdp,
    encode_pb,
    jobshop_instance,
    jobshop_problem,
    strip_packing_instance,
    strip_packing_problem,
)
from .formula import Atom, CnfFormula, OmtProblem, cnfize, normalize_atom
from .omt import (
    INTERRUPTED,
    OPTIMUM,
    UNBOUNDED,
    UNSAT,
    OmtConfig,
    OmtOutcome,
    SearchStats,
    compute_pivot,
    crosscheck,
    smt_decide,
    solve,
)
from .oracle import fm_minimize, oracle_solve
from .parser import ParseError, parse_problem

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "CnfFormula",
    "DeltaRational",
    "INTERRUPTED",
    "OPTIMUM",
    "OmtConfig",
    "OmtOutcome",
    "OmtProblem",
    "ParseError",
    "SearchStats",
    "SplitMix64",
    "UNBOUNDED",
    "UNSAT",
    "cnfize",
    "compute_pivot",
    "crosscheck",
    "encode_ldp",
    "encode_lgdp",
    "encode_pb",
    "fm_minimize",
    "format_rat",
    "jobshop_instance",
    "jobshop_problem",
    "normalize_atom",
    "oracle_solve",
    "parse_problem",
    "parse_rat",
    "smt_decide",
    "solve",
    "strip_packing_instance",
    "strip_packing_problem",
]
