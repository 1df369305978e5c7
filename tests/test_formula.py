"""Atoms, CNF conversion and problem construction."""

import copy
import hashlib
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import FAMILIES, boolean_structure_text, eval_concrete, random_pb
from omtq.arith import EQ, LE, LT
from omtq.formula import (
    Atom,
    BAtom,
    BConst,
    BIff,
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
from omtq.encodings import encode_pb, jobshop_instance, strip_packing_instance
from omtq.omt import _cost_atom, solve
from omtq.parser import parse_problem


def test_normalize_atom_scales_the_leading_coefficient():
    atom, pol = normalize_atom({0: 2, 1: 4}, 6, "<=")
    assert atom == Atom(((0, Fraction(1)), (1, Fraction(2))), Fraction(3), LE)
    assert pol


def test_normalize_atom_flips_ge_into_le():
    a1, p1 = normalize_atom({0: 1}, -3, ">=")
    a2, p2 = normalize_atom({0: -1}, 3, "<=")
    assert p1 and p2
    assert a1 == a2
    assert a1.rel == LE


def test_normalize_atom_equality_orientation():
    # x - y = 1 and y - x = -1 are the same atom
    a1, _ = normalize_atom({0: 1, 1: -1}, -1, "=")
    a2, _ = normalize_atom({0: -1, 1: 1}, 1, "=")
    assert a1 == a2


def test_normalize_atom_disequality_is_negated_equality():
    atom, pol = normalize_atom({0: 1}, -2, "!=")
    assert atom.rel == EQ
    assert not pol


def test_normalize_atom_rejects_ground_input():
    with pytest.raises(ValueError):
        normalize_atom({0: 0}, 1, "<=")


def test_normalize_atom_takes_floats_exactly():
    """A library caller's float coefficients and constant become exact
    numbers in normal form, never floats in the atom."""
    atom, pol = normalize_atom({0: 0.5, 1: 1.5}, -0.25, ">=")
    assert (atom, pol) == normalize_atom({0: Fraction(1, 2), 1: Fraction(3, 2)}, Fraction(-1, 4), ">=")
    assert atom.coeffs == ((0, -1), (1, -3)) and atom.const == Fraction(1, 2)
    assert [type(q) for q in (atom.coeffs[0][1], atom.coeffs[1][1], atom.const)] == [int, int, Fraction]


def test_atom_eval_concrete():
    atom, _ = normalize_atom({0: 1, 1: 1}, -4, LE)  # x + y <= 4
    assert eval_concrete(atom, {0: 2, 1: 2})
    assert not eval_concrete(atom, {0: 3, 1: Fraction(3, 2)})
    assert atom.single_var() is None
    single, _ = normalize_atom({0: 3}, -6, LT)
    assert single.single_var() == (0, Fraction(1))


def test_atom_interning_shares_solver_vars():
    f = CnfFormula()
    f.new_rat_var("x")
    a1, _ = normalize_atom({0: 2}, -6, "<=")
    a2, _ = normalize_atom({0: 1}, -3, "<=")
    assert a1 == a2
    l1 = f.lit_for_atom(a1)
    l2 = f.lit_for_atom(a2)
    assert l1 == l2
    assert f.lit_for_atom(a1, False) == -l1
    assert f.atom_of(l1) == a1
    # one solver var, and it is the atom's
    assert f.num_solver_vars == 1
    assert [f.atom_of(v) for v in range(1, f.num_solver_vars + 1)] == [a1]


def test_pickled_atom_keys_survive_another_hash_seed():
    # an atom stores its hash, and string hashes differ between processes:
    # a dict keyed by atoms must still be usable after unpickling elsewhere
    atom, _ = normalize_atom({0: 1, 1: 2}, 3, "<=")
    child = (
        "import pickle, sys\n"
        "from omtq.formula import normalize_atom\n"
        "table = pickle.loads(sys.stdin.buffer.read())\n"
        "print(table.get(normalize_atom({0: 1, 1: 2}, 3, '<=')[0]))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", child],
        input=pickle.dumps({atom: 7}),
        capture_output=True,
        env=env,
        timeout=60,
    )
    assert done.stdout.strip() == b"7", done.stderr


def test_atom_fields_refuse_assignment():
    atom, _ = normalize_atom({0: 1, 1: 2}, 3, "<=")
    for name in ("coeffs", "const", "rel", "other"):
        with pytest.raises(AttributeError):
            setattr(atom, name, 1)
        with pytest.raises(AttributeError):
            delattr(atom, name)
    assert (atom.coeffs, atom.const, atom.rel) == (((0, 1), (1, 2)), 3, LE)


def test_atom_equals_only_atoms():
    atom, _ = normalize_atom({0: 1, 1: 2}, 3, "<=")
    fields = (atom.coeffs, atom.const, atom.rel)
    assert atom != fields and fields != atom
    assert atom not in {fields: 0}
    assert repr(atom) == "(1*x0 + 2*x1 + 3 <= 0)"


def test_equal_atoms_hash_alike():
    a1, _ = normalize_atom({0: 2}, -6, "<=")
    a2, _ = normalize_atom({0: -1}, 3, ">=")
    a3 = Atom(((0, Fraction(1)),), Fraction(-3), LE)  # integral Fractions
    assert a1 == a2 == a3
    assert hash(a1) == hash(a2) == hash(a3) == hash((a1.coeffs, a1.const, a1.rel))
    assert len({a1, a2, a3}) == 1
    assert a1 != Atom(a1.coeffs, a1.const, LT) and a1 != Atom(a1.coeffs, -3, EQ)


def test_atom_copies_and_pickles_round_trip():
    atom, _ = normalize_atom({0: 3, 2: -1}, Fraction(1, 2), ">")
    copies = [copy.copy(atom), copy.deepcopy(atom)]
    copies += [pickle.loads(pickle.dumps(atom, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is Atom
        assert (other.coeffs, other.const, other.rel) == (atom.coeffs, atom.const, atom.rel)
        assert other == atom and hash(other) == hash(atom) and repr(other) == repr(atom)
        with pytest.raises(AttributeError):
            other.rel = EQ


@pytest.mark.parametrize("op", ["!~", "=<", "==", "", None, ["<="]], ids=["!~", "=<", "==", "empty", "None", "list"])
def test_normalize_atom_rejects_an_unknown_relation(op):
    with pytest.raises(ValueError, match="unknown relation"):
        normalize_atom({0: 1}, 0, op)


def test_cnfize_rejects_a_leaf_with_an_unknown_relation():
    f = CnfFormula()
    x = f.new_rat_var("x")
    with pytest.raises(ValueError, match="unknown relation"):
        cnfize(BAtom({x: 1}, 0, "=<"), f)


@pytest.mark.parametrize("zero_term", [False, True], ids=["no-variable", "zero-coefficient"])
def test_cnfize_rejects_a_ground_leaf_with_an_unknown_relation(zero_term):
    f = CnfFormula()
    x = f.new_rat_var("x")
    with pytest.raises(ValueError, match="unknown relation"):
        cnfize(BAtom({x: 0} if zero_term else {}, 0, "=<"), f)


_INF, _NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "coeffs, const",
    [({0: _INF}, 0), ({0: 1, 1: -_INF}, 0), ({0: 1}, _INF), ({0: 1}, -_INF), ({0: _NAN}, 0), ({0: 1}, _NAN)],
    ids=["coefficient-inf", "coefficient-minus-inf", "constant-inf", "constant-minus-inf", "coefficient-nan", "constant-nan"],
)
def test_normalize_atom_rejects_a_number_that_is_not_finite(coeffs, const):
    with pytest.raises(ValueError, match="is not a finite number"):
        normalize_atom(coeffs, const, "<=")


@pytest.mark.parametrize("coeff, const", [(_INF, 0), (1, _INF), (_NAN, 0), (1, _NAN)])
def test_cnfize_rejects_a_leaf_number_that_is_not_finite(coeff, const):
    f = CnfFormula()
    x = f.new_rat_var("x")
    with pytest.raises(ValueError, match="is not a finite number"):
        cnfize(BAtom({x: coeff}, const, "<="), f)


def test_duplicate_names_rejected():
    f = CnfFormula()
    f.new_rat_var("x")
    f.new_prop("p")
    with pytest.raises(ValueError):
        f.new_rat_var("x")
    with pytest.raises(ValueError):
        f.new_prop("p")
    assert f.rat_var("x") == 0
    assert f.rat_var("missing") is None
    assert f.prop("p") == 1


def test_formula_copy_is_independent():
    f = CnfFormula()
    f.new_rat_var("x")
    p = f.new_prop("p")
    f.add_clause([p])
    g = f.copy()
    g.add_clause([-p])
    g.new_rat_var("y")
    assert len(f.clauses) == 1
    assert f.rat_var("y") is None
    assert g.rat_var("y") == 1


def _clause_sets(f: CnfFormula):
    return {frozenset(c) for c in f.clauses}


def test_cnfize_clause_shaped_input_stays_flat():
    f = CnfFormula()
    f.new_rat_var("x")
    x_ge_1 = BAtom({0: 1}, -1, ">=")
    x_le_0 = BAtom({0: 1}, 0, "<=")
    cnfize(disj([x_ge_1, x_le_0]), f)
    # one clause, two atom literals, no labels
    assert len(f.clauses) == 1
    assert len(f.clauses[0]) == 2
    assert all(f.atom_of(abs(l)) is not None for l in f.clauses[0])


def test_cnfize_nested_structure_introduces_labels():
    f = CnfFormula()
    f.new_rat_var("x")
    p = f.new_prop("p")
    q = f.new_prop("q")
    inner = conj([BProp(p), BAtom({0: 1}, -1, ">=")])
    cnfize(disj([BProp(q), inner]), f)
    kinds = set(f.kind)
    assert "label" in kinds
    # top clause mentions q and the label for the conjunction
    assert any(q in c for c in f.clauses)


def test_cnfize_polarity_skips_unused_direction():
    # (p or (q and r)): only label => args clauses are needed
    f = CnfFormula()
    p, q, r = f.new_prop("p"), f.new_prop("q"), f.new_prop("r")
    cnfize(BOr([BProp(p), conj([BProp(q), BProp(r)])]), f)
    label = next(v + 1 for v, k in enumerate(f.kind) if k == "label")
    sets = _clause_sets(f)
    assert frozenset([p, label]) in sets
    assert frozenset([-label, q]) in sets
    assert frozenset([-label, r]) in sets
    # the reverse implication (q and r) => label is never emitted
    assert frozenset([label, -q, -r]) not in sets


def test_cnfize_constants_fold():
    f = CnfFormula()
    p = f.new_prop("p")
    cnfize(conj([BConst(True), disj([BProp(p), BConst(False)])]), f)
    assert _clause_sets(f) == {frozenset([p])}


def test_cnfize_ground_comparisons_fold():
    f = CnfFormula()
    p = f.new_prop("p")
    # 3 <= 0 is false, so the disjunction reduces to p
    cnfize(disj([BAtom({}, 3, LE), BProp(p)]), f)
    assert _clause_sets(f) == {frozenset([p])}


def test_cnfize_false_formula_emits_the_empty_clause():
    f = CnfFormula()
    p = f.new_prop("p")
    cnfize(conj([BProp(p), BNot(BProp(p)), BConst(False)]), f)
    assert [] in f.clauses


def test_cnfize_implication_and_iff():
    f = CnfFormula()
    p, q = f.new_prop("p"), f.new_prop("q")
    cnfize(BOr([BNot(BProp(p)), BProp(q)]), f)
    assert _clause_sets(f) == {frozenset([-p, q])}
    g = CnfFormula()
    p, q = g.new_prop("p"), g.new_prop("q")
    cnfize(BIff(BProp(p), BProp(q)), g)
    assert _clause_sets(g) == {frozenset([-p, q]), frozenset([p, -q])}


def test_negated_equality_splits_into_strict_disjuncts():
    f = CnfFormula()
    f.new_rat_var("x")
    cnfize(BNot(BAtom({0: 1}, -2, EQ)), f)
    # x != 2 must become strict inequalities; no negated equality literal
    for cl in f.clauses:
        for lit in cl:
            if lit < 0:
                atom = f.atom_of(-lit)
                assert atom is None or atom.rel != EQ
    prob = OmtProblem(f, 0)  # validation performs the same scan
    assert f.rat_names[prob.cost] == "x"


def test_problem_validation():
    f = CnfFormula()
    f.new_rat_var("cost")
    with pytest.raises(ValueError):
        OmtProblem(f, 3)
    with pytest.raises(ValueError):
        OmtProblem(f, 0, Fraction(2), Fraction(2))
    ok = OmtProblem(f, 0, Fraction(0), Fraction(1))
    assert (ok.lb, ok.ub) == (0, 1)


def test_problem_rejects_a_cost_that_is_not_an_int_index():
    """A float, ``Fraction``, ``str`` or ``bool`` cost is refused when the
    problem is built, not as a ``TypeError`` deep in the search."""
    f = CnfFormula()
    f.new_rat_var("cost")
    f.new_rat_var("x")
    for bad in (0.0, Fraction(0), "0", True, None):
        with pytest.raises(ValueError, match="cost"):
            OmtProblem(f, bad)
    assert OmtProblem(f, 1).cost == 1


def test_problem_rejects_clause_literals_that_name_no_solver_variable():
    """A clause literal is a nonzero ``int`` whose variable the formula
    defines; any other is refused when the problem is built, not deep in
    the SAT core."""
    f = CnfFormula()
    f.new_rat_var("x")
    f.new_prop("p")
    f.new_prop("q")
    for bad in ([5], [-3, 1], [1, 1.5], [0], [2, -0], [True], [Fraction(1)]):
        g = f.copy()
        g.add_clause(bad)
        with pytest.raises(ValueError, match="names no solver variable"):
            OmtProblem(g, 0)
    g = f.copy()
    g.add_clause([1, -2])
    g.add_clause([-1])
    assert solve(OmtProblem(g, 0)).status == "unbounded"


def test_problem_rejects_negated_equality_clauses():
    f = CnfFormula()
    f.new_rat_var("x")
    atom, _ = normalize_atom({0: 1}, -1, EQ)
    f.add_clause([f.lit_for_atom(atom, False)])
    with pytest.raises(ValueError):
        OmtProblem(f, 0)


# texts whose CNF is pinned next to the benchmark inputs: the two reference
# instances, a two-argument implication, and equalities negated at the top
# level and inside connectives, some written with a negative leading
# coefficient so that the order of the two weak halves shows in the CNF
PINNED_TEXTS = [
    """(declare-fun cost () Real)(declare-fun a () Real)(set-info :lb 0)(set-info :ub 16)
    (assert (>= cost (+ a 15)))(assert (>= a 0))(minimize cost)""",
    """(declare-fun cost () Real)(declare-fun a () Real)(set-info :lb 0)(set-info :ub 16)
    (assert (>= cost a))(assert (or (> a 0) (> a 1)))(minimize cost)""",
    """(declare-fun cost () Real)(declare-fun x () Real)(declare-fun p () Bool)
    (assert (=> (= x 1) (>= cost x)))(assert (=> p (>= cost 2)))
    (assert (not (=> p (< cost x))))(minimize cost)""",
    """(declare-fun cost () Real)(declare-fun x () Real)(declare-fun p () Bool)
    (assert (not (= 1 x)))(assert (not (= cost (* 2 x))))
    (assert (or p (not (= (- x) cost)) (and (= x 3) (not (= 1 1)))))
    (assert (not (and p (= (- 4 x) cost) (or (= x 2) (not (= 0 0))))))
    (assert (>= cost 0))(minimize cost)""",
]


def _pinned_cnf_digest():
    texts = [path.read_text() for path in sorted(FAMILIES.glob("*.smt2"))]
    assert len(texts) == 6
    texts += [
        strip_packing_instance(n, width, 1)[0]
        for n in range(2, 7)
        for width in (Fraction(1), Fraction(3, 2))
    ]
    texts += [jobshop_instance(j, m, 1)[0] for j in range(2, 6) for m in range(2, 5)]
    texts += PINNED_TEXTS
    digest = hashlib.sha256()
    for text in texts:
        f = parse_problem(text).formula
        digest.update(repr((f.clauses, f.kind, [repr(p) for p in f.payload], f.rat_names)).encode())
    return digest.hexdigest()[:16]


def test_cnf_is_pinned_on_benchmark_inputs():
    # recorded on the converter that split equalities in a separate pass
    assert _pinned_cnf_digest() == "b8ab297f98f1539f"


def _in_normal_form(q) -> bool:
    """An int when integral, else a Fraction with denominator > 1."""
    return type(q) is int or (type(q) is Fraction and q.denominator > 1)


def test_atoms_are_in_int_normal_form_and_ranges_hold_fractions():
    """The canonical atoms keep every coefficient and the constant as an
    ``int`` when integral, else as a ``Fraction`` (never a float, nor an
    integral ``Fraction``), so the layers downstream hash and compare
    machine ints on integral input; the parsed range stays ``Fraction``."""
    parsed = [parse_problem(path.read_text()) for path in sorted(FAMILIES.glob("*.smt2"))]
    parsed += [parse_problem(boolean_structure_text(seed)) for seed in range(200)]
    encoded = [encode_pb(*random_pb(seed, num_bools=8)) for seed in range(5)]
    atoms = []
    for prob in parsed + encoded:
        f = prob.formula
        atoms += [f.atom_of(v) for v in range(1, f.num_solver_vars + 1) if f.atom_of(v)]
        for value in (0, 3, -2, Fraction(7, 2), Fraction(4, 2)):
            for rel in (LE, LT):
                atoms.append(_cost_atom(prob, value, rel)[0])
    assert len(atoms) > 1000
    kinds = set()
    for atom in atoms:
        for q in (atom.const, *(c for _, c in atom.coeffs)):
            assert _in_normal_form(q), atom
            kinds.add(type(q))
    assert kinds == {int, Fraction}  # both forms occur
    for prob in parsed:
        assert type(prob.lb) in (Fraction, type(None))
        assert type(prob.ub) in (Fraction, type(None))
    assert any(prob.lb is not None for prob in parsed)
    assert any(prob.ub is not None for prob in parsed)
