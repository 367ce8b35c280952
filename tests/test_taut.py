"""Sentential tautology checking over the propositional abstraction."""

import gc
import itertools
import random
import tracemalloc
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herbrandkit.expansion import build_sub_expansion, parse_selection
from herbrandkit.oracle import valid_up_to
from herbrandkit.skolem import outer_skolemize
from herbrandkit.syntax import (
    And,
    Atom,
    FormulaError,
    Not,
    Or,
    parse_formula,
    promote_skolem_apps,
    rectify,
)
from herbrandkit.taut import (
    TautError,
    _cdcl,
    atom_list,
    clausal_refutation_form,
    decide_form,
    emit_dimacs,
    is_tautology,
)

import references


def decide(f):
    """Whether f is a tautology, and its atom count, from one clausal form."""
    return decide_form(*clausal_refutation_form(f))


def test_known_verdicts():
    assert is_tautology(parse_formula("p(a) | ~p(a)"))
    assert not is_tautology(parse_formula("~p(sk_b(@dot)) | p(@dot)"))
    assert is_tautology(parse_formula("(p & q) -> p"))
    assert not is_tautology(parse_formula("p | q"))
    assert not is_tautology(parse_formula("p(c)"))


def test_showcase_axiom_is_a_tautology(upper_bound, upper_bound_selection):
    sk = outer_skolemize(rectify(upper_bound))
    j = build_sub_expansion(sk, upper_bound_selection)
    assert is_tautology(j)


def test_quantified_input_is_an_error():
    with pytest.raises(FormulaError):
        is_tautology(parse_formula("forall x. p(x)"))


@pytest.mark.parametrize("check", [emit_dimacs, clausal_refutation_form, is_tautology,
                                   atom_list],
                         ids=["emit_dimacs", "clausal_refutation_form", "is_tautology",
                              "atom_list"])
def test_a_quantifier_is_a_taut_error_on_every_route(check):
    with pytest.raises(TautError, match="quantifier-free"):
        check(parse_formula("q | forall x. p(x)"))


def test_atom_identity_is_print_identity():
    # two syntactically different atoms stay distinct even when equivalent
    f = parse_formula("p(f(c)) | ~p(f(d))")
    assert not is_tautology(f)
    assert len(atom_list(f)) == 2
    # a Skolem-named variable is the same atom as its encoded application
    g = parse_formula("p(sk_b(@dot))")
    named = promote_skolem_apps(g)
    assert not is_tautology(Or(Not(named), Not(g)))
    assert is_tautology(Or(named, Not(g)))


def test_atom_list_is_deterministic():
    f = parse_formula("q | (p & q) | r")
    assert atom_list(f) == atom_list(f)
    assert len(atom_list(f)) == 3


def test_emit_dimacs_shape():
    out = emit_dimacs(parse_formula("p | ~p"))
    lines = [ln for ln in out.splitlines() if ln and not ln.startswith("c")]
    header = lines[0].split()
    assert header[:2] == ["p", "cnf"]
    n_vars, n_clauses = int(header[2]), int(header[3])
    assert len(lines) - 1 == n_clauses
    for clause in lines[1:]:
        lits = clause.split()
        assert lits[-1] == "0"
        assert all(0 < abs(int(x)) <= n_vars for x in lits[:-1])


def test_large_atom_count_uses_refutation_search():
    # 22 atoms: the one route is exact whatever the atom count
    parts = [f"p{i} | ~p{i}" for i in range(22)]
    f = parse_formula("(" + ") & (".join(parts) + ")")
    assert is_tautology(f)
    g = parse_formula("(" + ") & (".join(parts + ["p0 | p1"]) + ")")
    assert not is_tautology(g)


def test_the_one_route_checks_a_20_atom_chain_within_12_mib():
    """The one route decides this chain of 219 junctions over 20 atoms
    within 12 MiB."""
    p = [Atom(f"p{i}") for i in range(20)]
    f = reduce(Or, [And(p[i % 20], Not(p[(i + 1) % 20])) for i in range(200)])
    tracemalloc.start()
    try:
        assert decide(f) == (False, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def qf_formulas():
    names = [f"a{i}" for i in range(6)]
    base = st.sampled_from([Atom(n, ()) for n in names])

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
        )
    return st.recursive(base, extend, max_leaves=14)


def brute_force_tautology(f):
    names = set()

    def walk(g):
        match g:
            case Atom(p, _):
                names.add(p)
            case Not(s):
                walk(s)
            case And(l, r) | Or(l, r):
                walk(l)
                walk(r)

    walk(f)
    names = sorted(names)

    def ev(g, row):
        match g:
            case Atom(p, _):
                return row[p]
            case Not(s):
                return not ev(s, row)
            case And(l, r):
                return ev(l, row) and ev(r, row)
            case Or(l, r):
                return ev(l, row) or ev(r, row)
        raise AssertionError(g)

    for bits in range(2 ** len(names)):
        row = {n: bool(bits >> i & 1) for i, n in enumerate(names)}
        if not ev(f, row):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(qf_formulas())
def test_agrees_with_truth_tables(f):
    assert is_tautology(f) == brute_force_tautology(f)


@settings(max_examples=60, deadline=None)
@given(qf_formulas())
def test_tautology_implies_small_model_validity(f):
    if is_tautology(f):
        assert valid_up_to(f, 2)


# ---------------------------------------------------------------------------
# the clausal route: the CDCL solver against the DPLL search it replaced and
# against brute force

def random_cnf(rng, n):
    """Clauses over variables 1..n, with empty, unit, duplicate-literal and
    tautological clauses among them."""
    clauses = []
    for _ in range(rng.randint(0, 4 * n + 2)):
        roll = rng.random()
        if roll < 0.01:
            clauses.append([])
            continue
        cl = [rng.choice((1, -1)) * rng.randint(1, n)
              for _ in range(1 if roll < 0.15 else rng.randint(2, 4))]
        if roll > 0.9:
            cl.append(cl[0])
        elif roll > 0.8:
            cl.append(-cl[0])
        rng.shuffle(cl)
        clauses.append(cl)
    return clauses


def brute_force_satisfiable(clauses, n):
    """Every assignment at once: bit r of a variable's column is its value
    in row r, and a clause's column is the union of its literals'."""
    full = (1 << (1 << n)) - 1
    cols = [sum(1 << r for r in range(1 << n) if r >> (v - 1) & 1)
            for v in range(1, n + 1)]
    rows = full
    for cl in clauses:
        rows &= reduce(int.__or__, (cols[l - 1] if l > 0 else full ^ cols[-l - 1]
                                    for l in cl), 0)
    return rows != 0


def test_cdcl_agrees_with_the_reference_and_brute_force_on_random_cnfs():
    rng = random.Random(14)
    verdicts = Counter()
    for _ in range(3000):
        n = rng.randint(1, 10)
        clauses = random_cnf(rng, n)
        want = brute_force_satisfiable(clauses, n)
        assert _cdcl(clauses, n) == want, (clauses, n)
        assert references.dpll(clauses, n) == want, (clauses, n)
        verdicts[want] += 1
    assert verdicts[True] > 500 and verdicts[False] > 500


def implies(a, b):
    return Or(Not(a), b)


def wide_qf_formulas():
    """Formulas over 8 atoms, a third of them tautologies by their shape:
    (g -> h) | (h -> g) and Peirce's law ((g -> h) -> g) -> g."""
    base = st.sampled_from([Atom(f"a{i}", ()) for i in range(8)])

    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
        )
    f = st.recursive(base, extend, max_leaves=16)
    return st.one_of(
        f,
        st.builds(lambda g, h: Or(implies(g, h), implies(h, g)), f, f),
        st.builds(lambda g, h: implies(implies(implies(g, h), g), g), f, f))


@settings(max_examples=200, deadline=None)
@given(wide_qf_formulas())
def test_the_clausal_route_agrees_with_truth_tables(f):
    clauses, _, nvars = clausal_refutation_form(f)
    want = brute_force_tautology(f)
    assert (not _cdcl(clauses, nvars)) == want
    assert (not references.dpll(clauses, nvars)) == want
    assert is_tautology(f) == want


def pigeonhole(pigeons, holes):
    """Each pigeon sits in some hole and no hole holds two: satisfiable iff
    pigeons <= holes.  Variable i * holes + j + 1 puts pigeon i in hole j."""
    def var(i, j):
        return i * holes + j + 1
    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    clauses += [[-var(i, j), -var(k, j)] for j in range(holes)
                for i, k in itertools.combinations(range(pigeons), 2)]
    return clauses, pigeons * holes


def as_formula(clauses):
    return reduce(And, [reduce(Or, [Atom(f"x{l}") if l > 0 else Not(Atom(f"x{-l}"))
                                    for l in cl]) for cl in clauses])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pigeonhole(n):
    assert not _cdcl(*pigeonhole(n + 1, n))
    assert _cdcl(*pigeonhole(n, n))


def test_pigeonhole_formulas_take_the_clausal_route():
    # 30 and 25 atoms
    unsat, sat = as_formula(pigeonhole(6, 5)[0]), as_formula(pigeonhole(5, 5)[0])
    assert decide(Not(unsat)) == (True, 30)
    assert decide(Not(sat)) == (False, 25)


def test_the_clausal_route_leaves_no_cyclic_garbage():
    """The solver is one loop with no closure that refers to itself, so
    its arrays are freed on return, not left for the cyclic collector."""
    f = Not(as_formula(pigeonhole(6, 5)[0]))
    assert is_tautology(f)
    gc.collect()
    gc.disable()
    try:
        assert is_tautology(f)
        assert gc.collect() == 0
    finally:
        gc.enable()
