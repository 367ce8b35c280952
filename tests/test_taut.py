"""Sentential tautology checking over the propositional abstraction."""

import random

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
    _table_tautology,
    atom_list,
    clausal_refutation_form,
    emit_dimacs,
    is_tautology,
)


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


@pytest.mark.parametrize("check", [
    emit_dimacs, clausal_refutation_form,
    lambda f: _table_tautology(f, ["q", "p(x)"])],
    ids=["emit_dimacs", "clausal_refutation_form", "_table_tautology"])
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
    # beyond the truth-table cutoff the verdict must still be exact
    parts = [f"p{i} | ~p{i}" for i in range(22)]
    f = parse_formula("(" + ") & (".join(parts) + ")")
    assert is_tautology(f)
    g = parse_formula("(" + ") & (".join(parts + ["p0 | p1"]) + ")")
    assert not is_tautology(g)


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
