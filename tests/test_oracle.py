"""Brute-force finite-model validity checking."""

import random

import pytest

from herbrandkit.construct import min_order
from herbrandkit.oracle import (
    OracleBudgetError,
    OracleError,
    find_countermodel,
    valid_up_to,
)
from herbrandkit.skolem import SkolemRegistry, deltapp_skolemize, outer_skolemize
from herbrandkit.syntax import (
    App,
    Atom,
    Or,
    SkolemNamedVar,
    Var,
    parse_formula,
    promote_skolem_apps,
)

from conftest import DRINKER_TEXT, TWO_DISJUNCT_TEXT, random_candidate
from references import brute_force_countermodel


def test_propositional_validity():
    assert valid_up_to(parse_formula("p | ~p"), 2)
    assert not valid_up_to(parse_formula("p"), 1)


def test_a_size_below_one_is_refused():
    """No interpretation has an empty domain, so there is nothing to check."""
    with pytest.raises(OracleError, match="at least 1, got 0"):
        valid_up_to(parse_formula("p(c) & ~p(c)"), 0)


def test_quantifier_semantics():
    assert valid_up_to(parse_formula("(forall x. p(x)) -> p(c)"), 2)
    assert valid_up_to(parse_formula("p(c) -> (exists x. p(x))"), 2)
    assert not valid_up_to(parse_formula("(exists x. p(x)) -> p(c)"), 2)


def test_drinker_is_valid(drinker):
    assert valid_up_to(drinker, 2)


def test_transitivity_example_is_valid_in_tiny_models(upper_bound):
    assert valid_up_to(upper_bound, 2)


def test_countermodel_contents():
    cm = find_countermodel(parse_formula("p(f(c))"), max_size=2)
    assert cm is not None
    assert cm.size in (1, 2)
    assert "f" in cm.functions
    assert "p" in cm.predicates
    assert "c" in cm.env
    text = cm.describe()
    assert "domain size" in text and "p" in text


def test_free_variables_read_universally():
    # p(x) -> p(x) is valid; p(x) -> p(y) is refuted by distinct values
    assert valid_up_to(parse_formula("p(x) -> p(x)"), 2)
    cm = find_countermodel(parse_formula("p(x) -> p(y)"), max_size=2)
    assert cm is not None
    assert cm.env["x"] != cm.env["y"]


def test_gamma_variables_range_over_the_domain():
    assert valid_up_to(parse_formula("p(?x) -> p(?x)"), 2)
    assert find_countermodel(parse_formula("p(?x)"), max_size=2) is not None


def test_smallest_countermodel_is_preferred():
    cm = find_countermodel(parse_formula("p(c)"), max_size=2)
    assert cm.size == 1


def test_skolem_named_variables_are_generic():
    # a formula false under some reading of the named variable is refutable
    f = parse_formula("p(sk_b(@dot))")
    cm = find_countermodel(f, max_size=2)
    assert cm is not None


def test_validity_monotone_down_in_size():
    # valid at size 2 implies valid at size 1 for these samples
    for text in ("p | ~p", "(forall x. p(x)) -> p(c)",
                 "exists a. (~(exists b. p(b)) | p(a))"):
        f = parse_formula(text)
        if valid_up_to(f, 2):
            assert valid_up_to(f, 1)


def test_budget_guard():
    f = parse_formula("p(g(x, y), h(y, z)) | q(k(x, z))")
    with pytest.raises(OracleBudgetError):
        find_countermodel(f, max_size=3, budget=50)


# ---------------------------------------------------------------------------
# differential test against the one-interpretation-at-a-time search

def orders_texts():
    """The formula families of the benchmark's orders workload: successor
    chains and their twins, the drinker, the passage pair, the two-element
    upper bound, and transitivity on 3-6 constants, entailed and not."""
    texts = [DRINKER_TEXT, TWO_DISJUNCT_TEXT,
             "(exists a. (~(exists b. p(b)) | q(a))) | "
             "((exists x. p(x)) & ~(exists y. q(y)))",
             "((forall x. forall y. exists m. (x < m & y < m)) & "
             "(forall c. forall b. forall a. ((a < b & b < c) -> a < c))) -> "
             "(forall u. forall v. exists z. (u < z & v < z))"]
    for k in range(1, 7):
        for goal in ("c", "d"):
            texts.append("(p(c) & (forall x. (p(x) -> p(f(x))))) -> "
                         f"p({'f(' * k}{goal}{')' * k})")
    for n in range(3, 7):
        facts = " & ".join(f"r(k{i},k{i + 1})" for i in range(n - 1))
        for s, t in ((0, n - 1), (n - 1, 0)):
            texts.append("((forall a. forall b. forall c. "
                         f"((r(a,b) & r(b,c)) -> r(a,c))) & {facts}) -> r(k{s},k{t})")
    return texts


# free, instantiation and Skolem-named variables, @dot and shadowed binders
NAMED_TEXTS = (
    "p(x) -> p(y)",
    "p(?x) | q(?y, x)",
    "q(x, f(?g)) | ~q(f(x), ?g)",
    "p(sk_b(@dot))",
    "p(@dot) -> p(c)",
    "forall sk_a(x). p(sk_a(x))",
    "(exists sk_b. q(sk_b, c)) | ~q(c, c)",
    "forall x. (p(x) & (exists x. ~p(x)))",
    "(forall x. p(x)) | (exists x. ~q(x, x))",
    "p(x) | (forall x. ~p(x))",
    "forall x. exists y. (r(x,y) & ~(forall y. r(y,x)))",
    "exists x. (p(x) | forall x. (q(x, x) & exists x. ~p(x)))",
)


def oracle_outcome(search, f, size, budget):
    try:
        cm = search(f, size, budget)
    except OracleBudgetError as e:
        return "budget", str(e)
    if cm is None:
        return None
    return (cm.size, list(cm.functions.items()), list(cm.predicates.items()),
            list(cm.env.items()))


def test_oracle_agrees_with_the_brute_force_search():
    formulas = [parse_formula(t) for t in orders_texts() + list(NAMED_TEXTS)]
    c = App("sk_c", True, ())
    formulas.append(Or(Atom("p", (SkolemNamedVar(App("sk_f", True, (c,))),)),
                       Atom("q", (SkolemNamedVar(c), Var("x")))))
    rng = random.Random(9)
    for _ in range(150):
        f = random_candidate(rng)
        starred = deltapp_skolemize(f, SkolemRegistry())
        formulas += [f, outer_skolemize(f), starred, promote_skolem_apps(starred)]
    seen = {"budget": 0, "valid": 0, "countermodel": 0}
    for f in formulas:
        for size in (1, 2, 3):
            for budget in (10_000, 100):
                want = oracle_outcome(brute_force_countermodel, f, size, budget)
                assert oracle_outcome(find_countermodel, f, size, budget) == want, (
                    f, size, budget)
                seen["valid" if want is None else
                     "budget" if want[0] == "budget" else "countermodel"] += 1
    assert sum(seen.values()) == len(formulas) * 6 >= 3000
    assert min(seen.values()) > 100, seen


INVALID_TEXTS = [
    "(forall x. exists y. q(x,y)) -> exists y. forall x. q(x,y)",  # quantifier swap
    "(exists x. p(x)) -> forall x. p(x)",
    "(exists x. p(x)) -> p(c)",
    "exists x. (p(x) -> forall y. q(x,y))",
    "(forall x. forall y. (q(x,y) -> q(y,x))) -> q(a,b)",
]


def test_a_formula_that_holds_has_no_countermodel():
    """Property C is sound: a seeded formula that holds at some order up to
    3, under either Skolemization and either height convention, is false in
    no interpretation of size 1 or 2.  Formulas with a countermodel hold at
    no order up to 4."""
    rng = random.Random(13)
    held = 0
    for i in range(1000):
        a = random_candidate(rng)
        star, herbrand = i % 2 == 1, i % 4 >= 2
        if min_order(a, star=star, n_max=3, herbrand_heights=herbrand) is not None:
            held += 1
            assert find_countermodel(a, max_size=2) is None, (i, a)
    assert 500 < held < 1000
    for text in INVALID_TEXTS:
        a = parse_formula(text)
        assert find_countermodel(a, max_size=2) is not None
        for star in (False, True):
            for herbrand in (False, True):
                assert min_order(a, star=star, n_max=4, herbrand_heights=herbrand) is None
