"""The two deciders of property C's full route: semi-naive forward chaining
on a Horn refutation form (expansion.HornChain, which property_c makes or
is given), and the CDCL refutation of the grounded expansion, which stays
the definition and the reference here."""

import random
from collections import Counter

import pytest

from herbrandkit import construct, expansion
from herbrandkit.construct import UPPER_BOUND_TEXT, property_c, skolemized
from herbrandkit.expansion import (
    BudgetError,
    ExpansionError,
    abstraction,
    champ,
    expansion_counts,
    full_selection,
    HornChain,
)
from herbrandkit.syntax import (
    App, And, Atom, Exists, Forall, Not, Or, SkolemNamedVar, Var, collect_signature,
    fold, free_names, parse_formula, substitute_term,
)
from herbrandkit.taut import decide_form, refutation_clauses

from conftest import DRINKER_TEXT, TWO_DISJUNCT_TEXT, random_candidate
from test_champ import random_signature_formula
from test_expansion import (
    TWO_DISJUNCT_MOVED_TEXT, UPPER2_TEXT, orders_family_texts, succ_text,
)


@pytest.fixture
def horn_answers(monkeypatch):
    """The answers property_c's full route gets from the Horn decider, in
    call order: None for a form it leaves to the CDCL route."""
    out = []
    extend = HornChain.extend

    def recorded(self, *args):
        out.append(extend(self, *args))
        return out[-1]

    monkeypatch.setattr(HornChain, "extend", recorded)
    return out


def check_both_routes(a, sk, n, star, herbrand, answers, budget=10_000_000, chain=None):
    """property_c's full route on a, Skolemized as sk, against the CDCL
    route called directly: the same status, witness, node count and
    tautology flag, and the Horn decider, when it answers, agrees.  Orders
    whose champ or expansion outgrows the size guard budget are skipped.
    chain, when given, is a HornChain of sk that the call extends."""
    check = dict(star=star, herbrand_heights=herbrand, budget=budget,
                 chain=chain or HornChain(sk))
    try:
        ch = champ(sk, n, herbrand=herbrand, budget=budget)
        count = expansion_counts(sk, len(ch))[0]
    except BudgetError:
        return
    except ExpansionError:  # no terms and quantifiers remain: no route runs
        assert property_c(a, n, **check).status == "fails"
        return
    if count > budget:
        return
    asked = len(answers)
    got = property_c(a, n, **check)
    want = decide_form(*refutation_clauses(*abstraction(sk, full_selection(sk, ch.terms))))[0]
    assert len(answers) == asked + 1 and answers[-1] in (None, want), (str(sk), n)
    assert (got.status, got.witness, got.node_count, got.tautology) == (
        "holds" if want else "fails", "full-expansion" if want else "none",
        count if ch.terms else None, want), (str(sk), n, star, herbrand)


def horn_share(answers) -> float:
    return sum(x is not None for x in answers) / len(answers)


@pytest.mark.parametrize("star", [False, True], ids=["outer", "deltapp"])
def test_both_routes_agree_on_the_orders_families(horn_answers, star):
    """Every orders family at orders 1-7, past each least order, and the
    upper bound up to order 3, where it fails: each is Horn, so the
    chaining decides it."""
    for text in orders_family_texts() + [UPPER_BOUND_TEXT]:
        a = parse_formula(text)
        sk = skolemized(a, star)
        for n in range(1, 8):
            check_both_routes(a, sk, n, star, False, horn_answers, budget=200_000)
    assert len(horn_answers) >= 140 and horn_share(horn_answers) == 1
    assert property_c(parse_formula(UPPER_BOUND_TEXT), 3, star=star).status == "fails"


def test_both_routes_agree_on_random_candidates(horn_answers):
    """1,000 seeded random_candidate draws, both Skolemizations, both
    height conventions, orders 1-4; most are Horn, the rest go to CDCL."""
    rng = random.Random(2024)
    for _ in range(1000):
        a = random_candidate(rng)
        for star in (False, True):
            sk = skolemized(a, star)
            for herbrand in (False, True):
                for n in range(1, 5):
                    check_both_routes(a, sk, n, star, herbrand, horn_answers)
    assert len(horn_answers) >= 12_000 and 0.6 <= horn_share(horn_answers) <= 0.9


# binders that bind pool names: plain variables, and Skolem-named ones that
# print like the pool's Skolem constant and Skolem applications
POOL_BINDERS = ["x", "y", "sk_c", "sk_f0(sk_c)", "sk_h(sk_c)", "g"]


def pool_formula(rng):
    """Two random_signature_formula conjunctions, each under a quantifier
    that binds one of its names, joined as an implication or a junction:
    free names stay free (?g among them), and a Skolem-named binder binds
    the Skolem-named variables of its print but not the terms that print
    alike."""
    parts = []
    for _ in range(2):
        g = random_signature_formula(rng)
        free = [b for b in POOL_BINDERS if b in free_names(g)]
        if free:
            g = rng.choice((Forall, Exists))(rng.choice(free), g)
        parts.append(g)
    left, right = parts
    return rng.choice((Or(Not(left), right), Or(left, right), And(Not(left), right),
                       Or(Not(left), Not(right)), And(Not(left), Not(right))))


def test_both_routes_agree_on_pool_formulas(horn_answers):
    """Forms over the pool of test_champ.random_signature_formula: Skolem
    constants, free and Skolem-named variables, ? names and @dot."""
    rng = random.Random(2025)
    for _ in range(250):
        a = pool_formula(rng)
        for star in (False, True):
            sk = skolemized(a, star)
            for herbrand in (False, True):
                for n in range(1, 4):
                    check_both_routes(a, sk, n, star, herbrand, horn_answers, budget=20_000)
    assert len(horn_answers) >= 1500 and 0.4 <= horn_share(horn_answers) <= 0.9


C_PRIME, X, SK_C = Var("c'"), Var("x"), App("sk_c", True, ())


@pytest.mark.parametrize("fact, pattern, constant", [
    (App("f", False, (C_PRIME,)), App("f", False, (X,)), C_PRIME),
    (SkolemNamedVar(App("sk_f", True, (SK_C,))), App("sk_f", True, (X,)), SK_C),
], ids=["unparsable-name", "skolem-named-variable"])
def test_a_compound_pattern_matches_by_structure(horn_answers, fact, pattern, constant):
    """A fact is matched against a compound body atom by its structure,
    without reading its print, and a Skolem-named variable matches as the
    application it prints as: p(f(c')), with a constant built in code under
    a name the parser does not read, is an instance of p(f(x)), and so is
    p(sk_f(sk_c)) with the free variable named sk_f(sk_c) of p(sk_f(x)).
    Each implication holds at order 2, as the CDCL route says."""
    a = Or(Not(And(Atom("p", (fact,)),
                   Forall("x", Or(Not(Atom("p", (pattern,))), Atom("q", (X,)))))),
           Atom("q", (constant,)))
    check_both_routes(a, skolemized(a), 2, False, False, horn_answers)
    assert horn_answers == [True]


# distributed, ~p(x,y) | q(u,v) has T^4 instances over T terms, where the
# expansion, which keeps the quantifier blocks apart, has about 3T^2 nodes
MERGED_BLOCKS_TEXT = ("(exists a. exists b. ~p(a,b)) | ((exists x. exists y. p(x,y))"
                      " & (exists u. exists v. ~q(u,v))) | r(g(c,c))")
# the goal ~p(a,b) | ~q(a,b) | ~r(g(c,c)) has T^2 instances, but the join
# from each of the T^2 p facts tries the T q facts filed under its a
WIDE_JOIN_TEXT = ("(exists x. exists y. ~p(x,y)) | (exists u. exists v. ~q(u,v))"
                  " | (exists a. exists b. p(a,b) & q(a,b) & r(g(c,c)))")


@pytest.mark.parametrize("text, answers", [
    (MERGED_BLOCKS_TEXT, [False, False, None, None]),
    (WIDE_JOIN_TEXT, [False, False, False, None]),
], ids=["head-only-variables", "join"])
def test_a_chaining_that_outgrows_the_expansion_goes_to_cdcl(horn_answers, text, answers):
    """Over the terms of orders 2-5 (1, 2, 5 and 26 of them), from the first
    order where answers says None, the form's ground clause instances, or
    the filed facts its joins try, outnumber the expansion's nodes, and the
    CDCL route decides it: fails, as the chaining says there when nothing
    limits it."""
    a = parse_formula(text)
    sk = skolemized(a)
    for n in range(2, 6):
        check_both_routes(a, sk, n, False, False, horn_answers)
    assert horn_answers == answers
    n = answers.index(None) + 2
    assert HornChain(sk).extend(champ(sk, n).terms, 10**6) is False


# ---------------------------------------------------------------------------
# which decider the full route runs

NON_HORN_TEXT = "(forall x. p(x) | q(x)) -> (exists y. p(y) | q(y))"


def count_routes(monkeypatch) -> Counter:
    calls = Counter()
    for name in ("abstraction", "decide_form"):
        def counted(*args, _f=getattr(construct, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(construct, name, counted)
    return calls


@pytest.mark.parametrize("text, routes", [
    (UPPER2_TEXT, {}), (DRINKER_TEXT, {}),
    (NON_HORN_TEXT, {"abstraction": 1, "decide_form": 1}),
], ids=["upper2", "drinker", "non-horn"])
def test_the_full_route_grounds_only_a_form_that_is_not_horn(monkeypatch, text, routes):
    """On a Horn form the full route calls neither abstraction nor
    decide_form; on one that is not Horn it calls each once."""
    calls = count_routes(monkeypatch)
    r = property_c(parse_formula(text), 3)
    assert r.holds and calls == Counter(routes)


# ---------------------------------------------------------------------------
# one chain per min_order call

def test_a_chain_extended_order_by_order_agrees_with_cdcl(horn_answers):
    """One HornChain per form, Skolemization and height convention, extended
    through orders 1-5, past answers True and None: on the orders families,
    the forms whose chaining outgrows the expansion, and 200 seeded
    random_candidate formulas, each order answers as the CDCL route does
    from scratch."""
    rng = random.Random(2027)
    texts = orders_family_texts() + [UPPER2_TEXT, MERGED_BLOCKS_TEXT, WIDE_JOIN_TEXT]
    for a in [parse_formula(t) for t in texts] + [random_candidate(rng) for _ in range(200)]:
        for star in (False, True):
            sk = skolemized(a, star)
            for herbrand in (False, True):
                chain = HornChain(sk)
                for n in range(1, 6):
                    check_both_routes(a, sk, n, star, herbrand, horn_answers, 20_000, chain)
    assert True in horn_answers and None in horn_answers
    assert 0.6 <= horn_share(horn_answers) < 1


def scan_from_scratch(monkeypatch, a, star, herbrand, n_max, budget):
    """The definition min_order answers to: the least order up to n_max at
    which property_c, on the CDCL route at every order, holds; or the size
    guard message that stops the scan."""
    with monkeypatch.context() as m:
        m.setattr(HornChain, "extend", lambda self, terms, limit: None)
        sk = skolemized(a, star)
        try:
            return next((n for n in range(1, n_max + 1) if property_c(
                a, n, star=star, herbrand_heights=herbrand, budget=budget,
                chain=HornChain(sk)).holds), None)
        except BudgetError as e:
            return str(e)


def carried_scan(a, star, herbrand, n_max, budget):
    try:
        return construct.min_order(a, star, n_max, herbrand, budget)
    except BudgetError as e:
        return str(e)


def check_scans(monkeypatch, texts_or_formulas, n_max, budget=10_000_000,
                heights=(False, True)):
    for a in texts_or_formulas:
        a = parse_formula(a) if isinstance(a, str) else a
        for star in (False, True):
            for herbrand in heights:
                assert carried_scan(a, star, herbrand, n_max, budget) == scan_from_scratch(
                    monkeypatch, a, star, herbrand, n_max, budget), (str(a), star, herbrand)


def test_min_order_carries_facts_as_a_scan_from_scratch_decides(monkeypatch, horn_answers):
    """min_order extends one chain from order to order, and finds the order
    that property_c on the CDCL route finds, order by order from scratch:
    on the orders families, the two-element upper bound and the drinker
    formula, under both Skolemizations and height conventions, up to order
    4."""
    check_scans(monkeypatch, orders_family_texts() + [UPPER2_TEXT, DRINKER_TEXT], 4,
                budget=200_000)
    assert len(horn_answers) >= 150 and horn_share(horn_answers) == 1


def test_min_order_carries_facts_on_random_candidates(monkeypatch, horn_answers):
    """The same on 300 seeded random_candidate formulas: most forms are
    Horn, and a form that is not goes to CDCL at every order."""
    rng = random.Random(2026)
    check_scans(monkeypatch, [random_candidate(rng) for _ in range(300)], 4)
    assert 0.6 <= horn_share(horn_answers) <= 0.95


def test_min_order_rescans_after_a_chain_that_gave_up(monkeypatch, horn_answers):
    """On forms whose chaining outgrows the expansion at some order, the
    scan still answers as from scratch, up to order 5 under standard
    heights; and a chain cut short in the middle of a join is dropped:
    extended again, it answers as a fresh one."""
    check_scans(monkeypatch, [MERGED_BLOCKS_TEXT, WIDE_JOIN_TEXT], 5, heights=(False,))
    assert None in horn_answers and False in horn_answers
    sk = skolemized(parse_formula(WIDE_JOIN_TEXT))
    chain = HornChain(sk)
    assert [chain.extend(champ(sk, n).terms, 10**6) for n in (2, 3, 4)] == [False] * 3
    terms = champ(sk, 5).terms  # 26 terms, 2,028 ground instances, 17,576 join tries
    assert chain.extend(terms, 5_000) is None and chain.state is None
    assert chain.extend(terms, 10**6) is False
    assert HornChain(sk).extend(terms, 5_000) is None


@pytest.mark.parametrize("star", [False, True], ids=["outer", "deltapp"])
def test_the_order_4_upper_bound_check_looks_heads_up_in_the_champ(monkeypatch, star):
    """The order-4 upper-bound check holds under a guard of 30,000,000,
    alone and as the last order of min_order, and builds at most as many
    head instances as the 428 facts it queues (none at present): each head
    x < sk_m(x,y) fires from a pool term sk_m(x,y), through its body atom
    @pool(sk_m(x,y)), and is read off that atom."""
    built = []

    def counted(t, env):
        built.append(t)
        return substitute_term(t, env)

    monkeypatch.setattr(expansion, "substitute_term", counted)
    a = parse_formula(UPPER_BOUND_TEXT)
    assert property_c(a, 4, star=star, budget=30_000_000).holds
    assert construct.min_order(a, star, 4, budget=30_000_000) == 4
    assert len(built) <= 428


@pytest.mark.parametrize("star", [False, True], ids=["outer", "deltapp"])
def test_no_head_waits_on_a_term_outside_the_pool(star):
    """The order-3 upper-bound check fails, so its chain keeps its state.
    Its waiting lists hold no more entries than the facts it queued (none
    against 15): a head at a tight place fires only from a pool term,
    through its @pool atom, so it never waits for one."""
    sk = skolemized(parse_formula(UPPER_BOUND_TEXT), star)
    terms = champ(sk, 3).terms
    chain = HornChain(sk)
    assert chain.extend(terms, expansion_counts(sk, len(terms))[0]) is False
    _, seen, _, _, waiting = chain.state
    assert sum(map(len, waiting.values())) <= len(seen)


@pytest.mark.parametrize("star", [False, True], ids=["outer", "deltapp"])
def test_a_one_atom_clause_files_nothing(star):
    """join reads the facts filed at a clause's other body atoms, and a
    one-atom clause has none, so extend files no fact at its only atom.
    The order-3 upper-bound check fails and keeps its state: its facts are
    filed at the transitivity clause and the goal, and none at the one-atom
    clauses x < @ <- @pool(@, sk_m(x,y)) and y < @_1 <- @pool(@_1, sk_m(x,y))."""
    sk = skolemized(parse_formula(UPPER_BOUND_TEXT), star)
    terms = champ(sk, 3).terms
    chain = HornChain(sk)
    _, _, bodies, _, _ = chain.clause_form
    assert sorted(map(len, bodies)) == [1, 1, 2, 3]
    assert chain.extend(terms, expansion_counts(sk, len(terms))[0]) is False
    _, _, _, matched, _ = chain.state
    assert {len(bodies[c]) for c, _ in matched} == {2, 3}


@pytest.mark.parametrize("star", [False, True], ids=["outer", "deltapp"])
@pytest.mark.parametrize("text", [UPPER_BOUND_TEXT, UPPER2_TEXT, TWO_DISJUNCT_TEXT,
                                  TWO_DISJUNCT_MOVED_TEXT],
                         ids=["upper", "upper2", "two-disjunct", "moved"])
def test_a_tight_head_argument_is_a_variable_bound_by_its_pool_atom(text, star):
    """In the clause form every head argument at a tight place, one where
    every body atom of its predicate has a clause variable, is ground or a
    clause variable, which a body atom @pool(@, t) binds to the pool term t
    matched; and no @pool atom is ground: each binds a variable to a term
    that holds one."""
    names, heads, _, _, sites = HornChain(skolemized(parse_formula(text), star)).clause_form

    def var(t):
        return type(t) is not App and t.text in names

    for head in filter(None, heads):
        for i, p in enumerate(head.args):
            if all(var(args[i]) for _, _, args in sites.get((head.pred, len(head.args)), ())):
                assert var(p) or names.isdisjoint(p.names), (text, str(head))
    for _, _, (v, t) in sites.get(("@pool", 2), ()):
        assert var(v) and not names.isdisjoint(t.names), (text, str(t))


@pytest.mark.parametrize("text, n_max, least", [
    (UPPER2_TEXT, 2, None), (UPPER2_TEXT, 3, 3), (UPPER2_TEXT, 6, 3),
    (succ_text(2, True), 5, None)])
def test_min_order_reads_the_form_once(monkeypatch, text, n_max, least):
    """In one min_order call the champ signature of the Skolemized form and
    its clause form are each made once, whatever n_max is."""
    calls = Counter()

    def signature(f):
        calls["collect_signature"] += 1
        return collect_signature(f)

    def folded(f, up, *args):
        calls[up.__name__] += 1
        return fold(f, up, *args)

    monkeypatch.setattr(expansion, "collect_signature", signature)
    monkeypatch.setattr(expansion, "fold", folded)
    assert construct.min_order(parse_formula(text), n_max=n_max) == least
    assert (calls["collect_signature"], calls["_shape"], calls["_clausal"]) == (1, 1, 1)


def test_a_chain_given_terms_that_do_not_hold_its_pool_starts_afresh():
    """Extended to terms that leave out some of its pool, a chain answers
    over those terms alone: the goal ~q(e) | ~r(g) fires over {e, g}, but
    over {e} and then over {g} it does not."""
    sk = skolemized(parse_formula("(forall x. q(x)) & (forall y. r(y)) -> q(e) & r(g)"))
    e, g = App("e", False, ()), App("g", False, ())
    chain = HornChain(sk)
    assert [chain.extend(terms, 100) for terms in ([e], [g])] == [False, False]
    assert chain.extend([e, g], 100) is True
