"""Term domains, expansions, sub-expansions, and selection trees."""

import ast
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import herbrandkit
from herbrandkit.construct import UPPER_BOUND_SELECTION, min_order, property_c, skolemized
from herbrandkit.expansion import (
    LEAF,
    BudgetError,
    ExpansionError,
    SelAnd,
    SelNot,
    SelOr,
    SelQuant,
    SelectionError,
    _sel_children,
    abstraction,
    build_sub_expansion,
    champ,
    expand,
    expansion_counts,
    full_selection,
    parse_selection,
    print_selection,
    selection_terms,
    selection_within,
)
from herbrandkit.skolem import outer_skolemize
from herbrandkit.syntax import (
    DOT,
    And,
    App,
    Atom,
    FormulaError,
    GammaVar,
    bound_names,
    Not,
    Or,
    Quant,
    Var,
    children,
    formula_size,
    is_quantifier_free,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    quant_kind,
    rectify,
    subformulas,
    term_free_names,
    term_height,
)
import herbrandkit.taut as taut
from herbrandkit.taut import decide_form, is_tautology, refutation_clauses

import references
from conftest import DRINKER_TEXT, TWO_DISJUNCT_TEXT, random_candidate
from test_fold import TERMS, random_formula


# ---------------------------------------------------------------------------
# champs

def test_champ_order_one_is_empty():
    assert champ(parse_formula("p(c)"), 1).terms == ()


def test_champ_enumerates_heights_below_order():
    f = parse_formula("p(f(c))")
    ch = champ(f, 3)
    prints = [print_term(t) for t in ch.terms]
    assert prints == ["c", "f(c)"]
    assert all(term_height(t) < 3 for t in ch.terms)


def test_champ_adds_dot_only_when_no_base_terms(drinker):
    sk = outer_skolemize(drinker)
    ch = champ(sk, 2)
    assert [print_term(t) for t in ch.terms] == ["@dot"]
    with_free = champ(parse_formula("p(x)"), 2)
    assert [print_term(t) for t in with_free.terms] == ["x"]


def test_champ_canonical_order_is_height_then_print():
    f = parse_formula("p(g(b), f(a))")
    ch = champ(f, 3)
    prints = [print_term(t) for t in ch.terms]
    heights = [term_height(t) for t in ch.terms]
    assert heights == sorted(heights)
    for h in set(heights):
        group = [p for p, hh in zip(prints, heights) if hh == h]
        assert group == sorted(group)


def test_champ_monotone_in_order():
    f = parse_formula("p(f(c), g(c, d))")
    smaller = {print_term(t) for t in champ(f, 2).terms}
    larger = {print_term(t) for t in champ(f, 3).terms}
    assert smaller <= larger


def test_champ_counts_on_transitivity_example(upper_bound):
    sk = outer_skolemize(rectify(upper_bound))
    assert len(champ(sk, 2).terms) == 3
    assert len(champ(sk, 3).terms) == 12
    assert len(champ(sk, 4).terms) == 147


def test_champ_budget_guard():
    f = parse_formula("p(g(c, d))")
    with pytest.raises(BudgetError):
        champ(f, 6, budget=100)


def test_champ_herbrand_heights_admit_variables_early():
    f = parse_formula("p(x, c)")
    plain = champ(f, 1)
    assert plain.terms == ()
    herb = champ(f, 1, herbrand=True)
    assert [print_term(t) for t in herb.terms] == ["c", "x"]


# ---------------------------------------------------------------------------
# expansions

def test_expand_replaces_quantifiers_by_junctions():
    f = parse_formula("exists a. p(a)")
    e = expand(f, [parse_term("c"), parse_term("d")])
    assert print_formula(e) == "p(c) | p(d)"
    g = parse_formula("forall a. p(a)")
    assert print_formula(expand(g, [parse_term("c"), parse_term("d")])) == \
        "p(c) & p(d)"


def test_expand_quantifier_free_fixed_point():
    f = parse_formula("p(c) | ~q")
    assert expand(f, []) == f


def test_expand_empty_terms_on_quantified_formula_is_an_error():
    with pytest.raises(ExpansionError):
        expand(parse_formula("exists a. p(a)"), [])


def test_expand_renames_against_term_variable_collisions():
    f = parse_formula("exists a. p(a, x)")
    e = expand(f, [parse_term("x")])
    assert print_formula(e) == "p(x,x)"
    g = parse_formula("forall x. exists a. p(a, x)")
    e2 = expand(g, [parse_term("x"), parse_term("c")])
    assert is_quantifier_free(e2)


def test_expansion_counts_match_built_expansion():
    rng = random.Random(11)
    for _ in range(20):
        n_quants = rng.randrange(1, 3)
        body = "p(x0)" if n_quants == 1 else "q(x0, x1)"
        text = body
        for i in range(n_quants):
            kind = rng.choice(["forall", "exists"])
            text = f"{kind} x{i}. ({text})"
        f = parse_formula(text)
        terms = [parse_term(t) for t in ["c", "d", "f(c)"][:rng.randrange(1, 4)]]
        e = expand(f, terms)
        assert expansion_counts(f, len(terms)) == (formula_size(e), len(terms) ** n_quants)


def test_leaf_count_arithmetic_without_building(upper_bound):
    sk = outer_skolemize(rectify(upper_bound))
    assert expansion_counts(sk, 4)[1] == 4**2 + 4**3 + 4
    assert expansion_counts(sk, 1000000)[0] > 10**12


def test_expansion_counts_agree_with_the_two_folds_they_replaced():
    """On seeded random formulas: the node and leaf counts of the two
    reference folds, at every term count but 0; over no terms, the same
    counts for a quantifier-free formula and expand's error for any other."""
    rng = random.Random(21)
    formulas = [random_formula(rng, 5, []) for _ in range(300)]
    formulas += [random_candidate(rng) for _ in range(100)]
    seen = Counter()
    for f in formulas + [parse_formula("forall x. p(x)"),
                         parse_formula("(forall x. p(x)) & q")]:
        for n in (0, 1, 2, 3, 147, 156):
            if n == 0 and not is_quantifier_free(f):
                with pytest.raises(ExpansionError, match="^expansion over an empty "
                                   "term list is undefined for a formula with quantifiers$"):
                    expansion_counts(f, n)
                seen["raised"] += 1
                continue
            assert expansion_counts(f, n) == (references.expansion_node_count(f, n),
                                              references.expansion_leaf_count(f, n))
            seen[is_quantifier_free(f), n == 0] += 1
    assert min(seen.values()) > 50 and len(seen) == 4


def test_expand_budget_guard(upper_bound):
    sk = outer_skolemize(rectify(upper_bound))
    ch = champ(sk, 4)
    with pytest.raises(BudgetError):
        expand(sk, ch, budget=10000)


def test_expand_agrees_with_the_reference():
    """expand against the fold it replaced, which renamed binders away from
    the terms' free names and then substituted after every quantifier, over
    random formulas (Skolemized or not, with shadowed and Skolem-named
    binders and ? variables), over champs and over term lists that use
    names the formula binds, in both height conventions and under size
    guards that refuse some: the same expansion, or the same error and
    text."""
    rng = random.Random(31)
    outcomes = Counter()
    for i in range(600):
        herbrand = rng.random() < 0.5
        if i % 3 == 2:
            f = random_formula(rng, 4, [])
        else:
            f = random_candidate(rng)
            f = outer_skolemize(f) if i % 3 else f
        ch = champ(f, rng.randint(1, 3), herbrand=herbrand)
        roll = rng.random()
        if roll < 0.4:
            terms = ch
        elif roll < 0.8:
            terms = list(ch.terms) + rng.sample(TERMS, rng.randint(1, 4))
        else:
            terms = rng.sample(TERMS, rng.randint(0, 3))
        budget = rng.choice([8, 40, 200, 10_000_000])
        try:
            want = references.expand(f, terms, budget, herbrand)
        except FormulaError as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                expand(f, terms, budget, herbrand)
            outcomes[type(e).__name__] += 1
            continue
        got = expand(f, terms, budget, herbrand)
        assert got == want and print_formula(got) == print_formula(want)
        named = set().union(*map(term_free_names, getattr(terms, "terms", terms)))
        outcomes["built"] += 1
        outcomes["bound names in terms"] += bool(named & bound_names(f))
    assert outcomes["built"] > 250 and outcomes["bound names in terms"] > 40
    assert outcomes["BudgetError"] > 50 and outcomes["ExpansionError"] > 10


# ---------------------------------------------------------------------------
# selections

def test_selection_parse_print_round_trip(upper_bound_selection):
    text = print_selection(upper_bound_selection)
    assert parse_selection(text) == upper_bound_selection


def test_selection_comments_and_underscore_leaf():
    sel = parse_selection("; choose both witnesses\n(exists a (c d) _)")
    assert isinstance(sel, SelQuant)
    assert sel.kind == "exists" and sel.var == "a"
    assert [print_term(t) for t in sel.terms] == ["c", "d"]
    assert sel.branches == (LEAF, LEAF)


def selection_literals() -> list[str]:
    """Every string in the tests that reads as a selection, or as one meant
    to be refused, and the selection files under tests/data."""
    here = Path(__file__).parent
    shape = re.compile(r"\s*(;[^\n]*\n\s*)*(_\s*$|\((not|and|or|forall|exists)\s)")
    out = [p.read_text() for p in sorted((here / "data").glob("*.sel"))]
    for path in sorted(here.glob("*.py")):
        out += [n.value for n in ast.walk(ast.parse(path.read_text()))
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
                and shape.match(n.value)]
    return out


def random_selection_text(rng, depth: int) -> str:
    """A well-formed selection with a random layout: comments, newlines and
    runs of blanks between tokens and inside term parentheses, Skolem terms
    with nested arguments, @dot, ? variables and Skolem-named binders, and
    either one branch shared by every term or one branch per term."""

    def gap():
        return rng.choice([" ", "  ", "\n", " \t", " ; note (a) _\n", "\n; x\n "])

    def pad():
        return rng.choice(["", "", " ", "\n "])

    def term(d):
        if d == 0 or rng.random() < 0.4:
            return rng.choice(["c", "x", "sk_u", "sk_v", "@dot", "?g", "?h1", "f1"])
        args = [term(d - 1) for _ in range(rng.randint(1, 3))]
        sep = "," + pad()
        return (rng.choice(["sk_m", "sk_f", "g"]) + "(" + pad()
                + sep.join(args) + pad() + ")")

    def node(d):
        roll = rng.random()
        if d == 0 or roll < 0.15:
            return "_"
        if roll < 0.3:
            return "(" + pad() + "not" + gap() + node(d - 1) + pad() + ")"
        if roll < 0.5:
            return ("(" + rng.choice(["and", "or"]) + gap() + node(d - 1)
                    + gap() + node(d - 1) + pad() + ")")
        terms = [term(2) for _ in range(rng.randint(1, 3))]
        binder = rng.choice(["x", "a", "y_1", "sk_a(x)", "sk_b(sk_m(c,?g))"])
        n = rng.choice([0, 1, len(terms)])
        return ("(" + rng.choice(["forall", "exists"]) + gap() + binder + gap()
                + "(" + pad() + gap().join(terms) + pad() + ")"
                + "".join(gap() + node(d - 1) for _ in range(n)) + pad() + ")")

    return pad() + node(depth) + pad()


def read_both(text: str):
    """What the reader and the reference reader make of a text: the tree
    and both printers' text of it, or None for a refusal."""
    out = []
    for parse in (parse_selection, references.parse_selection):
        try:
            sel = parse(text)
        except FormulaError:
            out.append(None)
            continue
        out.append((sel, print_selection(sel), references.print_selection(sel)))
    return out


def has_unreadable_binder(sel) -> bool:
    """Whether some binder of sel does not read as a term that prints back
    as itself."""
    stack = [sel]
    while stack:
        s = stack.pop()
        if isinstance(s, SelQuant):
            try:
                if print_term(parse_term(s.var)) != s.var:
                    return True
            except FormulaError:
                return True
        stack += _sel_children(s)
    return False


def test_selection_reader_and_printer_agree_with_the_reference():
    """The reader from the formula tokenizer and the printer from an
    explicit stack against the recursive reader, with its own lexer, and
    printer that they replaced: the same tree and byte-identical text on
    every selection literal of the tests and on seeded random selections,
    and the same refusals on one-character mutations of those."""
    rng = random.Random(1313)
    literals = selection_literals()
    assert len(literals) > 10
    texts = [UPPER_BOUND_SELECTION, *literals]
    texts += [random_selection_text(rng, rng.randint(1, 6)) for _ in range(2000)]
    outcomes = Counter()
    for text in texts:
        new, old = read_both(text)
        assert new == old, text
        if new is not None:
            sel, printed, reference_printed = new
            assert printed == reference_printed
            assert parse_selection(printed) == sel
            outcomes["read"] += 1
        cut = rng.randrange(len(text))
        if not text[cut].isspace():  # deleting a blank may join two terms
            mutated = text[:cut] + text[cut + 1:]
            new, old = read_both(mutated)
            if new is None and old is not None:
                # the reference took any word as a binder, unread
                assert has_unreadable_binder(old[0]), mutated
                outcomes["binder"] += 1
                continue
            assert new == old, mutated
            outcomes["refused" if new is None else "mutated"] += 1
    assert outcomes["read"] > 2000 and outcomes["refused"] > 500


def test_deep_selection_reads_and_prints_under_the_recursion_limit():
    depth = 20_000
    text = "(not " * depth + "(exists a (c) _)" + ")" * depth
    sel = parse_selection(text)
    assert print_selection(sel) == text
    again = parse_selection(print_selection(sel))
    for _ in range(depth):
        assert isinstance(sel, SelNot) and isinstance(again, SelNot)
        sel, again = sel.sub, again.sub
    assert sel == again == SelQuant("exists", "a", (Var("c"),), (LEAF,))


def test_selection_rejects_empty_term_lists():
    with pytest.raises(ExpansionError):
        parse_selection("(exists a () _)")


def test_built_selection_with_empty_term_list_is_refused(drinker):
    sel = SelQuant("exists", "a", (), ())
    with pytest.raises(SelectionError, match="empty term list at quantifier a"):
        build_sub_expansion(outer_skolemize(drinker), sel)
    with pytest.raises(SelectionError, match="empty term list at quantifier a"):
        property_c(drinker, 3, sel=sel)
    short = SelQuant("exists", "a", (DOT, parse_term("sk_b(@dot)")), (LEAF,))
    with pytest.raises(SelectionError, match="lists 2 terms but 1 sub-selections"):
        build_sub_expansion(outer_skolemize(drinker), short)


def test_selection_within_champ(upper_bound_selection, upper_bound):
    sk = outer_skolemize(rectify(upper_bound))
    ok, missing = selection_within(upper_bound_selection, sk, 4)
    assert ok and missing == []
    ok, missing = selection_within(upper_bound_selection, sk, 3)
    assert not ok
    assert {print_term(t) for t in missing} == {"sk_m(sk_u,sk_m(sk_v,sk_w))"}


def test_build_sub_expansion_drinker(drinker):
    sk = outer_skolemize(drinker)
    sel = parse_selection("(exists a (@dot sk_b(@dot)) _ _)")
    e = build_sub_expansion(sk, sel)
    assert is_quantifier_free(e)
    assert is_tautology(e)


def test_build_sub_expansion_single_choice_is_not_tautological(drinker):
    sk = outer_skolemize(drinker)
    sel = parse_selection("(exists a (@dot) _)")
    e = build_sub_expansion(sk, sel)
    assert print_formula(e) == "~p(sk_b(@dot)) | p(@dot)"
    assert not is_tautology(e)


def test_the_sub_expansion_guard_counts_every_node_it_builds():
    """Each copy of a quantifier-free leaf counts all its nodes, and the
    guard is checked as the count grows: the 24-node sub-expansion below
    passes a guard of 24 and no smaller one, like the full expansion of
    that size, in the library and in the reference."""
    f = outer_skolemize(rectify(parse_formula(
        "(forall x. forall y. p(x,y)) -> p(a,b) & p(b,c) & p(c,a)")))
    sel = parse_selection("(or (not (forall x (a b c) (forall y (a b c) _))) _)")
    for build in (build_sub_expansion, references.build_sub_expansion):
        assert formula_size(build(f, sel, 24)) == 24
        for budget in (19, 23):
            with pytest.raises(BudgetError, match=f"size guard of {budget} nodes"):
                build(f, sel, budget)


def test_build_sub_expansion_skeleton_mismatch(drinker):
    sk = outer_skolemize(drinker)
    with pytest.raises(ExpansionError):
        build_sub_expansion(sk, parse_selection("(forall a (@dot) _)"))


def test_tautological_sub_expansion_implies_tautological_expansion():
    # on formulas whose quantifiers all sit in gamma position, choosing a
    # subset of the terms can only weaken the expansion
    rng = random.Random(23)
    hits = 0
    for _ in range(40):
        if rng.random() < 0.5:
            f = parse_formula("exists a. (p(a, x) | ~p(c, x))")
            ch = champ(f, 2)
            k = rng.randrange(1, len(ch.terms) + 1)
            chosen = tuple(rng.sample(list(ch.terms), k))
            sel = SelQuant("exists", "a", chosen, (LEAF,) * k)
        else:
            f = parse_formula("~(forall a. p(a, x)) | p(c, x)")
            ch = champ(f, 2)
            k = rng.randrange(1, len(ch.terms) + 1)
            chosen = tuple(rng.sample(list(ch.terms), k))
            sel = SelOr(SelNot(SelQuant("forall", "a", chosen, (LEAF,) * k)),
                        LEAF)
        sub = build_sub_expansion(f, sel)
        if is_tautology(sub):
            hits += 1
            assert is_tautology(expand(f, ch))
    assert hits > 0


def random_selection(rng, g, terms):
    """A selection for g that mostly fits, with a tail of faults: a leaf at
    a quantifier, choices at an atom, the wrong junction, kind or binder, a
    branch count unequal to the term count."""
    roll = rng.random()
    if roll < 0.02:
        return LEAF
    if roll < 0.03:
        return SelNot(LEAF)
    if isinstance(g, Atom) or is_quantifier_free(g) and roll < 0.5:
        return LEAF
    if isinstance(g, Not):
        return SelNot(random_selection(rng, g.sub, terms))
    if isinstance(g, (And, Or)):
        make = SelAnd if isinstance(g, And) != (roll < 0.04) else SelOr
        return make(random_selection(rng, g.left, terms),
                    random_selection(rng, g.right, terms))
    ts = tuple(rng.choice(terms) for _ in range(rng.randint(1, 3)))
    kind = quant_kind(g) if roll > 0.05 else "exists"
    var = g.var if roll > 0.06 else "w"
    branches = [random_selection(rng, g.body, terms)
                for _ in range(len(ts) + (roll < 0.07))]
    return SelQuant(kind, var, ts, tuple(branches))


def test_sub_expansion_agrees_with_the_reference():
    """build_sub_expansion against the recursive walk it replaced, over
    random formulas (Skolemized or not, with shadowed and Skolem-named
    binders and ? variables) and random selections, some of them faulty,
    some over terms that use bound names, under random size guards: the
    same sub-expansion, or the same error and text."""
    rng = random.Random(29)
    extra = [GammaVar("g"), Var("x"), App("f", False, (GammaVar("g"),))]
    outcomes = Counter()
    for i in range(900):
        if i % 3 == 2:
            f = random_formula(rng, 4, [])
            terms = [App("c", False, ()), App("sk_b", True, ()), GammaVar("g")]
        else:
            f = random_candidate(rng)
            f = outer_skolemize(f) if i % 3 else f
            terms = list(champ(f, 3).terms) + extra[:rng.randint(0, 3)]
        sel = random_selection(rng, f, terms)
        assert selection_terms(sel) == references.selection_terms(sel)
        budget = rng.choice([4, 8, 16, 40, 10_000_000])
        try:
            want = references.build_sub_expansion(f, sel, budget)
        except (SelectionError, BudgetError) as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                build_sub_expansion(f, sel, budget)
            outcomes[type(e).__name__] += 1
            continue
        got = build_sub_expansion(f, sel, budget)
        assert got == want and print_formula(got) == print_formula(want)
        assert formula_size(got) <= budget
        outcomes["built"] += 1
    assert outcomes["built"] > 300 and outcomes["BudgetError"] > 50
    assert outcomes["SelectionError"] > 100


# ---------------------------------------------------------------------------
# the literal builder: the walk grounds straight into taut's abstraction

def succ_text(k: int, twin: bool) -> str:
    goal = "d" if twin else "c"
    for _ in range(k):
        goal = f"f({goal})"
    return f"(p(c) & (forall x. (p(x) -> p(f(x))))) -> p({goal})"


UPPER2_TEXT = ("((forall x. forall y. exists m. (x < m & y < m)) & "
               "(forall c. forall b. forall a. ((a < b & b < c) -> a < c))) -> "
               "(forall u. forall v. exists z. (u < z & v < z))")


def transitivity_text(n: int, rng) -> str:
    """A chain k0 -> ... -> k(n-1) with one extra edge, asking for a pair
    the closure has or has not."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(rng.randrange(n), rng.randrange(n))]
    facts = " & ".join(f"r(k{s},k{t})" for s, t in edges)
    s, t = rng.sample(range(n), 2)
    return (f"((forall a. forall b. forall c. ((r(a,b) & r(b,c)) -> r(a,c))) & {facts})"
            f" -> r(k{s},k{t})")


def orders_family_texts():
    rng = random.Random(20)
    return ([succ_text(k, twin) for k in range(1, 7) for twin in (False, True)]
            + [DRINKER_TEXT, TWO_DISJUNCT_TEXT, TWO_DISJUNCT_MOVED_TEXT, UPPER2_TEXT]
            + [transitivity_text(n, rng) for n in range(3, 7) for _ in range(2)])


TWO_DISJUNCT_MOVED_TEXT = ("(exists a. (~(exists b. p(b)) | q(a))) | "
                           "((exists x. p(x)) & ~(exists y. q(y)))")


def assert_grounds_alike(f, sel, budget=10_000_000):
    """abstraction(f, sel) is the abstraction of the built sub-expansion, and
    the verdict read off it is the one is_tautology gives."""
    built = build_sub_expansion(f, sel, budget)
    got = abstraction(f, sel, budget)
    assert got == references.reference_abstract(built)
    assert decide_form(*refutation_clauses(*got))[0] == is_tautology(built)
    return got


@pytest.mark.parametrize("star", [False, True], ids=["outer", "deltapp"])
def test_literal_builder_agrees_on_the_orders_families(star):
    """Every orders family at every order up to one past its least, on both
    Skolemizations: the same (nodes, root) as the reference abstraction of
    expand, and
    the verdict property_c gives."""
    seen = Counter()
    for text in orders_family_texts():
        sk = skolemized(parse_formula(text), star)
        least = min_order(parse_formula(text), star=star)
        for n in range(2, (least or 3) + 2):
            ch = champ(sk, n)
            if not ch.terms or expansion_counts(sk, len(ch))[0] > 200_000:
                continue
            sel = full_selection(sk, ch.terms)
            got = assert_grounds_alike(sk, sel)
            assert got == references.reference_abstract(expand(sk, ch))
            assert property_c(parse_formula(text), n, star=star).holds == (
                is_tautology(expand(sk, ch)))
            seen[n == least] += 1
    assert seen[True] >= 15 and seen[False] >= 30


def test_literal_builder_agrees_on_the_order_3_upper_bound(upper_bound):
    sk = skolemized(upper_bound)
    ch = champ(sk, 3)
    nodes, root = assert_grounds_alike(sk, full_selection(sk, ch.terms))
    assert (nodes, root) == references.reference_abstract(expand(sk, ch))
    assert expansion_counts(sk, len(ch))[0] == 12_744
    assert sum(type(node) is str for node in nodes) == 405


@pytest.mark.parametrize("star", [False, True], ids=["outer", "deltapp"])
def test_literal_builder_agrees_along_the_upper_bound_selection(upper_bound, star):
    sk = skolemized(upper_bound, star)
    nodes, _ = assert_grounds_alike(sk, parse_selection(UPPER_BOUND_SELECTION))
    assert sum(type(node) is str for node in nodes) == 6


def test_literal_builder_agrees_on_random_candidates():
    rng = random.Random(2020)
    for _ in range(150):
        a = random_candidate(rng)
        for star in (False, True):
            sk = skolemized(a, star)
            for n in (2, 3):
                ch = champ(sk, n)
                if ch.terms:
                    assert_grounds_alike(sk, full_selection(sk, ch.terms))


def test_literal_builder_agrees_on_random_selections_and_guards():
    """Random formulas and selections, some of them faulty, under random
    size guards: the abstraction of the built sub-expansion, or the same
    error and text, wherever the selection's terms avoid the binders."""
    rng = random.Random(2021)
    outcomes = Counter()
    for i in range(600):
        f = random_candidate(rng)
        f = outer_skolemize(f) if i % 2 else f
        sel = random_selection(rng, f, list(champ(f, 3).terms))
        if bound_names(f) & set().union(*map(term_free_names, selection_terms(sel))):
            continue
        budget = rng.choice([4, 8, 16, 40, 10_000_000])
        try:
            want = references.reference_abstract(build_sub_expansion(f, sel, budget))
        except (SelectionError, BudgetError) as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                abstraction(f, sel, budget)
            outcomes[type(e).__name__] += 1
            continue
        assert abstraction(f, sel, budget) == want
        outcomes["built"] += 1
    assert min(outcomes.values()) > 50 and len(outcomes) == 3


def test_leaf_templates_print_as_print_atom():
    """Every quantifier-free subformula of seeded random formulas, with
    Skolem terms, Skolem-named variables, ? names and @dot, grounded under
    the empty environment: its holes fill with their own names, and the
    literals are the reference abstraction's."""
    rng = random.Random(2022)
    leaves = 0
    for _ in range(300):
        for g in subformulas(random_formula(rng, 5, [])):
            if is_quantifier_free(g):
                assert abstraction(g, LEAF) == references.reference_abstract(g)
                leaves += 1
    assert leaves > 1000


def count_compiles(monkeypatch) -> Counter:
    """Counts, by the id of the formula compiled, every call of
    taut.compile_leaf, in each module that holds it."""
    calls = Counter()
    compile_leaf = taut.compile_leaf

    def counted(g):
        calls[id(g)] += 1
        return compile_leaf(g)

    for module in (taut, sys.modules["herbrandkit.expansion"]):
        if getattr(module, "compile_leaf", None) is compile_leaf:
            monkeypatch.setattr(module, "compile_leaf", counted)
    return calls


def maximal_quantifier_free(f) -> set[int]:
    """The ids of f's maximal quantifier-free subformulas."""
    out, stack = set(), [f]
    while stack:
        g = stack.pop()
        if is_quantifier_free(g):
            out.add(id(g))
        else:
            stack += [g.body] if isinstance(g, Quant) else children(g)
    return out


@pytest.mark.parametrize("text", [UPPER2_TEXT, succ_text(3, False), DRINKER_TEXT],
                         ids=["upper2", "succ3", "drinker"])
def test_one_walk_compiles_each_distinct_leaf_once(monkeypatch, text):
    """One abstraction call and one expand call each compile every
    distinct leaf of the full selection once, and nothing else."""
    sk = skolemized(parse_formula(text))
    ch = champ(sk, 3)
    leaves = maximal_quantifier_free(sk)
    for walk in (lambda: abstraction(sk, full_selection(sk, ch.terms)),
                 lambda: expand(sk, ch)):
        calls = count_compiles(monkeypatch)
        walk()
        assert set(calls) == leaves and set(calls.values()) == {1}
        monkeypatch.undo()


@pytest.mark.parametrize("text", [UPPER2_TEXT, succ_text(3, False), DRINKER_TEXT],
                         ids=["upper2", "succ3", "drinker"])
def test_both_builders_refuse_one_node_under_the_count(text):
    sk = skolemized(parse_formula(text))
    ch = champ(sk, 3)
    sel = full_selection(sk, ch.terms)
    count = expansion_counts(sk, len(ch))[0]
    assert formula_size(build_sub_expansion(sk, sel, count)) == count
    abstraction(sk, sel, count)
    for build in (build_sub_expansion, abstraction):
        with pytest.raises(BudgetError, match=f"size guard of {count - 1} nodes"):
            build(sk, sel, count - 1)


# ---------------------------------------------------------------------------
# selections compare, hash and print from explicit stacks

SELECTION_CHAIN_SCRIPT = """
import json, sys
from herbrandkit.expansion import LEAF, SelNot, print_selection

def chain():
    s = LEAF
    for _ in range(5000):
        s = SelNot(s)
    return s

a, b, c = chain(), chain(), SelNot(chain())
sys.setrecursionlimit(120)
print(json.dumps({"==": a == b and a is not b and a != c,
                  "hash": hash(a) == hash(b),
                  "repr": repr(a) == "<SelNot " + print_selection(a) + ">",
                  "set": len({a, b, c})}))
"""


def test_a_deep_selection_compares_hashes_and_prints_under_a_low_recursion_limit():
    src = str(Path(herbrandkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SELECTION_CHAIN_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {"==": True, "hash": True, "repr": True, "set": 2}
