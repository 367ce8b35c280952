"""The champ fini, its count and its membership test against a reference
enumerator; one build per champ, and none along a selection."""

import itertools
import random
from collections import Counter

import pytest

from herbrandkit import expansion
from herbrandkit.construct import (
    UPPER_BOUND_SELECTION,
    construct_derivation,
    construct_fv_derivation,
    demo_upper_bound,
    property_c,
)
from herbrandkit.expansion import (
    DEFAULT_BUDGET,
    BudgetError,
    ChampFini,
    ExpansionError,
    champ,
    champ_signature,
    champ_size,
    in_champ,
    term_order_key,
)
from herbrandkit.skolem import SkolemRegistry, outer_skolemize
from herbrandkit.syntax import (
    DOT,
    And,
    App,
    Atom,
    GammaVar,
    SkolemNamedVar,
    Var,
    collect_signature,
    parse_formula,
    print_term,
    rectify,
    term_height,
    var_for_name,
)

from conftest import random_candidate


# ---------------------------------------------------------------------------
# reference enumerator: each round scans every index tuple over all known
# terms and keeps those that hold a fresh term and stay below the order

def _term_nodes(t):
    if isinstance(t, App) and t.args:
        return 1 + sum(_term_nodes(a) for a in t.args)
    return 1


def reference_champ(f, order, herbrand=False, budget=DEFAULT_BUDGET):
    if order < 1:
        raise ExpansionError(f"champ order must be at least 1, got {order}")
    sig = collect_signature(f)
    base = []
    for name, (arity, sk) in sorted(sig.functions.items()):
        if arity == 0:
            base.append(App(name, sk, ()))
    for name in sig.free_vars:
        base.append(var_for_name(name) if "(" in name else Var(name))
    for name in sig.gamma_vars:
        base.append(GammaVar(name))
    if sig.uses_dot or not base:
        base.append(DOT)
    funcs = [(name, arity, sk) for name, (arity, sk) in sorted(sig.functions.items())
             if arity >= 1]

    # Each round applies every function symbol to the terms found so far.
    # A tuple of arguments that were all known before the last round was
    # already tried then, so only tuples holding a fresh term are built, and
    # a candidate's height comes from its arguments' recorded heights.
    height = {}
    nodes = 0
    for t in base:
        h = term_height(t, herbrand)
        if h < order and t not in height:
            height[t] = h
            nodes += _term_nodes(t)
    fresh = set(height)
    while fresh:
        current = sorted(height, key=lambda t: term_order_key(t, herbrand))
        heights = [height[t] for t in current]
        is_fresh = [t in fresh for t in current]
        fresh = set()
        for name, arity, sk in funcs:
            if len(current) ** arity > budget:
                raise BudgetError(
                    f"champ enumeration over {len(current)} terms with {name}/{arity} "
                    f"exceeds the size guard of {budget}")
            for idx in itertools.product(range(len(current)), repeat=arity):
                if not any(is_fresh[i] for i in idx):
                    continue
                h = 1 + max(heights[i] for i in idx)
                if h >= order:
                    continue
                t = App(name, sk, tuple(current[i] for i in idx))
                if t in height:
                    continue
                height[t] = h
                fresh.add(t)
                nodes += _term_nodes(t)
                if nodes > budget:
                    raise BudgetError(
                        f"champ enumeration exceeds the size guard of {budget} nodes")
    terms = tuple(sorted(height, key=lambda t: term_order_key(t, herbrand)))
    return ChampFini(order, herbrand, terms)


# ---------------------------------------------------------------------------
# differential test

def random_signature_formula(rng):
    """One atom per symbol: a function of arity 1-3 over base terms drawn
    from Skolem constants, free variables, instantiation variables, free
    Skolem-named variables (two spelled like terms a function builds) and
    @dot.  A unary function gets one to three base terms and sometimes a
    second unary function; a function of arity 2 or 3 gets one base term,
    which keeps the reference's order-5 scans short."""
    c = App("sk_c", True, ())
    pool = [c, App("sk_d", True, ()), Var("x"), Var("y"), GammaVar("g"),
            SkolemNamedVar(c), SkolemNamedVar(App("sk_f0", True, (c,))),
            SkolemNamedVar(App("sk_h", True, (c,))), DOT]
    arity = rng.randint(1, 3)
    if arity == 1:
        terms = rng.sample(pool, rng.randint(1, 3))
        arities = (1, 1)[:rng.randint(1, 2)]
    else:
        terms = rng.sample(pool, 1)
        arities = (arity,)
    for i, k in enumerate(arities):
        sym = rng.choice((f"f{i}", f"sk_f{i}"))
        terms.append(App(sym, sym.startswith("sk"), (terms[0],) * k))
    atoms = [Atom(f"p{i}", (t,)) for i, t in enumerate(terms)]
    f = atoms[0]
    for a in atoms[1:]:
        f = And(f, a)
    return f


# mixed arities: which function's guard fires first depends on their order
MIXED_SIGNATURES = (
    "p(f(sk_c), g(sk_c, sk_c))",
    "p(f(sk_c), g(sk_c, sk_d), h(sk_c, sk_c, sk_c))",
)


def champ_outcome(build, f, order, herbrand, budget):
    try:
        ch = build(f, order, herbrand=herbrand, budget=budget)
    except BudgetError as e:
        return "error", str(e)
    return [print_term(t) for t in ch.terms], frozenset(ch.terms)


def test_champ_agrees_with_the_reference_enumerator(upper_bound):
    rng = random.Random(6061)
    formulas = [random_signature_formula(rng) for _ in range(20)]
    formulas += [parse_formula(text) for text in MIXED_SIGNATURES]
    formulas.append(outer_skolemize(rectify(upper_bound)))
    crng = random.Random(77)
    formulas += [outer_skolemize(random_candidate(crng)) for _ in range(6)]
    cases = errors = 0
    for f in formulas:
        for order, herbrand, budget in itertools.product(
                range(1, 6), (False, True), (10_000_000, 500, 50, 5)):
            want = champ_outcome(reference_champ, f, order, herbrand, budget)
            expansion._build_champ.cache_clear()
            got = champ_outcome(champ, f, order, herbrand, budget)
            assert got == want, (f, order, herbrand, budget)
            cases += 1
            errors += want[0] == "error"
    assert cases == 29 * 40
    assert 0 < errors < cases


# the count and the membership test, on the same cases

def reference_cases(upper_bound):
    """The differential test's 1,160 cases: (formula, order, herbrand, budget)."""
    rng = random.Random(6061)
    formulas = [random_signature_formula(rng) for _ in range(20)]
    formulas += [parse_formula(text) for text in MIXED_SIGNATURES]
    formulas.append(outer_skolemize(rectify(upper_bound)))
    crng = random.Random(77)
    formulas += [outer_skolemize(random_candidate(crng)) for _ in range(6)]
    return [(f, *case) for f in formulas for case in itertools.product(
        range(1, 6), (False, True), (10_000_000, 500, 50, 5))]


def outsiders(f, order, herbrand, terms):
    """Terms that are in the champ but for one thing, each (what, term):
    height order, an application's arity, Skolem flag or symbol, or a leaf
    that is a variable not free in f."""
    funcs, base = champ_signature(f)
    out = [("unbound variable", Var("zz_unbound")),
           ("outside constant", App("zz_c", False, ()))]
    top = [t for t in terms if term_height(t, herbrand) == order - 1]
    if funcs and top:
        name, arity, sk = funcs[0]
        out.append(("height", App(name, sk, (top[-1],) * arity)))
    out += [("height", t) for t in base if term_height(t, herbrand) == order][:1]
    for t in [t for t in terms if isinstance(t, App) and t.args][:1]:
        out += [("arity", App(t.sym, t.skolem, t.args + t.args[:1])),
                ("skolem flag", App(t.sym, not t.skolem, t.args)),
                ("symbol", App("zz_f", False, t.args))]
    return out


def test_count_and_membership_agree_with_the_reference_enumerator(upper_bound):
    cases = Counter()
    for f, order, herbrand, budget in reference_cases(upper_bound):
        try:
            terms = reference_champ(f, order, herbrand, budget).terms
            want = len(terms)
        except BudgetError as e:
            want = str(e)
        try:
            got = champ_size(f, order, herbrand, budget)
        except BudgetError as e:
            got = str(e)
        assert got == want, (f, order, herbrand, budget)
        cases["size" if isinstance(want, int) else "guard"] += 1
        if budget != 10_000_000 or isinstance(want, str):
            continue
        sig = champ_signature(f)
        assert all(in_champ(t, f, order, herbrand, sig) for t in terms)
        for what, t in outsiders(f, order, herbrand, terms):
            assert not in_champ(t, f, order, herbrand, sig), (f, order, what, t)
            cases[what] += 1
    assert cases["size"] + cases["guard"] == 1160 and cases["guard"] > 100
    assert min(cases.values()) >= 50, cases


# ---------------------------------------------------------------------------
# one build per distinct champ, and none along a selection

def builds(call):
    expansion._build_champ.cache_clear()
    call()
    return expansion._build_champ.cache_info().misses


def test_demo_upper_bound_enumerates_no_champ():
    assert builds(demo_upper_bound) == 0


def test_the_constructions_enumerate_no_champ(upper_bound):
    """Along a selection, property C and both constructions read the
    champ's size and membership off the signature."""
    def run():
        sel = UPPER_BOUND_SELECTION
        assert property_c(upper_bound, 4, sel=sel).holds
        construct_derivation(upper_bound, 4, sel)
        construct_fv_derivation(upper_bound, 4, sel, SkolemRegistry())

    assert builds(run) == 0


def test_the_order_5_selection_check_enumerates_no_champ(upper_bound):
    """The order-5 champ has 21,612 terms, none of them listed."""
    def run():
        r = property_c(upper_bound, 5, sel=UPPER_BOUND_SELECTION, budget=10**9)
        assert (r.status, r.term_count) == ("holds", 21612)

    assert builds(run) == 0


def test_the_full_route_counts_its_champ_once(monkeypatch, upper_bound):
    """property_c counts the champ for its guard and hands the count to the
    listing, which does not count it again."""
    counts = []
    count = expansion._count_champ
    monkeypatch.setattr(expansion, "_count_champ",
                        lambda *args: counts.append(args) or count(*args))
    assert builds(lambda: property_c(upper_bound, 3)) == 1
    assert len(counts) == 1


def test_a_cached_champ_does_not_lift_a_smaller_budget():
    f = parse_formula("p(f(c), g(c))")
    assert len(champ(f, 6)) == 31
    with pytest.raises(BudgetError):
        champ(f, 6, budget=100)
    assert champ(f, 6) is champ(f, 6)
