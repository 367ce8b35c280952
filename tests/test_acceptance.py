"""Acceptance gate: one test per published criterion, in order.

Each test prints one pass/fail line under pytest -v.  Two criteria quote
figures that are sums rather than raw counts: 156 for the order-4 domain
(it counts the nine height-2 terms twice) and 14 for the free-variable
opening line (it adds the five delta-eliminations to the nine instantiation
variables).  Those tests assert the distinct counts and reconcile the quoted
figures with them.
"""

import random
import time
from collections import Counter
from dataclasses import replace
from itertools import product

from herbrandkit.construct import (
    UPPER_BOUND_SELECTION,
    UPPER_BOUND_TEXT,
    construct_derivation,
    construct_fv_derivation,
    derivation_order_bound,
    min_order,
    property_c,
)
from herbrandkit.expansion import (
    BudgetError,
    build_sub_expansion,
    champ,
    expansion_counts,
    parse_selection,
    selection_within,
)
from herbrandkit.kernel import (
    DELTA_MINUS,
    DELTAPP,
    GAMMA_QUANT,
    GAMMA_SIMP,
    NONGEN_DELTA,
    NONGEN_GAMMA,
    NONGEN_SIMP,
    PASSAGE,
    RENAME,
    RESTRICTED_GAMMA,
    SIMP,
    Derivation,
    RuleStep,
    StepError,
    apply_passage,
    check_derivation,
    check_step,
)
from herbrandkit.oracle import valid_up_to
from herbrandkit.skolem import SkolemRegistry, deltapp_skolemize, outer_skolemize
from herbrandkit.syntax import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    GammaVar,
    Not,
    Or,
    SkolemNamedVar,
    Var,
    alpha_equal,
    free_gamma_vars,
    locate,
    parse_formula,
    print_formula,
    print_term,
    rectify,
    substitute,
    term_height,
)
from herbrandkit.taut import is_tautology

from conftest import TWO_DISJUNCT_TEXT, random_candidate, random_qf
from references import ac_flatten_equal

GUARD = 200_000

# The instantiated opening line of the walkthrough derivation: four premise
# instances imply the three-part conclusion, all over the skolem domain.
_M1 = "sk_m(sk_v,sk_w)"
_M2 = "sk_m(sk_u,sk_m(sk_v,sk_w))"
WALKTHROUGH_AXIOM_TEXT = (
    "((sk_v < {m1} & sk_w < {m1})"
    " & (sk_u < {m2} & {m1} < {m2})"
    " & ((sk_v < {m1} & {m1} < {m2}) -> sk_v < {m2})"
    " & ((sk_w < {m1} & {m1} < {m2}) -> sk_w < {m2}))"
    " -> (sk_u < {m2} & sk_v < {m2} & sk_w < {m2})"
).format(m1=_M1, m2=_M2)


def _walkthrough():
    a = rectify(parse_formula(UPPER_BOUND_TEXT))
    return a, outer_skolemize(a), parse_selection(UPPER_BOUND_SELECTION)


def test_criterion_01_domain_count_at_order_4():
    _, f_sk, _ = _walkthrough()
    t0 = time.perf_counter()
    ch = champ(f_sk, 4)
    assert time.perf_counter() - t0 < 1.0
    # height <= 3 over sk_u, sk_v, sk_w and the binary sk_m: the constants,
    # then sk_m over every pair of terms of height <= 2
    h1 = ["sk_u", "sk_v", "sk_w"]
    le2 = h1 + [f"sk_m({s},{t})" for s, t in product(h1, repeat=2)]
    le3 = set(h1) | {f"sk_m({s},{t})" for s, t in product(le2, repeat=2)}
    assert {print_term(t) for t in ch.terms} == le3
    # the quoted 3 + 3**2 + (3 + 3**2)**2 = 156 counts the nine height-2
    # terms twice: (3 + 3**2)**2 already holds every sk_m(s,t) with s, t of
    # height <= 2, the height-2 terms among them; 147 distinct terms remain
    assert len(ch.terms) == 3 + 3**2 + (3 + 3**2)**2 - 3**2


def test_criterion_02_leaf_count_arithmetic():
    _, f_sk, _ = _walkthrough()
    n = 156
    count = expansion_counts(f_sk, n)[1]
    assert count == n ** 2 + n ** 3 + n
    assert count == 3_820_908


def test_criterion_03_least_orders_for_the_drinker():
    drinker = parse_formula("exists a. (~(exists b. p(b)) | p(a))")
    t0 = time.perf_counter()
    assert min_order(drinker, star=True) == 2
    assert min_order(drinker, star=False) == 3
    assert time.perf_counter() - t0 < 1.0


def test_criterion_04_passage_shifts_the_least_order():
    two = parse_formula(TWO_DISJUNCT_TEXT)
    moved = apply_passage(two, (0,), 6, "prenex")
    t0 = time.perf_counter()
    assert min_order(two) == 2
    assert min_order(moved) == 3
    assert time.perf_counter() - t0 < 10.0


def test_criterion_05_selected_sub_expansion_is_the_axiom():
    a, f_sk, sel = _walkthrough()
    t0 = time.perf_counter()
    sub = build_sub_expansion(f_sk, sel)
    assert is_tautology(sub)
    assert ac_flatten_equal(sub, parse_formula(WALKTHROUGH_AXIOM_TEXT))
    ok, offenders = selection_within(sel, f_sk, 4)
    assert ok and offenders == []
    res = property_c(a, 4, sel=sel)
    assert res.holds and res.status == "holds"
    assert res.witness == "sub-expansion selection"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_06_constructed_derivation_is_accepted():
    a, _, sel = _walkthrough()
    t0 = time.perf_counter()
    d = construct_derivation(a, 4, sel)
    report = check_derivation(d)
    assert time.perf_counter() - t0 < 5.0
    assert report.ok
    assert report.axiom_quantifier_free
    assert report.axiom_tautology
    assert alpha_equal(d.end, parse_formula(UPPER_BOUND_TEXT))
    tags = Counter(s.tag for s in d.steps)
    assert tags[GAMMA_SIMP] == 2


def test_criterion_07_free_variable_construction():
    a, f_sk, sel = _walkthrough()
    registry = SkolemRegistry()
    t0 = time.perf_counter()
    d, b, sigma = construct_fv_derivation(a, 4, sel, registry=registry)
    report = check_derivation(d, SkolemRegistry())
    assert time.perf_counter() - t0 < 5.0
    assert report.ok and d.mode == "free-variable"
    assert all(term_height(t) < 4 for t in sigma.values())
    # one skolem symbol serves both variant-scope removals
    symbols = Counter(report.deltapp_symbols)
    assert len(report.deltapp_symbols) == 5
    assert sorted(symbols.values(), reverse=True) == [2, 1, 1, 1]
    # instantiating the opening line lands exactly on the chosen sub-expansion
    starred = deltapp_skolemize(a, registry)
    sub = build_sub_expansion(starred, sel)
    assert print_formula(substitute(b, sigma)) == print_formula(sub)
    assert is_tautology(substitute(b, sigma))
    # sub is ground, so each variable of b is in sigma's domain and each
    # gamma-instance of sub holds exactly one: the selection's 2+2+1+1+2+1
    # choices for x, y, c, b, a and z give 9
    distinct = sorted(set(free_gamma_vars(b)))
    assert len(distinct) == 9
    # the quoted 14 adds the five delta-eliminations (two for m, one each for
    # u, v and w); in free-variable mode those places hold the skolem terms
    # sk_m(?x,?y), sk_m(?x_1,?y_1), sk_u, sk_v and sk_w, not variables
    assert len(distinct) + len(report.deltapp_symbols) == 14


def test_criterion_08_order_bound_from_random_derivations():
    rng = random.Random(8822)
    built = settled = 0
    tries = 0
    while built < 50 and tries < 600:
        tries += 1
        f = random_candidate(rng)
        try:
            n = min_order(f, n_max=3, budget=GUARD)
        except BudgetError:
            continue
        if n is None:
            continue
        try:
            d = construct_derivation(f, n, budget=GUARD)
        except BudgetError:
            continue
        assert check_derivation(d).ok
        built += 1
        bound = derivation_order_bound(d)
        assert bound.value >= n
        try:
            res = property_c(f, bound.value, budget=GUARD)
        except BudgetError:
            continue  # expansion too large for the guard: out of scope
        assert res.holds, (print_formula(f), n, bound.value)
        settled += 1
    assert built >= 50
    assert settled > 0


# ---------------------------------------------------------------------------
# single-step soundness: premise and step builders per rule tag

_P_C = Atom("p", (Var("c"),))
_P_D = Atom("p", (Var("d"),))
_R = Atom("r", ())


def _pick_wrapper(rng):
    """A quantifier-free context, its polarity at the hole, and the path."""
    g2 = random_qf(rng, [_P_C, _P_D, _R], depth=1)
    return rng.choice([
        (lambda h: h, 1, ()),
        (lambda h, g=g2: Or(h, g), 1, (0,)),
        (lambda h, g=g2: Or(g, h), 1, (1,)),
        (lambda h, g=g2: And(h, g), 1, (0,)),
        (lambda h: Not(h), -1, (0,)),
        (lambda h, g=g2: Not(And(h, g)), -1, (0, 0)),
    ])


def _scope_for(rng, hole_atom, sign, anchor):
    """A scope biased so its instances are often valid at positive
    polarity and often unsatisfiable at negative polarity."""
    if sign > 0:
        return rng.choice([
            Or(hole_atom, Not(anchor)),
            Or(Not(anchor), hole_atom),
            random_qf(rng, [hole_atom, _P_C, _R], depth=2),
        ])
    return rng.choice([
        And(hole_atom, Not(anchor)),
        random_qf(rng, [hole_atom, _P_C, _R], depth=2),
    ])


def _case_gamma(rng, tag):
    wrap, sign, path = _pick_wrapper(rng)
    kind = "exists" if sign > 0 else "forall"
    t = GammaVar("w") if tag == RESTRICTED_GAMMA else rng.choice(
        [Var("c"), Var("d")])
    pa = Atom("p", (Var("av"),))
    s = _scope_for(rng, pa, sign, Atom("p", (t,)))
    premise = wrap(substitute(s, {"av": t}))
    return premise, RuleStep(tag, path=path, quant=kind, var="av",
                             scope=s, term=t), None


def _case_nongen_gamma(rng):
    t = rng.choice([Var("c"), Var("d")])
    pa = Atom("p", (Var("av"),))
    s = _scope_for(rng, pa, 1, Atom("p", (t,)))
    return substitute(s, {"av": t}), RuleStep(
        NONGEN_GAMMA, path=(), quant="exists", var="av", scope=s, term=t), None


def _case_delta(rng, tag):
    if tag == NONGEN_DELTA:
        wrap, sign, path = (lambda h: h), 1, ()
    else:
        wrap, sign, path = _pick_wrapper(rng)
    kind = "forall" if sign > 0 else "exists"
    pb = Atom("p", (Var("bv"),))
    s = _scope_for(rng, pb, sign, pb)
    return wrap(s), RuleStep(tag, path=path, quant=kind, var="bv"), None


def _case_deltapp(rng):
    wrap, sign, path = _pick_wrapper(rng)
    kind = "forall" if sign > 0 else "exists"
    pb = Atom("p", (Var("bv"),))
    anchor = Atom("p", (GammaVar("w"),)) if rng.random() < 0.5 else pb
    s = _scope_for(rng, pb, sign, anchor)
    node = (Forall if kind == "forall" else Exists)("bv", s)
    gs = tuple(GammaVar(x) for x in free_gamma_vars(node))
    premise = wrap(substitute(s, {"bv": App("sk_h", True, gs)}))
    return premise, RuleStep(DELTAPP, path=path, quant=kind, var="bv",
                             scope=s), SkolemRegistry()


def _case_simp(rng, tag):
    if tag == NONGEN_SIMP:
        wrap, sign, path = (lambda h: h), 1, ()
    else:
        wrap, sign, path = _pick_wrapper(rng)
    a = random_qf(rng, [_P_C, _P_D, _R], depth=2)
    if rng.random() < 0.6:
        a = Or(a, Not(a)) if sign > 0 else And(a, Not(a))
    j = Or(a, a) if sign > 0 else And(a, a)
    return wrap(j), RuleStep(tag, path=path,
                             keep=rng.choice(["left", "right"])), None


def _case_gamma_simp(rng):
    wrap, sign, path = _pick_wrapper(rng)
    pa = Atom("p", (Var("av"),))
    s = _scope_for(rng, pa, sign, pa)
    quant = Exists if sign > 0 else Forall
    one = quant("av", s)
    other = quant("aw", substitute(s, {"av": Var("aw")}))
    j = Or(one, other) if sign > 0 else And(one, other)
    return wrap(j), RuleStep(GAMMA_SIMP, path=path,
                             keep=rng.choice(["left", "right"])), None


def _case_rename(rng):
    wrap, sign, path = _pick_wrapper(rng)
    kind = rng.choice(["forall", "exists"])
    pa = Atom("p", (Var("av"),))
    s = _scope_for(rng, pa, sign, pa)
    premise = wrap((Forall if kind == "forall" else Exists)("av", s))
    return premise, RuleStep(RENAME, path=path, var="av", new="nv"), None


_BUILDERS = {
    GAMMA_QUANT: lambda rng: _case_gamma(rng, GAMMA_QUANT),
    RESTRICTED_GAMMA: lambda rng: _case_gamma(rng, RESTRICTED_GAMMA),
    NONGEN_GAMMA: _case_nongen_gamma,
    DELTA_MINUS: lambda rng: _case_delta(rng, DELTA_MINUS),
    NONGEN_DELTA: lambda rng: _case_delta(rng, NONGEN_DELTA),
    DELTAPP: _case_deltapp,
    SIMP: lambda rng: _case_simp(rng, SIMP),
    NONGEN_SIMP: lambda rng: _case_simp(rng, NONGEN_SIMP),
    GAMMA_SIMP: _case_gamma_simp,
    RENAME: _case_rename,
}


def _passage_instance(rng, eq):
    x = Var("x")
    px = Atom("p", (x,))
    a = rng.choice([px, Or(px, _R), And(px, _P_C), Not(px),
                    random_qf(rng, [px, _P_C, _R], depth=1)])
    b = random_qf(rng, [_P_C, _P_D, _R], depth=1)
    if eq == 1:
        return Not(Forall("x", a))
    if eq == 2:
        return Not(Exists("x", a))
    if eq == 3:
        return Or(Forall("x", a), b)
    if eq == 4:
        return Or(b, Forall("x", a))
    if eq == 5:
        return Or(Exists("x", a), b)
    return Or(b, Exists("x", a))


def test_criterion_09_single_step_soundness():
    t0 = time.perf_counter()
    rng = random.Random(990)
    for tag, build in _BUILDERS.items():
        accepted = valid_premises = 0
        while accepted < 200:
            premise, step, reg = build(rng)
            try:
                conclusion = check_step(premise, step, reg)
            except StepError:
                continue
            accepted += 1
            if valid_up_to(premise, 2):
                valid_premises += 1
                assert valid_up_to(conclusion, 2), (
                    tag, print_formula(premise), step)
        assert accepted == 200 and valid_premises > 0, tag
    applications = 0
    for _ in range(100):
        eq = rng.randrange(1, 7)
        src = _passage_instance(rng, eq)
        out = check_step(src, RuleStep(PASSAGE, (), eq=eq, direction="prenex"))
        assert valid_up_to(src, 2) == valid_up_to(out, 2), print_formula(src)
        back = check_step(out, RuleStep(PASSAGE, (), eq=eq,
                                        direction="antiprenex"))
        assert valid_up_to(out, 2) == valid_up_to(back, 2), print_formula(out)
        applications += 2
    assert applications >= 200
    assert time.perf_counter() - t0 < 60.0


def test_criterion_10_monotone_orders_and_star():
    rng = random.Random(1066)
    counted = 0
    tries = 0
    while counted < 100 and tries < 800:
        tries += 1
        f = random_candidate(rng)
        try:
            plain = {n: property_c(f, n, budget=GUARD).holds
                     for n in (2, 3, 4)}
            star = {n: property_c(f, n, star=True, budget=GUARD).holds
                    for n in (2, 3)}
        except BudgetError:
            continue
        counted += 1
        for n in (2, 3):
            if plain[n]:
                assert plain[n + 1], (print_formula(f), n)
                assert star[n], (print_formula(f), n)
    assert counted >= 100


def _atom_names(f, acc):
    if isinstance(f, Atom):
        acc.add(print_formula(f))
    elif isinstance(f, Not):
        _atom_names(f.sub, acc)
    else:
        _atom_names(f.left, acc)
        _atom_names(f.right, acc)
    return acc


def _evaluate(f, row):
    if isinstance(f, Atom):
        return row[print_formula(f)]
    if isinstance(f, Not):
        return not _evaluate(f.sub, row)
    if isinstance(f, And):
        return _evaluate(f.left, row) and _evaluate(f.right, row)
    return _evaluate(f.left, row) or _evaluate(f.right, row)


def _table_tautology(f):
    names = sorted(_atom_names(f, set()))
    assert len(names) <= 10
    return all(_evaluate(f, dict(zip(names, bits)))
               for bits in product((False, True), repeat=len(names)))


def test_criterion_11_tautology_oracle_agreement():
    pool = ([Atom("p", (Var(v),)) for v in "cde"]
            + [Atom("q", (Var(v),)) for v in "cd"]
            + [Atom(n, ()) for n in "rstuv"])
    rng = random.Random(4242)
    verdicts = Counter()
    for _ in range(1000):
        f = random_qf(rng, pool, depth=3)
        if rng.random() < 0.25:
            f = Or(f, Not(f))
        fast = is_tautology(f)
        assert fast == _table_tautology(f), print_formula(f)
        verdicts[fast] += 1
    assert verdicts.total() == 1000
    assert verdicts[True] > 0 and verdicts[False] > 0


def _contains_var(f, name):
    def in_term(t):
        if isinstance(t, Var):
            return t.name == name
        if isinstance(t, App):
            return any(in_term(u) for u in t.args)
        return False

    if isinstance(f, Atom):
        return any(in_term(t) for t in f.args)
    if isinstance(f, Not):
        return _contains_var(f.sub, name)
    if isinstance(f, (And, Or)):
        return _contains_var(f.left, name) or _contains_var(f.right, name)
    return _contains_var(f.body, name)


def _term_prints(f, acc):
    def walk(t):
        acc.add(print_term(t))
        if isinstance(t, App):
            for u in t.args:
                walk(u)
        elif isinstance(t, SkolemNamedVar):
            walk(t.encoded)

    if isinstance(f, Atom):
        for t in f.args:
            walk(t)
    elif isinstance(f, Not):
        _term_prints(f.sub, acc)
    elif isinstance(f, (And, Or)):
        _term_prints(f.left, acc)
        _term_prints(f.right, acc)
    else:
        _term_prints(f.body, acc)
    return acc


def _mutated(d, i, **changes):
    steps = list(d.steps)
    steps[i] = replace(steps[i], **changes)
    return Derivation(d.mode, d.axiom, tuple(steps), d.end)


def test_criterion_12_mutation_rejection(showcase_derivation):
    d = showcase_derivation
    intact = check_derivation(d)
    assert intact.ok

    # a witness whose variable the scope would capture
    target = next(
        (i, q.var)
        for i, s in enumerate(d.steps) if s.tag == GAMMA_QUANT
        for q in _quantifiers(s.scope) if _contains_var(q.body, s.var))
    i, bound_var = target
    report = check_derivation(_mutated(d, i, term=Var(bound_var)))
    assert not report.ok
    assert report.error == "witness-capture" and report.step_index == i

    # a generalization variable still free in the surrounding context
    for i, s in enumerate(d.steps):
        if s.tag != DELTA_MINUS:
            continue
        context = locate(intact.lines[i], s.path).plug(Atom("hole", ()))
        loose = [n for n in ("sk_u", "sk_v", "sk_w")
                 if n != s.var and n in _term_prints(context, set())]
        if loose:
            break
    report = check_derivation(_mutated(d, i, var=loose[0]))
    assert not report.ok
    assert report.error == "context-capture" and report.step_index == i

    # a simplification pointed at a junction whose sides are not variants
    i = next(i for i, s in enumerate(d.steps) if s.tag == GAMMA_SIMP)
    line = intact.lines[i]
    assert isinstance(line, Or) and not alpha_equal(line.left, line.right)
    report = check_derivation(_mutated(d, i, path=()))
    assert not report.ok
    assert report.error == "not-a-variant" and report.step_index == i


def _quantifiers(f):
    if isinstance(f, (Forall, Exists)):
        yield f
        yield from _quantifiers(f.body)
    elif isinstance(f, Not):
        yield from _quantifiers(f.sub)
    elif isinstance(f, (And, Or)):
        yield from _quantifiers(f.left)
        yield from _quantifiers(f.right)
