"""Mechanical construction of derivations and order bookkeeping."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from herbrandkit.construct import (
    UPPER_BOUND_SELECTION,
    ConstructError,
    construct_derivation,
    construct_fv_derivation,
    demo_false_lemma,
    demo_upper_bound,
    derivation_order_bound,
    goedel_dreben_bound,
    min_order,
    procedure1_order,
    property_c,
)
import herbrandkit
from herbrandkit import construct, kernel, skolem
from herbrandkit.expansion import (
    LEAF,
    BudgetError,
    SelAnd,
    SelNot,
    SelOr,
    SelQuant,
    SelectionError,
    build_sub_expansion,
    champ,
    full_selection,
    parse_selection,
    selection_terms,
    selection_within,
)
from herbrandkit.kernel import check_derivation
from herbrandkit.skolem import (
    SkolemRegistry, deltapp_scope, deltapp_skolemize, outer_skolemize,
)
from herbrandkit.syntax import (
    App,
    Exists,
    Forall,
    FormulaError,
    free_gamma_vars,
    is_quantifier_free,
    locate,
    parse_formula,
    print_formula,
    parse_term,
    print_term,
    rectify,
    substitute,
    term_height,
)
from herbrandkit.taut import is_tautology

from conftest import random_candidate


# ---------------------------------------------------------------------------
# the expansion property

def test_property_c_holds_fails_inconclusive(drinker):
    assert property_c(drinker, 3).status == "holds"
    assert property_c(drinker, 2).status == "fails"
    one = "(exists a (@dot) _)"
    r = property_c(drinker, 3, sel=one)
    assert r.status == "inconclusive" and r.witness == "none"
    assert "full expansion may still be" in r.detail


def test_property_c_full_witness_reports_node_count(drinker):
    r = property_c(drinker, 3)
    assert r.witness == "full-expansion" and r.tautology
    assert r.node_count is not None and r.term_count == 2


def test_property_c_rejects_bad_order(drinker):
    with pytest.raises(ConstructError):
        property_c(drinker, 0)


def test_property_c_rejects_out_of_domain_selection(drinker):
    far = "(or (not (exists b (sk_b(sk_b(sk_b(@dot)))) _)) (exists a (@dot) _))"
    with pytest.raises(ConstructError, match="outside the order-2 domain"):
        property_c(drinker, 2, sel=far)


def test_property_c_budget_guard(upper_bound):
    with pytest.raises(BudgetError):
        property_c(upper_bound, 4)


def test_the_full_order_3_check_of_the_upper_bound_fails(upper_bound):
    """The order-3 expansion of the upper-bound example (12,744 nodes, 405
    atoms) is decided by forward chaining, since its refutation form is
    Horn: the chaining reaches a fixpoint before any goal clause fires, so
    property C of order 3 fails."""
    r = property_c(upper_bound, 3)
    assert r.status == "fails" and not r.tautology
    assert r.node_count == 12744 and r.term_count == 12


def test_property_c_star_uses_scope_wise_symbols(drinker):
    r = property_c(drinker, 2, star=True)
    assert r.holds and r.kind == "C*"
    assert property_c(drinker, 2, star=False).status == "fails"


def test_min_order_values(drinker):
    assert min_order(drinker, star=True) == 2
    assert min_order(drinker, star=False) == 3
    assert min_order(drinker, herbrand_heights=True) == 2
    assert min_order(parse_formula("p(c) | ~p(c)")) == 1
    assert min_order(parse_formula("p(c)"), n_max=3) is None


def test_sub_expansion_witness_lies_inside_the_domain(upper_bound,
                                                      upper_bound_selection):
    r = property_c(upper_bound, 4, sel=upper_bound_selection)
    assert r.holds and r.witness == "sub-expansion selection"
    ch = champ(r.skolemized, 4)
    ok, missing = selection_within(upper_bound_selection, ch)
    assert ok and not missing


# ---------------------------------------------------------------------------
# the showcase derivation

def test_showcase_shape(showcase_derivation):
    d = showcase_derivation
    assert d.mode == "heijenoort"
    assert len(d.steps) == 24
    assert Counter(s.tag for s in d.steps) == {
        "gamma-quant": 9, "delta-minus": 5, "gamma-simp": 2, "rename": 8}
    report = check_derivation(d)
    assert report.ok and report.axiom_tautology and report.axiom_quantifier_free


def test_showcase_axiom_is_the_selected_sub_expansion(upper_bound,
                                                      upper_bound_selection,
                                                      showcase_derivation):
    sk = outer_skolemize(rectify(upper_bound))
    j = build_sub_expansion(sk, upper_bound_selection)
    assert print_formula(showcase_derivation.axiom) == print_formula(j)


def test_showcase_order_bound(showcase_derivation):
    bound = derivation_order_bound(showcase_derivation)
    assert bound.value == 16
    assert len(bound.witnesses) == 9
    assert bound.value == 1 + sum(term_height(t) for t in bound.witnesses)
    assert sorted(print_term(t) for t in bound.witnesses) == [
        "sk_m(sk_u,sk_m(sk_v,sk_w))", "sk_m(sk_u,sk_m(sk_v,sk_w))",
        "sk_m(sk_v,sk_w)", "sk_m(sk_v,sk_w)",
        "sk_u", "sk_v", "sk_v", "sk_w", "sk_w"]


def test_order_bound_requires_the_deductive_mode(drinker):
    fv_d, _, _ = construct_fv_derivation(drinker, 2)
    with pytest.raises(ConstructError, match="heijenoort mode"):
        derivation_order_bound(fv_d)


def test_staged_removal_plan(upper_bound, upper_bound_selection):
    plan = procedure1_order(upper_bound, upper_bound_selection, 4)
    rows = [[(e.kind, e.var, print_term(e.term) if e.term else None)
             for e in plan.stage(i)] for i in range(1, 5)]
    assert rows[0] == [("delta", "sk_u", None), ("delta", "sk_v", None),
                       ("delta", "sk_w", None)]
    assert rows[1] == [("gamma", "x", "sk_v"), ("gamma", "y", "sk_w"),
                       ("gamma", "x_1", "sk_u"),
                       ("delta", "sk_m(sk_v,sk_w)", None)]
    assert rows[2] == [("gamma", "y_1", "sk_m(sk_v,sk_w)"),
                       ("delta", "sk_m(sk_u,sk_m(sk_v,sk_w))", None)]
    assert rows[3] == [("gamma", "c", "sk_m(sk_u,sk_m(sk_v,sk_w))"),
                       ("gamma", "b", "sk_m(sk_v,sk_w)"),
                       ("gamma", "a", "sk_v"), ("gamma", "a_1", "sk_w"),
                       ("gamma", "z", "sk_m(sk_u,sk_m(sk_v,sk_w))")]
    # a witness becomes eligible at stage height+1; nesting can delay it
    for e in plan.entries:
        if e.term is not None:
            assert e.stage >= term_height(e.term) + 1


# ---------------------------------------------------------------------------
# the free-variable construction

def test_fv_showcase(upper_bound, upper_bound_selection):
    registry = SkolemRegistry()
    d, b, sigma = construct_fv_derivation(upper_bound, 4,
                                          upper_bound_selection, registry)
    report = check_derivation(d, registry)
    assert report.ok and d.mode == "free-variable"
    assert Counter(s.tag for s in d.steps) == {
        "restricted-gamma": 9, "deltapp": 5, "gamma-simp": 2}
    assert is_quantifier_free(b)
    assert sorted(free_gamma_vars(b)) == ["a", "a_1", "b", "c", "x", "x_1",
                                          "y", "y_1", "z"]
    assert {k: print_term(t) for k, t in sorted(sigma.items())} == {
        "?a": "sk_v", "?a_1": "sk_w", "?b": "sk_m(sk_v,sk_w)",
        "?c": "sk_m(sk_u,sk_m(sk_v,sk_w))", "?x": "sk_v", "?x_1": "sk_u",
        "?y": "sk_w", "?y_1": "sk_m(sk_v,sk_w)",
        "?z": "sk_m(sk_u,sk_m(sk_v,sk_w))"}
    # one symbol serves both variant copies of the same scope
    syms = report.deltapp_symbols
    assert len(syms) == 5 and len(set(syms)) == 4


def test_fv_instantiation_recovers_the_starred_sub_expansion(
        upper_bound, upper_bound_selection):
    registry = SkolemRegistry()
    _, b, sigma = construct_fv_derivation(upper_bound, 4,
                                          upper_bound_selection, registry)
    f_star = deltapp_skolemize(rectify(upper_bound), registry)
    sub = build_sub_expansion(f_star, upper_bound_selection)
    assert print_formula(substitute(b, sigma)) == print_formula(sub)
    assert is_tautology(substitute(b, sigma))


def test_fv_drinker(drinker):
    d, b, sigma = construct_fv_derivation(drinker, 2)
    assert print_formula(b) == "~p(sk_b) | p(?a)"
    assert {k: print_term(t) for k, t in sigma.items()} == {"?a": "sk_b"}
    assert check_derivation(d, SkolemRegistry()).ok


def _count_calls(monkeypatch, calls, owner, name):
    """Count each call of owner.name under (name, the calling module)."""
    f = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name, sys._getframe(1).f_globals["__name__"].rpartition(".")[2]] += 1
        return f(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_each_construction_rectifies_and_skolemizes_once(
        monkeypatch, upper_bound, upper_bound_selection):
    """construct_derivation and construct_fv_derivation each rectify once
    and Skolemize once, the property C check included, and read the delta++
    symbols off that Skolemization: only the Skolemizer and the kernel's
    replay key a scope, and only the Skolemizer binds a symbol."""
    calls = Counter()
    for owner, name in ((construct, "rectify"), (construct, "outer_skolemize"),
                        (construct, "deltapp_skolemize"), (skolem, "deltapp_scope"),
                        (kernel, "deltapp_scope"), (SkolemRegistry, "bind")):
        _count_calls(monkeypatch, calls, owner, name)
    construct_derivation(upper_bound, 4, upper_bound_selection)
    assert calls == {("rectify", "construct"): 1, ("outer_skolemize", "construct"): 1}
    calls.clear()
    construct_fv_derivation(upper_bound, 4, upper_bound_selection, SkolemRegistry())
    assert calls == {("rectify", "construct"): 1, ("deltapp_skolemize", "construct"): 1,
                     ("deltapp_scope", "skolem"): 4, ("bind", "skolem"): 4,
                     ("deltapp_scope", "kernel"): 5}


def test_each_deltapp_premise_uses_the_symbol_its_scope_is_filed_under(
        upper_bound, upper_bound_selection):
    """In the constructed free-variable derivations of the showcase and of
    seeded random formulas at orders 1-3, each deltapp step's premise puts
    for its variable the symbol under which a delta++ Skolemization of the
    formula files the step's wrapped scope, applied to the scope's listed
    variables; the construction adds no registry entry of its own."""
    rng = random.Random(23)
    formulas = [random_candidate(rng) for _ in range(1200)]
    cases = [(upper_bound, 4, upper_bound_selection)]
    cases += [(f, n, None) for f in formulas for n in (1, 2, 3)]
    seen = 0
    for a, n, sel in cases:
        registry = SkolemRegistry()
        try:
            d, _, _ = construct_fv_derivation(a, n, sel, registry)
        except ConstructError:
            continue
        filed = SkolemRegistry()
        deltapp_skolemize(rectify(a), filed)
        assert registry.entries == filed.entries
        for step, line in zip(d.steps, check_derivation(d, registry).lines):
            if step.tag == "deltapp":
                wrapped = (Forall if step.quant == "forall" else Exists)(
                    step.var, step.scope)
                listed, key = deltapp_scope(wrapped)
                sym, _ = filed.lookup(key)
                assert locate(line, step.path).node == substitute(
                    step.scope, {step.var: App(sym, True, listed)})
                seen += 1
    assert seen >= 800


# ---------------------------------------------------------------------------
# the deductive construction

def test_construct_drinker_full_expansion(drinker):
    d = construct_derivation(drinker, 3)
    assert len(d.steps) == 8
    assert Counter(s.tag for s in d.steps) == {
        "rename": 3, "delta-minus": 2, "gamma-quant": 2, "gamma-simp": 1}
    assert print_formula(d.axiom) == \
        "~p(sk_b(@dot)) | p(@dot) | (~p(sk_b(sk_b(@dot))) | p(sk_b(@dot)))"
    assert print_formula(d.end) == print_formula(rectify(drinker))


def test_construct_quantifier_free_needs_no_steps():
    d = construct_derivation(parse_formula("p(c) | ~p(c)"), 1)
    assert d.steps == () and d.axiom == d.end


def test_construct_rejects_unestablished_order(drinker):
    with pytest.raises(ConstructError, match="not established"):
        construct_derivation(drinker, 2)


def test_construct_round_trips_on_random_valid_formulas():
    rng = random.Random(20260822)
    built = 0
    tried = 0
    while built < 25 and tried < 400:
        tried += 1
        f = random_candidate(rng)
        try:
            n = min_order(f, n_max=3, budget=200_000)
        except BudgetError:
            continue
        if n is None:
            continue
        d = construct_derivation(f, n, budget=200_000)
        report = check_derivation(d)
        assert report.ok and report.axiom_tautology
        assert print_formula(d.end) == print_formula(rectify(f))
        built += 1
    assert built == 25


def test_fv_construction_round_trips_on_random_valid_formulas():
    rng = random.Random(8225)
    built = 0
    tried = 0
    while built < 20 and tried < 400:
        tried += 1
        f = random_candidate(rng)
        try:
            n = min_order(f, star=True, n_max=3, budget=200_000)
        except BudgetError:
            continue
        if n is None:
            continue
        registry = SkolemRegistry()
        d, b, sigma = construct_fv_derivation(f, n, registry=registry,
                                              budget=200_000)
        assert check_derivation(d, registry).ok
        assert is_quantifier_free(b)
        for t in sigma.values():
            assert term_height(t) < n
        assert is_tautology(substitute(b, sigma))
        built += 1
    assert built == 20


def test_procedure_safety_on_arbitrary_selections():
    """Feeding arbitrary selections never yields an unchecked derivation:
    either the construction refuses, or the kernel accepts the result."""
    rng = random.Random(77)
    outcomes = Counter()
    cases = 0
    while cases < 100:
        f = random_candidate(rng)
        sk = outer_skolemize(rectify(f))
        try:
            ch = champ(sk, rng.randint(1, 3), budget=50_000)
        except BudgetError:
            continue
        if not ch.terms:
            continue
        cases += 1
        a_r = rectify(f)
        terms = tuple(rng.choice(ch.terms)
                      for _ in range(rng.randint(1, 2)))
        base = full_selection(outer_skolemize(a_r), terms)
        try:
            d = construct_derivation(f, 3, sel=base, budget=100_000)
        except (ConstructError, BudgetError):
            outcomes["refused"] += 1
            continue
        assert check_derivation(d).ok
        outcomes["accepted"] += 1
    assert cases == 100
    assert outcomes["accepted"] > 0 and outcomes["refused"] > 0


def test_selection_consumers_agree():
    """Both constructions and build_sub_expansion read one selection: the
    named construction's axiom is the sub-expansion of the outer form, and
    the free-variable opening line under its witness substitution is the
    sub-expansion of the delta++ form."""
    rng = random.Random(5150)
    named = free = 0
    for _ in range(120):
        a_r = random_candidate(rng)
        sk = outer_skolemize(a_r)
        terms = champ(sk, 3).terms
        sel = full_selection(
            sk, tuple(rng.sample(terms, min(len(terms), rng.randint(1, 2)))))
        try:
            d = construct_derivation(a_r, 3, sel)
        except FormulaError:
            pass
        else:
            named += 1
            sub = build_sub_expansion(outer_skolemize(a_r), sel)
            assert print_formula(d.axiom) == print_formula(sub)
        registry = SkolemRegistry()
        try:
            _, b, sigma = construct_fv_derivation(a_r, 3, sel, registry)
        except FormulaError:
            continue
        free += 1
        sub = build_sub_expansion(deltapp_skolemize(a_r, registry), sel)
        assert print_formula(substitute(b, sigma)) == print_formula(sub)
    assert (named, free) == (86, 82)


# ---------------------------------------------------------------------------
# bounds and demos

def test_goedel_dreben_bound_values():
    assert goedel_dreben_bound(1, 0, 5) == 2
    assert goedel_dreben_bound(1, 2, 1) == 2
    assert goedel_dreben_bound(2, 1, 3) == 32
    assert goedel_dreben_bound(2, 2, 2) == 50
    with pytest.raises(ConstructError):
        goedel_dreben_bound(0, 1, 1)
    with pytest.raises(ConstructError):
        goedel_dreben_bound(1, -1, 1)
    with pytest.raises(ConstructError):
        goedel_dreben_bound(1, 1, 0)


def test_false_lemma_demo_shows_order_drift():
    out = demo_false_lemma()
    one, two = out["cases"]
    assert one["label"] == "quantified-disjunct"
    assert one["orders"]["standard"] == {"before": 3, "after": 2,
                                         "preserved": False}
    assert one["orders"]["herbrand"] == {"before": 2, "after": 2,
                                         "preserved": True}
    assert two["label"] == "two-disjunct"
    assert two["orders"]["standard"] == {"before": 2, "after": 3,
                                         "preserved": False}
    assert two["orders"]["herbrand"] == {"before": 2, "after": 3,
                                         "preserved": False}
    assert not out["order_invariant_standard"]
    assert not out["order_invariant_herbrand"]


def test_upper_bound_demo():
    out = demo_upper_bound()
    dom = out["domain"]
    assert dom["computed_size"] == 147
    assert dom["documented_size"] == 156
    assert dom["leaf_count_at_documented_size"] == 3_820_908
    assert dom["full_expansion_nodes"] == 22_322_979
    assert not dom["full_expansion_within_guard"]
    assert out["sub_expansion"] == {"selection_within_domain": True,
                                    "tautology": True,
                                    "property_holds_at_4": True}
    der = out["derivation"]
    assert der["steps"] == 24 and der["accepted"]
    assert der["axiom_matches_sub_expansion"]
    assert der["order_bound"] == 16
    fv = out["free_variable"]
    assert fv["accepted"] and fv["gamma_vars"] == 9
    assert fv["instantiation_matches_sub_expansion"]
    assert fv["skolem_symbols_reused"] == 1


def test_selection_constant_is_well_formed():
    sel = parse_selection(UPPER_BOUND_SELECTION)
    names = {print_term(t) for t in selection_terms(sel)}
    assert "sk_m(sk_u,sk_m(sk_v,sk_w))" in names


# ---------------------------------------------------------------------------
# selection shape checks of both constructions

DOT, SKB = parse_term("@dot"), parse_term("sk_b(@dot)")


def _at_a(body):
    return SelQuant("exists", "a", (DOT,), (body,))


# Malformed selections for the drinker formula, whose skeleton is
# exists a. (~(exists b. p(b)) | p(a)), with the error class and the
# message each one draws.  Shape faults are the selection matcher's;
# repeated witnesses are refused only by the constructions.
BAD_SELECTIONS = {
    "choices at an atom": (_at_a(SelOr(SelNot(LEAF), SelNot(LEAF))),
                           SelectionError, "choices given for the atom p"),
    "wrong node under a negation": (_at_a(SelOr(SelAnd(LEAF, LEAF), LEAF)),
                                    SelectionError, "mismatch under a negation"),
    "wrong node at a junction": (_at_a(SelAnd(LEAF, LEAF)),
                                 SelectionError, "mismatch at a junction"),
    "no witness terms": (LEAF, SelectionError,
                         "chooses no witness terms for exists a"),
    "wrong quantifier kind": (SelQuant("forall", "a", (DOT,), (LEAF,)),
                              SelectionError, "mismatch at exists a"),
    "wrong variable": (SelQuant("exists", "z", (DOT,), (LEAF,)),
                       SelectionError, "mismatch at exists a"),
    "duplicate witnesses": (SelQuant("exists", "a", (DOT, SKB, DOT),
                                     (LEAF, LEAF, LEAF)),
                            ConstructError, "for a must be pairwise distinct"),
    "missing branch": (SelQuant("exists", "a", (DOT, SKB), (LEAF,)),
                       SelectionError,
                       "one selection branch per witness term for a"),
}


@pytest.mark.parametrize("build", [construct_derivation,
                                   construct_fv_derivation])
@pytest.mark.parametrize("case", sorted(BAD_SELECTIONS))
def test_malformed_selection_is_refused(monkeypatch, drinker, build, case):
    # property_c refuses most of these shapes on the Skolemized form before
    # a construction starts; passing it lets each reach the construction's
    # own check
    monkeypatch.setattr(construct, "property_c",
                        lambda *args, **kwargs: SimpleNamespace(holds=True))
    sel, error, message = BAD_SELECTIONS[case]
    with pytest.raises(error, match=message):
        build(drinker, 3, sel)


@pytest.mark.parametrize("case", sorted(c for c, (_, error, _) in
                                        BAD_SELECTIONS.items()
                                        if error is SelectionError))
def test_malformed_selection_reads_the_same_in_a_sub_expansion(drinker, case):
    sel, error, message = BAD_SELECTIONS[case]
    with pytest.raises(error, match=message):
        build_sub_expansion(outer_skolemize(rectify(drinker)), sel)


# The walks along a selection and the comparisons of two formulas run from
# an explicit stack: under a recursion limit of 120, a 300-way disjunction
# (exists x0. p(x0)) | ... | ~p(c) with the witness c at each quantifier is
# expanded, checked and derived both ways, and a 5,000-deep formula compares
# equal up to bound renaming with a copy built under other binder names, and
# equal by == with a second build of itself, with the same hash, one entry in
# a set and a repr that shows its print.
LOW_LIMIT_SCRIPT = """
import json, sys
from functools import reduce
from herbrandkit.construct import construct_derivation, construct_fv_derivation, property_c
from herbrandkit.expansion import LEAF, SelOr, SelQuant, build_sub_expansion
from herbrandkit.kernel import check_derivation
from herbrandkit.skolem import SkolemRegistry
from herbrandkit.syntax import (App, Atom, Exists, Forall, Not, Or, Var,
                                alpha_equal, is_quantifier_free, print_formula)

c = App("c", False, ())
f = Or(reduce(Or, [Exists(f"x{i}", Atom("p", (Var(f"x{i}"),))) for i in range(300)]),
       Not(Atom("p", (c,))))
sel = SelOr(reduce(SelOr, [SelQuant("exists", f"x{i}", (c,), (LEAF,)) for i in range(300)]),
            LEAF)

def deep(name):
    g = Atom("q", (Var(name + "0"),))
    for i in range(5000):
        if i % 3:
            g = Not(g)
        else:
            v = f"{name}{i}"
            g = (Forall if i % 2 else Exists)(v, Or(g, Atom("q", (Var(v),))))
    return g

a, b, a2 = deep("y"), deep("z"), deep("y")
sys.setrecursionlimit(120)
out = {}

def run(label, fn):
    try:
        out[label] = fn()
    except RecursionError:
        out[label] = "RecursionError"

def fv():
    reg = SkolemRegistry()
    return check_derivation(construct_fv_derivation(f, 2, sel, reg)[0], reg).ok

run("sub_expansion", lambda: is_quantifier_free(build_sub_expansion(f, sel)))
run("property_c", lambda: property_c(f, 2, sel=sel).status)
run("derivation", lambda: check_derivation(construct_derivation(f, 2, sel)).ok)
run("fv_derivation", fv)
run("alpha_equal", lambda: alpha_equal(a, b))
run("==", lambda: a == a2 and a is not a2 and a != b)
run("hash", lambda: hash(a) == hash(a2))
run("repr", lambda: repr(a) == "<Not " + print_formula(a) + ">")
run("set", lambda: len({a, a2}))
print(json.dumps(out))
"""


def test_selection_walks_and_comparisons_run_under_a_low_recursion_limit():
    src = str(Path(herbrandkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", LOW_LIMIT_SCRIPT],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {
        "sub_expansion": True, "property_c": "holds", "derivation": True,
        "fv_derivation": True, "alpha_equal": True, "==": True, "hash": True,
        "repr": True, "set": 1}
