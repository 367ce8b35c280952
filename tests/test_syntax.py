"""Formula syntax: parsing, printing, substitution, rectification, paths."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herbrandkit.kernel import StepError, apply_passage
from herbrandkit.oracle import valid_up_to
from herbrandkit.syntax import (
    And,
    App,
    Atom,
    CaptureError,
    Exists,
    Forall,
    Not,
    Or,
    ParseError,
    PathError,
    Var,
    alpha_equal,
    classify_quantifier,
    collect_signature,
    formula_size,
    free_names,
    is_quantifier_free,
    is_rectified,
    locate,
    parse_formula,
    parse_term,
    print_atom,
    print_formula,
    print_term,
    promote_skolem_apps,
    quantifier_positions,
    rectify,
    subformulas,
    substitute,
    term_height,
)
from herbrandkit.taut import atom_list

from references import ac_flatten_equal, sites, variant_equal_gamma

# ---------------------------------------------------------------------------
# hypothesis strategies

NAMES = ("x", "y", "z")


def atoms():
    x, y, c = Var("x"), Var("y"), Var("c")
    pool = [Atom("r", ()), Atom("p", (x,)), Atom("p", (c,)),
            Atom("q", (x, y)), Atom("p", (App("f", False, (y,)),))]
    return st.sampled_from(pool)


def formulas():
    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Forall, st.sampled_from(NAMES), children),
            st.builds(Exists, st.sampled_from(NAMES), children),
        )
    return st.recursive(atoms(), extend, max_leaves=12)


# ---------------------------------------------------------------------------
# parsing and printing

@settings(max_examples=200, deadline=None)
@given(formulas())
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


def test_an_atom_prints_alone_as_it_prints_in_a_formula():
    x, y = Var("x"), Var("y")
    cases = {Atom("r", ()): "r",
             Atom("q", (x, App("f", False, (y,)))): "q(x,f(y))",
             Atom("<", (x, App("f", False, (y,)))): "x < f(y)",
             Atom("<", (x,)): "<(x)"}
    for a, text in cases.items():
        assert print_atom(a) == print_formula(a) == text
        assert print_formula(Not(And(a, a))) == f"~({text} & {text})"


def test_precedence_and_sugar():
    assert parse_formula("p & q | r") == Or(And(Atom("p", ()), Atom("q", ())),
                                            Atom("r", ()))
    assert parse_formula("p & q & r") == And(And(Atom("p", ()), Atom("q", ())),
                                             Atom("r", ()))
    assert parse_formula("p -> q") == Or(Not(Atom("p", ())), Atom("q", ()))
    assert parse_formula("forall x. p(x) | q") == \
        Forall("x", Or(Atom("p", (Var("x"),)), Atom("q", ())))
    tight = parse_formula("p | (q & r)")
    assert parse_formula(print_formula(tight)) == tight


def test_quantifier_body_extends_right():
    f = parse_formula("exists a. p(a) | q(a)")
    assert isinstance(f, Exists) and isinstance(f.body, Or)


def test_parse_errors():
    for bad in ("((", "p &", "forall. p", "p(", "exists 3. p", "p | _", "p(_)"):
        with pytest.raises(ParseError):
            parse_formula(bad)


def test_arity_consistency_enforced():
    with pytest.raises(ParseError):
        parse_formula("p(c) & p(c, d)")


def test_skolem_prefixed_identifiers_are_applications():
    t = parse_term("sk_b(sk_u)")
    assert isinstance(t, App) and t.skolem
    assert t.args == (App("sk_u", True, ()),)
    assert print_term(t) == "sk_b(sk_u)"


def test_gamma_var_syntax():
    f = parse_formula("p(?x)")
    assert print_formula(f) == "p(?x)"
    assert "?x" in free_names(f)


# ---------------------------------------------------------------------------
# substitution

def test_substitute_empty_is_identity():
    f = parse_formula("forall x. p(x) | q(x, y)")
    assert substitute(f, {}) == f


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_substitute_composes(f):
    t = App("c", False, ())
    s = App("f", False, (App("c", False, ()),))
    one_then_other = substitute(substitute(f, {"x": t}), {"y": s})
    both = substitute(f, {"x": t, "y": s})
    assert one_then_other == both


def test_substitute_avoids_capture_leniently():
    f = parse_formula("forall z. p(x, z)")
    g = substitute(f, {"x": Var("z")})
    assert print_formula(g) == "forall z_1. p(z,z_1)"


def test_substitute_strict_raises_on_capture():
    f = parse_formula("forall z. p(x, z)")
    with pytest.raises(CaptureError):
        substitute(f, {"x": Var("z")}, strict=True)


def test_substitute_ignores_bound_occurrences():
    f = parse_formula("forall z. p(z)")
    assert substitute(f, {"z": App("c", False, ())}) == f


# ---------------------------------------------------------------------------
# rectification

def test_rectify_disambiguates_in_preorder():
    f = parse_formula("(forall x. p(x)) & (forall x. q(x))")
    assert print_formula(rectify(f)) == "(forall x. p(x)) & (forall x_1. q(x_1))"


def test_rectify_drops_vacuous_quantifiers():
    f = parse_formula("forall x. r")
    assert rectify(f) == Atom("r", ())


def test_rectify_separates_free_from_bound():
    f = parse_formula("p(x) & (exists x. q(x))")
    r = rectify(f)
    assert is_rectified(r)
    assert "x" in free_names(r)


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_rectify_idempotent(f):
    r = rectify(f)
    assert rectify(r) == r
    assert is_rectified(r)


@settings(max_examples=40, deadline=None)
@given(formulas())
def test_rectify_preserves_small_model_verdict(f):
    assert valid_up_to(f, 2) == valid_up_to(rectify(f), 2)


# ---------------------------------------------------------------------------
# positions, polarity, classification

def test_paths_and_replacement():
    f = parse_formula("~(p & q) | r")
    assert locate(f, (0, 0, 1)).node == Atom("q", ())
    g = locate(f, (0, 0, 1)).plug(Atom("s", ()))
    assert print_formula(g) == "~(p & s) | r"
    with pytest.raises(PathError):
        locate(f, (2,))
    with pytest.raises(PathError):
        locate(f, (-1,))
    with pytest.raises(PathError):
        locate(f, (0, 0, 0, 0))


@settings(max_examples=200, deadline=None)
@given(formulas())
def test_subformulas_is_the_preorder_of_paths(f):
    walked = list(sites(f))
    for path, node, _, _ in walked:
        assert locate(f, path).node == node
        assert locate(f, path).plug(node) == f
    paths = [path for path, _, _, _ in walked]
    assert paths == sorted(paths)
    assert len(walked) == formula_size(f)
    assert list(subformulas(f)) == [g for _, g, _, _ in walked]


def test_walkers_do_not_depend_on_the_recursion_limit():
    f = parse_formula(" | ".join(f"p{i}" for i in range(5000)))
    assert formula_size(f) == 9999
    assert is_quantifier_free(f)
    assert quantifier_positions(f) == []
    assert len(atom_list(f)) == 5000


def test_polarity_counts_negations():
    f = parse_formula("~(~p | q)")
    assert locate(f, ()).sign > 0
    assert locate(f, (0,)).sign < 0
    assert locate(f, (0, 0, 0)).sign > 0
    assert locate(f, (0, 1)).sign < 0


def test_classification_on_known_formula(drinker):
    positions = quantifier_positions(drinker)
    assert [(p, k) for p, k, _ in positions] == \
        [((), "exists"), ((0, 0, 0), "exists")]
    kind, klass, accessible = classify_quantifier(drinker, ())
    assert (kind, klass, accessible) == ("exists", "gamma", True)
    kind, klass, accessible = classify_quantifier(drinker, (0, 0, 0))
    assert (kind, klass, accessible) == ("exists", "delta", False)


def _noisy_prenex(f):
    """Drive a negation/disjunction formula to prenex form by trying every
    passage equation at every position until none applies."""
    def paths(g, at=()):
        yield at
        for i, child in enumerate(
                [g.body] if isinstance(g, (Forall, Exists))
                else [g.sub] if isinstance(g, Not)
                else [g.left, g.right] if isinstance(g, (And, Or)) else []):
            yield from paths(child, at + (i,))
    while True:
        for path in paths(f):
            hit = None
            for eq in range(1, 7):
                try:
                    hit = apply_passage(f, path, eq, "prenex")
                    break
                except StepError:
                    continue
            if hit is not None:
                f = hit
                break
        else:
            return f


def test_gamma_matches_existential_in_prenex_form():
    rng = random.Random(7)
    checked = 0
    for _ in range(40):
        binders = ["u1", "u2", "u3"]
        rng.shuffle(binders)
        f = Atom("p", (Var(binders[0]), Var(binders[1]), Var(binders[2])))
        for v in binders:
            if rng.random() < 0.45:
                f = Not(f)
            quant = Forall if rng.random() < 0.5 else Exists
            f = quant(v, f)
            if rng.random() < 0.4:
                f = Or(f, Atom("r", ())) if rng.random() < 0.5 \
                    else Or(Atom("r", ()), f)
        prenexed = _noisy_prenex(f)
        prefix = {}
        g = prenexed
        while isinstance(g, (Forall, Exists)):
            prefix[g.var] = "exists" if isinstance(g, Exists) else "forall"
            g = g.body
        assert is_quantifier_free(g)
        for path, _, var in quantifier_positions(f):
            _, klass, _ = classify_quantifier(f, path)
            assert (klass == "gamma") == (prefix[var] == "exists"), \
                print_formula(f)
            checked += 1
    assert checked >= 40


# ---------------------------------------------------------------------------
# equality relations

def test_alpha_equal():
    f = parse_formula("forall x. p(x)")
    g = parse_formula("forall y. p(y)")
    assert alpha_equal(f, g)
    assert not alpha_equal(f, parse_formula("forall y. q(y)"))
    assert not alpha_equal(f, parse_formula("exists y. p(y)"))


def test_variant_equal_gamma_ignores_copy_indices():
    f = parse_formula("exists x. p(x, c)")
    g = parse_formula("exists x_1. p(x_1, c)")
    assert variant_equal_gamma(f, g)


def test_ac_flatten_equal():
    f = parse_formula("(p & q) & r")
    g = parse_formula("p & (q & r)")
    h = parse_formula("r & (q & p)")
    assert ac_flatten_equal(f, g)
    assert ac_flatten_equal(f, h)
    assert not ac_flatten_equal(f, parse_formula("p & q"))
    assert not ac_flatten_equal(f, parse_formula("(p | q) | r"))


# ---------------------------------------------------------------------------
# terms, heights, signatures

def test_term_heights():
    assert term_height(parse_term("c")) == 1
    assert term_height(parse_term("x")) == 1
    assert term_height(parse_term("f(c)")) == 2
    assert term_height(parse_term("sk_m(sk_v, sk_w)")) == 2
    assert term_height(parse_term("sk_m(sk_u, sk_m(sk_v, sk_w))")) == 3


def test_herbrand_heights_zero_variables():
    assert term_height(Var("x"), herbrand=True) == 0
    assert term_height(parse_term("sk_u"), herbrand=True) == 1
    assert term_height(parse_term("f(x)"), herbrand=True) == 1


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    st.sampled_from([Var("x"), App("c", False, ())]),
    lambda ch: st.builds(lambda a, b: App("f", False, (a, b)), ch, ch),
    max_leaves=6))
def test_height_dominates_children(t):
    assert term_height(t) >= 1
    if isinstance(t, App):
        for sub in t.args:
            assert term_height(t) > term_height(sub)


def test_collect_signature():
    sig = collect_signature(parse_formula("p(f(c), x) & (exists y. q(y, ?z))"))
    assert sig.functions == {"f": (1, False)}
    assert set(sig.predicates) == {"p", "q"}
    assert set(sig.free_vars) == {"x", "c"}
    assert set(sig.gamma_vars) == {"z"}


def test_promote_skolem_apps_names_heights():
    f = parse_formula("p(sk_m(sk_v, sk_w))")
    g = promote_skolem_apps(f)
    assert print_formula(g) == print_formula(f)
    positions = quantifier_positions(g)
    assert positions == []
    assert formula_size(g) == formula_size(f)


def test_formula_size():
    assert formula_size(parse_formula("p & ~q")) == 4
