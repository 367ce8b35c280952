"""Formula syntax: parsing, printing, substitution, rectification, paths."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herbrandkit.expansion import parse_selection
from herbrandkit.kernel import StepError, apply_passage
from herbrandkit.oracle import valid_up_to
from herbrandkit.syntax import (
    DOT,
    And,
    App,
    Atom,
    CaptureError,
    Exists,
    Forall,
    FormulaError,
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
    occurs_free,
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

from references import (
    ac_flatten_equal, reference_collect_signature, reference_parse_formula,
    sites, variant_equal_gamma,
)
from test_fold import KEYS, random_formula

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


TERM_LEAVES = ("x", "y", "c", "?g", "@dot", "sk_a")
EDIT_CHARACTERS = "()~&|-><.,?@_ xypqfcsk\n"


def random_term_text(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(TERM_LEAVES)
    sym = rng.choice(("f", "g", "sk_f"))
    args = [random_term_text(rng, depth - 1) for _ in range(2 if sym == "g" else 1)]
    return f"{sym}({','.join(args)})"


def random_formula_text(rng, depth):
    """Formula text over every connective, plain and Skolem-named binders,
    infix and nested terms, with parentheses dropped at random."""
    roll = rng.random()
    if depth == 0 or roll < 0.2:
        t, u = random_term_text(rng, 2), random_term_text(rng, 1)
        return rng.choice((f"p({t})", f"q({t},{u})", "r", f"{t} < {u}"))
    if roll < 0.35:
        return "~" + random_formula_text(rng, depth - 1)
    if roll < 0.55:
        return (f"{rng.choice(('forall', 'exists'))} "
                f"{rng.choice(('x', 'y', 'sk_f(c)', 'sk_a'))}. "
                + random_formula_text(rng, depth - 1))
    text = (f"{random_formula_text(rng, depth - 1)} {rng.choice(('&', '|', '->'))} "
            f"{random_formula_text(rng, depth - 1)}")
    return f"({text})" if rng.random() < 0.5 else text


def parse_outcome(parse, text):
    try:
        return parse(text)
    except FormulaError as e:
        return type(e), str(e)


def test_the_parser_agrees_with_the_recursive_reference():
    """Seeded random formulas of depth 6, well inside the reference's depth
    guard, and a one-character deletion and insertion of each: both parsers
    read the same formula, or raise the same error with the same message,
    line and column."""
    rng = random.Random(18)
    parsed = failed = 0
    for _ in range(1_500):
        text = random_formula_text(rng, 6)
        i, j = rng.randrange(len(text)), rng.randrange(len(text) + 1)
        for s in (text, text[:i] + text[i + 1:],
                  text[:j] + rng.choice(EDIT_CHARACTERS) + text[j:]):
            f = parse_outcome(parse_formula, s)
            g = parse_outcome(reference_parse_formula, s)
            if isinstance(g, tuple):
                assert f == g, s
                failed += 1
            else:
                assert f == g and print_formula(f) == print_formula(g), s
                parsed += 1
    assert parsed > 1_000 and failed > 1_000


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


def test_substitute_returns_what_it_does_not_change():
    f = parse_formula("forall x. p(x) | q(x, y) & (exists y. r(y, x))")
    c = App("c", False, ())
    assert substitute(f, {"z": c}) is f
    assert substitute(f, {"x": c}) is f
    g = substitute(f, {"y": c})
    assert print_formula(g) == "forall x. p(x) | q(x,c) & (exists y. r(y,x))"
    assert g.body.left is f.body.left and g.body.right.right is f.body.right.right


def test_occurs_free_agrees_with_free_names():
    rng = random.Random(22)
    for _ in range(500):
        f = random_formula(rng, 5, [])
        for name in KEYS:
            assert occurs_free(name, f) == (name in free_names(f))


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


def test_collect_signature_agrees_with_the_walk_that_carried_the_bound_names():
    """Seeded random formulas, rectified or not, with shadowing and
    Skolem-named binders, Skolem-named variables, a ? name and @dot in place
    of y: every field in the same order, free names read off the free-name
    fold against the reference's set of the names bound above each atom."""
    def shown(sig):
        return (list(sig.functions.items()), list(sig.predicates.items()),
                sig.free_vars, sig.gamma_vars, sig.uses_dot)

    rng = random.Random(19)
    free = gammas = dots = 0
    for _ in range(1500):
        f = random_formula(rng, 6, [])
        for g in (f, rectify(f), substitute(f, {"y": DOT})):
            sig = collect_signature(g)
            assert shown(sig) == shown(reference_collect_signature(g))
            free, gammas = free + len(sig.free_vars), gammas + len(sig.gamma_vars)
            dots += sig.uses_dot
    assert min(free, gammas, dots) > 400


def test_promote_skolem_apps_names_heights():
    f = parse_formula("p(sk_m(sk_v, sk_w))")
    g = promote_skolem_apps(f)
    assert print_formula(g) == print_formula(f)
    positions = quantifier_positions(g)
    assert positions == []
    assert formula_size(g) == formula_size(f)


def test_formula_size():
    assert formula_size(parse_formula("p & ~q")) == 4


# (reader, multi-line bad input, the error's class and text), taken from
# the tokenizer that counted lines and columns token by token: the position
# of an error is computed from its offset only when it is raised, and every
# text stays as it was
PARSE_ERRORS = [
    ('formula', 'p(x) &\n  q(y) $ r',
     ('ParseError', "unexpected character '$' (line 2, column 8)")),
    ('formula', 'p(x,\n )',
     ('ParseError', "expected a term, found ')' (line 2, column 2)")),
    ('formula', 'p(x\n\n   y)',
     ('ParseError', "expected ')', found 'y' (line 3, column 4)")),
    ('formula', 'forall\n (x). p(x)',
     ('ParseError', "expected a binder name, found '(' (line 2, column 2)")),
    ('formula', 'exists\n  ?x. p(?x)',
     ('ParseError', 'instantiation variables cannot be bound (line 2, column 3)')),
    ('formula', '(p &\n forall f(x). p(x))',
     ('ParseError', "bad binder 'f(x)' (line 2, column 9)")),
    ('formula', 'p(x) &\n   sk_a',
     ('ParseError', "'sk_a' is not a formula (line 2, column 4)")),
    ('formula', 'p &\n\t)',
     ('ParseError', "expected a formula, found ')' (line 2, column 2)")),
    ('formula', 'p(x)\n q(x)',
     ('ParseError', "trailing input, found 'q' (line 2, column 2)")),
    ('formula', 'p(x) &\n',
     ('ParseError', "expected a formula, found 'end of input' (line 2, column 1)")),
    ('formula', 'forall x\n p(x)',
     ('ParseError', "expected '.', found 'p' (line 2, column 2)")),
    ('formula', 'p(x) &\r\n q(x) |\r\n #',
     ('ParseError', "unexpected character '#' (line 3, column 2)")),
    ('formula', '~(p(x) |\n\n    (q &\n  r)',
     ('ParseError', "expected ')', found 'end of input' (line 4, column 5)")),
    ('formula', 'p(c)\n & p(c,\n  d)',
     ('ParseError', "predicate 'p' used with arities 1 and 2")),
    ('formula', 'p(x) \u2028 & \n  q(',
     ('ParseError', "expected a term, found 'end of input' (line 2, column 5)")),
    ('term', 'f(x,\n\n  @dot, ?y) z',
     ('ParseError', "trailing input, found 'z' (line 3, column 13)")),
    ('term', 'f(\n',
     ('ParseError', "expected a term, found 'end of input' (line 2, column 1)")),
    ('term', '\n\n  )',
     ('ParseError', "expected a term, found ')' (line 3, column 3)")),
    ('term', 'f(x)\n\ng(y)',
     ('ParseError', "trailing input, found 'g' (line 3, column 1)")),
    ('term', 'f(x\n y)',
     ('ParseError', "expected ')', found 'y' (line 2, column 2)")),
    ('term', 'sk_a(\n  x ,\n %)',
     ('ParseError', "unexpected character '%' (line 3, column 2)")),
    ('selection', '(forall x (f(\n ; a comment (\n ,)) _)',
     ('ParseError', "expected a term, found ',' (line 3, column 2)")),
    ('selection', '(or\n  (forall x (f\n(c)) _)\n  _)',
     ('ParseError', "expected a term, found '(' (line 3, column 1)")),
    ('selection', '(forall x (f (c)) _)',
     ('ParseError', "expected a term, found '(' (line 1, column 14)")),
    ('selection', '(or _\n  _\n  _)',
     ('SelectionError', 'expected ) in selection')),
    ('selection', '(forall x\n  (c d)\n  _ _ _)',
     ('SelectionError', 'quantifier x lists 2 terms but 3 sub-selections')),
    ('selection', '(forall x ()\n _)',
     ('SelectionError', 'empty term list at quantifier x')),
    ('selection', '(forall x (c\n  ; unclosed',
     ('SelectionError', 'unclosed term list')),
    ('selection', '(xor _ _)',
     ('SelectionError', "unknown selection node 'xor'")),
    ('selection', '(not _)\n  _',
     ('SelectionError', 'trailing input in selection')),
    ('selection', '(not\n  x)',
     ('SelectionError', "expected ( or _, found 'x'")),
    ('selection', '(forall x c _)',
     ('SelectionError', 'expected a term list after forall x')),
    ('selection', '(and _\n',
     ('SelectionError', 'unexpected end of selection')),
    ('selection', '(forall x (c $) _)',
     ('ParseError', "unexpected character '$' (line 1, column 14)")),
    ('selection', '(forall x (c)\n  (forall y (f(c,\n   d e)) _))',
     ('ParseError', "expected ')', found 'e' (line 3, column 6)")),
]

_READERS = {"formula": parse_formula, "term": parse_term,
            "selection": parse_selection}


@pytest.mark.parametrize("reader, text, want", PARSE_ERRORS)
def test_parse_error_texts_are_pinned(reader, text, want):
    with pytest.raises(FormulaError) as e:
        _READERS[reader](text)
    assert (type(e.value).__name__, str(e.value)) == want
