"""Skolemization routes and the Skolem symbol registry."""

import pytest

from herbrandkit.skolem import (
    SkolemRegistry,
    canonical_key,
    deltapp_skolemize,
    nameify_term,
    outer_skolemize,
)
from herbrandkit.syntax import (
    App,
    FormulaError,
    GammaVar,
    SkolemNamedVar,
    Var,
    free_gamma_vars,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    rectify,
)


def test_outer_route_drops_deltas_only(drinker):
    out = outer_skolemize(drinker)
    assert print_formula(out) == "exists a. ~p(sk_b(a)) | p(a)"


def test_outer_route_records_symbols(upper_bound):
    symbols = {}
    out = outer_skolemize(rectify(upper_bound), record=symbols)
    assert symbols == {"u": "sk_u", "v": "sk_v", "w": "sk_w", "m": "sk_m"}
    text = print_formula(out)
    assert "sk_m(x,y)" in text
    assert "forall u" not in text and "exists m" not in text
    assert "forall x" in text and "exists z" in text


def test_outer_skolem_terms_list_all_enclosing_gammas():
    f = parse_formula("exists x. exists y. forall z. p(x, y, z)")
    out = outer_skolemize(f)
    assert print_formula(out) == "exists x. exists y. p(x,y,sk_z(x,y))"


def test_deltapp_terms_list_only_occurring_gammas():
    f = parse_formula("exists x. (p(x) & (exists y. forall z. q(y, z)))")
    reg = SkolemRegistry()
    out = deltapp_skolemize(f, reg)
    assert print_formula(out) == "exists x. p(x) & (exists y. q(y,sk_z(y)))"
    assert print_formula(outer_skolemize(f)) == \
        "exists x. p(x) & (exists y. q(y,sk_z(x,y)))"


def test_deltapp_reuses_symbol_across_variant_scopes():
    f = parse_formula("(exists x. forall z. p(x, z)) & (exists y. forall w. p(y, w))")
    reg = SkolemRegistry()
    out = deltapp_skolemize(rectify(f), reg)
    text = print_formula(out)
    assert text.count("sk_z(") == 2 or text.count("sk_w(") == 2
    assert len(reg.symbols()) == 1


def test_deltapp_distinct_scopes_get_distinct_symbols():
    f = parse_formula("(forall z. p(z)) & (forall w. q(w))")
    reg = SkolemRegistry()
    deltapp_skolemize(f, reg)
    assert len(reg.symbols()) == 2


def test_canonical_key_invariant_under_bound_renaming():
    a = parse_formula("forall z. p(x, z)")
    b = parse_formula("forall w. p(x, w)")
    assert canonical_key(a, [Var("x")]) == canonical_key(b, [Var("x")])


def test_canonical_key_invariant_under_bijective_argument_renaming():
    a = parse_formula("forall z. p(?u, ?v, z)")
    b = parse_formula("forall z. p(?s, ?t, z)")
    ka = canonical_key(a, [GammaVar("u"), GammaVar("v")])
    kb = canonical_key(b, [GammaVar("s"), GammaVar("t")])
    assert ka == kb
    swapped = canonical_key(b, [GammaVar("t"), GammaVar("s")])
    assert ka != swapped


def test_canonical_key_distinguishes_scopes():
    a = parse_formula("forall z. p(x, z)")
    b = parse_formula("forall z. q(x, z)")
    assert canonical_key(a, [Var("x")]) != canonical_key(b, [Var("x")])


def test_canonical_key_tells_a_free_b0_from_a_bound_variable():
    a = parse_formula("forall u. e(u, b0)")
    b = parse_formula("forall v. e(v, v)")
    assert canonical_key(a, []) != canonical_key(b, [])
    # a free name not spelled like a placeholder keeps its key
    c = parse_formula("forall u. e(u, c0)")
    assert canonical_key(c, []) == "(forall b0 e(b0,c0))"


def test_canonical_key_tells_a_free_g0_from_a_listed_variable():
    a = parse_formula("forall u. p(u, g0)")
    b = parse_formula("forall u. p(u, g0_1)")
    assert canonical_key(a, []) != canonical_key(b, [Var("g0_1")])
    assert canonical_key(b, [Var("g0_1")]) == "(forall b0 p(b0,g0))"


def test_registry_bind_is_functional():
    a = parse_formula("forall z. p(x, z)")
    key = canonical_key(a, [Var("x")])
    reg = SkolemRegistry()
    s1 = reg.bind(key, "z", 1)
    s2 = reg.bind(key, "z", 1)
    assert s1 == s2
    assert reg.lookup(key) == (s1, 1)


def test_registry_fresh_symbols_avoid_collisions():
    reg = SkolemRegistry()
    k1 = canonical_key(parse_formula("forall z. p(z)"), [])
    k2 = canonical_key(parse_formula("forall z. q(z)"), [])
    s1 = reg.bind(k1, "z", 0)
    s2 = reg.bind(k2, "z", 0)
    assert s1 != s2
    assert s1.startswith("sk_") and s2.startswith("sk_")


def test_registry_bind_respects_avoid_set():
    reg = SkolemRegistry()
    key = canonical_key(parse_formula("forall z. p(z)"), [])
    sym = reg.bind(key, "z", 0, avoid={"sk_z"})
    assert sym != "sk_z"


def test_registry_record_rejects_rebinding_a_key():
    reg = SkolemRegistry()
    k1 = canonical_key(parse_formula("forall z. p(z)"), [])
    reg.record(k1, "sk_z", 0)
    reg.record(k1, "sk_z", 0)
    with pytest.raises(FormulaError):
        reg.record(k1, "sk_other", 0)
    with pytest.raises(FormulaError):
        reg.record(k1, "sk_z", 1)


def test_registry_dump_load_round_trip():
    reg = SkolemRegistry()
    for text, base in (("forall z. p(z)", "z"), ("forall w. q(w, ?g)", "w")):
        f = parse_formula(text)
        reg.bind(canonical_key(f, [GammaVar(g) for g in free_gamma_vars(f)]),
                 base, len(free_gamma_vars(f)))
    dumped = reg.dump()
    again = SkolemRegistry.load(dumped)
    assert again.dump() == dumped
    assert again.symbols() == reg.symbols()


def test_registry_load_skips_comments():
    reg = SkolemRegistry.load("# a comment line\n")
    assert reg.symbols() == set()


def test_nameify_round_trip():
    t = parse_term("sk_m(sk_v, sk_w)")
    named = nameify_term(t)
    assert isinstance(named, SkolemNamedVar)
    assert print_term(named) == "sk_m(sk_v,sk_w)"


def test_nameify_inside_compound_terms():
    t = parse_term("f(sk_u, x)")
    named = nameify_term(t)
    assert isinstance(named, App) and not named.skolem
    assert isinstance(named.args[0], SkolemNamedVar)
    assert named.args[1] == Var("x")
