"""Hash-consed terms: one object per structure, made with its print,
heights and free names, none of which recurses at any depth."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herbrandkit import expansion, syntax
from herbrandkit.expansion import champ
from herbrandkit.syntax import (
    DOT,
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
    free_names,
    parse_formula,
    print_term,
    substitute_term,
    term_free_names,
    term_height,
    var_for_name,
)
from herbrandkit.taut import atom_list, is_tautology

from references import (
    reference_free_names,
    reference_print_term,
    reference_term_free_names,
    reference_term_height,
)

# ---------------------------------------------------------------------------
# a term as a plain description, so that one structure can be built twice

LEAVES = [("var", "x"), ("var", "y"), ("gamma", "u"), ("dot",),
          ("app", "c", False, ()), ("app", "sk_u", True, ())]


def term_specs():
    def extend(ch):
        return st.one_of(
            st.builds(lambda a, b: ("app", "f", False, (a, b)), ch, ch),
            st.builds(lambda a: ("app", "f", False, (a, a)), ch),  # shared
            st.builds(lambda a: ("app", "sk_g", True, (a,)), ch),
            st.builds(lambda a, b: ("named", ("app", "sk_m", True, (a, b))), ch, ch))
    return st.recursive(st.sampled_from(LEAVES), extend, max_leaves=10)


def build(spec):
    match spec:
        case ("var", name):
            return Var(name)
        case ("gamma", name):
            return GammaVar(name)
        case ("dot",):
            return App("@dot", False, ())
        case ("named", enc):
            return SkolemNamedVar(build(enc))
        case ("app", sym, skolem, args):
            return App(sym, skolem, tuple(build(a) for a in args))


@settings(max_examples=150, deadline=None)
@given(term_specs(), term_specs(), st.data())
def test_the_stored_values_agree_with_the_recursive_walkers(a, b, data):
    """The free names of a formula over both terms come in the order of a
    recursive walk that carries the bound names; its binders are drawn from
    x and y, which may shadow each other, a ? name and the terms' own
    names, which may be the print of a Skolem-named variable."""
    s, t = build(a), build(b)
    for u in (s, t):
        assert print_term(u) == reference_print_term(u)
        assert term_height(u) == reference_term_height(u)
        assert term_height(u, herbrand=True) == reference_term_height(u, True)
        assert term_free_names(u) == reference_term_free_names(u)
    binder = st.sampled_from(["x", "y", "?u", *s.names, *t.names])
    f = Forall(data.draw(binder), Or(Atom("p", (s,)), Not(Exists(data.draw(binder), And(
        Atom("q", (t, s)), Forall(data.draw(binder), Atom("q", (Var("x"), t))))))))
    assert list(free_names(f)) == reference_free_names(f)


@settings(max_examples=150, deadline=None)
@given(term_specs())
def test_one_structure_is_one_object(spec):
    t = build(spec)
    assert build(spec) is t
    assert hash(build(spec)) == hash(t)
    assert App("g", False, (t,)) == App("g", False, (build(spec),))


@settings(max_examples=100, deadline=None)
@given(term_specs())
def test_a_skolem_named_variable_is_not_the_term_it_encodes(spec):
    enc = App("sk_m", True, (build(spec), DOT))
    named = SkolemNamedVar(enc)
    assert named != enc
    assert SkolemNamedVar(build(("app", "sk_m", True, (spec, ("dot",))))) is named
    assert print_term(named) == print_term(enc)
    # the tautology check names atoms by their print, so both are one atom
    f = Or(Atom("p", (named,)), Not(Atom("p", (enc,))))
    assert atom_list(f) == [f"p({print_term(enc)})"]
    assert is_tautology(f)


def test_a_term_cannot_be_changed():
    t = App("f", False, (Var("x"),))
    for name in ("sym", "text", "names"):
        with pytest.raises(AttributeError):
            setattr(t, name, "g")
    assert print_term(t) == "f(x)"


# ---------------------------------------------------------------------------
# depth

def test_a_5000_deep_term_is_hashed_compared_and_read_within_the_recursion_limit():
    def chain(n):
        t = Var("x")
        for _ in range(n):
            t = App("f", False, (t,))
        return t

    t, u = chain(5000), chain(5000)
    assert t == u and t is u and hash(t) == hash(u)
    assert t != chain(4999)
    assert print_term(t) == "f(" * 5000 + "x" + ")" * 5000
    assert term_height(t) == 5001 and term_height(t, herbrand=True) == 5000
    assert term_free_names(t) == {"x"}
    assert list(free_names(Atom("p", (t, GammaVar("z"))))) == ["x", "?z"]
    c = substitute_term(t, {"x": App("c", False, ())})
    assert print_term(c) == "f(" * 5000 + "c" + ")" * 5000
    assert term_free_names(c) == set() and term_height(c) == 5001


# ---------------------------------------------------------------------------
# the table

def test_the_term_table_lets_go_of_a_dropped_champ():
    """The table holds no term that nothing else holds: once a champ over
    symbols no other term uses is dropped, with the champ memo, the table is
    back to its earlier size."""
    expansion._build_champ.cache_clear()
    gc.collect()
    before = len(syntax._TERMS)
    f = parse_formula("p(zq_c) & (forall x. (p(x) -> p(zq_f(x, zq_g(x)))))")
    ch = champ(f, 5)
    assert len(ch) == 183
    assert len(syntax._TERMS) >= before + len(ch)
    del f, ch
    expansion._build_champ.cache_clear()
    gc.collect()
    assert len(syntax._TERMS) == before


def test_a_skolem_named_binder_name_is_read_once_while_its_variable_lives(
        monkeypatch):
    v = var_for_name("sk_zr(sk_u,y_1)")
    monkeypatch.setattr(syntax, "parse_term", None)  # a second read would fail
    assert var_for_name("sk_zr(sk_u,y_1)") is v
    assert v == SkolemNamedVar(App("sk_zr", True, (App("sk_u", True), Var("y_1"))))


def test_the_name_table_lets_go_of_dropped_variables():
    """The table holds its variables weakly, and an entry leaves it when its
    variable dies."""
    gc.collect()
    before = len(syntax._NAMED)
    held = [var_for_name(f"sk_zq{i}(x)") for i in range(10_000)]
    assert len(syntax._NAMED) == before + 10_000
    assert all(isinstance(r, weakref.ref) for r in syntax._NAMED.data.values())
    del held
    gc.collect()
    assert len(syntax._NAMED) == before
