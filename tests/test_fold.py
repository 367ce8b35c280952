"""The post-order fold under the formula walkers: its hooks, walkers on
formulas deeper than the recursion limit, and the printer, the clausal form
and substitution against the recursive versions they replaced."""

import random
import re
import sys
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from herbrandkit.expansion import expansion_leaf_count, expansion_node_count
from herbrandkit.syntax import (
    And,
    App,
    Atom,
    Branch,
    CaptureError,
    FormulaError,
    Exists,
    Forall,
    GammaVar,
    Not,
    Or,
    Prune,
    SkolemNamedVar,
    Swap,
    Var,
    all_names,
    alpha_equal,
    bound_names,
    children,
    classify_quantifier,
    equal,
    fold,
    fresh_name,
    free_names,
    is_gamma,
    is_rectified,
    locate,
    parse_formula,
    print_formula,
    print_term,
    promote_skolem_apps,
    quant_kind,
    quantifier_positions,
    quantifier_sites,
    rebuild,
    rectify,
    rename_binder,
    subformulas,
    substitute,
    substitute_term,
    term_free_names,
    var_for_name,
)
from herbrandkit.taut import clausal_refutation_form, is_tautology

from references import reference_alpha_equal, sites


# ---------------------------------------------------------------------------
# references: the recursive walkers the fold replaced, bodies unchanged
# (the printer without its memo, which changed no output)

_PREC = {Or: 1, And: 2, Not: 3, Atom: 4, Forall: 0, Exists: 0}


def reference_print_formula(f, need=0):
    match f:
        case Atom("<", (a, b)):
            s = f"{print_term(a)} < {print_term(b)}"
        case Atom(pred, args):
            s = pred if not args else pred + "(" + ",".join(print_term(a) for a in args) + ")"
        case Not(sub):
            s = "~" + reference_print_formula(sub, 3)
        case And(l, r):
            s = reference_print_formula(l, 2) + " & " + reference_print_formula(r, 3)
        case Or(l, r):
            s = reference_print_formula(l, 1) + " | " + reference_print_formula(r, 2)
        case Forall(v, body):
            s = f"forall {v}. " + reference_print_formula(body, 0)
        case Exists(v, body):
            s = f"exists {v}. " + reference_print_formula(body, 0)
        case _:
            raise TypeError(f"not a formula: {f!r}")
    if _PREC[type(f)] < need:
        return "(" + s + ")"
    return s


def reference_substitute(f, mapping, strict=False):
    def rename_binder(q, new):
        return type(q)(new, reference_substitute(q.body, {q.var: var_for_name(new)}))

    def walk(g, mp):
        match g:
            case Atom(p, args):
                return Atom(p, tuple(substitute_term(a, mp) for a in args))
            case Forall(v, b) | Exists(v, b):
                inner = {k: t for k, t in mp.items() if k != v}
                live = {k for k in inner if k in free_names(b) - {v}}
                inner = {k: inner[k] for k in live}
                if not inner:
                    return g
                incoming = set()
                for t in inner.values():
                    incoming |= term_free_names(t)
                if v in incoming:
                    if strict:
                        raise CaptureError(
                            f"substitution would capture {v} bound at "
                            f"{reference_print_formula(g)[:60]}")
                    g = rename_binder(g, fresh_name(v, all_names(b) | incoming | set(inner)))
                return rebuild(g, walk(g.body, inner))
        return rebuild(g, *[walk(c, mp) for c in children(g)])

    mapping = {k: t for k, t in mapping.items()}
    return walk(f, mapping)


def reference_clausal_refutation_form(f):
    atom_var = {}
    cache = {}
    clauses = []
    counter = [0]

    def newvar():
        counter[0] += 1
        return counter[0]

    def lit(g):
        if g in cache:
            return cache[g]
        match g:
            case Atom():
                s = reference_print_formula(g)
                if s not in atom_var:
                    atom_var[s] = newvar()
                v = atom_var[s]
            case Not(sub):
                v = -lit(sub)
            case And(l, r):
                a, b = lit(l), lit(r)
                v = newvar()
                clauses.append([-v, a])
                clauses.append([-v, b])
                clauses.append([v, -a, -b])
            case Or(l, r):
                a, b = lit(l), lit(r)
                v = newvar()
                clauses.append([-v, a, b])
                clauses.append([v, -a])
                clauses.append([v, -b])
        cache[g] = v
        return v

    root = lit(f)
    clauses.append([-root])
    return clauses, atom_var, counter[0]


def collapse(f, atoms=None):
    """f with double negations removed and every atom replaced by the first
    atom of the same print: the subformulas that get one literal in the
    clausal form, made structurally equal."""
    atoms = {} if atoms is None else atoms
    match f:
        case Atom():
            return atoms.setdefault(print_formula(f), f)
        case Not(Not(g)):
            return collapse(g, atoms)
        case Not(g):
            return Not(collapse(g, atoms))
        case And(l, r) | Or(l, r):
            return type(f)(collapse(l, atoms), collapse(r, atoms))


# ---------------------------------------------------------------------------
# random formulas: shared subformulas, a Skolem-named binder, a Skolem
# application spelled like the Skolem-named variable, and a binder x_1
# spelled like the renamings fresh_name makes

X, Y, Z = Var("x"), Var("y"), Var("z")
SK = App("sk_a", True, (X,))
TERMS = [X, Y, Z, Var("x_1"), GammaVar("g"), SkolemNamedVar(SK), SK,
         App("f", False, (Y,)), App("f", False, (Var("x_1"),)), App("c", False, ())]
BINDERS = ["x", "y", "z", "x_1", "sk_a(x)"]
KEYS = ["x", "y", "z", "x_1", "?g", "sk_a(x)"]


def random_formula(rng, depth, pool, quantifiers=True):
    roll = rng.random()
    if pool and roll < 0.15:
        return rng.choice(pool)
    if pool and roll < 0.2:  # one print, another build
        h = rng.choice(pool)
        return Not(Not(h)) if rng.random() < 0.5 else promote_skolem_apps(h)
    if depth == 0 or roll < 0.3:
        t, s = rng.choice(TERMS), rng.choice(TERMS)
        g = rng.choice([Atom("p", (t,)), Atom("q", (t, s)), Atom("r"), Atom("<", (t, s))])
    elif roll < 0.45:
        g = Not(random_formula(rng, depth - 1, pool, quantifiers))
    elif roll < 0.75 or not quantifiers:
        g = rng.choice([And, Or])(random_formula(rng, depth - 1, pool, quantifiers),
                                  random_formula(rng, depth - 1, pool, quantifiers))
    else:
        g = rng.choice([Forall, Exists])(rng.choice(BINDERS),
                                          random_formula(rng, depth - 1, pool, quantifiers))
    pool.append(g)
    return g


def rebuild_all(f):
    """f rebuilt node by node: equal, and identical nowhere."""
    return fold(f, lambda g, kids, _: Atom(g.pred, g.args) if not kids else rebuild(g, *kids))


def binders(f):
    return [v for _, _, v in quantifier_positions(f)]


# ---------------------------------------------------------------------------
# the fold's hooks

def test_fold_calls_down_in_preorder_and_up_in_post_order():
    f = And(Not(Atom("p")), Forall("x", Atom("q", (X,))))
    trace = []

    def down(g, depth):
        trace.append(("down", type(g).__name__, depth))
        return depth + 1

    def up(g, kids, depth):
        trace.append(("up", type(g).__name__, depth, kids))
        return type(g).__name__[0] + "".join(kids)

    assert fold(f, up, down, 0) == "ANAFA"
    assert [t[:2] for t in trace] == [
        ("down", "And"), ("down", "Not"), ("down", "Atom"), ("up", "Atom"),
        ("up", "Not"), ("down", "Forall"), ("down", "Atom"), ("up", "Atom"),
        ("up", "Forall"), ("up", "And")]
    # up sees the context down returned for the same node
    assert [t[2] for t in trace if t[0] == "up"] == [3, 2, 3, 2, 1]


def test_fold_prune_ends_the_descent_and_swap_replaces_the_node():
    f = Or(Forall("x", Atom("p", (X,))), Exists("y", Atom("q", (Y,))))
    seen = []

    def down(g, _):
        seen.append(type(g).__name__)
        if isinstance(g, Forall):
            return Prune("cut")
        if isinstance(g, Exists):
            return Swap(Atom("r"))

    def up(g, kids, _):
        return print_formula(g) if not kids else "(" + " ".join(kids) + ")"

    assert fold(f, up, down) == "(cut r)"
    assert seen == ["Or", "Forall", "Exists", "Atom"]


# ---------------------------------------------------------------------------
# walkers on formulas deeper than the recursion limit

def not_chain(f, n=5000):
    for _ in range(n):
        f = Not(f)
    return f


def test_walkers_finish_on_a_deep_negation_chain():
    f = not_chain(Atom("p", (X,)))
    assert free_names(f) == {"x"}
    assert print_formula(substitute(f, {"x": App("c", False, ())})) == "~" * 5000 + "p(c)"
    assert expansion_node_count(f, 3) == 5001
    assert expansion_leaf_count(f, 3) == 1
    assert not is_tautology(f)
    assert is_tautology(Or(f, Not(f)))


def test_expansion_counts_finish_on_a_deep_chain_over_a_quantifier():
    f = not_chain(Forall("x", Or(Atom("p", (X,)), Atom("r"))))
    assert free_names(f) == set()
    assert expansion_node_count(f, 3) == 5000 + 3 * 3 + 2
    assert expansion_leaf_count(f, 3) == 3


def test_rectify_is_linear_in_the_quantifier_depth():
    """2,000 nested forall x_i. exists y_i. (... | q(x_i)): the exists are
    vacuous and go.  A walk that asks each quantifier's body for its free
    names is quadratic here, about 10 s."""
    f = kept = Atom("q", (Var("x0"),))
    for i in range(2000):
        body = Or(f, Atom("q", (Var(f"x{i}"),)))
        f = Forall(f"x{i}", Exists(f"y{i}", body))
        kept = Forall(f"x{i}", Or(kept, Atom("q", (Var(f"x{i}"),))))
    start = time.perf_counter()
    r = rectify(f)
    assert is_rectified(r) and not is_rectified(f)
    assert time.perf_counter() - start < 1.0
    assert print_formula(r) == print_formula(kept)


def test_substitute_is_linear_in_the_quantifier_depth():
    """z under 1,000 nested forall x_i. (... | q(x_i)).  A substitution that
    asks each quantifier's body for its free names is quadratic here, about
    3 s."""
    c = App("c", False, ())
    f, want = Atom("q", (Z,)), Atom("q", (c,))
    for i in range(1000):
        f = Forall(f"x{i}", Or(f, Atom("q", (Var(f"x{i}"),))))
        want = Forall(f"x{i}", Or(want, Atom("q", (Var(f"x{i}"),))))
    start = time.perf_counter()
    got = substitute(f, {"z": c})
    assert time.perf_counter() - start < 1.0
    assert equal(got, want)


def test_bound_names_is_linear_in_the_depth():
    """A walk that builds the path of every node is quadratic in the depth:
    about 4.9 s here, against about 0.06 s without paths."""
    f = not_chain(Forall("x", Atom("p", (X,))), 40_000)
    start = time.perf_counter()
    assert bound_names(f) == {"x"}
    assert time.perf_counter() - start < 1.0


def test_quantifier_positions_are_linear_in_the_depth():
    """Copying the parent's path at every node made this walk quadratic in
    the depth: 3.8-4.9 s here, against a path built at quantifiers only."""
    f = not_chain(Forall("x", Atom("p", (X,))), 40_000)
    start = time.perf_counter()
    assert quantifier_positions(f) == [((0,) * 40_000, "forall", "x")]
    assert time.perf_counter() - start < 1.0


def test_fold_branch_folds_its_pairs_as_the_children():
    f = Forall("x", Atom("p", (X,)))
    trace = []

    def down(g, depth):
        trace.append((type(g).__name__, depth))
        if isinstance(g, Forall):  # the body three times, then an atom with no pairs
            return Branch(tuple((g.body, depth + i) for i in range(3))
                          + ((Atom("r"), depth),), "q")
        if g == Atom("r"):
            return Branch((), "r")
        return depth

    def up(g, kids, ctx):
        return (ctx, kids)

    assert fold(f, up, down, 0) == ("q", ((0, ()), (1, ()), (2, ()), ("r", ())))
    assert trace == [("Forall", 0), ("Atom", 0), ("Atom", 1), ("Atom", 2), ("Atom", 0)]


# ---------------------------------------------------------------------------
# the fold walkers against the references

def test_printer_agrees_with_the_reference():
    rng = random.Random(7)
    for _ in range(500):
        f = random_formula(rng, 6, [])
        assert print_formula(f) == reference_print_formula(f)


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
def test_substitute_agrees_with_the_reference(strict):
    rng = random.Random(11)
    outcomes = Counter()
    for _ in range(800):
        f = random_formula(rng, 5, [])
        mapping = {k: rng.choice(TERMS) for k in rng.sample(KEYS, rng.randint(1, 3))}
        try:
            want = reference_substitute(f, mapping, strict)
        except FormulaError as e:
            with pytest.raises(type(e), match=re.escape(str(e))):
                substitute(f, mapping, strict)
            outcomes[type(e).__name__] += 1
            continue
        got = substitute(f, mapping, strict)
        assert got == want
        assert print_formula(got) == print_formula(want)
        outcomes["renamed" if binders(got) != binders(f) else "kept"] += 1
    # lenient renames a capturing binder where strict refuses it, a
    # Skolem-named binder to a plain name
    if strict:
        assert outcomes == {"kept": 747, "CaptureError": 53}
    else:
        assert outcomes == {"kept": 747, "renamed": 53}


def test_substitute_renames_one_capture_at_a_time():
    # the outer binder x_1 is renamed to x_1_1 before the inner walk, so
    # x_1 is free again when the inner binder x needs a new name
    f = Exists("x_1", And(Atom("q", (Y,)),
                          Forall("x", Atom("p", (X, Var("x_1"), Z)))))
    mapping = {"y": App("g", False, (Var("x_1"),)), "z": App("f", False, (X,))}
    got = substitute(f, mapping)
    assert got == reference_substitute(f, mapping)
    assert print_formula(got) == "exists x_1_1. q(g(x_1)) & (forall x_1. p(x_1,x_1_1,f(x)))"


def test_clausal_form_agrees_with_the_reference_up_to_shared_literals():
    """The fold defines a junction once per (connective, child literals),
    the reference once per structurally equal subformula.  They differ only
    where double negations or differently built atoms of one print make
    distinct subformulas share a literal, and collapsing those first makes
    the reference agree to the clause and the number."""
    rng = random.Random(5)
    same = 0
    for _ in range(400):
        f = random_formula(rng, 6, [], quantifiers=False)
        got = clausal_refutation_form(f)
        assert got == reference_clausal_refutation_form(collapse(f))
        same += got == reference_clausal_refutation_form(f)
    assert same == 389


def renamed(rng, f):
    """f with some binders renamed, one at a time from the outside in; a new
    name may shadow, be shadowed, or capture."""
    for path, _, _ in quantifier_positions(f):
        if rng.random() < 0.5:
            site = locate(f, path)
            f = site.plug(rename_binder(site.node, rng.choice(BINDERS + ["w"])))
    return f


def test_alpha_equal_gives_a_shadowing_binder_a_level_of_its_own():
    """Under the shadowing exists x, the x of p(x,y) is the exists' variable:
    the variant reads p(b,c), and p(c,b) is not one."""
    f = parse_formula("forall x. exists x. forall y. p(x,y)")
    variant = parse_formula("forall a. exists b. forall c. p(b,c)")
    other = parse_formula("forall a. exists b. forall c. p(c,b)")
    for equal_up_to_renaming in (alpha_equal, reference_alpha_equal):
        assert equal_up_to_renaming(f, variant) and equal_up_to_renaming(variant, f)
        assert not equal_up_to_renaming(f, other)
        assert not equal_up_to_renaming(other, f)


def test_comparisons_agree_with_the_references():
    """alpha_equal against the recursive walk it replaced, and equal against
    ==, on random formulas paired with bound renamings of themselves, with
    copies built again, and with other random formulas."""
    rng = random.Random(13)
    outcomes = Counter()
    for _ in range(1500):
        f = random_formula(rng, 5, [])
        for g in (renamed(rng, f), renamed(rng, f), rebuild_all(f),
                  random_formula(rng, 5, [])):
            want = reference_alpha_equal(f, g)
            assert alpha_equal(f, g) == want
            assert alpha_equal(g, f) == reference_alpha_equal(g, f)
            assert equal(f, g) == (f == g)
            outcomes["alpha", want] += 1
            outcomes["equal", f == g] += 1
    assert min(outcomes.values()) > 500


# ---------------------------------------------------------------------------
# positions: one walk down a path (locate), one walk over the quantifiers

@contextmanager
def recursion_limit(headroom):
    """The recursion limit set headroom frames above the current depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def check_positions(f, stride=1):
    """The reference site walk against its own definition at every
    position: each node is its parent's child at the path's last step, the
    sign flips under each negation and accessibility ends under a
    quantifier; quantifier_sites gives its quantifier sites alone.  At
    every stride-th position and the last, locate finds the same, plug(node)
    gives f back and plug puts another node in place; at every quantifier,
    classify_quantifier gives the walk's class and accessibility.  Returns
    the number of quantifiers that shadow a binder above them."""
    walked = list(sites(f))
    nodes = list(subformulas(f))
    assert len(walked) == len(nodes)
    assert all(node is g for (_, node, _, _), g in zip(walked, nodes))
    quants = [site for site in walked if isinstance(site[1], (Forall, Exists))]
    assert len(list(quantifier_sites(f))) == len(quants)
    assert all(path == q[0] and node is q[1] and (sign, accessible) == q[2:]
               for (path, node, sign, accessible), q in zip(quantifier_sites(f), quants))
    at = {}
    shadowing = 0
    for path, node, sign, accessible in walked:
        if path:
            parent, up_sign, up_accessible, above = at[path[:-1]]
            assert node is children(parent)[path[-1]]
            assert sign == (-up_sign if type(parent) is Not else up_sign)
            assert accessible == (up_accessible and not isinstance(parent, (Forall, Exists)))
            if isinstance(parent, (Forall, Exists)):
                above = above | {parent.var}
        else:
            assert (sign, accessible) == (1, True)
            above = frozenset()
        at[path] = node, sign, accessible, above
        if isinstance(node, (Forall, Exists)):
            shadowing += node.var in above
            kind = quant_kind(node)
            klass = "gamma" if is_gamma(kind, sign) else "delta"
            assert classify_quantifier(f, path) == (kind, klass, accessible)
    hole = Atom("hole")
    for path, node, sign, accessible in walked[::stride] + walked[-1:]:
        site = locate(f, path)
        assert site.path == path and site.node is node
        chain = (*site.above, node)
        assert len(site.above) == len(path)
        assert all(chain[k + 1] is children(g)[i] for k, (g, i) in enumerate(zip(chain, path)))
        assert (site.sign, site.accessible) == (sign, accessible)
        assert equal(site.plug(node), f)
        assert locate(site.plug(hole), path).node is hole
    return shadowing


def test_locate_and_the_site_walk_agree_at_every_position():
    """Seeded random formulas with shared subformulas, Skolem-named and
    shadowing binders, and a 5,000-deep negation chain over a shadowing
    quantifier, all under a recursion limit 60 frames above the test; on the
    chain every 97th position is located, since each costs its depth."""
    rng = random.Random(11)
    formulas = [random_formula(rng, 5, []) for _ in range(300)]
    deep = not_chain(Forall("x", Or(not_chain(Exists("x", Atom("p", (X,))), 3),
                                    Atom("q", (X, Y)))))
    with recursion_limit(60):
        shadowing = sum(check_positions(f) for f in formulas)
        assert check_positions(deep, stride=97) == 1
    assert shadowing > 50
