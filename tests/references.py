"""Reference checkers that the tests compare the library against: equality
up to a renaming of free instantiation variables, and up to the grouping
and order of junction operands; the brute-force countermodel search that
evaluates one interpretation at a time; and the recursive comparison up to
bound renaming and sub-expansion walk that the fold replaced."""

import itertools
from functools import reduce

from herbrandkit.expansion import (
    DEFAULT_BUDGET as EXPANSION_BUDGET,
    BudgetError,
    SelAnd,
    SelLeaf,
    SelNot,
    SelOr,
    SelQuant,
    SelectionError,
    match_selection,
)
from herbrandkit.oracle import (
    DEFAULT_BUDGET,
    Countermodel,
    OracleBudgetError,
    _eval_term,
)
from herbrandkit.syntax import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    GammaVar,
    Not,
    Or,
    Quant,
    SkolemNamedVar,
    Var,
    bound_names,
    children,
    collect_signature,
    is_quantifier_free,
    print_formula,
    quant_kind,
    rebuild,
    substitute,
    term_free_names,
    term_var_name,
)


def variant_equal_gamma(f, g):
    """Equal up to renaming of bound variables plus a bijective renaming of
    free instantiation variables."""
    gmap = {}

    def term_eq(s, t, envf, envg):
        sv = isinstance(s, (Var, SkolemNamedVar))
        tv = isinstance(t, (Var, SkolemNamedVar))
        if sv and tv:
            sn, tn = term_var_name(s), term_var_name(t)
            if sn in envf or tn in envg:
                return envf.get(sn) == envg.get(tn)
            return sn == tn
        if isinstance(s, GammaVar) and isinstance(t, GammaVar):
            if s.name in gmap:
                return gmap[s.name] == t.name
            if t.name in gmap.values():
                return False
            gmap[s.name] = t.name
            return True
        if isinstance(s, App) and isinstance(t, App):
            return (s.sym == t.sym and s.skolem == t.skolem
                    and len(s.args) == len(t.args)
                    and all(term_eq(a, b, envf, envg)
                            for a, b in zip(s.args, t.args)))
        return False

    def walk(f, g, envf, envg):
        match f, g:
            case Atom(p1, a1), Atom(p2, a2):
                return (p1 == p2 and len(a1) == len(a2)
                        and all(term_eq(x, y, envf, envg) for x, y in zip(a1, a2)))
            case Not(s1), Not(s2):
                return walk(s1, s2, envf, envg)
            case (And(l1, r1), And(l2, r2)) | (Or(l1, r1), Or(l2, r2)):
                return walk(l1, l2, envf, envg) and walk(r1, r2, envf, envg)
            case (Forall(v1, b1), Forall(v2, b2)) | (Exists(v1, b1), Exists(v2, b2)):
                lvl = len(envf)
                return walk(b1, b2, {**envf, v1: lvl}, {**envg, v2: lvl})
        return False

    return walk(f, g, {}, {})


def ac_flatten_equal(f, g):
    """Equal after flattening nested And / Or into multisets."""

    def norm(h):
        match h:
            case And() | Or():
                parts = []
                stack = [h]
                while stack:
                    x = stack.pop()
                    if type(x) is type(h):
                        stack.append(x.right)
                        stack.append(x.left)
                    else:
                        parts.append(norm(x))
                return ("and" if isinstance(h, And) else "or",) + tuple(sorted(parts))
            case Not(s):
                return ("not", norm(s))
            case Atom():
                return ("atom", print_formula(h))
            case Forall(v, b) | Exists(v, b):
                return (quant_kind(h), v, norm(b))

    return norm(f) == norm(g)


def _eval(f, funcs, preds, env, size) -> bool:
    match f:
        case Atom(p, args):
            table = preds[p]
            idx = 0
            for a in args:
                idx = idx * size + _eval_term(a, funcs, env, size)
            return table[idx]
        case Not(s):
            return not _eval(s, funcs, preds, env, size)
        case And(l, r):
            return _eval(l, funcs, preds, env, size) and _eval(r, funcs, preds, env, size)
        case Or(l, r):
            return _eval(l, funcs, preds, env, size) or _eval(r, funcs, preds, env, size)
        case Forall(v, b):
            return all(_eval(b, funcs, preds, {**env, v: d}, size) for d in range(size))
        case Exists(v, b):
            return any(_eval(b, funcs, preds, {**env, v: d}, size) for d in range(size))


def brute_force_countermodel(f, max_size=2, budget=DEFAULT_BUDGET):
    """The first falsifying interpretation with domain size <= max_size, or
    None, found by evaluating one interpretation after another."""
    sig = collect_signature(f)
    fsyms = dict(sig.functions)
    if sig.uses_dot:
        fsyms["@dot"] = (0, False)
    var_names = list(sig.free_vars) + ["?" + g for g in sig.gamma_vars]

    total = 0
    for size in range(1, max_size + 1):
        n = 1
        for _, (arity, _) in fsyms.items():
            n *= size ** (size ** arity)
        for _, arity in sig.predicates.items():
            n *= 2 ** (size ** arity)
        n *= size ** len(var_names)
        total += n
    if total > budget:
        raise OracleBudgetError(
            f"{total} interpretations to enumerate, over the budget of {budget}")

    fnames = sorted(fsyms)
    pnames = sorted(sig.predicates)
    for size in range(1, max_size + 1):
        func_tables = [
            list(itertools.product(range(size), repeat=size ** fsyms[name][0]))
            for name in fnames]
        pred_tables = [
            list(itertools.product((False, True), repeat=size ** sig.predicates[name]))
            for name in pnames]
        for fchoice in itertools.product(*func_tables):
            funcs = dict(zip(fnames, fchoice))
            for pchoice in itertools.product(*pred_tables):
                preds = dict(zip(pnames, pchoice))
                for env_vals in itertools.product(range(size), repeat=len(var_names)):
                    env = dict(zip(var_names, env_vals))
                    if not _eval(f, funcs, preds, env, size):
                        return Countermodel(size, funcs, preds, env)
    return None


# ---------------------------------------------------------------------------
# the recursive walkers syntax.alpha_equal and expansion.build_sub_expansion
# ran on before the fold, bodies unchanged

def _alpha_walk(f, g, envf, envg, depth=0):
    """Structural comparison; envf/envg map bound names to levels, and a
    binder pair gets its depth as its level."""

    def term_eq(s, t):
        sv = isinstance(s, (Var, SkolemNamedVar))
        tv = isinstance(t, (Var, SkolemNamedVar))
        if sv and tv:
            sn, tn = term_var_name(s), term_var_name(t)
            if sn in envf or tn in envg:
                return envf.get(sn) == envg.get(tn)
            return sn == tn
        if isinstance(s, GammaVar) and isinstance(t, GammaVar):
            return s.name == t.name
        if isinstance(s, App) and isinstance(t, App):
            return (s.sym == t.sym and s.skolem == t.skolem
                    and len(s.args) == len(t.args)
                    and all(term_eq(a, b) for a, b in zip(s.args, t.args)))
        return False

    match f, g:
        case Atom(p1, a1), Atom(p2, a2):
            return (p1 == p2 and len(a1) == len(a2)
                    and all(term_eq(x, y) for x, y in zip(a1, a2)))
        case Not(s1), Not(s2):
            return _alpha_walk(s1, s2, envf, envg, depth)
        case (And(l1, r1), And(l2, r2)) | (Or(l1, r1), Or(l2, r2)):
            return (_alpha_walk(l1, l2, envf, envg, depth)
                    and _alpha_walk(r1, r2, envf, envg, depth))
        case (Forall(v1, b1), Forall(v2, b2)) | (Exists(v1, b1), Exists(v2, b2)):
            return _alpha_walk(b1, b2, {**envf, v1: depth}, {**envg, v2: depth},
                               depth + 1)
    return False


def reference_alpha_equal(f, g):
    return _alpha_walk(f, g, {}, {})


def selection_terms(s):
    out = []
    match s:
        case SelNot(sub):
            out += selection_terms(sub)
        case SelAnd(l, r) | SelOr(l, r):
            out += selection_terms(l)
            out += selection_terms(r)
        case SelQuant(_, _, terms, branches):
            out += list(terms)
            for b in branches:
                out += selection_terms(b)
    return out


def build_sub_expansion(f, sel, budget=EXPANSION_BUDGET):
    """Expand each quantifier over its per-branch chosen terms.  The
    selection must mirror the formula's skeleton down to quantifier-free
    subformulas; chosen terms must not use variables bound in the formula."""
    avoid = set()
    for t in selection_terms(sel):
        avoid |= term_free_names(t)
    clash = bound_names(f) & avoid
    if clash:
        raise SelectionError(
            "selection terms use bound variable names: " + ", ".join(sorted(clash)))
    count = [0]

    def walk(g, s):
        if isinstance(s, SelLeaf) and is_quantifier_free(g):
            count[0] += 1
            return g
        subs = match_selection(g, s)
        if not isinstance(g, Quant):
            count[0] += 1
            return rebuild(g, *map(walk, children(g), subs))
        acc = reduce(And if isinstance(g, Forall) else Or,
                     [substitute(walk(g.body, br), {g.var: t})
                      for t, br in zip(s.terms, subs)])
        count[0] += len(s.terms) - 1
        if count[0] > budget:
            raise BudgetError(
                f"sub-expansion exceeds the size guard of {budget} nodes")
        return acc

    return walk(f, sel)
