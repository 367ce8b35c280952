"""Reference checkers that the tests compare the library against: equality
up to a renaming of free instantiation variables, and up to the grouping
and order of junction operands; the brute-force countermodel search that
evaluates one interpretation at a time; the recursive comparison up to
bound renaming and sub-expansion walk that the fold replaced; the
selection reader, with its own lexer, and printer that the stack-driven
ones replaced; the DPLL search with failed-literal probing that the
CDCL solver replaced; and the expansion that substituted after every
quantifier, which the walk along the every-term selection replaced; and
the walk over every position that copied its parent's path at each node,
which the quantifier site walk replaced; and the recursive term walkers
(print, heights, free names) that the values a
hash-consed term is made with replaced; and the recursive descent
parser, with the depth guard it needs, that the parser's loop over an
explicit stack replaced; and the recursive structural ==, the walk for
free names in order that carries the bound names, the Skolemization that
substituted into the remaining body at each removed quantifier and the
signature walk that the one free-name fold replaced; and the abstraction
fold that printed each atom, and the two count folds, that the one leaf
compiler and the one count fold replaced; and the kernel's gamma premise
check that built the strict instance and compared it, and its delta
context check that took the free names of each sibling, that one paired
walk and occurs_free replaced; and the delta++ rule that built the
registry term's instance of the scope and compared it with the premise,
which the same paired walk replaced."""

import itertools
from functools import reduce

from herbrandkit.expansion import (
    DEFAULT_BUDGET as EXPANSION_BUDGET,
    LEAF,
    BudgetError,
    ChampFini,
    ExpansionError,
    SelAnd,
    SelLeaf,
    SelNot,
    SelOr,
    SelQuant,
    Selection,
    SelectionError,
    match_selection,
    term_order_key,
)
from herbrandkit.kernel import StepError, _check_class, _solve_instance, _wrap
from herbrandkit.oracle import (
    DEFAULT_BUDGET,
    Countermodel,
    OracleBudgetError,
    _eval_term,
)
from herbrandkit.skolem import SkolemError, _fresh_symbol, canonical_key, deltapp_scope
from herbrandkit.taut import TautError, numbering
from herbrandkit.syntax import (
    And,
    App,
    Atom,
    CaptureError,
    DOT,
    Exists,
    Forall,
    Formula,
    GammaVar,
    Not,
    Or,
    Quant,
    Signature,
    SkolemNamedVar,
    Swap,
    Term,
    Var,
    _bind_named,
    _check_arities,
    _Tokens,
    all_names,
    bound_names,
    children,
    collect_signature,
    fold,
    formula_size,
    free_names,
    fresh_name,
    is_gamma,
    is_quantifier_free,
    is_rectified,
    is_skolem_symbol,
    locate,
    parse_term,
    print_atom,
    print_formula,
    print_term,
    quant_kind,
    rebuild,
    rename_binder,
    subformulas,
    substitute,
    subterms,
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


def reference_equal(f, g):
    """Structural equality by recursion, field by field, as the generated
    == of the formula dataclasses compared before == was paired on the
    fold."""
    match f, g:
        case Atom(p1, a1), Atom(p2, a2):
            return p1 == p2 and a1 == a2
        case Not(s1), Not(s2):
            return reference_equal(s1, s2)
        case (And(l1, r1), And(l2, r2)) | (Or(l1, r1), Or(l2, r2)):
            return reference_equal(l1, l2) and reference_equal(r1, r2)
        case (Forall(v1, b1), Forall(v2, b2)) | (Exists(v1, b1), Exists(v2, b2)):
            return v1 == v2 and reference_equal(b1, b2)
    return False


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

    def grow(nodes):
        count[0] += nodes
        if count[0] > budget:
            raise BudgetError(
                f"sub-expansion exceeds the size guard of {budget} nodes")

    def walk(g, s):
        if isinstance(s, SelLeaf) and is_quantifier_free(g):
            grow(formula_size(g))
            return g
        subs = match_selection(g, s)
        if not isinstance(g, Quant):
            grow(1)
            return rebuild(g, *map(walk, children(g), subs))
        acc = reduce(And if isinstance(g, Forall) else Or,
                     [substitute(walk(g.body, br), {g.var: t})
                      for t, br in zip(s.terms, subs)])
        grow(len(s.terms) - 1)
        return acc

    return walk(f, sel)


# ---------------------------------------------------------------------------
# the recursive selection reader, its lexer and the recursive printer, as
# expansion had them before they ran from explicit stacks, bodies unchanged

def _sel_tokens(text: str):
    """Tokens for the s-expression selection syntax.  A term token may
    contain balanced parentheses of its own (sk_m(sk_v,sk_w))."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in "()":
            toks.append(c)
            i += 1
            continue
        j = i
        depth = 0
        while j < n:
            c = text[j]
            if c.isspace() and depth == 0:
                break
            if c == "(":
                depth += 1
            elif c == ")":
                if depth == 0:
                    break
                depth -= 1
            j += 1
        toks.append(text[i:j])
        i = j
    return toks


def parse_selection(text: str) -> Selection:
    toks = _sel_tokens(text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        t = peek()
        if t is None:
            raise SelectionError("unexpected end of selection")
        pos[0] += 1
        return t

    def node() -> Selection:
        t = take()
        if t == "_":
            return LEAF
        if t != "(":
            raise SelectionError(f"expected ( or _, found {t!r}")
        head = take()
        if head == "not":
            s = SelNot(node())
        elif head in ("and", "or"):
            l = node()
            r = node()
            s = (SelAnd if head == "and" else SelOr)(l, r)
        elif head in ("forall", "exists"):
            var = take()
            if take() != "(":
                raise SelectionError(f"expected a term list after {head} {var}")
            terms = []
            while peek() != ")":
                if peek() is None:
                    raise SelectionError("unclosed term list")
                terms.append(parse_term(take()))
            take()
            if not terms:
                raise SelectionError(f"empty term list at quantifier {var}")
            branches = []
            while peek() != ")":
                branches.append(node())
            if len(branches) == 1 or not branches:
                sub = branches[0] if branches else LEAF
                branches = [sub] * len(terms)
            elif len(branches) != len(terms):
                raise SelectionError(
                    f"quantifier {var} lists {len(terms)} terms but "
                    f"{len(branches)} sub-selections")
            s = SelQuant(head, var, tuple(terms), tuple(branches))
        else:
            raise SelectionError(f"unknown selection node {head!r}")
        if take() != ")":
            raise SelectionError("expected ) in selection")
        return s

    s = node()
    if pos[0] != len(toks):
        raise SelectionError("trailing input in selection")
    return s


def print_selection(s: Selection) -> str:
    match s:
        case SelLeaf():
            return "_"
        case SelNot(sub):
            return f"(not {print_selection(sub)})"
        case SelAnd(l, r):
            return f"(and {print_selection(l)} {print_selection(r)})"
        case SelOr(l, r):
            return f"(or {print_selection(l)} {print_selection(r)})"
        case SelQuant(kind, var, terms, branches):
            ts = " ".join(print_term(t) for t in terms)
            if all(b == branches[0] for b in branches):
                bs = " " + print_selection(branches[0])
            else:
                bs = " " + " ".join(print_selection(b) for b in branches)
            return f"({kind} {var} ({ts}){bs})"


# ---------------------------------------------------------------------------
# the satisfiability search taut had before its CDCL solver, body unchanged

def dpll(clauses: list[list[int]], nvars: int) -> bool:
    """True iff satisfiable.  Unit propagation strengthened with failed
    literal probing (a literal whose propagation closes every clause is
    asserted negatively), then chronological backtracking.  Tautological
    clauses are dropped up front."""
    clauses = [cl for cl in clauses if not any(-l in cl for l in cl)]
    assign: dict[int, bool] = {}

    def value(l: int):
        v = assign.get(abs(l))
        if v is None:
            return None
        return v if l > 0 else not v

    def propagate(trail: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for cl in clauses:
                unassigned = None
                satisfied = False
                open_count = 0
                for l in cl:
                    val = value(l)
                    if val is True:
                        satisfied = True
                        break
                    if val is None:
                        open_count += 1
                        unassigned = l
                if satisfied:
                    continue
                if open_count == 0:
                    return False
                if open_count == 1:
                    assign[abs(unassigned)] = unassigned > 0
                    trail.append(abs(unassigned))
                    changed = True
        return True

    def undo(trail: list[int]):
        for v in trail:
            del assign[v]

    def probe(trail: list[int]) -> bool:
        """Assert the negation of every literal that fails by propagation
        alone; False on an outright contradiction."""
        progress = True
        while progress:
            progress = False
            for v in range(1, nvars + 1):
                if v in assign:
                    continue
                for guess in (True, False):
                    assign[v] = guess
                    sub: list[int] = []
                    ok = propagate(sub)
                    undo(sub)
                    del assign[v]
                    if not ok:
                        assign[v] = not guess
                        trail.append(v)
                        if not propagate(trail):
                            return False
                        progress = True
                        break
        return True

    def solve() -> bool:
        trail: list[int] = []
        if not (propagate(trail) and probe(trail)):
            undo(trail)
            return False
        var = next((v for v in range(1, nvars + 1) if v not in assign), None)
        if var is None:
            return True
        for guess in (True, False):
            assign[var] = guess
            if solve():
                return True
            del assign[var]
        undo(trail)
        return False

    return solve()


# ---------------------------------------------------------------------------
# the expansion expand built before it became the walk along the every-term
# selection: binders renamed away from the terms' free names, then each
# quantifier's expanded body substituted once per term, bodies unchanged

def _rename_away(f, avoid):
    """Rename bound variables of f that collide with the given names (the
    formula is renamed, never the terms)."""
    clash = bound_names(f) & avoid
    if not clash:
        return f
    used = all_names(f) | avoid

    def down(g, _):
        if isinstance(g, Quant) and g.var in avoid:
            v2 = fresh_name(g.var, used)
            used.add(v2)
            return Swap(rename_binder(g, v2))

    return fold(f, lambda g, kids, _: rebuild(g, *kids), down)


def expand(f, terms, budget=EXPANSION_BUDGET, herbrand=False):
    """The expansion of f over a term list: every exists becomes the
    disjunction, every forall the conjunction, of the instances, recursively
    over the same terms.  Instances are ordered canonically."""
    if isinstance(terms, ChampFini):
        terms = terms.terms  # distinct and in canonical order already
    else:
        terms = tuple(sorted(set(terms), key=lambda t: term_order_key(t, herbrand)))
    if not terms:
        if is_quantifier_free(f):
            return f
        raise ExpansionError("expansion over an empty term list is undefined "
                             "for a formula with quantifiers")
    total = expansion_node_count(f, len(terms))
    if total > budget:
        raise BudgetError(
            f"expansion would have {total} nodes, over the size guard of {budget}")
    avoid = set()
    for t in terms:
        avoid |= term_free_names(t)
    f = _rename_away(f, avoid)

    def up(g, kids, _):
        if not isinstance(g, Quant):
            return rebuild(g, *kids)
        return reduce(And if isinstance(g, Forall) else Or,
                      [substitute(kids[0], {g.var: t}) for t in terms])

    return fold(f, up)


# ---------------------------------------------------------------------------
# the walk over every position that syntax.quantifier_sites replaced, which
# copies its parent's path at each node, body unchanged

def sites(f):
    """(path, node, sign, accessible) for every position of f in preorder,
    from an explicit stack, with the sign and accessibility locate gives."""
    stack = [((), f, 1, True)]
    while stack:
        site = stack.pop()
        yield site
        path, g, sign, accessible = site
        kids = children(g)
        if type(g) is Not:
            sign = -sign
        elif isinstance(g, Quant):
            accessible = False
        for i in range(len(kids) - 1, -1, -1):
            stack.append((path + (i,), kids[i], sign, accessible))


def reference_print_term(t):
    match t:
        case Var(name):
            return name
        case GammaVar(name):
            return "?" + name
        case SkolemNamedVar(encoded):
            return reference_print_term(encoded)
        case App(sym, _, args):
            if not args:
                return sym
            return sym + "(" + ",".join(reference_print_term(a) for a in args) + ")"
    raise TypeError(f"not a term: {t!r}")


def reference_term_height(t, herbrand=False):
    match t:
        case Var() | GammaVar():
            return 0 if herbrand else 1
        case SkolemNamedVar(encoded):
            return reference_term_height(encoded, herbrand)
        case App(sym, _, args):
            if not args:
                if herbrand:
                    return 0 if sym == "@dot" else 1
                return 1
            return 1 + max(reference_term_height(a, herbrand) for a in args)
    raise TypeError(f"not a term: {t!r}")


def reference_term_free_names(t):
    match t:
        case Var(name):
            return {name}
        case GammaVar(name):
            return {"?" + name}
        case SkolemNamedVar(_):
            return {reference_print_term(t)}
        case App(_, _, args):
            out = set()
            for a in args:
                out |= reference_term_free_names(a)
            return out
    raise TypeError(f"not a term: {t!r}")


def reference_free_names(f):
    """Free names in order of first free occurrence, from a recursive walk
    that carries the names bound above each node."""
    seen = {}

    def walk_term(t, bound):
        match t:
            case App(_, _, args):
                for a in args:
                    walk_term(a, bound)
                return
            case Var(name):
                nm = name
            case GammaVar(name):
                nm = "?" + name
            case SkolemNamedVar(_):
                nm = reference_print_term(t)
        if nm not in bound:
            seen.setdefault(nm)

    def walk(g, bound):
        match g:
            case Atom(_, args):
                for a in args:
                    walk_term(a, bound)
            case Not(sub):
                walk(sub, bound)
            case And(l, r) | Or(l, r):
                walk(l, bound)
                walk(r, bound)
            case Forall(v, body) | Exists(v, body):
                walk(body, bound | {v})

    walk(f, frozenset())
    return list(seen)


# ---------------------------------------------------------------------------
# the recursive descent parser that the precedence-climbing loop replaced

# the parser descends by recursion through parentheses, quantifiers and
# function applications; input nested deeper than this is refused, well
# inside the default recursion limit, with an error that names the depth
MAX_NESTING = 100


class _NestedTokens(_Tokens):
    def __init__(self, text):
        super().__init__(text)
        self.depth = 0

    def nest(self, parse):
        """parse(self), one level of nesting deeper."""
        if self.depth == MAX_NESTING:
            raise self.error_at(f"input nested deeper than {MAX_NESTING} levels",
                                self.peek()[2])
        self.depth += 1
        out = parse(self)
        self.depth -= 1
        return out


def _parse_term(ts: _Tokens) -> Term:
    kind, val, pos = ts.next()
    if kind == "gvar":
        return GammaVar(val[1:])
    if kind == "dot_const":
        return DOT
    if kind == "ident":
        if ts.peek()[1] == "(":
            ts.next()
            args = [ts.nest(_parse_term)]
            while ts.peek()[1] == ",":
                ts.next()
                args.append(ts.nest(_parse_term))
            ts.expect(")")
            return App(val, is_skolem_symbol(val), tuple(args))
        if is_skolem_symbol(val):
            return App(val, True, ())
        return Var(val)
    raise ts.error_at(f"expected a term, found {val or 'end of input'!r}", pos)


def _parse_unary(ts: _Tokens) -> Formula:
    kind, val, pos = ts.peek()
    if val == "~":  # counted by a loop, so a long chain parses at any depth
        n = 0
        while ts.peek()[1] == "~":
            ts.next()
            n += 1
        return reduce(lambda f, _: Not(f), range(n), _parse_unary(ts))
    if kind == "kw":
        ts.next()
        bkind, bval, bpos = ts.peek()
        if bkind not in ("ident", "gvar"):
            ts.error("expected a binder name")
        if bkind == "gvar":
            raise ts.error_at("instantiation variables cannot be bound", bpos)
        binder_term = _parse_term(ts)
        if isinstance(binder_term, Var):
            name = binder_term.name
            var = None
        elif isinstance(binder_term, App) and binder_term.skolem:
            name = print_term(binder_term)
            var = SkolemNamedVar(binder_term)
        else:
            raise ts.error_at(f"bad binder {print_term(binder_term)!r}", bpos)
        ts.expect(".")
        body = ts.nest(_parse_implication)
        if var is not None:
            body = _bind_named(body, name, var)
        return Forall(name, body) if val == "forall" else Exists(name, body)
    if val == "(":
        ts.next()
        f = ts.nest(_parse_implication)
        ts.expect(")")
        return f
    if kind in ("ident", "gvar", "dot_const"):
        t = _parse_term(ts)
        if ts.peek()[1] == "<":
            ts.next()
            rhs = _parse_term(ts)
            return Atom("<", (t, rhs))
        match t:
            case App(sym, False, args) if args:
                return Atom(sym, args)
            case Var(name):
                return Atom(name, ())
        raise ts.error_at(f"{print_term(t)!r} is not a formula", pos)
    ts.error("expected a formula")


def _parse_conjunction(ts):
    f = _parse_unary(ts)
    while ts.peek()[1] == "&":
        ts.next()
        f = And(f, _parse_unary(ts))
    return f


def _parse_disjunction(ts):
    f = _parse_conjunction(ts)
    while ts.peek()[1] == "|":
        ts.next()
        f = Or(f, _parse_conjunction(ts))
    return f


def _parse_implication(ts):
    f = _parse_disjunction(ts)
    while ts.peek()[1] == "->":
        ts.next()
        f = Or(Not(f), _parse_disjunction(ts))
    return f


def reference_parse_formula(text: str) -> Formula:
    ts = _NestedTokens(text)
    f = _parse_implication(ts)
    if ts.peek()[0] != "eof":
        ts.error("trailing input")
    _check_arities(f)
    return f


# ---------------------------------------------------------------------------
# the Skolemization that substituted into the whole remaining body at each
# removed quantifier, with the delta++ listing that read every occurrence,
# and the signature walk that carried the bound names, which the Skolem
# terms applied at the atoms and the one free-name fold replaced; bodies
# unchanged but for the names of what they call

def reference_first_occurrences(f):
    """Names of the variable occurrences in f, bound and free alike, each
    once in order of first occurrence (preorder, left to right through atom
    arguments).  A Skolem-named variable counts as a single opaque name."""
    return list(dict.fromkeys(nm for g in subformulas(f) if type(g) is Atom
                              for a in g.args for nm in a.names))


def reference_deltapp_scope(scope, gammas=()):
    free = free_names(scope)
    listed = tuple(GammaVar(nm[1:]) if nm.startswith("?") else Var(nm)
                   for nm in reference_first_occurrences(scope)
                   if nm in free and (nm.startswith("?") or nm in gammas))
    return listed, canonical_key(scope, listed)


def _reference_skolemize(f, what, delta_term):
    if not is_rectified(f):
        raise SkolemError(f"{what} requires a rectified formula")
    sig = reference_collect_signature(f)
    taken = set(sig.functions) | set(sig.free_vars)

    # the context is (enclosing gamma-variables, polarity)
    def down(g, ctx):
        gammas, sign = ctx
        if isinstance(g, Not):
            return gammas, -sign
        if not isinstance(g, Quant):
            return ctx
        if is_gamma(quant_kind(g), sign):
            return gammas + [g.var], sign
        return Swap(substitute(g.body, {g.var: delta_term(g, gammas, taken)}))

    return fold(f, lambda g, kids, _: rebuild(g, *kids), down, ([], 1))


def reference_outer_skolemize(f, record=None):
    def delta_term(q, gammas, taken):
        sym = _fresh_symbol(q.var, taken)
        if record is not None:
            record[q.var] = sym
        return App(sym, True, tuple(Var(x) for x in gammas))

    return _reference_skolemize(f, "outer Skolemization", delta_term)


def reference_deltapp_skolemize(f, registry):
    def delta_term(q, gammas, taken):
        listed, key = reference_deltapp_scope(q, gammas)
        return App(registry.bind(key, q.var, len(listed), taken), True, listed)

    return _reference_skolemize(f, "delta++ Skolemization", delta_term)


def reference_collect_signature(f):
    funcs = {}
    preds = {}
    fvars = []
    gvars = []
    dot = False

    def down(g, bound):
        nonlocal dot
        if isinstance(g, Quant):
            return bound | {g.var}
        if type(g) is Atom:
            preds[g.pred] = len(g.args)
            for t in (t for a in g.args for t in subterms(a)):
                if type(t) is App:
                    if t.sym == "@dot":
                        dot = True
                    else:
                        funcs[t.sym] = (len(t.args), t.skolem)
                elif type(t) is GammaVar:
                    if t.name not in gvars:
                        gvars.append(t.name)
                elif t.text not in bound and t.text not in fvars:
                    fvars.append(t.text)
        return bound

    fold(f, lambda g, kids, bound: None, down, frozenset())
    return Signature(funcs, preds, fvars, gvars, dot)


# ---------------------------------------------------------------------------
# the abstraction fold and the count folds that the one leaf compiler
# (taut.compile_leaf, read by taut.ground) and expansion_counts replaced

def reference_abstract(f):
    """The propositional abstraction of f, from one fold: its nodes, as
    numbering gives them, and the literal of f's root, each atom numbered
    by print_atom.  Raises TautError at a quantifier."""
    nodes, number = numbering()

    def lit(g, kids, _) -> int:
        t = type(g)
        if t is Atom:
            return number(print_atom(g))
        if t is Not:
            return -kids[0]
        if t is And or t is Or:
            return number((t, *kids))
        raise TautError("tautology checking needs a quantifier-free formula")

    return nodes, fold(f, lit)


def expansion_node_count(f, n_terms):
    """Exact node count of the expansion of f over n_terms terms."""

    def up(g, kids, _):
        if isinstance(g, Quant):
            return n_terms * kids[0] + (n_terms - 1)
        return 1 + sum(kids)

    return fold(f, up)


def expansion_leaf_count(f, n_terms):
    """Number of instances of the maximal quantifier-free subformulas in the
    expansion of f over n_terms terms, computed without building anything."""

    # None stands for a quantifier-free subformula, a single leaf
    def up(g, kids, _):
        if isinstance(g, Quant):
            return n_terms * (1 if kids[0] is None else kids[0])
        if all(k is None for k in kids):
            return None
        return sum(1 if k is None else k for k in kids)

    count = fold(f, up)
    return 1 if count is None else count


# ---------------------------------------------------------------------------
# the kernel's gamma premise and delta context checks that one paired walk
# (kernel._gamma_quant) and occurs_free (kernel._delta_minus) replaced, and
# the delta++ premise check for a known scope that the same walk replaced

def reference_gamma_quant(f, step, registry, restricted=False):
    """The gamma-quant rule that built the strict instance of the scope and
    compared it with the premise."""
    if step.scope is None or step.term is None:
        raise StepError("bad-step", "gamma quantification needs scope and term")
    h, t = step.scope, step.term
    if restricted and not isinstance(t, GammaVar):
        raise StepError("witness-not-gamma-var",
                        f"restricted gamma needs an instantiation variable, "
                        f"got {print_term(t)}")
    bound = bound_names(h)
    captured = term_free_names(t) & bound
    if captured:
        raise StepError("witness-capture",
                        "the witness uses " + ", ".join(sorted(captured)) +
                        " bound by quantifiers of the scope")
    wrapped = _wrap(step, h, bound)
    try:
        inst = substitute(h, {step.var: t}, strict=True)
    except CaptureError as e:
        raise StepError("witness-capture", str(e))
    site = locate(f, step.path)
    if site.node != inst:
        raise StepError("premise-mismatch",
                        f"the premise at the path is not the scope instance; "
                        f"expected {print_formula(inst)[:80]}")
    _check_class(site, step.quant, "gamma")
    return site.plug(wrapped), None


def reference_delta_minus(f, step, registry):
    """The delta-minus rule that took the free names of each sibling of the
    path."""
    site = locate(f, step.path)
    wrapped = _wrap(step, site.node, bound_names(site.node))
    if any(isinstance(g, Quant) and g.var == step.var for g in site.above):
        raise StepError("context-capture",
                        f"{step.var} is bound by an enclosing quantifier")
    if any(step.var in free_names(children(g)[1 - i])
           for g, i in zip(site.above, step.path) if isinstance(g, (And, Or))):
        raise StepError("context-capture",
                        f"{step.var} occurs free in the context")
    _check_class(site, step.quant, "delta")
    return site.plug(wrapped), None


def reference_deltapp(f, step, registry):
    """The delta++ rule that, for a scope the registry knows, built the
    instance of the scope with the registry term and compared it with the
    premise."""
    if step.scope is None:
        raise StepError("bad-step", "delta++ needs the quantifier scope")
    h = step.scope
    wrapped = _wrap(step, h, bound_names(h))
    listed, key = deltapp_scope(wrapped)
    site = locate(f, step.path)
    known = registry.lookup(key)
    if known is not None:
        sym, arity = known
        if arity != len(listed):
            raise StepError("registry-mismatch",
                            f"registry has {sym}/{arity}, scope lists "
                            f"{len(listed)} instantiation variables")
        repl = App(sym, True, listed)
        inst = substitute(h, {step.var: repl})
        if site.node != inst:
            raise StepError("delta-term-mismatch",
                            f"the premise does not use the registry term "
                            f"{print_term(repl)}")
    else:
        t = _solve_instance(h, step.var, site.node)
        if t is None:
            sym = registry.bind(key, step.var, len(listed),
                                avoid=set(collect_signature(f).functions))
        else:
            if not (isinstance(t, App) and t.skolem and t.args == listed):
                raise StepError(
                    "delta-term-mismatch",
                    f"the premise replaces {step.var} by {print_term(t)}, not a "
                    f"Skolem application of exactly the scope's instantiation "
                    f"variables "
                    f"({', '.join(map(print_term, listed)) or 'none'})")
            sym = t.sym
            if sym in registry.symbols():
                raise StepError("registry-mismatch",
                                f"{sym} is already bound to a different scope")
            registry.record(key, sym, len(listed))
    _check_class(site, step.quant, "delta")
    return site.plug(wrapped), sym
