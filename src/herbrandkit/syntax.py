"""First-order syntax: terms, formulas, parsing, printing, and the
structural operations everything else is built on.

Terms
    Var           plain variable (also used for constants given as bare names)
    GammaVar      instantiation variable, printed with a leading ?
    SkolemNamedVar  a variable whose name is the print of an encoded term;
                  the encoding is opaque to substitution and variable capture
    App           function application; nullary Apps are constants
                  (the fresh constant prints as @dot, Skolem symbols carry
                  a flag and print by their registered sk_* name)

Formulas
    Atom, Not, And, Or, Forall, Exists.  Implication is desugared at parse
    time.  Quantifier binders are name strings; a Skolem-named binder stores
    the printed encoding as its name.

Paths are tuples of child indices: Not and quantifiers have child 0,
And/Or have children 0 and 1.

The traversal core (subformulas and quantifier_sites in preorder, locate
along one path, fold bottom-up) runs from explicit stacks or loops, so walks
and the comparison of two formulas (paired, on the fold) do not depend on
the recursion limit; the parser and the term walkers still recurse.  The
tokenizer and term parser also read selections, whose leaf _ is punctuation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple


class FormulaError(Exception):
    pass


class ParseError(FormulaError):
    def __init__(self, msg, line=None, col=None):
        if line is not None:
            msg = f"{msg} (line {line}, column {col})"
        super().__init__(msg)
        self.line = line
        self.col = col


class CaptureError(FormulaError):
    """Strict substitution found a variable that would be captured."""


class PathError(FormulaError):
    pass


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class GammaVar:
    name: str  # printed with a leading ?


@dataclass(frozen=True, slots=True)
class SkolemNamedVar:
    encoded: Term


@dataclass(frozen=True, slots=True)
class App:
    sym: str
    skolem: bool
    args: tuple[Term, ...] = ()


Term = Var | GammaVar | SkolemNamedVar | App

DOT = App("@dot", False, ())

_SKOLEM_SYM_RE = re.compile(r"^sk(\d|_|$)")


def is_skolem_symbol(name: str) -> bool:
    return bool(_SKOLEM_SYM_RE.match(name))


@lru_cache(maxsize=None)
def print_term(t: Term) -> str:
    match t:
        case Var(name):
            return name
        case GammaVar(name):
            return "?" + name
        case SkolemNamedVar(encoded):
            return print_term(encoded)
        case App(sym, _, args):
            if not args:
                return sym
            return sym + "(" + ",".join(print_term(a) for a in args) + ")"
    raise TypeError(f"not a term: {t!r}")


def term_var_name(t: Term) -> str:
    """The name under which a variable occurrence is bound or substituted."""
    match t:
        case Var(name):
            return name
        case GammaVar(name):
            return "?" + name
        case SkolemNamedVar(_):
            return print_term(t)
    raise TypeError(f"not a variable: {t!r}")


def term_free_names(t: Term) -> set[str]:
    """Names of variable occurrences in t.  Skolem-named variables count as
    a single opaque name; their encoding is never entered."""
    match t:
        case Var() | GammaVar() | SkolemNamedVar():
            return {term_var_name(t)}
        case App(_, _, args):
            out: set[str] = set()
            for a in args:
                out |= term_free_names(a)
            return out
    raise TypeError(f"not a term: {t!r}")


def substitute_term(t: Term, mapping: dict[str, Term]) -> Term:
    match t:
        case Var() | GammaVar() | SkolemNamedVar():
            return mapping.get(term_var_name(t), t)
        case App(sym, sk, args):
            if not args:
                return t
            return App(sym, sk, tuple(substitute_term(a, mapping) for a in args))
    raise TypeError(f"not a term: {t!r}")


def term_height(t: Term, herbrand: bool = False) -> int:
    """Height of a term.  Standard mode: variables and constants 1,
    f(t1..tk) is 1 + max height of the arguments.  Herbrand mode: plain
    variables, instantiation variables and @dot have height 0, Skolem
    constants keep height 1."""
    match t:
        case Var() | GammaVar():
            return 0 if herbrand else 1
        case SkolemNamedVar(encoded):
            return term_height(encoded, herbrand)
        case App(sym, skolem, args):
            if not args:
                if herbrand:
                    return 0 if sym == "@dot" else 1
                return 1
            return 1 + max(term_height(a, herbrand) for a in args)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# formulas

@dataclass(frozen=True, slots=True)
class Atom:
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True)
class Not:
    sub: Formula


@dataclass(frozen=True, slots=True)
class And:
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Or:
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    body: Formula


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: Formula


Formula = Atom | Not | And | Or | Forall | Exists
Quant = (Forall, Exists)

_PREC = {Or: 1, And: 2, Not: 3, Atom: 4, Forall: 0, Exists: 0}
# the precedence each child place of a connective needs, left to right
_NEED = {Not: (3,), And: (2, 3), Or: (1, 2)}


def print_atom(a: Atom) -> str:
    """The print of one atom, with a binary < written infix."""
    if a.pred == "<" and len(a.args) == 2:
        return f"{print_term(a.args[0])} < {print_term(a.args[1])}"
    return a.pred + ("(" + ",".join(map(print_term, a.args)) + ")" if a.args else "")


def _print_up(g, kids, _):
    t = type(g)
    if t is Atom:
        return print_atom(g)
    if t is Forall or t is Exists:
        return f"{quant_kind(g)} {g.var}. " + kids[0]
    parts = [s if _PREC[type(c)] >= need else "(" + s + ")"
             for c, s, need in zip(children(g), kids, _NEED[t])]
    return "~" + parts[0] if t is Not else (" & " if t is And else " | ").join(parts)


def print_formula(f: Formula) -> str:
    """f with the fewest parentheses its precedences allow."""
    return fold(f, _print_up)


def children(f: Formula) -> tuple[Formula, ...]:
    # tests the type directly, not by a match: every walk calls this per node
    t = type(f)
    if t is And or t is Or:
        return (f.left, f.right)
    if t is Not:
        return (f.sub,)
    return () if t is Atom else (f.body,)


# ---------------------------------------------------------------------------
# the traversal core: every structural walker below is built on these

def quant_kind(q: Formula) -> str:
    """'forall' or 'exists', for a quantifier node."""
    return "forall" if isinstance(q, Forall) else "exists"


def rebuild(g: Formula, *kids: Formula, var: str | None = None) -> Formula:
    """g's connective over new children.  A quantifier keeps its binder
    unless var names a new one; an atom is returned as it is."""
    if isinstance(g, Quant):
        return type(g)(g.var if var is None else var, *kids)
    return type(g)(*kids) if kids else g


def rename_binder(q: Formula, new: str) -> Formula:
    """The quantifier q binding new in place of its variable.  The caller
    makes sure new is not captured in the body."""
    return type(q)(new, substitute(q.body, {q.var: var_for_name(new)}))


def subformulas(f: Formula):
    """Every node of f in preorder, from an explicit stack, so that no walk
    over a deep formula depends on the recursion limit."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(children(g)))


def quantifier_sites(f: Formula):
    """(path, node, sign, accessible) for every quantifier of f in preorder,
    from an explicit stack, with the sign and accessibility locate gives.
    One list holds the path and a tuple is built only at a quantifier, so
    the walk is linear in the size of f."""
    path: list[int] = []  # the steps down to the node last taken
    stack = [(f, 0, 0, 1, True)]  # (node, depth, step, sign, accessible)
    while stack:
        g, depth, step, sign, accessible = stack.pop()
        if depth:
            del path[depth - 1:]
            path.append(step)
        kids = children(g)
        if type(g) is Not:
            sign = -sign
        elif isinstance(g, Quant):
            yield tuple(path), g, sign, accessible
            accessible = False
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], depth + 1, i, sign, accessible))


@dataclass(slots=True)
class Prune:
    """A down hook's answer that ends the descent at a node with its result."""
    result: object


@dataclass(slots=True)
class Swap:
    """A down hook's answer that folds node in place of the current one."""
    node: Formula


@dataclass(slots=True)
class Branch:
    """A down hook's answer: fold the (node, context) pairs as the node's
    children, then hand ctx to its up."""
    pairs: tuple
    ctx: object


def fold(f: Formula, up, down=None, ctx=None):
    """Fold f bottom-up from an explicit stack, so that no walk over a deep
    formula depends on the recursion limit.

    down(g, ctx), when given, runs on each node in preorder and returns the
    context handed to each of g's children, or Prune, Swap or Branch.
    up(g, kids, ctx) runs in post-order with the children's results, left
    to right, and the context down returned for g; it gives g's result."""
    results: list = []
    # (node, context, child count, or None while the node is yet to enter)
    stack: list = [(f, ctx, None)]
    out, take, push, pop = results.append, results.pop, stack.append, stack.pop
    while stack:
        g, c, n = pop()
        if n is None:
            if down is not None:
                c2 = down(g, c)
                t = type(c2)
                if t is Prune:
                    out(c2.result)
                    continue
                if t is Swap:
                    push((c2.node, c, None))
                    continue
                if t is Branch:
                    push((g, c2.ctx, len(c2.pairs)))
                    for k, kc in reversed(c2.pairs):
                        push((k, kc, None))
                    continue
                c = c2
            kids = children(g)
            if not kids:
                out(up(g, (), c))
                continue
            push((g, c, len(kids)))
            for k in reversed(kids):
                push((k, c, None))
        elif 0 < n < 3:
            r = take()
            out(up(g, (r,) if n == 1 else (take(), r), c))
        else:  # a Branch of no pairs, or of more than two
            kids = tuple(results[len(results) - n:])
            del results[len(results) - n:]
            out(up(g, kids, c))
    return results[0]


def map_atoms(f: Formula, fn, stop: str | None = None) -> Formula:
    """f with fn applied to every argument term of every atom.  The scope of
    a quantifier binding stop is left as it is."""

    def down(g, _):
        if isinstance(g, Quant) and g.var == stop:
            return Prune(g)

    def up(g, kids, _):
        if type(g) is Atom:
            return Atom(g.pred, tuple(fn(a) for a in g.args))
        return rebuild(g, *kids)

    return fold(f, up, down)


# ---------------------------------------------------------------------------
# positions

def formula_size(f: Formula) -> int:
    return sum(1 for _ in subformulas(f))


class Site(NamedTuple):
    """A position of a formula, found by one walk down its path."""
    node: Formula
    above: tuple[Formula, ...]  # the nodes from the root down to node's parent
    path: tuple[int, ...]
    sign: int                   # +1 under an even number of negations, else -1
    accessible: bool            # no quantifier stands above node

    def plug(self, new: Formula) -> Formula:
        """The formula with new in place of node."""
        for g, step in zip(reversed(self.above), reversed(self.path)):
            kids = list(children(g))
            kids[step] = new
            new = rebuild(g, *kids)
        return new


def locate(f: Formula, path: tuple[int, ...]) -> Site:
    """The position path names in f, or PathError for a step outside
    0..len(children)-1."""
    above, sign, accessible = [], 1, True
    for i, step in enumerate(path):
        kids = children(f)
        if not 0 <= step < len(kids):
            raise PathError(f"path {'.'.join(map(str, path))} leaves the formula at position {i}")
        if type(f) is Not:
            sign = -sign
        elif isinstance(f, Quant):
            accessible = False
        above.append(f)
        f = kids[step]
    return Site(f, tuple(above), tuple(path), sign, accessible)


def quantifier_positions(f: Formula) -> list[tuple[tuple[int, ...], str, str]]:
    """Preorder list of (path, 'forall'|'exists', binder name)."""
    return [(path, quant_kind(g), g.var) for path, g, _, _ in quantifier_sites(f)]


def is_gamma(kind: str, sign: int) -> bool:
    """Whether a quantifier of this kind ('forall' | 'exists') at a position
    of this polarity (+1 | -1) is gamma: an exists under even negations or a
    forall under odd negations.  Every other quantifier is delta."""
    return (kind == "exists") == (sign > 0)


def classify_quantifier(f: Formula, path: tuple[int, ...]) -> tuple[str, str, bool]:
    """(kind, 'gamma'|'delta', accessible) for the quantifier at path: its
    class by is_gamma, and whether no quantifier stands above it."""
    site = locate(f, path)
    if not isinstance(site.node, Quant):
        raise PathError(f"no quantifier at path {'.'.join(map(str, path)) or '.'}")
    kind = quant_kind(site.node)
    return kind, "gamma" if is_gamma(kind, site.sign) else "delta", site.accessible


def is_quantifier_free(f: Formula) -> bool:
    return not any(isinstance(g, Quant) for g in subformulas(f))


# ---------------------------------------------------------------------------
# variables, substitution

def free_names(f: Formula) -> set[str]:
    """Free variable names of a formula (plain names, ?names, and prints of
    free Skolem-named variables)."""
    return _free_below(f)[0]


def _free_below(f: Formula, names=()) -> tuple[set[str], dict[int, set[str]]]:
    """f's free names and, for the id of each of its quantifier nodes, which
    of names and the node's own variable occur free in its body, from one
    bottom-up fold.  The ids stay the nodes' own while f lives."""
    below: dict[int, set[str]] = {}

    def up(g, kids, _):
        if type(g) is Atom:
            return set().union(*map(term_free_names, g.args))
        out = kids[0]  # each node owns the set its up returned
        if len(kids) == 2:
            out |= kids[1]
        elif isinstance(g, Quant):
            below[id(g)] = out.intersection((g.var, *names))
            out.discard(g.var)
        return out

    return fold(f, up), below


def first_occurrences(f: Formula) -> list[str]:
    """Names of the variable occurrences in f, bound and free alike, each
    once in order of first occurrence (preorder, left to right through atom
    arguments).  A Skolem-named variable counts as a single opaque name."""
    seen: dict[str, None] = {}

    def walk_term(t):
        match t:
            case Var() | GammaVar() | SkolemNamedVar():
                seen.setdefault(term_var_name(t))
            case App(_, _, args):
                for a in args:
                    walk_term(a)

    for g in subformulas(f):
        if isinstance(g, Atom):
            for a in g.args:
                walk_term(a)
    return list(seen)


def free_gamma_vars(f: Formula) -> list[str]:
    """Free instantiation variables in order of first occurrence.  Names are
    returned bare, without the ? prefix."""
    return [nm[1:] for nm in first_occurrences(f) if nm.startswith("?")]


def bound_names(f: Formula) -> set[str]:
    return {g.var for g in subformulas(f) if isinstance(g, Quant)}


def all_names(f: Formula) -> set[str]:
    return free_names(f) | bound_names(f)


def fresh_name(base: str, used: set[str]) -> str:
    # a Skolem-named binder is renamed to a plain name, since a Skolem
    # encoding could read as a Skolem term of the formula
    if base in used and ("(" in base or is_skolem_symbol(base)):
        base = "v"
    if base not in used:
        return base
    i = 1
    while f"{base}_{i}" in used:
        i += 1
    return f"{base}_{i}"


def var_for_name(name: str) -> Term:
    """The variable term a binder of this name binds.  A name that reads as
    a Skolem application denotes a Skolem-named variable."""
    if name.startswith("?"):
        raise FormulaError(f"instantiation variable {name} cannot be bound")
    if "(" in name or is_skolem_symbol(name):
        t = parse_term(name)
        if not (isinstance(t, App) and t.skolem):
            raise FormulaError(f"binder name {name!r} is not a Skolem encoding")
        return SkolemNamedVar(t)
    return Var(name)


def substitute(f: Formula, mapping: dict[str, Term], strict: bool = False) -> Formula:
    """Replace free variable occurrences by terms.  Keys are variable names
    as printed (?names for instantiation variables, full prints for
    Skolem-named variables).

    Lenient mode renames a binder that would capture a variable of an
    incoming term; strict mode raises CaptureError instead."""
    below = None  # from one fold over f, taken when a quantifier first needs it

    def down(g, mp):
        nonlocal below
        if not isinstance(g, Quant):
            return mp
        v, b = g.var, g.body
        live = ()
        if mp.keys() - {v}:
            if below is None:
                below = _free_below(f, mapping.keys())[1]
            live = below.get(id(g))
            if live is None:  # a binder renamed on the way is not in f
                live = free_names(b)
        inner = {k: t for k, t in mp.items() if k != v and k in live}
        if not inner:
            return Prune(g)
        incoming = set().union(*map(term_free_names, inner.values()))
        if v not in incoming:
            return inner
        if strict:
            raise CaptureError(
                f"substitution would capture {v} bound at {print_formula(g)[:60]}")
        # the renamed binder captures nothing, so down passes it next time
        return Swap(rename_binder(g, fresh_name(v, all_names(b) | incoming | set(inner))))

    def up(g, kids, mp):
        if type(g) is Atom:
            return Atom(g.pred, tuple(substitute_term(a, mp) for a in g.args))
        return rebuild(g, *kids)

    return fold(f, up, down, dict(mapping))


# ---------------------------------------------------------------------------
# rectification

def rectify(f: Formula) -> Formula:
    """Rename binders apart and drop vacuous quantifiers.

    Walks in preorder; the first use of a base name is kept, later colliding
    binders get _1, _2, ... suffixes; names colliding with free variables are
    renamed the same way.  A quantifier whose variable does not occur in its
    body is deleted."""
    used, below = _free_below(f)

    # the context is (renaming, the binder name the last quantifier got)
    def down(g, ctx):
        if not isinstance(g, Quant):
            return ctx
        v, b = g.var, g.body
        if not below[id(g)]:  # vacuous
            return Swap(b)
        v2 = fresh_name(v, used)
        used.add(v2)
        env = {k: t for k, t in ctx[0].items() if k != v}
        if v2 != v:
            env[v] = var_for_name(v2)
        return env, v2

    def up(g, kids, ctx):
        if type(g) is Atom:
            return Atom(g.pred, tuple(substitute_term(a, ctx[0]) for a in g.args))
        return rebuild(g, *kids, var=ctx[1])  # a quantifier's own binder

    return fold(f, up, down, ({}, None))


def is_rectified(f: Formula) -> bool:
    seen = set()
    free, below = _free_below(f)

    def down(g, _):
        if isinstance(g, Quant):
            if g.var in seen or g.var in free or not below[id(g)]:
                return Prune(False)
            seen.add(g.var)

    return fold(f, lambda g, kids, _: all(kids), down)


# ---------------------------------------------------------------------------
# comparing two formulas

def paired(f: Formula, g: Formula, term_test=None, binder=None, env=(),
           identity: bool = False) -> bool:
    """Whether g has f's shape, compared on the fold: term_test(s, t, env)
    passes each pair of atom arguments, and binder(p, q, env) each pair of
    quantifiers by giving their bodies' env, not None; by default the
    arguments are equal and the binders one name.  With identity, a node
    paired with itself passes at once."""

    def down(p, ctx):
        q, env = ctx
        t = type(p)
        if identity and p is q:
            return Prune(True)
        if t is not type(q):
            return Prune(False)
        if t is Atom:
            if term_test is None:
                return Prune(p.pred == q.pred and p.args == q.args)
            return Prune(p.pred == q.pred and len(p.args) == len(q.args)
                         and all(term_test(s, u, env) for s, u in zip(p.args, q.args)))
        if t is Not:
            return Branch(((p.sub, (q.sub, env)),), None)
        if t is And or t is Or:
            return Branch(((p.left, (q.left, env)), (p.right, (q.right, env))), None)
        env = binder(p, q, env) if binder else env if p.var == q.var else None
        return Prune(False) if env is None else Branch(((p.body, (q.body, env)),), None)

    return fold(f, lambda g, kids, _: all(kids), down, (g, env))


def equal(f: Formula, g: Formula) -> bool:
    """f == g, compared on the fold."""
    return paired(f, g, identity=True)


def _alpha_term(s: Term, t: Term, env) -> bool:
    """Term comparison under env, which maps each side's bound names to
    levels."""
    envf, envg, _ = env
    if isinstance(s, (Var, SkolemNamedVar)) and isinstance(t, (Var, SkolemNamedVar)):
        sn, tn = term_var_name(s), term_var_name(t)
        return envf.get(sn) == envg.get(tn) if sn in envf or tn in envg else sn == tn
    if isinstance(s, GammaVar) and isinstance(t, GammaVar):
        return s.name == t.name
    return (isinstance(s, App) and isinstance(t, App) and s.sym == t.sym
            and s.skolem == t.skolem and len(s.args) == len(t.args)
            and all(_alpha_term(a, b, env) for a, b in zip(s.args, t.args)))


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Equal up to renaming of bound variables: a binder pair gets its
    depth as the level on each side, so a shadowing binder gets a level of
    its own."""
    return paired(f, g, _alpha_term, lambda p, q, env: (
        {**env[0], p.var: env[2]}, {**env[1], q.var: env[2]}, env[2] + 1),
        ({}, {}, 0))


# ---------------------------------------------------------------------------
# name view helpers

def nameify_term(t: Term) -> Term:
    """Maximal Skolem-headed subterms become Skolem-named variables."""
    match t:
        case App(_, True, _):
            return SkolemNamedVar(t)
        case App(sym, sk, args):
            if not args:
                return t
            return App(sym, sk, tuple(nameify_term(a) for a in args))
        case _:
            return t


def promote_skolem_apps(f: Formula) -> Formula:
    """Turn every maximal Skolem-headed application into a Skolem-named
    variable.  Used when reading formulas of a derivation that works in the
    Skolem-name view, where such terms stand for variables."""
    return map_atoms(f, nameify_term)


# ---------------------------------------------------------------------------
# signature

@dataclass
class Signature:
    functions: dict[str, tuple[int, bool]]  # name -> (arity, skolem flag)
    predicates: dict[str, int]
    free_vars: list[str]   # plain free variable names, first occurrence order
    gamma_vars: list[str]  # free instantiation variable names (bare)
    uses_dot: bool


def collect_signature(f: Formula) -> Signature:
    funcs: dict[str, tuple[int, bool]] = {}
    preds: dict[str, int] = {}
    fvars: list[str] = []
    gvars: list[str] = []
    dot = False

    def walk_term(t, bound):
        nonlocal dot
        match t:
            case Var(name):
                if name not in bound and name not in fvars:
                    fvars.append(name)
            case GammaVar(name):
                if name not in gvars:
                    gvars.append(name)
            case SkolemNamedVar(_):
                nm = print_term(t)
                if nm not in bound and nm not in fvars:
                    fvars.append(nm)
            case App(sym, sk, args):
                if sym == "@dot":
                    dot = True
                else:
                    funcs[sym] = (len(args), sk)
                for a in args:
                    walk_term(a, bound)

    def down(g, bound):
        if isinstance(g, Quant):
            return bound | {g.var}
        if type(g) is Atom:
            preds[g.pred] = len(g.args)
            for a in g.args:
                walk_term(a, bound)
        return bound

    fold(f, lambda g, kids, bound: None, down, frozenset())
    return Signature(funcs, preds, fvars, gvars, dot)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<arrow>->)
  | (?P<gvar>\?[a-z][a-zA-Z0-9_]*)
  | (?P<dot_const>@dot)
  | (?P<kw>\b(?:forall|exists)\b)
  | (?P<ident>[a-z][a-zA-Z0-9_]*)
  | (?P<punct>[().,~&|<_])
""", re.VERBOSE)


# the parser descends by recursion through parentheses, quantifiers and
# function applications; input nested deeper than this is refused, well
# inside the default recursion limit, with an error that names the depth
MAX_NESTING = 100


class _Tokens:
    def __init__(self, text):
        self.toks = []
        self.depth = 0
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            kind = m.lastgroup
            val = m.group()
            if kind != "ws":
                self.toks.append((kind, val, line, col))
            nl = val.count("\n")
            if nl:
                line += nl
                col = len(val) - val.rfind("\n")
            else:
                col += len(val)
            pos = m.end()
        self.toks.append(("eof", "", line, col))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, val):
        kind, v, line, col = self.next()
        if v != val:
            raise ParseError(f"expected {val!r}, found {v or 'end of input'!r}", line, col)

    def error(self, msg):
        _, v, line, col = self.peek()
        raise ParseError(f"{msg}, found {v or 'end of input'!r}", line, col)

    def nest(self, parse):
        """parse(self), one level of nesting deeper."""
        if self.depth == MAX_NESTING:
            _, _, line, col = self.peek()
            raise ParseError(f"input nested deeper than {MAX_NESTING} levels",
                             line, col)
        self.depth += 1
        out = parse(self)
        self.depth -= 1
        return out


def _parse_term(ts: _Tokens) -> Term:
    kind, val, line, col = ts.next()
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
    raise ParseError(f"expected a term, found {val or 'end of input'!r}", line, col)


def _bind_named(body: Formula, name: str, var: Term) -> Formula:
    """Replace, inside the scope of a Skolem-named binder, every term that
    prints as the binder name by the bound variable itself."""

    def conv(t):
        if print_term(t) == name:
            return var
        if isinstance(t, App) and t.args:
            return App(t.sym, t.skolem, tuple(conv(a) for a in t.args))
        return t

    return map_atoms(body, conv, stop=name)


def _parse_unary(ts: _Tokens) -> Formula:
    kind, val, line, col = ts.peek()
    if val == "~":  # counted by a loop, so a long chain parses at any depth
        n = 0
        while ts.peek()[1] == "~":
            ts.next()
            n += 1
        return reduce(lambda f, _: Not(f), range(n), _parse_unary(ts))
    if kind == "kw":
        ts.next()
        bkind, bval, bline, bcol = ts.peek()
        if bkind not in ("ident", "gvar"):
            ts.error("expected a binder name")
        if bkind == "gvar":
            raise ParseError("instantiation variables cannot be bound", bline, bcol)
        binder_term = _parse_term(ts)
        if isinstance(binder_term, Var):
            name = binder_term.name
            var = None
        elif isinstance(binder_term, App) and binder_term.skolem:
            name = print_term(binder_term)
            var = SkolemNamedVar(binder_term)
        else:
            raise ParseError(f"bad binder {print_term(binder_term)!r}", bline, bcol)
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
        raise ParseError(f"{print_term(t)!r} is not a formula", line, col)
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


def _check_arities(f: Formula):
    funcs: dict[str, int] = {}
    preds: dict[str, int] = {}

    def seen(table, other, name, arity, what):
        if name in other:
            raise ParseError(f"{name!r} used both as function and predicate")
        if table.setdefault(name, arity) != arity:
            raise ParseError(
                f"{what} {name!r} used with arities {table[name]} and {arity}")

    def walk_term(t):
        match t:
            case App(sym, _, args) if sym != "@dot":
                seen(funcs, preds, sym, len(args), "function")
                for a in args:
                    walk_term(a)
            case SkolemNamedVar(encoded):
                walk_term(encoded)

    for g in subformulas(f):
        if isinstance(g, Atom):
            if g.pred != "<":
                seen(preds, funcs, g.pred, len(g.args), "predicate")
            for a in g.args:
                walk_term(a)


def parse_formula(text: str) -> Formula:
    ts = _Tokens(text)
    f = _parse_implication(ts)
    if ts.peek()[0] != "eof":
        ts.error("trailing input")
    _check_arities(f)
    return f


def parse_term(text: str) -> Term:
    ts = _Tokens(text)
    t = _parse_term(ts)
    if ts.peek()[0] != "eof":
        ts.error("trailing input")
    return t
