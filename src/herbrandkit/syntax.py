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
    the printed encoding as its name.  == is paired on the fold, and the
    hash and repr are read off the print.

Paths are tuples of child indices: Not and quantifiers have child 0,
And/Or have children 0 and 1.

Terms are hash-consed through one weak-valued table: a structure is made
once, so equality is identity and the hash is the id, and each term is made
with its print, its heights in both conventions and its free names, read off
its children.  The table lets go of a term nothing else holds.

The traversal core (subformulas and quantifier_sites in preorder, locate
along one path, fold bottom-up), the term walks (subterms, rewrite_term)
and the parser (precedence climbing for formulas, a stack of open
applications for terms) run from explicit stacks or loops, so reading,
walking, comparing and hashing formulas do not depend on the recursion
limit.  Free names come from one fold (_free_below), in order of first
free occurrence.  The tokenizer and term parser also read selections,
whose leaf _ is punctuation.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from functools import partial
from typing import KeysView, NamedTuple


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

# the weak-valued table: (class, *fields) -> a weak reference to the one
# live term made of them; a term leaves it when nothing else holds the term
_TERMS: dict[tuple, weakref.ref] = {}


class _Term:
    """A hash-consed term.  Its constructor returns the live term of the
    same class and fields when there is one, so one structure is one object:
    equality is identity and the hash is the id.  A term is made with its
    print (text), its height in both conventions, standard first (heights),
    and the names of its variable occurrences, each once in order of first
    occurrence (names), all read off its children."""
    __slots__ = ("text", "heights", "names", "__weakref__")

    def __setattr__(self, name, *_):
        raise AttributeError(f"a term is immutable: cannot change {name}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"<{type(self).__name__} {self.text}>"

    def __reduce__(self):  # copies and pickles come back through the table
        return type(self), tuple(getattr(self, f) for f in self.__match_args__)


def _make(key, text, heights, names):
    """The term of class key[0] and fields key[1:], with the values it is
    made with, entered in the table."""
    t = object.__new__(key[0])
    for slot, value in zip((*key[0].__match_args__, "text", "heights", "names"),
                           (*key[1:], text, heights, names)):
        object.__setattr__(t, slot, value)
    _TERMS[key] = weakref.ref(
        t, lambda ref: _TERMS.pop(key) if _TERMS.get(key) is ref else None)
    return t


class Var(_Term):
    __slots__ = __match_args__ = ("name",)

    def __new__(cls, name: str):
        r = _TERMS.get(key := (cls, name))
        return r and r() or _make(key, name, (1, 0), (name,))


class GammaVar(_Term):
    __slots__ = __match_args__ = ("name",)  # printed with a leading ?

    def __new__(cls, name: str):
        r = _TERMS.get(key := (cls, name))
        return r and r() or _make(key, "?" + name, (1, 0), ("?" + name,))


class SkolemNamedVar(_Term):
    __slots__ = __match_args__ = ("encoded",)

    def __new__(cls, encoded: Term):
        r = _TERMS.get(key := (cls, encoded))
        return r and r() or _make(key, encoded.text, encoded.heights, (encoded.text,))


class App(_Term):
    __slots__ = __match_args__ = ("sym", "skolem", "args")

    def __new__(cls, sym: str, skolem: bool, args: tuple[Term, ...] = ()):
        args = tuple(args)
        r = _TERMS.get(key := (cls, sym, skolem, args))
        if r and (t := r()):
            return t
        if not args:  # Herbrand's heights give @dot 0
            return _make(key, sym, (1, int(sym != "@dot")), ())
        return _make(
            key, f"{sym}({','.join(a.text for a in args)})",
            (1 + max(a.heights[0] for a in args), 1 + max(a.heights[1] for a in args)),
            args[0].names if len(args) == 1
            else tuple(dict.fromkeys(n for a in args for n in a.names)))


Term = Var | GammaVar | SkolemNamedVar | App

DOT = App("@dot", False, ())

_SKOLEM_SYM_RE = re.compile(r"^sk(\d|_|$)")


def is_skolem_symbol(name: str) -> bool:
    return bool(_SKOLEM_SYM_RE.match(name))


def print_term(t: Term) -> str:
    """The print t was made with."""
    return t.text


def term_var_name(t: Term) -> str:
    """The name under which a variable occurrence is bound or substituted."""
    if type(t) is App:
        raise TypeError(f"not a variable: {t!r}")
    return t.text


def term_free_names(t: Term) -> set[str]:
    """Names of variable occurrences in t.  Skolem-named variables count as
    a single opaque name; their encoding is never entered."""
    return set(t.names)


def substitute_term(t: Term, mapping: dict[str, Term]) -> Term:
    """t with each variable occurrence named in mapping replaced by its term."""
    return rewrite_term(t, lambda s: s if mapping.keys().isdisjoint(s.names)
                        else None if type(s) is App else mapping[s.text])


def subterms(t: Term, encodings: bool = False):
    """Every subterm of t in preorder, from an explicit stack.  A Skolem-named
    variable is a leaf unless encodings asks for its encoding after it."""
    stack = [t]
    while stack:
        s = stack.pop()
        yield s
        if type(s) is App:
            stack.extend(reversed(s.args))
        elif encodings and type(s) is SkolemNamedVar:
            stack.append(s.encoded)


def rewrite_term(t: Term, fn) -> Term:
    """t with each outermost subterm s for which fn(s) is not None replaced
    by fn(s), rebuilt from an explicit stack."""
    out: list[Term] = []
    stack = [(t, None)]
    while stack:
        s, n = stack.pop()
        if n is not None:  # the last n terms of out are s's new arguments
            out[len(out) - n:] = [App(s.sym, s.skolem, out[len(out) - n:])]
        elif (r := fn(s)) is not None or type(s) is not App:
            out.append(s if r is None else r)
        else:
            stack.append((s, len(s.args)))
            stack.extend((a, None) for a in reversed(s.args))
    return out[0]


def term_height(t: Term, herbrand: bool = False) -> int:
    """Height of a term.  Standard mode: variables and constants 1,
    f(t1..tk) is 1 + max height of the arguments.  Herbrand mode: plain
    variables, instantiation variables and @dot have height 0, Skolem
    constants keep height 1."""
    return t.heights[herbrand]


# ---------------------------------------------------------------------------
# formulas

class _Formula:
    """What the six formula classes share, none of it recursive: == is
    paired on the fold, the hash is the hash of the print, and the repr
    shows the print, <Or p | q>."""
    __slots__ = ()

    def __eq__(self, other):
        return paired(self, other) if isinstance(other, _Formula) else NotImplemented

    def __hash__(self):
        return hash(fold(self, _print_up))

    def __repr__(self):
        return f"<{type(self).__name__} {fold(self, _print_up)}>"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Atom(_Formula):
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Not(_Formula):
    sub: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class And(_Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Or(_Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Forall(_Formula):
    var: str
    body: Formula


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class Exists(_Formula):
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

def free_names(f: Formula) -> KeysView[str]:
    """Free variable names of a formula (plain names, ?names, and prints of
    free Skolem-named variables, each one opaque name) in order of first
    free occurrence: preorder, left to right through atom arguments."""
    return _free_below(f)[0].keys()


def _free_below(f: Formula, names=()) -> tuple[dict[str, None], dict[int, set[str]]]:
    """f's free names as the keys of a dict, in free_names' order, and, for
    the id of each quantifier node, which of names and the node's variable
    occur free in its body, from one fold.  The ids stay while f lives."""
    below: dict[int, set[str]] = {}

    def up(g, kids, _):
        if type(g) is Atom:
            return {n: None for a in g.args for n in a.names}
        out = kids[0]  # each node owns the dict its up returned
        if len(kids) == 2:
            out |= kids[1]
        elif isinstance(g, Quant):
            below[id(g)] = (out.keys() & names) | (out.keys() & {g.var})
            out.pop(g.var, None)
        return out

    return fold(f, up), below


def free_gamma_vars(f: Formula) -> list[str]:
    """Free instantiation variables in order of first occurrence.  Names are
    returned bare, without the ? prefix."""
    return [nm[1:] for nm in free_names(f) if nm.startswith("?")]


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
    free, below = _free_below(f)
    used = set(free)

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

def paired(f: Formula, g: Formula, term_test=None, binder=None, env=()) -> bool:
    """Whether g has f's shape, compared on the fold: term_test(s, t, env)
    passes each pair of atom arguments, and binder(p, q, env) each pair of
    quantifiers by giving their bodies' env, not None.  By default the
    arguments are equal and the binders one name, which is f == g, and a
    node paired with itself passes at once."""
    identity = term_test is None and binder is None

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


def _alpha_term(s: Term, t: Term, env) -> bool:
    """Term comparison under env, which maps each side's bound names to
    levels: each side's bound variables become one variable per level, that
    no name spells, and the two sides must then be one term."""
    envf, envg, _ = env
    return (substitute_term(s, {n: Var(f"{envf[n]}.") for n in s.names if n in envf})
            is substitute_term(t, {n: Var(f"{envg[n]}.") for n in t.names if n in envg}))


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
    return rewrite_term(t, lambda s: s if type(s) is not App
                        else SkolemNamedVar(s) if s.skolem else None)


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
    """f's signature from one preorder walk on an explicit stack, which
    counts the binders of each name open above the node: free names in
    free_names' order, functions and predicates in order of first
    occurrence."""
    funcs: dict[str, tuple[int, bool]] = {}
    preds: dict[str, int] = {}
    free: dict[str, None] = {}
    bound: dict[str, int] = {}
    dot = False
    stack: list = [f]
    while stack:
        g = stack.pop()
        if type(g) is str:  # leaving the scope of a binder of this name
            bound[g] -= 1
        elif type(g) is Atom:
            preds[g.pred] = len(g.args)
            free.update((n, None) for a in g.args for n in a.names if not bound.get(n))
            apps = [s for a in g.args for s in subterms(a) if type(s) is App]
            funcs.update((s.sym, (len(s.args), s.skolem)) for s in apps if s.sym != "@dot")
            dot = dot or any(s.sym == "@dot" for s in apps)
        elif isinstance(g, Quant):
            bound[g.var] = bound.get(g.var, 0) + 1
            stack += (g.var, g.body)
        else:
            stack.extend(reversed(children(g)))
    return Signature(funcs, preds, [n for n in free if n[0] != "?"],
                     [n[1:] for n in free if n[0] == "?"], dot)


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


class _Tokens:
    def __init__(self, text):
        self.toks = []
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


def _parse_term(ts: _Tokens) -> Term:
    """One term, read from an explicit stack of the applications still open,
    each with the arguments read so far, so that any depth reads."""
    stack: list[tuple[str, list[Term]]] = []
    while True:
        kind, val, line, col = ts.next()
        if kind == "gvar":
            t = GammaVar(val[1:])
        elif kind == "dot_const":
            t = DOT
        elif kind != "ident":
            raise ParseError(f"expected a term, found {val or 'end of input'!r}",
                             line, col)
        elif ts.peek()[1] == "(":
            ts.next()
            stack.append((val, []))
            continue
        else:
            t = App(val, True, ()) if is_skolem_symbol(val) else Var(val)
        while stack:  # t completes an argument: read a , or close with )
            sym, args = stack[-1]
            args.append(t)
            if ts.peek()[1] == ",":
                ts.next()
                break
            ts.expect(")")
            stack.pop()
            t = App(sym, is_skolem_symbol(sym), tuple(args))
        else:
            return t


def _bind_named(body: Formula, name: str, var: Term) -> Formula:
    """Replace, inside the scope of a Skolem-named binder, every term that
    prints as the binder name by the bound variable itself."""
    return map_atoms(body, lambda t: rewrite_term(
        t, lambda s: var if s.text == name else None), stop=name)


# the binary connectives: precedence and the formula each makes; all group
# to the left, and -> is desugared
_CONNECTIVES = {"->": (0, lambda a, b: Or(Not(a), b)), "|": (1, Or), "&": (2, And)}


def _quantify(kw: str, binder: Term, body: Formula) -> Formula:
    if type(binder) is App:  # a Skolem-named binder
        body = _bind_named(body, binder.text, SkolemNamedVar(binder))
    return (Forall if kw == "forall" else Exists)(binder.text, body)


def _parse_formula(ts: _Tokens) -> Formula:
    """One formula, read by precedence climbing from an explicit stack, so
    that any depth reads.  An open operator waits there as (precedence, the
    function that closes it over its right operand): ~ above every
    connective, a connective with its left operand at its own precedence, a
    quantifier below them all, so that its body extends to the right over
    every connective, and ( lowest, closed only by its )."""
    stack: list[tuple[int, object]] = []
    while True:
        kind, val, line, col = ts.peek()
        if val in ("~", "("):
            ts.next()
            stack.append((3, Not) if val == "~" else (-2, None))
            continue
        if kind == "kw":
            ts.next()
            bkind, _, bline, bcol = ts.peek()
            if bkind not in ("ident", "gvar"):
                ts.error("expected a binder name")
            if bkind == "gvar":
                raise ParseError("instantiation variables cannot be bound", bline, bcol)
            binder = _parse_term(ts)
            if not (type(binder) is Var or type(binder) is App and binder.skolem):
                raise ParseError(f"bad binder {print_term(binder)!r}", bline, bcol)
            ts.expect(".")
            stack.append((-1, partial(_quantify, val, binder)))
            continue
        if kind not in ("ident", "gvar", "dot_const"):
            ts.error("expected a formula")
        t = _parse_term(ts)
        if ts.peek()[1] == "<":
            ts.next()
            f = Atom("<", (t, _parse_term(ts)))
        else:
            match t:
                case App(sym, False, args) if args:
                    f = Atom(sym, args)
                case Var(name):
                    f = Atom(name, ())
                case _:
                    raise ParseError(f"{print_term(t)!r} is not a formula", line, col)
        while True:  # f is complete: close what the next token ends
            prec, make = _CONNECTIVES.get(ts.peek()[1], (-1, None))
            while stack and stack[-1][0] >= prec:
                f = stack.pop()[1](f)
            if make is not None:
                ts.next()
                stack.append((prec, partial(make, f)))
                break
            if not stack:
                return f
            ts.expect(")")
            stack.pop()


def _check_arities(f: Formula):
    funcs: dict[str, int] = {}
    preds: dict[str, int] = {}

    def seen(table, other, name, arity, what):
        if name in other:
            raise ParseError(f"{name!r} used both as function and predicate")
        if table.setdefault(name, arity) != arity:
            raise ParseError(
                f"{what} {name!r} used with arities {table[name]} and {arity}")

    for g in subformulas(f):
        if isinstance(g, Atom):
            if g.pred != "<":
                seen(preds, funcs, g.pred, len(g.args), "predicate")
            for t in (t for a in g.args for t in subterms(a, encodings=True)):
                if type(t) is App and t.sym != "@dot":
                    seen(funcs, preds, t.sym, len(t.args), "function")


def parse_formula(text: str) -> Formula:
    ts = _Tokens(text)
    f = _parse_formula(ts)
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
