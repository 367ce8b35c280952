"""Champs finis and expansions.

The champ of order n over a formula's free symbols is the set of terms of
height strictly below n.  Expanding a formula over a term list replaces an
existential quantifier by the disjunction of the instances and a universal
quantifier by the conjunction; a sub-expansion expands every quantifier over
a chosen nonempty subset of terms, chosen per branch via a selection tree
mirroring the quantifier skeleton.  The full expansion is the sub-expansion
along full_selection, which chooses every term at every quantifier.

Both are made by one walk along a selection (_walk), from an explicit
stack, with a builder passed in.  Each instance is made once, at the
quantifier-free leaves, under the environment of the chosen terms, and each
quantifier's instances are joined, left nested, as they close.  Each
distinct leaf is compiled once per walk (taut.compile_leaf).  The formula
builder makes Formula objects (expand, build_sub_expansion).  The literal
builder (abstraction, which property_c reads) grounds straight into taut's
propositional abstraction (taut.ground), filling the leaf's atom templates
from the term prints of the environment, so no Atom, Term or substitute is
made per instance.  The node and leaf counts are one fold (expansion_counts).
A full expansion whose negation has a Horn clausal form is not built at all:
horn_tautology decides it by forward chaining over the term list, unless its
ground clause instances or join tries outnumber the expansion's nodes.

Selections compare, hash and print from explicit stacks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import neg

from .syntax import (
    And, App, Atom, DOT, Forall, Formula, FormulaError, GammaVar, Not, Or,
    Quant, SkolemNamedVar, Term, Var, _parse_term, _Tokens, bound_names,
    children, collect_signature, fold, is_gamma, parse_term, print_term,
    quant_kind, substitute, substitute_term, term_free_names, term_height,
    var_for_name,
)
from .taut import compile_leaf, ground, numbering

DEFAULT_BUDGET = 10_000_000


class ExpansionError(FormulaError):
    pass


class BudgetError(ExpansionError):
    """The enumeration or expansion would exceed the configured size guard."""


# ---------------------------------------------------------------------------
# champs finis

def term_order_key(t: Term, herbrand: bool = False):
    return (term_height(t, herbrand), print_term(t))


@dataclass(frozen=True)
class ChampFini:
    order: int
    herbrand: bool
    terms: tuple[Term, ...]  # sorted by (height, print)

    def __contains__(self, t: Term) -> bool:
        return t in self._set

    def __len__(self) -> int:
        return len(self.terms)

    @cached_property
    def _set(self) -> frozenset[Term]:
        return frozenset(self.terms)


def champ(f: Formula, order: int, herbrand: bool = False,
          budget: int = DEFAULT_BUDGET) -> ChampFini:
    """All terms of height < order over the formula's free symbols: its
    function symbols, its constants and free variables, with the fresh
    constant @dot thrown in exactly when there is no constant or free
    variable to start from.  Only the signature is read, and each distinct
    champ is built once per process and shared by every caller."""
    if order < 1:
        raise ExpansionError(f"champ order must be at least 1, got {order}")
    sig = collect_signature(f)
    base: list[Term] = []
    for name, (arity, sk) in sorted(sig.functions.items()):
        if arity == 0:
            base.append(App(name, sk, ()))
    for name in sig.free_vars:
        base.append(var_for_name(name) if "(" in name else Var(name))
    for name in sig.gamma_vars:
        base.append(GammaVar(name))
    if sig.uses_dot or not base:
        base.append(DOT)
    funcs = tuple((name, arity, sk) for name, (arity, sk)
                  in sorted(sig.functions.items()) if arity >= 1)
    return _build_champ(funcs, tuple(base), order, herbrand, budget)


# distinct champs kept per process; a champ is immutable, so callers share it
_CHAMP_MEMO_SIZE = 32


@lru_cache(maxsize=_CHAMP_MEMO_SIZE)
def _build_champ(funcs, base, order, herbrand, budget) -> ChampFini:
    # Semi-naive passes: each applies every function symbol to the terms
    # found so far, but builds only the tuples that hold a term the last
    # pass found (fresh), taking the first one at position p and older
    # terms before it.  Each such tuple gives a new, distinct term; tuples
    # of older terms alone were built in an earlier pass.  An argument of
    # height order-1 would give a term of height order, so the argument
    # pools hold only terms of height order-2 or less.  Terms are kept as
    # (term, nodes).
    found = [(t, 1) for t in base if term_height(t, herbrand) < order]  # one node each
    nodes = len(found)
    old: list[tuple[Term, int]] = []
    fresh = [x for x in found if term_height(x[0], herbrand) <= order - 2]
    last = len(found)  # terms found by the last pass
    while last:
        known = len(found)
        pool = old + fresh
        for name, arity, sk in funcs:
            if known ** arity > budget:
                raise BudgetError(
                    f"champ enumeration over {known} terms with {name}/{arity} "
                    f"exceeds the size guard of {budget}")
            for p in range(arity):
                for args in itertools.product(
                        *[old] * p, fresh, *[pool] * (arity - p - 1)):
                    ts, ns = zip(*args)
                    n = 1 + sum(ns)
                    found.append((App(name, sk, ts), n))
                    nodes += n
                    if nodes > budget:
                        raise BudgetError(
                            f"champ enumeration exceeds the size guard of {budget} nodes")
        last = len(found) - known
        old = pool
        fresh = [x for x in found[known:] if term_height(x[0], herbrand) <= order - 2]
    return ChampFini(order, herbrand, tuple(sorted(
        (t for t, _ in found), key=lambda t: term_order_key(t, herbrand))))


# ---------------------------------------------------------------------------
# full expansion

def expansion_counts(f: Formula, n_terms: int) -> tuple[int, int]:
    """The exact node count of the expansion of f over n_terms terms, and
    its number of instances of f's maximal quantifier-free subformulas,
    from one fold that builds nothing.  Over no terms, a quantifier raises
    expand's ExpansionError."""

    # (nodes, leaves); 0 leaves marks a quantifier-free subformula, one leaf
    def up(g, kids, _):
        t = type(g)
        if t is Atom:
            return 1, 0
        if t is Not:
            nodes, leaves = kids[0]
            return nodes + 1, leaves
        if t is And or t is Or:
            (a, x), (b, y) = kids
            return a + b + 1, (x or 1) + (y or 1) if x or y else 0
        if not n_terms:
            raise ExpansionError("expansion over an empty term list is "
                                 "undefined for a formula with quantifiers")
        nodes, leaves = kids[0]
        return n_terms * nodes + n_terms - 1, n_terms * (leaves or 1)

    nodes, leaves = fold(f, up)
    return nodes, leaves or 1


def expand(f: Formula, terms, budget: int = DEFAULT_BUDGET,
           herbrand: bool = False) -> Formula:
    """The expansion of f over a term list: every exists becomes the
    disjunction, every forall the conjunction, of the instances, recursively
    over the same terms.  Instances are ordered canonically.  This is the
    sub-expansion along full_selection(f, terms)."""
    if isinstance(terms, ChampFini):
        terms = terms.terms  # distinct and in canonical order already
    else:
        terms = tuple(sorted(set(terms), key=lambda t: term_order_key(t, herbrand)))
    total = expansion_counts(f, len(terms))[0]
    if not terms:
        return f
    if total > budget:
        raise BudgetError(
            f"expansion would have {total} nodes, over the size guard of {budget}")
    return _walk(f, full_selection(f, terms), budget)


# ---------------------------------------------------------------------------
# selection trees

class _Sel:
    """What the selection classes share, none of it recursive: == compares
    two trees node by node from an explicit stack, and the hash and repr
    read the print."""
    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, _Sel):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or type(a) is SelQuant and (
                    (a.kind, a.var, a.terms) != (b.kind, b.var, b.terms)):
                return False
            ka, kb = _sel_children(a), _sel_children(b)
            if len(ka) != len(kb):
                return False
            stack += zip(ka, kb)
        return True

    def __hash__(self):
        return hash(print_selection(self))

    def __repr__(self):
        return f"<{type(self).__name__} {print_selection(self)}>"


@dataclass(frozen=True, eq=False, repr=False)
class SelLeaf(_Sel):
    pass


@dataclass(frozen=True, eq=False, repr=False)
class SelNot(_Sel):
    sub: "Selection"


@dataclass(frozen=True, eq=False, repr=False)
class SelAnd(_Sel):
    left: "Selection"
    right: "Selection"


@dataclass(frozen=True, eq=False, repr=False)
class SelOr(_Sel):
    left: "Selection"
    right: "Selection"


@dataclass(frozen=True, eq=False, repr=False)
class SelQuant(_Sel):
    kind: str  # forall | exists
    var: str
    terms: tuple[Term, ...]
    branches: tuple["Selection", ...]  # one per term


Selection = SelLeaf | SelNot | SelAnd | SelOr | SelQuant
LEAF = SelLeaf()


class SelectionError(ExpansionError):
    pass


_NODES = {"not": SelNot, "and": SelAnd, "or": SelOr}


def _sel_children(s: Selection) -> tuple[Selection, ...]:
    match s:
        case SelNot(sub):
            return (sub,)
        case SelAnd(l, r) | SelOr(l, r):
            return (l, r)
        case SelQuant():
            return s.branches
    return ()


def parse_selection(text: str) -> Selection:
    """Read a selection in its s-expression syntax (see the README), where
    a ; comments out the rest of its line.  Terms and binders are read in
    the same token stream as formulas, and open nodes wait on an explicit
    stack, so any depth reads."""
    ts = _Tokens("\n".join(line.partition(";")[0] for line in text.split("\n")))

    def take():
        kind, val, _ = ts.next()
        if kind == "eof":
            raise SelectionError("unexpected end of selection")
        return val

    def term():
        # a term ends at whitespace: in "x (c)" the list is not x's arguments
        _, val, pos = ts.peek()
        after = ts.toks[min(ts.i + 1, len(ts.toks) - 1)]
        if after[1] == "(" and after[2] != pos + len(val):
            return parse_term(ts.next()[1])
        return _parse_term(ts)

    # an open node is [head, binder, terms, children read so far]; the one
    # at the bottom takes the whole selection as its only child
    stack = [[None, None, (), []]]
    while not stack[0][3]:
        t = take()
        head, var, terms, kids = stack[-1]
        full = head in _NODES and len(kids) == (1 if head == "not" else 2)
        if full and t != ")":
            raise SelectionError("expected ) in selection")
        if t == ")" and (full or head in ("forall", "exists")):
            if not full and len(kids) not in (0, 1, len(terms)):
                raise SelectionError(
                    f"quantifier {var} lists {len(terms)} terms but "
                    f"{len(kids)} sub-selections")
            stack.pop()
            stack[-1][3].append(_NODES[head](*kids) if full else SelQuant(
                head, var, terms, tuple(kids) if len(kids) > 1
                else (kids[0] if kids else LEAF,) * len(terms)))
        elif t == "_":
            kids.append(LEAF)
        elif t != "(":
            raise SelectionError(f"expected ( or _, found {t!r}")
        elif (head := take()) in _NODES:
            stack.append([head, None, (), []])
        elif head not in ("forall", "exists"):
            raise SelectionError(f"unknown selection node {head!r}")
        else:
            var = print_term(term())
            if take() != "(":
                raise SelectionError(f"expected a term list after {head} {var}")
            terms = []
            while ts.peek()[1] != ")":
                if ts.peek()[0] == "eof":
                    raise SelectionError("unclosed term list")
                terms.append(term())
            ts.next()
            if not terms:
                raise SelectionError(f"empty term list at quantifier {var}")
            stack.append([head, var, tuple(terms), []])
    if ts.peek()[0] != "eof":
        raise SelectionError("trailing input in selection")
    return stack[0][3][0]


def print_selection(s: Selection) -> str:
    """The s-expression of s, each node printed after its children from an
    explicit stack.  A quantifier whose branches print alike prints one
    branch, shared by every term; selections read from text print alike
    exactly when they are equal."""
    heads = {cls: head for head, cls in _NODES.items()}
    done: list[str] = []  # printed nodes whose parent is not printed yet
    stack = [(s, False)]
    while stack:
        node, ready = stack.pop()
        kids = _sel_children(node)
        if isinstance(node, SelQuant) and all(k is kids[0] for k in kids):
            kids = kids[:1]  # a branch shared by every term prints once
        if not ready:
            stack += [(node, True)] + [(k, False) for k in reversed(kids)]
            continue
        texts = done[len(done) - len(kids):]
        del done[len(done) - len(kids):]
        head = heads.get(type(node))
        if isinstance(node, SelQuant):
            texts = texts[:1] if len(set(texts)) == 1 else texts
            head = f"{node.kind} {node.var} ({' '.join(map(print_term, node.terms))})"
        done.append(f"({' '.join([head, *texts])})" if head else "_")
    return done[0]


def selection_terms(s: Selection) -> list[Term]:
    """The chosen terms in preorder, each quantifier's before its branches'."""
    out, stack = [], [s]
    while stack:
        node = stack.pop()
        if isinstance(node, SelQuant):
            out += node.terms
        stack += reversed(_sel_children(node))
    return out


def selection_within(s: Selection, ch: ChampFini) -> tuple[bool, list[Term]]:
    """Whether every chosen term lies in the champ; also the offenders."""
    offenders = [t for t in selection_terms(s) if t not in ch]
    return not offenders, offenders


def match_selection(f: Formula, sel: Selection,
                    var: str | None = None) -> tuple[Selection, ...]:
    """The selections for the children of f, after checking that sel fits
    f's shape; a leaf passes leaves down to a negation or a junction.  A
    quantifier is taken to be gamma (a delta-quantifier hands its selection
    on to its body, so callers do not ask): sel must name its kind and the
    binder var (by default its own) and choose a nonempty list of witness
    terms, and the result holds one branch per witness."""
    match f:
        case Atom(p, _):
            if not isinstance(sel, SelLeaf):
                raise SelectionError(
                    f"selection shape mismatch: choices given for the atom {p}")
            return ()
        case Not():
            if isinstance(sel, SelLeaf):
                return (LEAF,)
            if isinstance(sel, SelNot):
                return (sel.sub,)
            raise SelectionError("selection shape mismatch under a negation")
        case And() | Or():
            if isinstance(sel, SelLeaf):
                return (LEAF, LEAF)
            if isinstance(sel, SelAnd if isinstance(f, And) else SelOr):
                return (sel.left, sel.right)
            raise SelectionError("selection shape mismatch at a junction")
    kind = quant_kind(f)
    v = f.var
    if isinstance(sel, SelLeaf):
        raise SelectionError(
            f"the selection chooses no witness terms for {kind} {v}")
    if (not isinstance(sel, SelQuant) or sel.kind != kind
            or sel.var != (v if var is None else var)):
        raise SelectionError(f"selection shape mismatch at {kind} {v}")
    if not sel.terms:
        raise SelectionError(f"empty term list at quantifier {v}")
    if len(sel.branches) != len(sel.terms):
        raise SelectionError(
            f"quantifier {v} lists {len(sel.terms)} terms but "
            f"{len(sel.branches)} sub-selections: need one selection branch "
            f"per witness term for {v}")
    return sel.branches


def full_selection(f: Formula, terms) -> Selection:
    """The selection that chooses every one of terms, as given, at every
    quantifier of f, with a leaf at each quantifier-free subformula: the
    sub-expansion along it is the expansion over terms."""
    terms = tuple(terms)
    nodes = {Not: SelNot, And: SelAnd, Or: SelOr}

    def up(g, kids, _):
        if isinstance(g, Quant):
            return SelQuant(quant_kind(g), g.var, terms, kids * len(terms))
        if all(k is LEAF for k in kids):
            return LEAF
        return nodes[type(g)](*kids)

    return fold(f, up)


def build_sub_expansion(f: Formula, sel: Selection,
                        budget: int = DEFAULT_BUDGET) -> Formula:
    """Expand each quantifier over its per-branch chosen terms.  The
    selection must mirror the formula's skeleton down to quantifier-free
    subformulas; chosen terms must not use variables bound in the formula."""
    clash = bound_names(f) & set().union(*map(term_free_names, selection_terms(sel)))
    if clash:
        raise SelectionError(
            "selection terms use bound variable names: " + ", ".join(sorted(clash)))
    return _walk(f, sel, budget)


def abstraction(f: Formula, sel: Selection,
                budget: int = DEFAULT_BUDGET) -> tuple[list, int]:
    """taut's propositional abstraction (nodes, root) of the sub-expansion
    of f along sel, grounded by the walk's literal builder without building
    the expansion: equal to taut._abstract of build_sub_expansion(f, sel,
    budget), and guarded alike.  Unlike build_sub_expansion it does not
    check sel's terms against f's binders."""
    nodes, number = numbering()
    return nodes, _walk(f, sel, budget, (
        lambda g, ops, env: ground(ops, env, number), neg,
        lambda cls, a, b: number((cls, a, b)), print_term))


def horn_tautology(f: Formula, terms, limit: int) -> bool | None:
    """Whether the expansion of f over terms is a tautology, decided without
    building it when the clausal form of f's negation is Horn; None, for
    the CDCL route, when a quantifier is not gamma, a clause has two
    positive literals, or the form has more than limit clauses, ground
    clause instances or join tries.

    In the negation normal form of ~f every gamma quantifier is universal,
    and f is rectified, so each binder is a clause variable that ranges over
    terms; every other name is a constant.  The expansion is a tautology
    exactly when the ground instances of the clauses are unsatisfiable,
    which on Horn clauses is semi-naive forward chaining (Dowling & Gallier
    1984): each new fact is matched against every body atom and joined with
    the facts matched there before, a clause whose body holds adds its head,
    a clause with no head (a goal) that fires refutes, and a fixpoint does
    not.  A variable binds only a term of terms, so a fact that no body atom
    matches, such as x < sk_m(x,y) with sk_m(x,y) beyond the champ, is
    dropped.  limit is the expansion's node count, and the form goes back
    to CDCL when its ground clause instances, which bound the head
    instances made, or the filed facts tried in joins outnumber it: so the
    chaining does no more work than grounding would.  A ground atom is told
    apart by its predicate and argument prints, as taut tells atoms
    apart."""
    def sign(g, s):  # g's polarity in f, from its parent's
        return -s if type(g) is Not else s

    # the shape of ~f's clausal form below each node: (the most positive
    # literals in one clause, the number of clauses), so that no clause is
    # built for a form that is not Horn or too large
    def shape(g, kids, s):
        t = type(g)
        if t is Atom:
            return (int(s < 0), 1)
        if t is not And and t is not Or:  # Not, or a quantifier
            return kids[0] if t is Not or is_gamma(quant_kind(g), s) else None
        if None in kids:
            return None
        (pa, na), (pb, nb) = kids
        return ((max(pa, pb), na + nb) if (t is Or) == (s > 0)  # a conjunction
                else (pa + pb, na * nb))

    # a clause of ~f: (its positive atom or None, its negated atoms)
    def clausal(g, kids, s):
        t = type(g)
        if t is Atom:
            return [(g, ()) if s < 0 else (None, (g,))]
        if t is not And and t is not Or:
            return kids[0]
        a, b = kids
        if (t is Or) == (s > 0):
            return a + b
        return [(ha or hb, ba + bb) for ha, ba in a for hb, bb in b]

    form = fold(f, shape, sign, 1)
    if form is None or form[0] > 1 or form[1] > limit:
        return None
    clauses = fold(f, clausal, sign, 1)
    names = bound_names(f)
    pool = {t.text: t for t in terms}  # a term of each distinct print

    def variables(*atoms):
        return [n for n in dict.fromkeys(n for a in atoms for t in a.args
                                         for n in t.names) if n in names]

    heads, bodies = [], []  # per clause: (predicate, args, head-only vars)
    sites: dict = {}        # (predicate, arity) -> [(clause, index, args)]
    matched: dict = {}      # (clause, index) -> {(var, print) or None: envs}
    instances = 0           # ground clause instances, which bound the heads made
    for c, (head, body) in enumerate(clauses):
        bodies.append([variables(a) for a in body])
        bound_by_body = variables(*body)
        free = [v for v in variables(head) if v not in bound_by_body] if head else []
        heads.append(head and (head.pred, head.args, free))
        instances += len(pool) ** (len(bound_by_body) + len(free))
        for j, a in enumerate(body):
            sites.setdefault((a.pred, len(a.args)), []).append((c, j, a.args))
    if instances > limit:
        return None
    # per (predicate, arity): the argument places where every body atom has
    # a clause variable, so that a fact with no term of terms there matches
    # no body atom and is not queued
    tight = {key: [i for i in range(key[1]) if all(
        type(args[i]) is not App and not names.isdisjoint(args[i].names)
        for _, _, args in at)] for key, at in sites.items()}

    def match(args, got, env) -> bool:
        stack = list(zip(args, got))
        while stack:
            p, s = stack.pop()
            if names.isdisjoint(p.names):
                if p.text != s.text:
                    return False
            elif type(p) is not App:  # a clause variable
                if env.setdefault(p.text, s).text != s.text or s.text not in pool:
                    return False
            else:
                while type(s) is SkolemNamedVar:  # which prints as its encoding
                    s = s.encoded
                if type(s) is not App or s.sym != p.sym or len(s.args) != len(p.args):
                    return False
                stack += zip(p.args, s.args)
        return True

    seen, queue, tries = set(), [], 0

    def fire(c, env) -> bool:  # whether c is a goal; else its heads are queued
        if heads[c] is None:
            return True
        pred, args, free = heads[c]
        for combo in itertools.product(pool.values(), repeat=len(free)):
            e = env | dict(zip(free, combo)) if free else env
            got = tuple(substitute_term(t, e) for t in args)
            if any(got[i].text not in pool for i in tight.get((pred, len(got)), ())):
                continue
            if (key := (pred, tuple(t.text for t in got))) not in seen:
                seen.add(key)
                queue.append((pred, got))
        return False

    # whether a goal fires from env at body atom i of c, None past limit tries
    def join(c, i, env) -> bool | None:
        nonlocal tries
        rest = [j for j in range(len(bodies[c])) if j != i]
        stack = [(0, env)]
        while stack:
            k, env = stack.pop()
            if k == len(rest):
                if fire(c, env):
                    return True
                continue
            j = rest[k]
            key = next(((v, env[v].text) for v in bodies[c][j] if v in env), None)
            tried = matched.get((c, j), {}).get(key, ())
            tries += len(tried)
            if tries > limit:
                return None
            stack += [(k + 1, env | e) for e in tried
                      if all(env.get(v, x).text == x.text for v, x in e.items())]
        return False

    if any(not bodies[c] and fire(c, {}) for c in range(len(clauses))):
        return True
    # a fact is filed at each body atom it matches before it joins from
    # there, so an instance that holds it at several atoms is found once
    # it is filed at the last of them
    while queue:
        pred, got = queue.pop()
        for c, j, args in sites.get((pred, len(got)), ()):
            env: dict = {}
            if match(args, got, env):
                index = matched.setdefault((c, j), {})
                for key in (None, *((v, t.text) for v, t in env.items())):
                    index.setdefault(key, []).append(env)
                if (r := join(c, j, env)) is not False:
                    return r
    return False


# the walk's formula builder: a leaf is instantiated by substitute, and
# instances join by their connective
_FORMULAS = (lambda g, ops, env: substitute(g, env) if env else g,
             Not, lambda cls, a, b: cls(a, b), lambda t: t)


def _note_quantifiers(g, kids, marks) -> bool:
    """fold's up: whether g holds a quantifier, and if so noted in marks."""
    if isinstance(g, Quant) or any(kids):
        marks[id(g)] = None
        return True
    return False


def _walk(f: Formula, sel: Selection, budget: int, builder=_FORMULAS):
    """The sub-expansion of f along sel, walked from an explicit stack and
    built by builder (leaf, neg, join, value), by default _FORMULAS: a
    quantifier walks its body once per chosen term, the environment sending
    its variable to value(term), and joins each instance as it closes, left
    nested; a quantifier-free subformula under a leaf is compiled once per
    call and instantiated from its ops by leaf(g, ops, env).  Every node is
    counted: a negation or junction as it is entered, a leaf instance as it
    is made, and a quantifier's joins together at its last join."""
    leaf, negate, join, value = builder
    count = 0
    compiled: dict[int, list | None] = {}  # id(g) -> compile_leaf(g)
    out: list = []
    # (node, selection, environment), or (None, connective, n) to negate or
    # join the last results and count n nodes
    stack: list = [(f, sel, {})]
    while stack:
        g, s, env = stack.pop()
        if g is None:
            count += env
            if s is Not:
                out[-1] = negate(out[-1])
            else:
                b = out.pop()
                out[-1] = join(s, out[-1], b)
        else:
            ops = None
            if type(s) is SelLeaf:
                key = id(g)
                if key not in compiled:
                    compiled[key] = compile_leaf(g)
                    if compiled[key] is None:  # note each node of g that holds
                        # a quantifier, so the walk down compiles none again
                        fold(g, _note_quantifiers, None, compiled)
                ops = compiled[key]
            if ops is not None:
                count += len(ops)
                out.append(leaf(g, ops, env))
            else:
                subs = match_selection(g, s)
                if isinstance(g, Quant):
                    cls, last = And if isinstance(g, Forall) else Or, len(subs) - 1
                    seq = [(g.body, subs[0], {**env, g.var: value(s.terms[0])})]
                    for i in range(1, last + 1):
                        seq += ((g.body, subs[i], {**env, g.var: value(s.terms[i])}),
                                (None, cls, last if i == last else 0))
                else:
                    seq = [(c, cs, env) for c, cs in zip(children(g), subs)]
                    seq.append((None, type(g), 0))
                    count += 1
                stack += reversed(seq)
        if count > budget:
            raise BudgetError(
                f"sub-expansion exceeds the size guard of {budget} nodes")
    return out[0]
