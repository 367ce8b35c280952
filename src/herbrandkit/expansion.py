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
a HornChain decides it by forward chaining over the term list, unless its
ground clause instances or join tries outnumber the expansion's nodes; it
keeps its clause form and facts as the term list grows from one order to
the next.

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
    quant_kind, substitute, substitute_term, subterms, term_free_names, term_height,
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


def champ_signature(f: Formula) -> tuple:
    """What champ reads of f: its function symbols of arity at least 1, as
    (name, arity, skolem), and the terms of height 1 to start from, its
    constants and free variables, with the fresh constant @dot thrown in
    exactly when there is no constant or free variable to start from."""
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
    return funcs, tuple(base)


def champ(f: Formula, order: int, herbrand: bool = False,
          budget: int = DEFAULT_BUDGET, signature: tuple | None = None) -> ChampFini:
    """All terms of height < order over the formula's free symbols,
    champ_signature(f), which a caller that asks at several orders passes
    as signature.  Only the signature is read, and each distinct champ is
    built once per process and shared by every caller."""
    if order < 1:
        raise ExpansionError(f"champ order must be at least 1, got {order}")
    return _build_champ(*(signature or champ_signature(f)), order, herbrand, budget)


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


def _sign(g, s):  # g's polarity in f, from its parent's
    return -s if type(g) is Not else s


# fold's up over f: for the clausal form of ~f below g, the most positive
# literals in one clause and the number of clauses, so that no clause is
# built for a form that is not Horn or too large; None under a quantifier
# that is not gamma
def _shape(g, kids, s):
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


# fold's up over f: the clauses of ~f below g, as (the positive atom or
# None, the negated atoms)
def _clausal(g, kids, s):
    t = type(g)
    if t is Atom:
        return [(g, ()) if s < 0 else (None, (g,))]
    if t is not And and t is not Or:
        return kids[0]
    a, b = kids
    if (t is Or) == (s > 0):
        return a + b
    return [(ha or hb, ba + bb) for ha, ba in a for hb, bb in b]


def _pool_key(t: Term):  # (symbol, argument prints), or the print if none
    while type(t) is SkolemNamedVar:  # which prints as its encoding
        t = t.encoded
    return (t.sym, *[a.text for a in t.args]) if type(t) is App and t.args else t.text


class HornChain:
    """Semi-naive forward chaining (Dowling & Gallier 1984) on the clausal
    form of ~f, over a pool of terms that grows from one order to the next.

    In the negation normal form of ~f every gamma quantifier is universal,
    and f is rectified, so each binder is a clause variable that ranges over
    the pool; every other name is a constant.  The expansion over the pool
    is a tautology exactly when the ground clause instances are
    unsatisfiable: each new fact is matched against every body atom and
    joined with the facts matched there before, a clause whose body holds
    adds its head, a goal (a clause with no head) that fires refutes, and a
    fixpoint does not.  Each pool term is a fact @pool(t).  A head argument
    other than a variable, at a tight place (one where every body atom of
    its predicate has a variable), gets a body atom @pool(t): a fact with a
    term outside the pool there matches no body atom, since a variable
    binds only a pool term.  So x < sk_m(x,y) fires once per sk_m term of
    the pool, not once per pair.  A variable that only the head has, and
    no such atom binds, gets a body atom @pool(v).  A ground atom is told
    apart by its predicate and argument prints, as taut tells atoms apart.

    The champ signature, the shape walk and the clause form depend on f
    alone and are made once.  Champs nest, and pool membership is the only
    test of the chaining that depends on the order.  So the facts of one
    order hold at the next: an extension adds @pool(t) for each new term,
    re-tries what a new term alone refused, and chains on.  A chaining cut
    short, by a goal or past limit join tries, is dropped, and the next
    extension starts afresh."""

    def __init__(self, f: Formula):
        self.form, self.state = f, None

    @cached_property
    def signature(self):
        return champ_signature(self.form)

    @cached_property
    def shape(self):
        return fold(self.form, _shape, _sign, 1)

    @cached_property
    def clause_form(self):
        """The clause variables; per clause its head, None for a goal, else
        (predicate, per argument (its subterms in reverse preorder,
        itself)), its body atoms' variables and its variable count; the body
        atoms by (predicate, arity)."""
        names = bound_names(self.form)

        def variables(*atoms):
            return [n for n in dict.fromkeys(n for a in atoms for t in a.args
                                             for n in t.names) if n in names]

        def var(t):
            return type(t) is not App and not names.isdisjoint(t.names)

        clauses, sites = fold(self.form, _clausal, _sign, 1), {}
        loose = {(a.pred, len(a.args), i) for _, body in clauses for a in body
                 for i, t in enumerate(a.args) if not var(t)}  # the places not tight
        for c, (head, body) in enumerate(clauses):
            if head:  # no parsed formula has the predicate @pool
                body += tuple(Atom("@pool", (p,)) for i, p in enumerate(head.args)
                              if not var(p) and (head.pred, len(head.args), i) not in loose)
                bound = variables(*body)
                body += tuple(Atom("@pool", (var_for_name(v),)) for v in variables(head)
                              if v not in bound)
            clauses[c] = head, body
            for j, a in enumerate(body):
                sites.setdefault((a.pred, len(a.args)), []).append((c, j, a.args))
        heads = [head and (head.pred, [(list(subterms(p))[::-1], p) for p in head.args])
                 for head, _ in clauses]
        return (names, heads, [[variables(a) for a in body] for _, body in clauses],
                [len(variables(*body)) for _, body in clauses], sites)

    def extend(self, terms, limit: int) -> bool | None:
        """Whether the expansion of the form over terms is a tautology, where
        terms are closed under subterms, as a champ is, and hold the terms of
        the extensions before; None, for the CDCL route, when a quantifier is
        not gamma, a clause has two positive literals, or the form has more
        than limit clauses, ground clause instances or join tries.  limit is
        the expansion's node count, and the ground clause instances bound
        the heads made: so the chaining does no more work than grounding
        would."""
        if self.shape is None or self.shape[0] > 1 or self.shape[1] > limit:
            return None
        names, heads, bodies, counts, sites = self.clause_form
        texts = {t.text: t for t in terms}  # a term of each distinct print
        if sum(len(texts) ** k for k in counts) > limit:
            return None
        # the pool by print and by _pool_key; the facts queued, by predicate
        # and argument prints; (clause, index) -> {(var, print) or None:
        # envs filed}; the _pool_key of a term outside the pool -> what it
        # alone refused.  Kept only if the chaining ends.
        state, self.state = self.state, None
        if state is None or not state[0].keys() <= texts.keys():
            state = {}, {}, set(), [], {}, {}
        pool, index, seen, queue, matched, waiting = state
        new = [t for text, t in texts.items() if text not in pool]
        for t in new:
            pool[t.text] = index[_pool_key(t)] = t
            queue.append(("@pool", [t]))
        tries = 0

        # whether c is a goal; else its head under env is queued, each
        # argument looked up in the pool and built only where it lies
        # outside, which its @pool atom rules out at a tight place
        def fire(c, env) -> bool:
            if heads[c] is None:
                return True
            pred, places = heads[c]
            got = []
            for subs, arg in places:
                stack = []  # the terms below, the first argument on top
                for q in subs:
                    if type(q) is App and q.args:
                        key = (q.sym, *[v.text for v in stack[:-len(q.args) - 1:-1]])
                        del stack[-len(q.args):]
                    elif names.isdisjoint(q.names):
                        key = _pool_key(q)
                    else:  # a clause variable
                        stack.append(env[q.text])
                        continue
                    if (t := index.get(key)) is None:
                        break
                    stack.append(t)
                else:
                    got.append(stack[0])
                    continue
                got.append(substitute_term(arg, env))
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

        # a fact is filed at each body atom it matches before it joins from
        # there, so an instance that holds it at several atoms is found once
        # it is filed at the last of them; one refused only for a term
        # outside the pool, bound to a variable, waits on that term
        def file(c, j, args, got) -> bool | None:
            env, outside, stack = {}, None, list(zip(args, got))
            while stack:
                p, s = stack.pop()
                if names.isdisjoint(p.names):
                    if p.text != s.text:
                        return False
                elif type(p) is not App:  # a clause variable
                    if env.setdefault(p.text, s).text != s.text:
                        return False
                    if s.text not in pool:
                        outside = s
                else:
                    while type(s) is SkolemNamedVar:  # which prints as its encoding
                        s = s.encoded
                    if type(s) is not App or s.sym != p.sym or len(s.args) != len(p.args):
                        return False
                    stack += zip(p.args, s.args)
            if outside is not None:
                waiting.setdefault(_pool_key(outside), []).append((c, j, args, got))
                return False
            filed = matched.setdefault((c, j), {})
            for key in (None, *((v, t.text) for v, t in env.items())):
                filed.setdefault(key, []).append(env)
            return join(c, j, env)

        for t in new:
            for item in waiting.pop(_pool_key(t), ()):
                if (r := file(*item)) is not False:
                    return r
        if len(new) == len(pool) and any(
                not bodies[c] and fire(c, {}) for c in range(len(heads))):
            return True
        while queue:
            pred, got = queue.pop()
            for c, j, args in sites.get((pred, len(got)), ()):
                if (r := file(c, j, args, got)) is not False:
                    return r
        self.state = state
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
