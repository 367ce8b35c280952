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
quantifier's instances are joined, left nested, as they close.  The formula
builder makes Formula objects (expand, build_sub_expansion).  The literal
builder (abstraction, which property_c reads) grounds straight into taut's
propositional abstraction: each leaf is compiled once, its atoms into print
templates filled from the term prints of the environment, so no Atom, Term
or substitute is made per instance.

Selections compare, hash and print from explicit stacks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import neg

from .syntax import (
    And, App, Atom, DOT, Forall, Formula, FormulaError, GammaVar, Not, Or,
    Quant, Term, Var, _parse_term, _Tokens, bound_names, children,
    collect_signature, fold, formula_size, is_quantifier_free, parse_term,
    print_term, quant_kind, substitute, term_free_names, term_height,
    var_for_name,
)
from .taut import numbering

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

def expansion_node_count(f: Formula, n_terms: int) -> int:
    """Exact node count of the expansion of f over n_terms terms."""

    def up(g, kids, _):
        if isinstance(g, Quant):
            return n_terms * kids[0] + (n_terms - 1)
        return 1 + sum(kids)

    return fold(f, up)


def expansion_leaf_count(f: Formula, n_terms: int) -> int:
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
    if not terms:
        if is_quantifier_free(f):
            return f
        raise ExpansionError("expansion over an empty term list is undefined "
                             "for a formula with quantifiers")
    total = expansion_node_count(f, len(terms))
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
        kind, val, _, _ = ts.next()
        if kind == "eof":
            raise SelectionError("unexpected end of selection")
        return val

    def term():
        # a term ends at whitespace: in "x (c)" the list is not x's arguments
        _, val, line, col = ts.peek()
        after = ts.toks[min(ts.i + 1, len(ts.toks) - 1)]
        if after[1] == "(" and after[2:] != (line, col + len(val)):
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
    return nodes, _walk(f, sel, budget, _literals(number))


# the walk's formula builder: a leaf is instantiated by substitute, and
# instances join by their connective
_FORMULAS = (lambda g, env: substitute(g, env) if env else g,
             Not, lambda cls, a, b: cls(a, b), lambda t: t)


def _literals(number):
    """The walk's literal builder: it gives a leaf instance's literal in the
    numbering of taut.numbering, with no Atom, Term or substitute made.  Each
    distinct leaf is compiled once into its nodes in postorder, an atom as
    its print split around its variable occurrences, whose names the odd
    pieces hold, to fill from the environment, which holds term prints.  A
    test holds the pieces to print_atom."""
    compiled: dict[int, list] = {}

    def compile_leaf(g):
        ops, stack = [], [g]
        while stack:  # root, right, left: the reverse of the postorder
            h = stack.pop()
            if type(h) is not Atom:
                ops.append(type(h))
                stack += children(h)
                continue
            if h.pred == "<" and len(h.args) == 2:
                items = [h.args[1], " < ", h.args[0]]
            else:
                items = [")", *_commas(h.args), h.pred + "("] if h.args else [h.pred]
            parts = [""]
            while items:  # print_atom's pieces, last first, made no term
                x = items.pop()
                if type(x) is str or not x.names:
                    parts[-1] += x if type(x) is str else x.text
                elif type(x) is App:
                    items += [")", *_commas(x.args), x.sym + "("]
                else:
                    parts += [x.text, ""]
            ops.append(parts[0] if len(parts) == 1 else parts)
        ops.reverse()
        return ops

    def leaf(g, env):
        ops = compiled.get(id(g))
        if ops is None:
            ops = compiled[id(g)] = compile_leaf(g)
        out = []
        for op in ops:
            if op is Not:
                out[-1] = -out[-1]
            elif op is And or op is Or:
                b = out.pop()
                out[-1] = number((op, out[-1], b))
            elif type(op) is str:
                out.append(number(op))
            else:
                parts = op.copy()
                for i in range(1, len(parts), 2):
                    parts[i] = env.get(parts[i], parts[i])
                out.append(number("".join(parts)))
        return out[0]

    return leaf, neg, lambda cls, a, b: number((cls, a, b)), print_term


def _commas(args) -> list:
    """args, last first, with a comma between each two."""
    return [x for a in reversed(args) for x in (",", a)][1:]


def _walk(f: Formula, sel: Selection, budget: int, builder=_FORMULAS):
    """The sub-expansion of f along sel, walked from an explicit stack and
    built by builder (leaf, neg, join, value), by default _FORMULAS: a
    quantifier walks its body once per chosen term, the environment sending
    its variable to value(term), and joins each instance as it closes, left
    nested; a quantifier-free subformula under a leaf is instantiated once,
    by leaf(g, env).  Every node is counted: a negation or junction as it is
    entered, a leaf instance as it is made, and a quantifier's joins
    together at its last join."""
    leaf, negate, join, value = builder
    count = 0
    sizes: dict[int, int | None] = {}  # id(g) -> g's size if quantifier-free
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
            size = None
            if type(s) is SelLeaf:
                key = id(g)
                if key not in sizes:
                    sizes[key] = formula_size(g) if is_quantifier_free(g) else None
                size = sizes[key]
            if size is not None:
                count += size
                out.append(leaf(g, env))
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
