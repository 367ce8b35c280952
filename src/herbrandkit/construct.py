"""Deciding the finite-expansion property and constructing derivations.

The pipeline from a first-order formula to a checkable derivation:

  * ``property_c`` Skolemizes a formula (outer or delta-plus-plus), or
    takes the Horn chain of a form Skolemized once by its caller, and
    decides its expansion over the height-bounded term domain of a given
    order: a Horn refutation form by extending that chain over the domain,
    any other by grounding it into the propositional abstraction and
    refuting its clausal form, which stays the definition; a selection tree
    restricts the expansion to chosen witnesses, which can only confirm,
    never refute.
  * ``min_order`` Skolemizes once and scans orders upward for the least
    one that works, extending one Horn chain from order to order: champs
    nest, and pool membership is the only test of the chaining that
    depends on the order, so the facts derived at one order hold at the
    next.
  * ``construct_derivation`` turns a confirmed order plus a selection into
    a derivation in the single-premise calculus: name the removed-quantifier
    variables by their Skolem terms, duplicate quantifiers once per chosen
    witness, then remove quantifiers in height stages; read backward, the
    recorded steps rebuild the formula from its expansion.
  * ``construct_fv_derivation`` does the free-variable analogue: witnesses
    become placeholder variables, the removed quantifiers become registry
    applications, and the witness substitution comes out alongside.
  * ``derivation_order_bound`` reads an order back off a checked derivation.
  * ``demo_false_lemma`` and ``demo_upper_bound`` run the two showcase
    computations end to end, recomputing every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce

from .expansion import (
    DEFAULT_BUDGET,
    BudgetError,
    SelAnd,
    SelOr,
    SelQuant,
    Selection,
    abstraction,
    build_sub_expansion,
    ExpansionError,
    champ,
    expansion_counts,
    full_selection,
    HornChain,
    match_selection,
    parse_selection,
    selection_within,
)
from .kernel import (
    DELTA_MINUS,
    DELTAPP,
    GAMMA_QUANT,
    GAMMA_SIMP,
    RENAME,
    RESTRICTED_GAMMA,
    Derivation,
    RuleStep,
    apply_passage,
    check_derivation,
)
from .skolem import SkolemRegistry, deltapp_skolemize, outer_skolemize
from .syntax import (
    And,
    App,
    Atom,
    Branch,
    Formula,
    FormulaError,
    GammaVar,
    Not,
    Or,
    Quant,
    SkolemNamedVar,
    Swap,
    Term,
    Var,
    all_names,
    children,
    fold,
    free_gamma_vars,
    fresh_name,
    is_gamma,
    is_quantifier_free,
    locate,
    nameify_term,
    parse_formula,
    print_formula,
    print_term,
    quant_kind,
    quantifier_positions,
    rebuild,
    rectify,
    rename_binder,
    substitute,
    substitute_term,
    term_free_names,
    term_height,
    var_for_name,
)
from .taut import decide_form, refutation_clauses


class ConstructError(FormulaError):
    pass


# ---------------------------------------------------------------------------
# the finite-expansion property

@dataclass(frozen=True)
class PropertyCResult:
    """Outcome of one expansion check.

    ``status`` is three-valued: a selection that fails to produce a
    tautology proves nothing about the full expansion, so it reports
    ``inconclusive`` rather than ``fails``."""

    status: str                  # "holds" | "fails" | "inconclusive"
    order: int
    star: bool
    herbrand_heights: bool
    witness: str                 # "full-expansion" | "sub-expansion selection" | "none"
    skolemized: Formula
    term_count: int = 0
    node_count: int | None = None
    tautology: bool | None = None
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def kind(self) -> str:
        return "C*" if self.star else "C"


def _as_selection(sel) -> Selection:
    return parse_selection(sel) if isinstance(sel, str) else sel


def skolemized(a: Formula, star: bool = False,
               registry: SkolemRegistry | None = None) -> Formula:
    """a rectified and Skolemized as property C reads it: delta-plus-plus
    into registry (a fresh one by default) under star, else outer."""
    if not star:
        return outer_skolemize(rectify(a))
    return deltapp_skolemize(rectify(a), registry if registry is not None else SkolemRegistry())


def property_c(a: Formula, n: int, star: bool = False, sel=None,
               herbrand_heights: bool = False, budget: int = DEFAULT_BUDGET,
               registry: SkolemRegistry | None = None,
               chain: HornChain | None = None) -> PropertyCResult:
    """Does the order-n expansion of a's Skolemized form come out
    tautological?  With a selection, only the chosen sub-expansion is
    built; a positive answer is then still conclusive, a negative one is
    not.  chain, when given, is a HornChain of skolemized(a, star,
    registry), made once by a caller that asks at several orders, as
    min_order does, or reads its symbols; else one is made here.  A Horn
    refutation form is decided by extending the chain unless the chaining
    outgrows the expansion; any other expansion, and a selection's, is
    grounded straight into the propositional abstraction, which the CDCL
    solver refutes."""
    if n < 1:
        raise ConstructError(f"the order must be at least 1, got {n}")
    chain = chain or HornChain(skolemized(a, star, registry))
    sk = chain.form
    ch = champ(sk, n, herbrand=herbrand_heights, budget=budget,
               signature=chain.signature)
    base = dict(order=n, star=star, herbrand_heights=herbrand_heights,
                skolemized=sk, term_count=len(ch.terms))
    if sel is not None:
        sel_tree = _as_selection(sel)
        ok, offenders = selection_within(sel_tree, ch)
        if not ok:
            shown = ", ".join(print_term(t) for t in offenders[:5])
            raise ConstructError(
                f"the selection uses terms outside the order-{n} domain: {shown}")
        # champ terms use only sk's free names, which rectification keeps
        # apart from its binders: build_sub_expansion's clash check holds
        taut = decide_form(*refutation_clauses(*abstraction(sk, sel_tree, budget)))[0]
        if taut:
            return PropertyCResult("holds", witness="sub-expansion selection",
                                   tautology=True, **base)
        return PropertyCResult(
            "inconclusive", witness="none", tautology=False,
            detail="the chosen sub-expansion is not a tautology; "
                   "the full expansion may still be", **base)
    try:
        count = expansion_counts(sk, len(ch.terms))[0]
    except ExpansionError:  # no terms, and quantifiers remain
        return PropertyCResult(
            "fails", witness="none",
            detail=f"no terms of height below {n} but quantifiers remain", **base)
    if count > budget:
        raise BudgetError(
            f"the order-{n} expansion has {count} formula nodes, "
            f"over the size guard of {budget}")
    if (taut := chain.extend(ch.terms, count)) is None:
        nodes, root = abstraction(sk, full_selection(sk, ch.terms), budget)
        taut = decide_form(*refutation_clauses(nodes, root))[0]
    # over no terms the expansion is the quantifier-free sk itself
    extra = (dict(node_count=count) if ch.terms else dict(
        detail="empty term domain; the quantifier-free form itself decides"))
    return PropertyCResult("holds" if taut else "fails",
                           witness="full-expansion" if taut else "none",
                           tautology=taut, **extra, **base)


def min_order(a: Formula, star: bool = False, n_max: int = 8,
              herbrand_heights: bool = False,
              budget: int = DEFAULT_BUDGET) -> int | None:
    """Least order up to n_max at which the full expansion is tautological,
    or None.  Selections play no part here; this is the search the
    round-trip theorems quantify over.  a is Skolemized once, and one
    HornChain of the Skolemized form, property_c's chain, serves every
    order, so its signature and clause form are made once and the facts
    derived at one order are kept for the next.  That is sound because
    champs nest and pool membership is the only test of the chaining that
    depends on the order."""
    if n_max < 1:
        raise ConstructError(f"the largest order must be at least 1, got {n_max}")
    chain = HornChain(skolemized(a, star))
    for n in range(1, n_max + 1):
        r = property_c(a, n, star=star, herbrand_heights=herbrand_heights,
                       budget=budget, chain=chain)
        if r.holds:
            return n
    return None


# ---------------------------------------------------------------------------
# duplicating quantifiers along a selection

@dataclass
class _CopyState:
    used: set[str]               # every name to steer clear of, grows with claims
    sym_map: dict[str, str]
    claimed: set[str] = field(default_factory=set)   # binder names already placed
    plan: dict[str, Term] = field(default_factory=dict)
    original: dict[str, str] = field(default_factory=dict)
    copies: list[tuple[tuple[int, ...], int]] = field(default_factory=list)

    def claim(self, v: str, first: bool) -> str:
        """v itself for the first placement of this binder, a fresh variant
        for every further copy."""
        name = v if first and v not in self.claimed else fresh_name(v, self.used)
        self.used.add(name)
        self.claimed.add(name)
        return name


def _along(f: Formula, sel: Selection, quant, extra) -> Formula:
    """Rebuild f along the selection sel from an explicit stack.  A node's
    context is (selection, sign, path, extra): negations and junctions are
    matched against their selection and kept, and a quantifier g goes to
    quant(g, context), which answers as fold's down hook does.  A Branch it
    answers carries the function that builds g from its kids, or None."""

    def down(g, ctx):
        if isinstance(g, Quant):
            return quant(g, ctx)
        s, sign, path, extra = ctx
        sign = -sign if type(g) is Not else sign
        return Branch(tuple((c, (cs, sign, path + (i,), extra)) for i, (c, cs)
                            in enumerate(zip(children(g), match_selection(g, s)))), ctx)

    def up(g, kids, ctx):
        if not isinstance(g, Quant):
            return rebuild(g, *kids)
        return kids[0] if ctx is None else ctx(*kids)

    return fold(f, up, down, (sel, 1, (), extra))


def _chain(v: str, copies: list[Formula], ctx, extra, finish=None) -> Branch:
    """The answer that walks the copies of the removable quantifier of v,
    one per distinct witness, as their junction chain, each copy along the
    selection of its own witness."""
    s, sign, path, _ = ctx
    if len(set(s.terms)) != len(s.terms):
        raise ConstructError(
            f"the witness terms chosen for {v} must be pairwise distinct")
    one = [SelQuant(s.kind, s.var, (t,), (br,)) for t, br in zip(s.terms, s.branches)]
    join, sel_join = (And, SelAnd) if sign < 0 else (Or, SelOr)
    return Branch(((reduce(join, copies), (reduce(sel_join, one), sign, path, extra)),),
                  finish)


def _copy_pass(g: Quant, ctx, st: _CopyState):
    """The quantifier rule of the copy pass: one copy of a removable
    quantifier per witness its selection lists, and a removed-quantifier
    variable spelled as its Skolem term over the enclosing copies (extra)."""
    s, sign, path, gammas = ctx
    v, b = g.var, g.body
    if not is_gamma(quant_kind(g), sign):
        enc = App(st.sym_map[v], True, tuple(Var(x) for x in gammas))
        name = print_term(enc)
        st.used.add(name)
        st.original[name] = v
        return Branch(((substitute(b, {v: SkolemNamedVar(enc)}),
                        (s, sign, path + (0,), gammas)),),
                      lambda body: rebuild(g, body, var=name))
    branches = match_selection(g, s)
    k = len(s.terms)
    if k > 1:
        def placed(chain):
            st.copies.append((path, k))
            return chain
        return _chain(v, [g] * k, ctx, gammas, placed)
    name = st.claim(v, first=True)

    def named(body):
        st.plan[name] = nameify_term(s.terms[0])
        return rebuild(g, body, var=name)
    return Branch(((substitute(b, {v: Var(name)}),
                    (branches[0], sign, path + (0,), gammas + (name,))),), named)


def _named_copies(a_r: Formula, sel: Selection,
                  syms: dict[str, str]) -> tuple[Formula, _CopyState]:
    """The copy pass over the rectified a_r, whose outer Skolemization
    recorded syms: the duplicated named form, and the state holding its
    witness plan, copy chains and original names."""
    st = _CopyState(used=set(all_names(a_r)) | set(syms.values()), sym_map=syms)
    return _along(a_r, sel, partial(_copy_pass, st=st), ()), st


# ---------------------------------------------------------------------------
# staged quantifier removal

@dataclass(frozen=True)
class PlanEntry:
    stage: int
    kind: str                    # "gamma" | "delta"
    quant: str                   # "forall" | "exists"
    var: str                     # variable as spelled at removal time
    path: tuple[int, ...]        # position at removal time
    term: Term | None = None     # witness, removable quantifiers only


@dataclass(frozen=True)
class Procedure1Plan:
    order: int
    entries: tuple[PlanEntry, ...]

    def stage(self, i: int) -> tuple[PlanEntry, ...]:
        return tuple(e for e in self.entries if e.stage == i)


def _encoded_binder(name: str) -> Term | None:
    v = var_for_name(name)
    return v.encoded if isinstance(v, SkolemNamedVar) else None


def _execute_stages(q: Formula, plan: dict[str, Term], n: int):
    """Remove quantifiers from q in stages 1..n: at stage i, witnesses of
    height below i go first, then every reachable Skolem-named quantifier,
    repeating until the stage adds nothing.  Returns the quantifier-free
    residue, the stage log, and the rule steps in removal order."""
    for v, t in plan.items():
        if term_height(t) >= n:
            raise ConstructError(
                f"the witness {print_term(t)} for {v} has height "
                f"{term_height(t)}, beyond the order-{n} ceiling of {n - 1}")
    cur = q
    entries: list[PlanEntry] = []
    steps: list[RuleStep] = []

    def first(gamma: bool, stage: int):
        """The first accessible quantifier of the wanted class, on one
        preorder walk of the current line that descends into no quantifier:
        nothing below one is accessible."""
        stack = [((), cur, 1)]  # (path, node, sign)
        while stack:
            path, g, sign = stack.pop()
            if not isinstance(g, Quant):
                sign = -sign if type(g) is Not else sign
                kids = children(g)
                stack.extend((path + (i,), kids[i], sign)
                             for i in range(len(kids) - 1, -1, -1))
            elif is_gamma(quant_kind(g), sign) == gamma and not (
                    gamma and term_height(plan[g.var]) >= stage):
                return path, g

    for i in range(1, n + 1):
        while True:
            progressed = False
            while (hit := first(True, i)) is not None:
                path, g = hit
                kind, var = quant_kind(g), g.var
                t, body = plan[var], g.body
                for rel, _, rvar in quantifier_positions(body):
                    enc = _encoded_binder(rvar)
                    if enc is None or var not in term_free_names(enc):
                        continue
                    new_name = print_term(substitute_term(enc, {var: t}))
                    steps.append(RuleStep(RENAME, path=path + (0,) + rel,
                                          var=new_name, new=rvar))
                    site = locate(body, rel)
                    body = site.plug(rename_binder(site.node, new_name))
                entries.append(PlanEntry(i, "gamma", kind, var, path, t))
                steps.append(RuleStep(GAMMA_QUANT, path=path, quant=kind,
                                      var=var, scope=body, term=t))
                cur = locate(cur, path).plug(substitute(body, {var: t}))
                progressed = True
            while (hit := first(False, i)) is not None:
                path, g = hit
                kind = quant_kind(g)
                entries.append(PlanEntry(i, "delta", kind, g.var, path))
                steps.append(RuleStep(DELTA_MINUS, path=path, quant=kind, var=g.var))
                cur = locate(cur, path).plug(g.body)
                progressed = True
            if not progressed:
                break
    if not is_quantifier_free(cur):
        left = ", ".join(v for _, _, v in quantifier_positions(cur))
        raise ConstructError(f"quantifiers remain after stage {n}: {left}")
    return cur, tuple(entries), steps


def procedure1_order(a: Formula, sel, n: int) -> Procedure1Plan:
    """The staged removal plan of the order-n derivation of a along the
    selection: which quantifier falls at which stage, in removal order."""
    a_r, syms = rectify(a), {}
    outer_skolemize(a_r, syms)
    q, st = _named_copies(a_r, _as_selection(sel), syms)
    _, entries, _ = _execute_stages(q, st.plan, n)
    return Procedure1Plan(n, entries)


# ---------------------------------------------------------------------------
# merging the copies and restoring the names

def _merge_chains(q: Formula, copies: list[tuple[tuple[int, ...], int]]):
    """Deduction steps that collapse every copy chain back to its first
    copy, innermost chains first; the discarded copies are variants of the
    kept ones by construction."""
    steps: list[RuleStep] = []
    cur = q
    for path, k in sorted(copies, key=lambda e: (-len(e[0]), e[0])):
        for depth in range(k - 2, -1, -1):
            site = locate(cur, path + (0,) * depth)
            steps.append(RuleStep(GAMMA_SIMP, path=site.path, keep="left"))
            cur = site.plug(site.node.left)
    return cur, steps


def _final_renames(merged: Formula, original: dict[str, str]) -> list[RuleStep]:
    """Deduction steps that give every Skolem-term-named quantifier its
    source variable back; a rename moves no quantifier."""
    return [RuleStep(RENAME, path=path, var=var, new=original[var])
            for path, _, var in quantifier_positions(merged)
            if _encoded_binder(var) is not None]


# ---------------------------------------------------------------------------
# the two constructions

def _established(a: Formula, n: int, sel, star: bool, budget: int,
                 registry: SkolemRegistry | None = None):
    """The rectified a, the selection to construct along and the binder ->
    symbol record of a's Skolemization, once property_c confirms order n:
    sel as given, or else the full selection."""
    a_r, syms = rectify(a), {}
    sk = deltapp_skolemize(a_r, registry, syms) if star else outer_skolemize(a_r, syms)
    sel = None if sel is None else _as_selection(sel)
    pre = property_c(a_r, n, star=star, sel=sel, budget=budget, chain=HornChain(sk))
    if not pre.holds:
        raise ConstructError(
            f"order {n}{' (starred)' if star else ''} is not established for "
            f"this formula ({pre.status}{': ' + pre.detail if pre.detail else ''})")
    if sel is None:
        sel = full_selection(sk, champ(sk, n, budget=budget).terms)
    return a_r, sel, syms


def construct_derivation(a: Formula, n: int, sel=None,
                         budget: int = DEFAULT_BUDGET) -> Derivation:
    """A checked derivation of a from its order-n expansion (or from the
    chosen sub-expansion).  The reductive reading: rename removed-quantifier
    variables to their Skolem terms, duplicate per witness, remove in
    stages; the recorded steps run the other way, from the tautology up to
    a."""
    a_r, sel_tree, syms = _established(a, n, sel, False, budget)
    q, st = _named_copies(a_r, sel_tree, syms)
    axiom, _, removal = _execute_stages(q, st.plan, n)
    merged, merge_steps = _merge_chains(q, st.copies)
    steps = (tuple(reversed(removal)) + tuple(merge_steps)
             + tuple(_final_renames(merged, st.original)))
    d = Derivation("heijenoort", axiom, steps, a_r)
    report = check_derivation(d)
    if not report.ok:
        raise ConstructError(
            f"internal: constructed derivation rejected at step "
            f"{report.step_index}: {report.error}: {report.error_message}")
    if not report.axiom_tautology:
        raise ConstructError("internal: the axiom is not a tautology")
    return d


def construct_fv_derivation(a: Formula, n: int, sel=None,
                            registry: SkolemRegistry | None = None,
                            budget: int = DEFAULT_BUDGET):
    """Free-variable variant: returns (derivation, B, sigma) where B is the
    quantifier-free opening line over placeholder variables and sigma sends
    each placeholder to its chosen witness, with every witness below the
    order in height.

    Quantifiers are processed outside-in, and a removable quantifier is
    duplicated only after everything above it is gone; each delta++ scope
    is therefore the one the Skolemization pass keyed, up to the renaming
    its key ignores, and its symbol is read off that pass's record, so the
    opening line carries the same symbols as the starred form and the
    witness substitution recovers the chosen sub-expansion."""
    if registry is None:
        registry = SkolemRegistry()
    a_r, sel_tree, syms = _established(a, n, sel, True, budget, registry)
    claim = _CopyState(used=set(all_names(a_r)), sym_map={}).claim
    source: dict[str, str] = {}  # copy binder -> binder it is a variant of
    sigma: dict[str, Term] = {}
    down: list[RuleStep] = []    # recorded top-down, replayed in reverse

    def copy_down(g: Formula, ren: dict[str, Term]) -> dict[str, Term]:
        if not isinstance(g, Quant):
            return ren
        name = claim(g.var, first=False)
        source[name] = source.get(g.var, g.var)
        return ren | {g.var: Var(name)}

    def copy_up(g: Formula, kids, ren: dict[str, Term]) -> Formula:
        if isinstance(g, Atom):
            return Atom(g.pred, tuple(substitute_term(t, ren) for t in g.args))
        return rebuild(g, *kids, var=ren[g.var].name if isinstance(g, Quant) else None)

    # the quantifier rule; extra marks a copy placed in its chain, whose
    # binder was claimed with the chain
    def strip(g: Quant, ctx):
        s, sign, path, placed = ctx
        kind = quant_kind(g)
        v, bd = g.var, g.body
        src = source.get(v, v)
        if not is_gamma(kind, sign):
            listed = tuple(map(GammaVar, free_gamma_vars(g)))
            down.append(RuleStep(DELTAPP, path=path, quant=kind, var=v, scope=bd))
            return Swap(substitute(bd, {v: App(syms[src], True, listed)}))
        branches = match_selection(g, s, var=src)
        k = len(s.terms)
        if not placed:
            claim(v, first=True)
        if k > 1:
            copies = [g] + [fold(g, copy_up, copy_down, {}) for _ in range(k - 1)]
            for depth in range(k - 1):
                down.append(RuleStep(GAMMA_SIMP, path=path + (0,) * depth, keep="left"))
            return _chain(v, copies, ctx, True)
        down.append(RuleStep(RESTRICTED_GAMMA, path=path, quant=kind, var=v,
                             scope=bd, term=GammaVar(v)))
        sigma["?" + v] = s.terms[0]
        return Branch(((substitute(bd, {v: GammaVar(v)}),
                        (branches[0], sign, path, False)),), None)

    b = _along(a_r, sel_tree, strip, False)
    d = Derivation("free-variable", b, tuple(reversed(down)), a_r)
    report = check_derivation(d, registry)
    if not report.ok:
        raise ConstructError(
            f"internal: constructed free-variable derivation rejected at step "
            f"{report.step_index}: {report.error}: {report.error_message}")
    return d, b, sigma


# ---------------------------------------------------------------------------
# order bounds

@dataclass(frozen=True)
class OrderBound:
    value: int
    witnesses: tuple[Term, ...]


def derivation_order_bound(d: Derivation) -> OrderBound:
    """One plus the summed heights of all witness terms: an order at which
    the expansion property must hold for the end formula."""
    report = check_derivation(d)
    if not report.ok:
        raise ConstructError(
            f"the derivation is not accepted: {report.error}: "
            f"{report.error_message}")
    if d.mode != "heijenoort":
        raise ConstructError(
            f"order bounds read off single-premise derivations in heijenoort "
            f"mode, not {d.mode}")
    if not report.axiom_tautology:
        raise ConstructError("the axiom is not a sentential tautology")
    witnesses = tuple(report.witnesses)
    return OrderBound(1 + sum(term_height(t) for t in witnesses), witnesses)


def goedel_dreben_bound(n: int, r: int, big_n: int) -> int:
    """Repaired order transfer across one rule of passage: from order n
    over a signature of maximal arity r and big_n domain terms to order
    n * (big_n**r + 1) ** n."""
    if n < 1 or big_n < 1:
        raise ConstructError("the order and the domain size must be at least 1")
    if r < 0:
        raise ConstructError("the maximal arity cannot be negative")
    return n * (big_n ** r + 1) ** n


# ---------------------------------------------------------------------------
# demos

def demo_false_lemma() -> dict:
    """Both counterexamples to order invariance under the rules of passage,
    with every order recomputed: moving a quantifier across a disjunction
    shifts the least workable order, in one direction of height counting or
    in both."""
    drinker = parse_formula("exists a. (~(exists b. p(b)) | p(a))")
    drinker_moved = apply_passage(drinker, (), 6, "antiprenex")
    two = parse_formula("(~(exists b. p(b)) | (exists a. q(a))) | "
                        "((exists x. p(x)) & ~(exists y. q(y)))")
    two_moved = apply_passage(two, (0,), 6, "prenex")
    cases = []
    for label, before, after, direction in (
            ("quantified-disjunct", drinker, drinker_moved, "antiprenex"),
            ("two-disjunct", two, two_moved, "prenex")):
        orders = {}
        for mode_label, hh in (("standard", False), ("herbrand", True)):
            o_before = min_order(before, herbrand_heights=hh)
            o_after = min_order(after, herbrand_heights=hh)
            orders[mode_label] = {"before": o_before, "after": o_after,
                                  "preserved": o_before == o_after}
        cases.append({
            "label": label,
            "passage": {"equation": 6, "direction": direction},
            "before": print_formula(before),
            "after": print_formula(after),
            "orders": orders,
        })
    return {
        "cases": cases,
        "order_invariant_standard": all(c["orders"]["standard"]["preserved"]
                                        for c in cases),
        "order_invariant_herbrand": all(c["orders"]["herbrand"]["preserved"]
                                        for c in cases),
    }


UPPER_BOUND_TEXT = (
    "((forall x. forall y. exists m. (x < m & y < m)) & "
    "(forall c. forall b. forall a. ((a < b & b < c) -> a < c))) -> "
    "(forall u. forall v. forall w. exists z. (u < z & v < z & w < z))")

UPPER_BOUND_SELECTION = (
    "(or (not (and (forall x (sk_v sk_u)"
    " (forall y (sk_w) _)"
    " (forall y (sk_m(sk_v,sk_w)) _))"
    " (forall c (sk_m(sk_u,sk_m(sk_v,sk_w)))"
    " (forall b (sk_m(sk_v,sk_w))"
    " (forall a (sk_v sk_w) _)))))"
    " (exists z (sk_m(sk_u,sk_m(sk_v,sk_w))) _))")

DOCUMENTED_DOMAIN_SIZE = 156


def demo_upper_bound() -> dict:
    """The three-element-upper-bound theorem end to end: domain size and
    leaf arithmetic, the selected sub-expansion and its tautology check,
    both constructed derivations rerun through the checker, and the order
    bound read back off the result."""
    a = parse_formula(UPPER_BOUND_TEXT)
    a_r = rectify(a)
    f_sk = outer_skolemize(a_r)
    ch = champ(f_sk, 4)
    n_terms = len(ch.terms)
    sel = parse_selection(UPPER_BOUND_SELECTION)
    sel_ok, _ = selection_within(sel, ch)
    j = build_sub_expansion(f_sk, sel)
    res = property_c(a, 4, star=False, sel=sel)
    full_nodes, leaves = expansion_counts(f_sk, n_terms)

    d = construct_derivation(a, 4, sel)
    report = check_derivation(d)
    counts: dict[str, int] = {}
    for s in d.steps:
        counts[s.tag] = counts.get(s.tag, 0) + 1
    bound = derivation_order_bound(d)

    registry = SkolemRegistry()
    fv_d, b, sigma = construct_fv_derivation(a, 4, sel, registry)
    fv_report = check_derivation(fv_d, registry)
    f_star = deltapp_skolemize(a_r, registry)
    b_instantiated = substitute(b, sigma)
    sub_star = build_sub_expansion(f_star, sel)
    reused = len(fv_report.deltapp_symbols) - len(set(fv_report.deltapp_symbols))

    return {
        "formula": print_formula(a),
        "domain": {
            "order": 4,
            "computed_size": n_terms,
            "documented_size": DOCUMENTED_DOMAIN_SIZE,
            "leaf_count_at_computed_size": leaves,
            "leaf_count_at_documented_size": expansion_counts(
                f_sk, DOCUMENTED_DOMAIN_SIZE)[1],
            "full_expansion_nodes": full_nodes,
            "full_expansion_within_guard": full_nodes <= DEFAULT_BUDGET,
        },
        "sub_expansion": {
            "selection_within_domain": sel_ok,
            "tautology": res.tautology,
            "property_holds_at_4": res.holds,
        },
        "derivation": {
            "steps": len(d.steps),
            "step_counts": dict(sorted(counts.items())),
            "accepted": report.ok,
            "axiom_tautology": report.axiom_tautology,
            "axiom_matches_sub_expansion": _same_print(d.axiom, j),
            "order_bound": bound.value,
        },
        "free_variable": {
            "accepted": fv_report.ok,
            "gamma_vars": len(free_gamma_vars(b)),
            "sigma": {k: print_term(t) for k, t in sorted(sigma.items())},
            "instantiation_matches_sub_expansion": _same_print(
                b_instantiated, sub_star),
            "skolem_symbols_reused": reused,
        },
    }


def _same_print(f: Formula, g: Formula) -> bool:
    return print_formula(f) == print_formula(g)
