"""Derivation checking for three linear calculi over the same step store.

A derivation is replayed deductively: starting from its axiom, every step
turns the previous line into the next one.  Step checking names the violated
side condition on failure.

Modes and their rules:
    heijenoort        gamma-quant, delta-minus, simp, gamma-simp, rename
    herbrand-original nongen-gamma, nongen-delta, nongen-simp, passage, rename
    free-variable     restricted-gamma, deltapp, simp, gamma-simp, rename

One rule table, _RULES, gives each rule its checking function and its
proof-script fields.  The generalized quantification rules work in any
context.  Herbrand's nongen- rules are the same rules restricted to the
root, which the dispatcher checks before the rule runs; the rules of
passage move quantifiers in their place.  delta-minus needs its variable
absent from the context; delta++ replaces the variable by a registry
Skolem term over the free instantiation variables of the scope and has no
context condition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

from .skolem import SkolemRegistry, deltapp_scope
from .syntax import (
    And, App, CaptureError, Exists, Forall, Formula, FormulaError,
    GammaVar, Not, Or, PathError, Quant, Site, Term, Var,
    all_names, alpha_equal, bound_names, children, collect_signature, equal,
    free_names, fresh_name, is_gamma, is_quantifier_free, locate,
    nameify_term, paired, parse_formula, parse_term, print_formula,
    print_term, promote_skolem_apps, quant_kind, rename_binder,
    substitute, term_free_names, var_for_name,
)
from .taut import is_tautology

GAMMA_QUANT = "gamma-quant"
RESTRICTED_GAMMA = "restricted-gamma"
DELTA_MINUS = "delta-minus"
DELTAPP = "deltapp"
SIMP = "simp"
GAMMA_SIMP = "gamma-simp"
PASSAGE = "passage"
RENAME = "rename"
NONGEN_GAMMA = "nongen-gamma"
NONGEN_DELTA = "nongen-delta"
NONGEN_SIMP = "nongen-simp"

MODES = {
    "heijenoort": {GAMMA_QUANT, DELTA_MINUS, SIMP, GAMMA_SIMP, RENAME},
    "herbrand-original": {NONGEN_GAMMA, NONGEN_DELTA, NONGEN_SIMP, PASSAGE, RENAME},
    "free-variable": {RESTRICTED_GAMMA, DELTAPP, SIMP, GAMMA_SIMP, RENAME},
}

GAMMA_TAGS = {GAMMA_QUANT, RESTRICTED_GAMMA, NONGEN_GAMMA}


class StepError(FormulaError):
    def __init__(self, condition: str, msg: str):
        super().__init__(f"{condition}: {msg}")
        self.condition = condition


@dataclass(frozen=True)
class RuleStep:
    tag: str
    path: tuple[int, ...] = ()
    quant: str | None = None      # forall | exists
    var: str | None = None        # binder being introduced or renamed
    scope: Formula | None = None  # H, with var free
    term: Term | None = None      # gamma witness
    keep: str | None = None       # left | right
    eq: int | None = None         # passage equation 1..6
    direction: str | None = None  # prenex | antiprenex
    new: str | None = None        # rename target


@dataclass(frozen=True)
class Derivation:
    mode: str
    axiom: Formula
    steps: tuple[RuleStep, ...]
    end: Formula
    # the registry entries a check started from -> (its report, the entries
    # it left); see check_derivation
    _checked: dict = field(default_factory=dict, init=False, compare=False,
                           repr=False)

    def __post_init__(self):
        # the remembered checks hold only while the steps cannot change
        object.__setattr__(self, "steps", tuple(self.steps))


@dataclass
class CheckReport:
    ok: bool
    error: str | None = None          # side condition name
    error_message: str | None = None
    step_index: int | None = None     # 0-based failing step
    final: Formula | None = None
    lines: list[Formula] = field(default_factory=list)
    witnesses: list[Term] = field(default_factory=list)
    axiom_quantifier_free: bool = False
    axiom_tautology: bool | None = None
    deltapp_symbols: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# rules of passage

# equation: (the quantifier that moves, the index of its disjunct); None for
# equations 1 and 2, where it crosses a negation and turns into its dual
_PASSAGE = {1: (Forall, None), 2: (Exists, None), 3: (Forall, 0),
            4: (Forall, 1), 5: (Exists, 0), 6: (Exists, 1)}
_DUAL = {Forall: Exists, Exists: Forall}


def _placed(side: int, a, b):
    """The pair with a at index side and b at the other; applied to such a
    pair it gives (a, b) back."""
    return (a, b) if side == 0 else (b, a)


def _passage_rewrite(sub: Formula, eq: int, direction: str, avoid: set[str]) -> Formula:
    """Rewrite one of the six quantifier-passage equivalences at the root of
    sub.  Prenex reads left to right and may rename the bound variable away
    from the other disjunct; antiprenex requires the variable absent from
    the part it leaves behind."""
    if eq not in range(1, 7):
        raise StepError("passage-shape", f"no passage equation {eq}")
    if direction not in ("prenex", "antiprenex"):
        raise StepError("passage-shape", f"bad direction {direction!r}")
    quant, side = _PASSAGE[eq]
    if side is None:
        if direction == "prenex":
            if isinstance(sub, Not) and isinstance(sub.sub, quant):
                return _DUAL[quant](sub.sub.var, Not(sub.sub.body))
        elif isinstance(sub, _DUAL[quant]) and isinstance(sub.body, Not):
            return Not(quant(sub.var, sub.body.sub))
    elif direction == "prenex":
        if isinstance(sub, Or):
            q, b = _placed(side, sub.left, sub.right)
            if isinstance(q, quant):
                x, a = q.var, q.body
                if x in free_names(b):  # rename x away from b
                    x2 = fresh_name(x, avoid | all_names(a) | free_names(b))
                    x, a = x2, substitute(a, {x: var_for_name(x2)})
                return quant(x, Or(*_placed(side, a, b)))
    elif isinstance(sub, quant) and isinstance(sub.body, Or):
        a, b = _placed(side, sub.body.left, sub.body.right)
        if sub.var in free_names(b):
            raise StepError("passage-free-violation",
                            f"{sub.var} is free in the {('right', 'left')[side]} disjunct")
        return Or(*_placed(side, quant(sub.var, a), b))
    raise StepError("passage-shape",
                    f"equation {eq} ({direction}) does not match "
                    f"{print_formula(sub)[:60]}")


def apply_passage(f: Formula, path: tuple[int, ...], eq: int,
                  direction: str) -> Formula:
    """Apply one rule of passage at the given position."""
    site = locate(f, path)
    return site.plug(_passage_rewrite(site.node, eq, direction, all_names(f)))


# ---------------------------------------------------------------------------
# step checking: each rule takes (line, step, registry) and gives the next
# line and the registry symbol the step bound (None but for delta++); a
# path that names no subformula is a bad-path step.  A rule locates its
# position once, and the nodes above it, which give its class, do not change

def _wrap(step: RuleStep, scope: Formula, bound: set[str]) -> Formula:
    if step.quant not in ("forall", "exists"):
        raise StepError("bad-step", f"missing or bad quantifier kind {step.quant!r}")
    if step.var is None:
        raise StepError("bad-step", "missing binder name")
    try:
        var_for_name(step.var)
    except FormulaError as e:
        raise StepError("bad-binder-name", str(e))
    if step.var in bound:
        raise StepError("binder-collision",
                        f"{step.var} is already bound inside the scope")
    make = Forall if step.quant == "forall" else Exists
    return make(step.var, scope)


def _check_class(site: Site, kind: str, want: str):
    """A quantifier of this kind at site is of class want; a gamma is accessible."""
    klass = "gamma" if is_gamma(kind, site.sign) else "delta"
    if klass != want:
        raise StepError(f"not-a-{want}",
                        f"the introduced quantifier is a {klass} here")
    if want == "gamma" and not site.accessible:
        raise StepError("gamma-not-accessible",
                        "the introduced quantifier sits below another quantifier")


def _gamma_quant(f, step, registry, restricted=False):
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
    if not equal(site.node, inst):
        raise StepError("premise-mismatch",
                        f"the premise at the path is not the scope instance; "
                        f"expected {print_formula(inst)[:80]}")
    _check_class(site, step.quant, "gamma")
    return site.plug(wrapped), None


def _delta_minus(f, step, registry):
    site = locate(f, step.path)
    wrapped = _wrap(step, site.node, bound_names(site.node))
    if any(isinstance(g, Quant) and g.var == step.var for g in site.above):
        raise StepError("context-capture",
                        f"{step.var} is bound by an enclosing quantifier")
    # no binder on the path takes the variable, so the context has it free
    # exactly when a sibling of the path has it free
    if any(step.var in free_names(children(g)[1 - i])
           for g, i in zip(site.above, step.path) if isinstance(g, (And, Or))):
        raise StepError("context-capture",
                        f"{step.var} occurs free in the context")
    _check_class(site, step.quant, "delta")
    return site.plug(wrapped), None


def _solve_instance(scope: Formula, var: str, got: Formula):
    """Find the term t with scope{var -> t} == got; returns t, or None when
    var has no free occurrence in scope (then scope must equal got).
    Raises premise-mismatch when no consistent t exists.  No quantifier of
    the scope binds var (_wrap refuses such a scope)."""
    found: list[Term] = []

    def wt(a: Term, b: Term, env=None) -> bool:
        if isinstance(a, Var) and a.name == var:
            found.append(b)
            return True
        match a, b:
            case App(s1, k1, a1), App(s2, k2, a2):
                return (s1 == s2 and k1 == k2 and len(a1) == len(a2)
                        and all(wt(x, y) for x, y in zip(a1, a2)))
            case _:
                return a == b

    if not paired(scope, got, wt):
        raise StepError("premise-mismatch",
                        "the premise at the path is not an instance of the scope")
    if not found:
        return None
    t0 = found[0]
    if any(t != t0 for t in found):
        raise StepError("premise-mismatch",
                        "occurrences of the variable map to different terms")
    return t0


def _deltapp(f, step, registry: SkolemRegistry):
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
        if not equal(site.node, inst):
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


def _simplification(f, step, registry, gamma=False):
    if step.keep not in ("left", "right"):
        raise StepError("bad-step", f"keep must be left or right, got {step.keep!r}")
    site = locate(f, step.path)
    node = site.node
    match node:
        case Or(_, _):
            if site.sign < 0:
                raise StepError("operator-polarity",
                                "disjunctive simplification needs a positive position")
        case And(_, _):
            if site.sign > 0:
                raise StepError("operator-polarity",
                                "conjunctive simplification needs a negative position")
        case _:
            raise StepError("not-a-junction",
                            f"no conjunction or disjunction at the path, found "
                            f"{type(node).__name__}")
    kept, dropped = ((node.left, node.right) if step.keep == "left"
                     else (node.right, node.left))
    if not alpha_equal(kept, dropped):
        raise StepError("not-a-variant",
                        "the discarded operand is not a bound-renaming variant "
                        "of the kept one")
    if gamma:
        if not isinstance(kept, Quant):
            raise StepError("kept-not-gamma",
                            "gamma simplification keeps a quantified formula")
        if not is_gamma(quant_kind(kept), site.sign):
            raise StepError("kept-not-gamma",
                            "the kept quantifier is not a gamma here")
    return site.plug(kept), None


def _passage(f, step, registry):
    return apply_passage(f, step.path, step.eq, step.direction), None


def _rename(f, step, registry):
    site = locate(f, step.path)
    node = site.node
    if not isinstance(node, Quant):
        raise StepError("rename-target", "no quantifier at the path")
    if step.var != node.var:
        raise StepError("rename-target",
                        f"the quantifier binds {node.var}, not {step.var}")
    if step.new is None:
        raise StepError("bad-step", "rename needs a new name")
    try:
        var_for_name(step.new)
    except FormulaError as e:
        raise StepError("bad-binder-name", str(e))
    if step.new != step.var:
        if step.new in free_names(node.body):
            raise StepError("rename-collision",
                            f"{step.new} already occurs free in the scope")
        if step.new in bound_names(node.body):
            raise StepError("rename-collision",
                            f"{step.new} is bound inside the scope")
    return site.plug(rename_binder(node, step.new)), None


class _Rule(NamedTuple):
    check: Callable[[Formula, RuleStep, SkolemRegistry], tuple[Formula, str | None]]
    keys: tuple[str, ...]    # its proof-script fields, in print order
    root_only: bool = False  # Herbrand's form of a generalized rule


_GAMMA_KEYS = ("path", "q", "var", "scope", "term")
_SIMP_KEYS = ("path", "keep")
_RULES = {
    GAMMA_QUANT: _Rule(_gamma_quant, _GAMMA_KEYS),
    RESTRICTED_GAMMA: _Rule(partial(_gamma_quant, restricted=True), _GAMMA_KEYS),
    NONGEN_GAMMA: _Rule(_gamma_quant, _GAMMA_KEYS, root_only=True),
    DELTA_MINUS: _Rule(_delta_minus, ("path", "q", "var")),
    NONGEN_DELTA: _Rule(_delta_minus, ("path", "q", "var"), root_only=True),
    DELTAPP: _Rule(_deltapp, ("path", "q", "var", "scope")),
    SIMP: _Rule(_simplification, _SIMP_KEYS),
    GAMMA_SIMP: _Rule(partial(_simplification, gamma=True), _SIMP_KEYS),
    NONGEN_SIMP: _Rule(_simplification, _SIMP_KEYS, root_only=True),
    PASSAGE: _Rule(_passage, ("path", "eq", "dir")),
    RENAME: _Rule(_rename, ("path", "var", "new")),
}


def _apply(f: Formula, step: RuleStep,
           registry: SkolemRegistry) -> tuple[Formula, str | None]:
    rule = _RULES.get(step.tag)
    if rule is None:
        raise StepError("unknown-rule", f"no rule {step.tag!r}")
    if rule.root_only and step.path != ():
        raise StepError("nongen-context",
                        "this rule applies only at the root of the formula")
    try:
        return rule.check(f, step, registry)
    except PathError as e:
        raise StepError("bad-path", str(e))


def check_step(f: Formula, step: RuleStep,
               registry: SkolemRegistry | None = None) -> Formula:
    """The next derivation line, or StepError naming the violated side
    condition.  Mode gating is the caller's business."""
    return _apply(f, step, SkolemRegistry() if registry is None else registry)[0]


def check_derivation(d: Derivation,
                     registry: SkolemRegistry | None = None) -> CheckReport:
    """Replay a derivation from its axiom and verify every side condition,
    the mode's rule gating, and the claimed end formula.

    A derivation is frozen, so its replay depends only on it and on the
    registry entries the replay starts from.  The check is therefore
    remembered on d per registry state: a later call from the same entries
    replays no step, leaves the registry as the replay left it and returns
    a copy of the first report.  parse_script builds a new derivation, so a
    script read from text is always replayed in full."""
    before = () if registry is None else tuple(registry.entries.items())
    known = d._checked.get(before)
    if known is None:
        report = _replay(d, registry)
        after = () if registry is None else tuple(registry.entries.items())
        known = d._checked[before] = report, after
    elif registry is not None:
        registry.entries.clear()
        registry.entries.update(known[1])
    report = known[0]
    return replace(report, lines=list(report.lines),
                   witnesses=list(report.witnesses),
                   deltapp_symbols=list(report.deltapp_symbols))


def _replay(d: Derivation, registry: SkolemRegistry | None) -> CheckReport:
    """check_derivation's replay, step by step."""
    report = CheckReport(ok=False)

    def refuse(error, message, step_index=None):
        report.error, report.error_message = error, message
        report.step_index = step_index
        return report

    if d.mode not in MODES:
        return refuse("unknown-mode", f"no mode {d.mode!r}")
    if registry is None:
        registry = SkolemRegistry()
    report.axiom_quantifier_free = is_quantifier_free(d.axiom)
    if report.axiom_quantifier_free:
        report.axiom_tautology = is_tautology(d.axiom)
    cur = d.axiom
    report.lines.append(cur)
    for i, step in enumerate(d.steps):
        if step.tag not in MODES[d.mode]:
            return refuse("rule-not-in-mode",
                          f"rule {step.tag} is not part of mode {d.mode}", i)
        try:
            cur, sym = _apply(cur, step, registry)
        except StepError as e:
            return refuse(e.condition, str(e), i)
        if sym is not None:
            report.deltapp_symbols.append(sym)
        if step.tag in GAMMA_TAGS:
            report.witnesses.append(step.term)
        report.lines.append(cur)
    if not equal(cur, d.end):
        return refuse("end-mismatch",
                      f"derivation ends at {print_formula(cur)[:80]}, "
                      f"claimed {print_formula(d.end)[:80]}")
    clash = sorted(set(report.deltapp_symbols)
                   & set(collect_signature(d.end).functions))
    if clash:
        return refuse("skolem-symbol-in-signature",
                      "delta++ symbols already occur in the end formula: "
                      + ", ".join(clash))
    report.ok = True
    report.final = cur
    return report


# ---------------------------------------------------------------------------
# proof scripts

def format_path(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path)) if path else "."


def parse_path(text: str) -> tuple[int, ...]:
    if text in (".", ""):
        return ()
    try:
        return tuple(int(p) for p in text.split("."))
    except ValueError:
        raise FormulaError(f"bad path {text!r}")


def _script_reader(parse, name_view):
    """A reader of formulas or terms.  The heijenoort mode works in the
    Skolem-name view, so there a Skolem-headed term names a variable."""
    return lambda text, mode: (name_view(parse(text)) if mode == "heijenoort"
                               else parse(text))


_script_formula = _script_reader(parse_formula, promote_skolem_apps)
_script_term = _script_reader(parse_term, nameify_term)


def _script_eq(text: str, mode: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormulaError(f"bad equation number {text!r}")


def _braced(text) -> str:
    return f"{{{text}}}"


def _as_text(text: str, mode: str) -> str:
    return text


# script key: (RuleStep attribute, printer, reader of the text in a mode);
# a step line is read in this order
_FIELDS = {
    "path": ("path", format_path, lambda text, mode: parse_path(text)),
    "q": ("quant", str, _as_text),
    "var": ("var", _braced, _as_text),
    "scope": ("scope", lambda f: _braced(print_formula(f)), _script_formula),
    "term": ("term", lambda t: _braced(print_term(t)), _script_term),
    "keep": ("keep", str, _as_text),
    "eq": ("eq", str, _script_eq),
    "dir": ("direction", str, _as_text),
    "new": ("new", _braced, _as_text),
}


def print_script(d: Derivation) -> str:
    lines = [f"mode: {d.mode}", f"start: {print_formula(d.axiom)}"]
    for s in d.steps:
        parts = [f"step: {s.tag}"]
        for key in _RULES[s.tag].keys:
            attr, show, _ = _FIELDS[key]
            parts.append(f"{key}={show(getattr(s, attr))}")
        lines.append(" ".join(parts))
    lines.append(f"end: {print_formula(d.end)}")
    return "\n".join(lines) + "\n"


_KV_RE = re.compile(r"(\w+)=(\{[^}]*\}|\S+)")


class ScriptError(FormulaError):
    pass


def parse_script(text: str) -> Derivation:
    mode = axiom = end = None
    steps: list[RuleStep] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ScriptError(f"line {ln}: expected 'key: value', got {line!r}")
        head, rest = (part.strip() for part in line.split(":", 1))
        if head in ("start", "end", "step") and mode is None:
            raise ScriptError(f"line {ln}: mode must come before "
                              f"{'steps' if head == 'step' else head}")
        if head == "mode":
            if rest not in MODES:
                raise ScriptError(f"line {ln}: unknown mode {rest!r}")
            mode = rest
        elif head == "start":
            axiom = _script_formula(rest, mode)
        elif head == "end":
            end = _script_formula(rest, mode)
        elif head == "step":
            tag, _, fields = rest.partition(" ")
            if tag not in _RULES:
                raise ScriptError(f"line {ln}: unknown rule {tag!r}")
            kv = {k: v[1:-1] if v.startswith("{") else v
                  for k, v in _KV_RE.findall(fields)}
            keys = _RULES[tag].keys
            missing = set(keys) - set(kv)
            if missing:
                raise ScriptError(
                    f"line {ln}: rule {tag} is missing {', '.join(sorted(missing))}")
            extra = next((k for k in kv if k not in keys), None)
            if extra is not None:
                raise ScriptError(f"line {ln}: rule {tag} takes no field {extra}")
            try:
                steps.append(RuleStep(tag, **{
                    attr: read(kv[key], mode)
                    for key, (attr, _, read) in _FIELDS.items() if key in kv}))
            except FormulaError as e:
                raise ScriptError(f"line {ln}: {e}")
        else:
            raise ScriptError(f"line {ln}: unknown directive {head!r}")
    if mode is None or axiom is None or end is None:
        raise ScriptError("script needs mode:, start:, and end: lines")
    return Derivation(mode, axiom, tuple(steps), end)
