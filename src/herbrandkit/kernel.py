"""Derivation checking for three linear calculi over the same step store.

A derivation is replayed deductively: starting from its axiom, every step
turns the previous line into the next one.  Step checking names the violated
side condition on failure.

Modes and their rules:
    heijenoort        gamma-quant, delta-minus, simp, gamma-simp, rename
    herbrand-original nongen-gamma, nongen-delta, nongen-simp, passage, rename
    free-variable     restricted-gamma, deltapp, simp, gamma-simp, rename

The generalized quantification rules work in any context; the historical
nongen- rules only at the root, with the rules of passage for moving
quantifiers.  delta-minus needs its variable absent from the context;
delta++ replaces the variable by a registry Skolem term over the free
instantiation variables of the scope and has no context condition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .skolem import SkolemRegistry, deltapp_scope
from .syntax import (
    And, App, Atom, CaptureError, Exists, Forall, Formula, FormulaError,
    GammaVar, Not, Or, PathError, Quant, Term, Var,
    all_names, alpha_equal, bound_names, classify_quantifier, collect_signature,
    free_names, fresh_name, is_quantifier_free, nameify_term, parse_formula,
    parse_term, path_nodes, polarity_at, print_formula, print_term,
    promote_skolem_apps, rename_binder, replace_at, subformula_at, substitute,
    term_free_names, var_for_name,
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

def _passage_rewrite(sub: Formula, eq: int, direction: str, avoid: set[str]) -> Formula:
    """Rewrite one of the six quantifier-passage equivalences at the root of
    sub.  Prenex reads left to right and may rename the bound variable away
    from the other disjunct; antiprenex requires the variable absent from
    the part it leaves behind."""
    if eq not in range(1, 7):
        raise StepError("passage-shape", f"no passage equation {eq}")
    if direction not in ("prenex", "antiprenex"):
        raise StepError("passage-shape", f"bad direction {direction!r}")
    pre = direction == "prenex"

    def freshen(x, a, b):
        # rename the bound x of the moving quantifier away from b
        if x in free_names(b):
            x2 = fresh_name(x, avoid | all_names(a) | free_names(b))
            return x2, substitute(a, {x: var_for_name(x2)})
        return x, a

    match eq, pre, sub:
        case 1, True, Not(Forall(x, a)):
            return Exists(x, Not(a))
        case 1, False, Exists(x, Not(a)):
            return Not(Forall(x, a))
        case 2, True, Not(Exists(x, a)):
            return Forall(x, Not(a))
        case 2, False, Forall(x, Not(a)):
            return Not(Exists(x, a))
        case 3, True, Or(Forall(x, a), b):
            x, a = freshen(x, a, b)
            return Forall(x, Or(a, b))
        case 3, False, Forall(x, Or(a, b)):
            if x in free_names(b):
                raise StepError("passage-free-violation",
                                f"{x} is free in the right disjunct")
            return Or(Forall(x, a), b)
        case 4, True, Or(b, Forall(x, a)):
            x, a = freshen(x, a, b)
            return Forall(x, Or(b, a))
        case 4, False, Forall(x, Or(b, a)):
            if x in free_names(b):
                raise StepError("passage-free-violation",
                                f"{x} is free in the left disjunct")
            return Or(b, Forall(x, a))
        case 5, True, Or(Exists(x, a), b):
            x, a = freshen(x, a, b)
            return Exists(x, Or(a, b))
        case 5, False, Exists(x, Or(a, b)):
            if x in free_names(b):
                raise StepError("passage-free-violation",
                                f"{x} is free in the right disjunct")
            return Or(Exists(x, a), b)
        case 6, True, Or(b, Exists(x, a)):
            x, a = freshen(x, a, b)
            return Exists(x, Or(b, a))
        case 6, False, Exists(x, Or(b, a)):
            if x in free_names(b):
                raise StepError("passage-free-violation",
                                f"{x} is free in the left disjunct")
            return Or(b, Exists(x, a))
    raise StepError("passage-shape",
                    f"equation {eq} ({direction}) does not match "
                    f"{print_formula(sub)[:60]}")


def apply_passage(f: Formula, path: tuple[int, ...], eq: int,
                  direction: str) -> Formula:
    """Apply one rule of passage at the given position."""
    sub = subformula_at(f, path)
    return replace_at(f, path, _passage_rewrite(sub, eq, direction, all_names(f)))


# ---------------------------------------------------------------------------
# step checking

def _wrap(step: RuleStep, scope: Formula) -> Formula:
    if step.quant not in ("forall", "exists"):
        raise StepError("bad-step", f"missing or bad quantifier kind {step.quant!r}")
    if step.var is None:
        raise StepError("bad-step", "missing binder name")
    try:
        var_for_name(step.var)
    except FormulaError as e:
        raise StepError("bad-binder-name", str(e))
    if step.var in bound_names(scope):
        raise StepError("binder-collision",
                        f"{step.var} is already bound inside the scope")
    make = Forall if step.quant == "forall" else Exists
    return make(step.var, scope)


def _subformula(f, path):
    try:
        return subformula_at(f, path)
    except PathError as e:
        raise StepError("bad-path", str(e))


def _check_quant_class(result, path, want_class, accessible_required, cond_prefix):
    kind, klass, accessible = classify_quantifier(result, path)
    if klass != want_class:
        raise StepError(f"not-a-{want_class}",
                        f"the introduced quantifier is a {klass} here")
    if accessible_required and not accessible:
        raise StepError(f"{cond_prefix}-not-accessible",
                        "the introduced quantifier sits below another quantifier")
    return kind


def _gamma_quant(f, step, restricted, root_only):
    if root_only and step.path != ():
        raise StepError("nongen-context",
                        "this rule applies only at the root of the formula")
    if step.scope is None or step.term is None:
        raise StepError("bad-step", "gamma quantification needs scope and term")
    h = step.scope
    t = step.term
    if restricted and not isinstance(t, GammaVar):
        raise StepError("witness-not-gamma-var",
                        f"restricted gamma needs an instantiation variable, "
                        f"got {print_term(t)}")
    captured = term_free_names(t) & bound_names(h)
    if captured:
        raise StepError("witness-capture",
                        "the witness uses " + ", ".join(sorted(captured)) +
                        " bound by quantifiers of the scope")
    wrapped = _wrap(step, h)
    try:
        inst = substitute(h, {step.var: t}, strict=True)
    except CaptureError as e:
        raise StepError("witness-capture", str(e))
    prev = _subformula(f, step.path)
    if prev != inst:
        raise StepError("premise-mismatch",
                        f"the premise at the path is not the scope instance; "
                        f"expected {print_formula(inst)[:80]}")
    result = replace_at(f, step.path, wrapped)
    kind = _check_quant_class(result, step.path, "gamma", True, "gamma")
    if kind != step.quant:
        raise StepError("bad-step", "quantifier kind mismatch")
    return result


def _delta_minus(f, step, root_only):
    if root_only and step.path != ():
        raise StepError("nongen-context",
                        "this rule applies only at the root of the formula")
    h = _subformula(f, step.path)
    wrapped = _wrap(step, h)
    result = replace_at(f, step.path, wrapped)
    if any(isinstance(g, Quant) and g.var == step.var
           for g in path_nodes(f, step.path)[:-1]):
        raise StepError("context-capture",
                        f"{step.var} is bound by an enclosing quantifier")
    hole = replace_at(f, step.path, Atom("valid", ()))
    if step.var in free_names(hole):
        raise StepError("context-capture",
                        f"{step.var} occurs free in the context")
    kind = _check_quant_class(result, step.path, "delta", False, "delta")
    if kind != step.quant:
        raise StepError("bad-step", "quantifier kind mismatch")
    return result


def _solve_instance(scope: Formula, var: str, got: Formula):
    """Find the term t with scope{var -> t} == got; returns t, or None when
    var has no free occurrence in scope (then scope must equal got).
    Raises premise-mismatch when no consistent t exists."""
    found: list[Term] = []

    def wt(a: Term, b: Term, shadowed: bool) -> bool:
        if not shadowed and isinstance(a, Var) and a.name == var:
            found.append(b)
            return True
        match a, b:
            case App(s1, k1, a1), App(s2, k2, a2):
                return (s1 == s2 and k1 == k2 and len(a1) == len(a2)
                        and all(wt(x, y, shadowed) for x, y in zip(a1, a2)))
            case _:
                return a == b

    def wf(p: Formula, q: Formula, shadowed: bool) -> bool:
        match p, q:
            case Atom(n1, a1), Atom(n2, a2):
                return (n1 == n2 and len(a1) == len(a2)
                        and all(wt(x, y, shadowed) for x, y in zip(a1, a2)))
            case Not(s1), Not(s2):
                return wf(s1, s2, shadowed)
            case (And(l1, r1), And(l2, r2)) | (Or(l1, r1), Or(l2, r2)):
                return wf(l1, l2, shadowed) and wf(r1, r2, shadowed)
            case (Forall(v1, b1), Forall(v2, b2)) | (Exists(v1, b1), Exists(v2, b2)):
                return v1 == v2 and wf(b1, b2, shadowed or v1 == var)
            case _:
                return False

    if not wf(scope, got, False):
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
    wrapped = _wrap(step, h)
    listed, key = deltapp_scope(wrapped)
    prev = _subformula(f, step.path)
    known = registry.lookup(key)
    if known is not None:
        sym, arity = known
        if arity != len(listed):
            raise StepError("registry-mismatch",
                            f"registry has {sym}/{arity}, scope lists "
                            f"{len(listed)} instantiation variables")
        repl = App(sym, True, listed)
        inst = substitute(h, {step.var: repl})
        if prev != inst:
            raise StepError("delta-term-mismatch",
                            f"the premise does not use the registry term "
                            f"{print_term(repl)}")
    else:
        t = _solve_instance(h, step.var, prev)
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
    result = replace_at(f, step.path, wrapped)
    kind = _check_quant_class(result, step.path, "delta", False, "delta")
    if kind != step.quant:
        raise StepError("bad-step", "quantifier kind mismatch")
    return result, sym


def _simplification(f, step, gamma, root_only):
    if root_only and step.path != ():
        raise StepError("nongen-context",
                        "this rule applies only at the root of the formula")
    if step.keep not in ("left", "right"):
        raise StepError("bad-step", f"keep must be left or right, got {step.keep!r}")
    node = _subformula(f, step.path)
    sign = polarity_at(f, step.path)
    match node:
        case Or(_, _):
            if sign < 0:
                raise StepError("operator-polarity",
                                "disjunctive simplification needs a positive position")
        case And(_, _):
            if sign > 0:
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
    result = replace_at(f, step.path, kept)
    if gamma:
        if not isinstance(kept, Quant):
            raise StepError("kept-not-gamma",
                            "gamma simplification keeps a quantified formula")
        _, klass, _ = classify_quantifier(result, step.path)
        if klass != "gamma":
            raise StepError("kept-not-gamma",
                            "the kept quantifier is not a gamma here")
    return result


def _rename(f, step):
    node = _subformula(f, step.path)
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
    return replace_at(f, step.path, rename_binder(node, step.new))


def check_step(f: Formula, step: RuleStep,
               registry: SkolemRegistry | None = None) -> Formula:
    """The next derivation line, or StepError naming the violated side
    condition.  Mode gating is the caller's business."""
    if registry is None:
        registry = SkolemRegistry()
    match step.tag:
        case "gamma-quant":
            return _gamma_quant(f, step, restricted=False, root_only=False)
        case "restricted-gamma":
            return _gamma_quant(f, step, restricted=True, root_only=False)
        case "nongen-gamma":
            return _gamma_quant(f, step, restricted=False, root_only=True)
        case "delta-minus":
            return _delta_minus(f, step, root_only=False)
        case "nongen-delta":
            return _delta_minus(f, step, root_only=True)
        case "deltapp":
            result, _ = _deltapp(f, step, registry)
            return result
        case "simp":
            return _simplification(f, step, gamma=False, root_only=False)
        case "gamma-simp":
            return _simplification(f, step, gamma=True, root_only=False)
        case "nongen-simp":
            return _simplification(f, step, gamma=False, root_only=True)
        case "passage":
            sub = _subformula(f, step.path)
            return replace_at(f, step.path,
                              _passage_rewrite(sub, step.eq, step.direction,
                                               all_names(f)))
        case "rename":
            return _rename(f, step)
    raise StepError("unknown-rule", f"no rule {step.tag!r}")


def check_derivation(d: Derivation,
                     registry: SkolemRegistry | None = None) -> CheckReport:
    """Replay a derivation from its axiom and verify every side condition,
    the mode's rule gating, and the claimed end formula."""
    report = CheckReport(ok=False)
    if d.mode not in MODES:
        report.error, report.error_message = "unknown-mode", f"no mode {d.mode!r}"
        return report
    allowed = MODES[d.mode]
    if registry is None:
        registry = SkolemRegistry()
    report.axiom_quantifier_free = is_quantifier_free(d.axiom)
    if report.axiom_quantifier_free:
        report.axiom_tautology = is_tautology(d.axiom)
    cur = d.axiom
    report.lines.append(cur)
    for i, step in enumerate(d.steps):
        if step.tag not in allowed:
            report.error = "rule-not-in-mode"
            report.error_message = f"rule {step.tag} is not part of mode {d.mode}"
            report.step_index = i
            return report
        try:
            if step.tag == "deltapp":
                cur, sym = _deltapp(cur, step, registry)
                report.deltapp_symbols.append(sym)
            else:
                cur = check_step(cur, step, registry)
        except StepError as e:
            report.error = e.condition
            report.error_message = str(e)
            report.step_index = i
            return report
        if step.tag in GAMMA_TAGS:
            report.witnesses.append(step.term)
        report.lines.append(cur)
    if cur != d.end:
        report.error = "end-mismatch"
        report.error_message = (f"derivation ends at {print_formula(cur)[:80]}, "
                                f"claimed {print_formula(d.end)[:80]}")
        return report
    end_funcs = set(collect_signature(d.end).functions)
    clash = sorted(set(report.deltapp_symbols) & end_funcs)
    if clash:
        report.error = "skolem-symbol-in-signature"
        report.error_message = ("delta++ symbols already occur in the end "
                                "formula: " + ", ".join(clash))
        return report
    report.ok = True
    report.final = cur
    return report


# ---------------------------------------------------------------------------
# proof scripts

_STEP_FIELDS = {
    GAMMA_QUANT: ("path", "q", "var", "scope", "term"),
    RESTRICTED_GAMMA: ("path", "q", "var", "scope", "term"),
    NONGEN_GAMMA: ("path", "q", "var", "scope", "term"),
    DELTA_MINUS: ("path", "q", "var"),
    NONGEN_DELTA: ("path", "q", "var"),
    DELTAPP: ("path", "q", "var", "scope"),
    SIMP: ("path", "keep"),
    GAMMA_SIMP: ("path", "keep"),
    NONGEN_SIMP: ("path", "keep"),
    PASSAGE: ("path", "eq", "dir"),
    RENAME: ("path", "var", "new"),
}


def format_path(path: tuple[int, ...]) -> str:
    return ".".join(map(str, path)) if path else "."


def parse_path(text: str) -> tuple[int, ...]:
    if text in (".", ""):
        return ()
    try:
        return tuple(int(p) for p in text.split("."))
    except ValueError:
        raise FormulaError(f"bad path {text!r}")


def print_script(d: Derivation) -> str:
    lines = [f"mode: {d.mode}", f"start: {print_formula(d.axiom)}"]
    for s in d.steps:
        parts = [f"step: {s.tag}", f"path={format_path(s.path)}"]
        for fld in _STEP_FIELDS[s.tag]:
            match fld:
                case "path":
                    continue
                case "q":
                    parts.append(f"q={s.quant}")
                case "var":
                    parts.append(f"var={{{s.var}}}")
                case "scope":
                    parts.append(f"scope={{{print_formula(s.scope)}}}")
                case "term":
                    parts.append(f"term={{{print_term(s.term)}}}")
                case "keep":
                    parts.append(f"keep={s.keep}")
                case "eq":
                    parts.append(f"eq={s.eq}")
                case "dir":
                    parts.append(f"dir={s.direction}")
                case "new":
                    parts.append(f"new={{{s.new}}}")
        lines.append(" ".join(parts))
    lines.append(f"end: {print_formula(d.end)}")
    return "\n".join(lines) + "\n"


_KV_RE = re.compile(r"(\w+)=(\{[^}]*\}|\S+)")


class ScriptError(FormulaError):
    pass


def _script_formula(text: str, mode: str) -> Formula:
    f = parse_formula(text)
    if mode == "heijenoort":
        f = promote_skolem_apps(f)
    return f


def _script_term(text: str, mode: str) -> Term:
    t = parse_term(text)
    if mode == "heijenoort":
        t = nameify_term(t)
    return t


def parse_script(text: str) -> Derivation:
    mode = None
    axiom = None
    end = None
    steps: list[RuleStep] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ScriptError(f"line {ln}: expected 'key: value', got {line!r}")
        head, rest = line.split(":", 1)
        head = head.strip()
        rest = rest.strip()
        if head == "mode":
            if rest not in MODES:
                raise ScriptError(f"line {ln}: unknown mode {rest!r}")
            mode = rest
        elif head == "start":
            if mode is None:
                raise ScriptError(f"line {ln}: mode must come before start")
            axiom = _script_formula(rest, mode)
        elif head == "end":
            if mode is None:
                raise ScriptError(f"line {ln}: mode must come before end")
            end = _script_formula(rest, mode)
        elif head == "step":
            if mode is None:
                raise ScriptError(f"line {ln}: mode must come before steps")
            tag, _, fields = rest.partition(" ")
            if tag not in _STEP_FIELDS:
                raise ScriptError(f"line {ln}: unknown rule {tag!r}")
            kv = {}
            for m in _KV_RE.finditer(fields):
                val = m.group(2)
                if val.startswith("{"):
                    val = val[1:-1]
                kv[m.group(1)] = val
            need = set(_STEP_FIELDS[tag])
            missing = need - set(kv)
            if missing:
                raise ScriptError(
                    f"line {ln}: rule {tag} is missing {', '.join(sorted(missing))}")
            try:
                step = RuleStep(
                    tag=tag,
                    path=parse_path(kv["path"]),
                    quant=kv.get("q"),
                    var=kv.get("var"),
                    scope=_script_formula(kv["scope"], mode) if "scope" in kv else None,
                    term=_script_term(kv["term"], mode) if "term" in kv else None,
                    keep=kv.get("keep"),
                    eq=int(kv["eq"]) if "eq" in kv else None,
                    direction=kv.get("dir"),
                    new=kv.get("new"),
                )
            except FormulaError as e:
                raise ScriptError(f"line {ln}: {e}")
            steps.append(step)
        else:
            raise ScriptError(f"line {ln}: unknown directive {head!r}")
    if mode is None or axiom is None or end is None:
        raise ScriptError("script needs mode:, start:, and end: lines")
    return Derivation(mode, axiom, tuple(steps), end)
