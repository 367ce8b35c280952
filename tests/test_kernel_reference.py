"""The kernel's rule table against references: the passage rewrite against
the twelve-arm version it replaced, the gamma and delta++ premise checks
and the delta context check against the ones they replaced, and the report
conditions of proof scripts under one-line deletions and single-field
mutations, pinned."""

import dataclasses
import random
import re
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from herbrandkit import kernel
from herbrandkit.kernel import (
    MODES,
    Derivation,
    RuleStep,
    ScriptError,
    StepError,
    _delta_minus,
    _deltapp,
    _gamma_quant,
    _passage_rewrite,
    check_derivation,
    check_step,
    parse_script,
    print_script,
)
from herbrandkit.skolem import SkolemRegistry, deltapp_scope, key_hash
from herbrandkit.syntax import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    GammaVar,
    Not,
    Or,
    PathError,
    SkolemNamedVar,
    Var,
    all_names,
    bound_names,
    fresh_name,
    free_names,
    locate,
    print_formula,
    substitute,
    var_for_name,
)

from conftest import random_qf
from references import (
    reference_delta_minus, reference_deltapp, reference_gamma_quant, sites,
)
from test_fold import BINDERS, TERMS, X, Y, random_formula

GOLDEN = Path(__file__).parent / "data" / "golden"


# ---------------------------------------------------------------------------
# reference: the passage rewrite as one match arm per equation and direction

def reference_passage_rewrite(sub, eq, direction, avoid):
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


def _outcome(rewrite, *args):
    try:
        return rewrite(*args)
    except StepError as e:
        return e.condition, str(e)


def _passage_shapes(rng):
    """Formulas shaped for each side of each equation and some that fit
    none; the other disjunct often has the moving variable or its first
    fresh name free, so prenex renames."""
    x, x1, y, c = Var("x"), Var("x_1"), Var("y"), Var("c")
    a = random_qf(rng, [Atom("p", (x,)), Atom("q", (x, x1)), Atom("r", ())], 2)
    b = random_qf(rng, [Atom("p", (x,)), Atom("p", (c,)), Atom("q", (y, x1))], 1)
    q = rng.choice([Forall, Exists])
    return [Not(q("x", a)), q("x", Not(a)), Or(q("x", a), b), Or(b, q("x", a)),
            q("x", Or(a, b)), q("x", Or(b, a)), And(q("x", a), b), a]


def test_passage_rewrite_agrees_with_the_reference():
    rng = random.Random(8)
    seen = Counter()
    for _ in range(150):
        for sub in _passage_shapes(rng):
            avoid = all_names(sub) | set(rng.sample(["x_1", "x_2", "y"], 2))
            for eq in range(8):
                for direction in ("prenex", "antiprenex", "sideways"):
                    args = (sub, eq, direction, avoid)
                    want = _outcome(reference_passage_rewrite, *args)
                    assert _outcome(_passage_rewrite, *args) == want, args
                    if isinstance(want, tuple):
                        seen[want[0]] += 1
                    else:
                        seen["renamed" if all_names(want) - all_names(sub)
                             else "moved"] += 1
    assert seen == {"passage-shape": 27600, "moved": 654,
                    "passage-free-violation": 402, "renamed": 144}


# ---------------------------------------------------------------------------
# the gamma and delta++ premise checks and the delta context check against
# the ones they replaced

# rule tag -> (the kernel's check, the reference check)
_CHECKS = {
    "gamma-quant": (_gamma_quant, reference_gamma_quant),
    "nongen-gamma": (_gamma_quant, reference_gamma_quant),
    "restricted-gamma": (partial(_gamma_quant, restricted=True),
                         partial(reference_gamma_quant, restricted=True)),
    "delta-minus": (_delta_minus, reference_delta_minus),
    "nongen-delta": (_delta_minus, reference_delta_minus),
    "deltapp": (_deltapp, reference_deltapp),
}


def _check_outcome(check, line, step, entries):
    """The next line, or the condition and message of the StepError, from a
    registry holding entries; a path that leaves the line is the kernel's
    bad-path."""
    try:
        return check(line, step, SkolemRegistry(dict(entries)))[0]
    except StepError as e:
        return e.condition, str(e)
    except PathError as e:
        return "bad-path", str(e)


def _outcome_name(outcome):
    return outcome[0] if isinstance(outcome, tuple) else "accepted"


def _agree(line, step, entries=()):
    """The outcome of step on line under the kernel's check, after asserting
    that the reference gives the same next line or the same error."""
    check, reference = _CHECKS[step.tag]
    got = _check_outcome(check, line, step, entries)
    want = _check_outcome(reference, line, step, entries)
    assert type(got) is type(want) and got == want, (print_formula(line), step)
    if not isinstance(got, tuple):
        assert print_formula(got) == print_formula(want)
    return got


_SK_XY = SkolemNamedVar(App("sk_m", True, (X, Y)))


def _step_mutations(step, line, d):
    """step, then step with one of its witness term, path, binder name or
    quantifier kind changed: to the value of another step of d, or to an
    instantiation variable, a Skolem-named variable or name, a name bound in
    the scope or free in the line."""
    yield step
    others = [s for s in d.steps if s.tag in _CHECKS]
    scope = step.scope if step.scope is not None else _node_or_none(line, step.path)
    inside = sorted(bound_names(scope)) if scope is not None else []
    terms = {s.term for s in others if s.term is not None}
    terms |= {Var("c"), GammaVar("z"), _SK_XY} | {var_for_name(n) for n in inside}
    paths = {s.path for s in others} | {(), (7,), step.path + (0,), step.path[:-1]}
    names = {s.var for s in others} | set(inside) | set(free_names(line))
    names |= {"w", "?z", "sk_m(x,y)", "sk_q", "f(x)"}
    for field, values in (("term", terms), ("path", paths), ("var", names),
                          ("quant", {"forall", "exists", "some"})):
        if field == "term" and step.term is None:
            continue
        for v in sorted(values, key=str):
            if v != getattr(step, field):
                yield dataclasses.replace(step, **{field: v})


def _node_or_none(line, path):
    try:
        return locate(line, path).node
    except PathError:
        return None


# the outcomes each family's mutations reach
_REACHED = {
    "derive_upper": {"accepted", "premise-mismatch", "witness-capture",
                     "context-capture", "binder-collision", "bad-binder-name",
                     "bad-path", "not-a-gamma", "not-a-delta"},
    "derive_upper_fv": {"accepted", "premise-mismatch", "witness-not-gamma-var",
                        "binder-collision", "bad-binder-name", "bad-path",
                        "not-a-gamma", "not-a-delta", "delta-term-mismatch",
                        "registry-mismatch"},
    "herbrand-original": {"accepted", "premise-mismatch", "witness-capture",
                          "binder-collision", "bad-binder-name", "bad-path",
                          "not-a-gamma", "not-a-delta"},
}


@pytest.mark.parametrize("family", sorted(_REACHED))
def test_premise_and_context_checks_agree_with_the_reference(family):
    """Every gamma, delta and delta++ step of the scripts, and each with one
    field changed, on the line it was made for, from a fresh registry and
    from the one the whole replay leaves, which knows every delta++ scope
    of the script."""
    seen = Counter()
    for text in _script_family(family):
        d = parse_script(text)
        filled = SkolemRegistry()
        assert check_derivation(d, filled).ok
        line, registry = d.axiom, SkolemRegistry()
        for step in d.steps:
            if step.tag in _CHECKS:
                for mutated in _step_mutations(step, line, d):
                    for entries in ({}, filled.entries):
                        seen[_outcome_name(_agree(line, mutated, entries))] += 1
            line = check_step(line, step, registry)
    assert _REACHED[family] <= set(seen), seen


def test_premise_and_context_checks_agree_on_shadowing_binders():
    """Random scopes and lines whose binders shadow one another and include
    a Skolem-named one, with witnesses that are plain, instantiation and
    Skolem-named variables: a gamma premise is the scope's instance, or now
    and then another formula; a delta sits at a random position; a delta++
    premise is the instance with the registry term of a registry that knows
    the scope, now and then at another arity, or another formula."""
    rng, drng = random.Random(22), random.Random(23)
    seen = Counter()
    for _ in range(1500):
        h = random_formula(rng, 4, [])
        var = rng.choice(BINDERS + ["w", "?g"])
        t = rng.choice(TERMS)
        premise = (substitute(h, {var: t}) if rng.random() < 0.8
                   else random_formula(rng, 3, []))
        line, path = rng.choice([
            (premise, ()), (Or(Atom("r"), premise), (1,)),
            (Not(And(premise, Atom("p", (X,)))), (0, 0)),
            (Forall("y", Or(premise, Atom("q", (X, Y)))), (0, 0))])
        quant = rng.choice(["forall", "exists"])
        tag = rng.choice(["gamma-quant", "restricted-gamma"])
        seen[_outcome_name(_agree(line, RuleStep(
            tag, path, quant=quant, var=var, scope=h, term=t)))] += 1
        line = random_formula(rng, 5, [])
        path = rng.choice([p for p, _, _, _ in sites(line)])
        seen[_outcome_name(_agree(line, RuleStep(
            "delta-minus", path, quant=quant,
            var=rng.choice(BINDERS + ["w", "?g"]))))] += 1
        h = random_formula(drng, 4, [])
        var = drng.choice(BINDERS + ["w", "?g"])
        quant = drng.choice(["forall", "exists"])
        listed, key = deltapp_scope((Forall if quant == "forall" else Exists)(var, h))
        known = {key_hash(key): ("sk_d", len(listed) + (drng.random() < 0.1))}
        premise = (substitute(h, {var: App("sk_d", True, listed)})
                   if drng.random() < 0.8 else random_formula(drng, 3, []))
        seen[_outcome_name(_agree(Or(Atom("r"), premise), RuleStep(
            "deltapp", (1,), quant=quant, var=var, scope=h), known))] += 1
    assert {"accepted", "premise-mismatch", "witness-capture",
            "binder-collision", "bad-binder-name", "witness-not-gamma-var",
            "context-capture", "not-a-gamma", "not-a-delta",
            "gamma-not-accessible", "delta-term-mismatch",
            "registry-mismatch"} <= set(seen), seen


@pytest.mark.parametrize("family", sorted(_REACHED))
def test_reports_over_mutated_scripts_agree_with_the_reference_checks(
        family, monkeypatch):
    """The report of every mutated script that parses, replayed by the
    kernel and by the kernel with the reference gamma and delta checks."""
    reference_rules = {tag: rule._replace(check=_CHECKS[tag][1])
                       if tag in _CHECKS else rule
                       for tag, rule in kernel._RULES.items()}

    def report(d):
        r = kernel._replay(d, None)
        return (r.ok, r.error, r.error_message, r.step_index,
                r.final and print_formula(r.final))

    for text in _script_family(family):
        for m in mutants(text):
            try:
                d = parse_script("\n".join(m) + "\n")
            except ScriptError:
                continue
            got = report(d)
            with monkeypatch.context() as patched:
                patched.setattr(kernel, "_RULES", reference_rules)
                assert got == report(d), m


# ---------------------------------------------------------------------------
# scripts under one-line deletions and single-field mutations

_FIELD_RE = re.compile(r"(\w+)=(\{[^}]*\}|\S+)")

# replacement values for each script key; the values the same key has on
# the nearest step lines above and below are tried too
_ALTERNATIVES = {
    "path": [".", "0", "1.0", "0.0.0", "5", "-1", "0.x"],
    "q": ["forall", "exists", "some"],
    "var": ["{x}", "{?z}", "{sk_m(x,y)}"],
    "scope": ["{p(x)}", "{(}"],
    "term": ["{c}", "{?z}", "{f(}"],
    "keep": ["left", "right", "middle"],
    "eq": [str(n) for n in range(-1, 8)],
    "dir": ["prenex", "antiprenex", "sideways"],
    "new": ["{y}", "{x}", "{?q}", "{sk_b}", "{m}"],
}


def mutants(text):
    """Every one-line deletion of the script, then every script with one
    field of one step line replaced: its rule tag by each rule of the mode,
    one rule outside it and an unknown one, its other fields by the values
    below."""
    lines = text.splitlines()
    for i in range(len(lines)):
        yield lines[:i] + lines[i + 1:]
    mode = lines[0].removeprefix("mode: ")
    other = min(set().union(*MODES.values()) - MODES[mode])
    tags = sorted(MODES[mode]) + [other, "frobnicate"]
    steps = [i for i, ln in enumerate(lines) if ln.startswith("step: ")]
    for k, i in enumerate(steps):
        head, _, fields = lines[i][len("step: "):].partition(" ")
        for tag in tags:
            if tag != head:
                yield lines[:i] + [f"step: {tag} {fields}"] + lines[i + 1:]
        for m in _FIELD_RE.finditer(lines[i]):
            key, value = m.groups()
            near = [v for j in steps[max(k - 1, 0):k] + steps[k + 1:k + 2]
                    for kk, v in _FIELD_RE.findall(lines[j]) if kk == key]
            tried = {value}
            for alt in _ALTERNATIVES[key] + near:
                if alt not in tried:
                    tried.add(alt)
                    line = lines[i][:m.start(2)] + alt + lines[i][m.end(2):]
                    yield lines[:i] + [line] + lines[i + 1:]


def report_condition(lines):
    try:
        d = parse_script("\n".join(lines) + "\n")
    except ScriptError:
        return "ScriptError"
    return check_derivation(d).error or "accepted"


def _prenex_steps(f):
    """Passage steps that drive f to prenex form, each the first equation
    that applies at the first position in preorder."""
    steps = []
    while True:
        tries = (RuleStep("passage", path, eq=eq, direction="prenex")
                 for path, _, _, _ in sites(f) for eq in range(1, 7))
        step = next((s for s in tries if _applies(f, s)), None)
        if step is None:
            return steps
        steps.append(step)
        f = check_step(f, step)


def _applies(f, step):
    try:
        check_step(f, step)
    except StepError:
        return False
    return True


def herbrand_original_scripts(seed, count):
    """Derivations in Herbrand's calculus: a root simplification, the rules
    of passage to prenex form and back out again, then a root delta and a
    root gamma quantifier."""
    rng = random.Random(seed)
    for _ in range(count):
        f = Atom("p", (Var("u1"), Var("u2"), Var("c")))
        for v in ("u1", "u2"):
            if rng.random() < 0.5:
                f = Not(f)
            f = rng.choice([Forall, Exists])(v, f)
            side = random_qf(rng, [Atom("r", ()),
                                   Atom("p", (Var("u1"), Var("c"), Var("c")))], 1)
            f = Or(f, side) if rng.random() < 0.5 else Or(side, f)
        there = _prenex_steps(f)
        back = [RuleStep("passage", s.path, eq=s.eq, direction="antiprenex")
                for s in reversed(there)]
        steps = [RuleStep("nongen-simp", (), keep="left")] + there + back
        line = Or(f, f)
        for s in steps:
            line = check_step(line, s)
        delta = RuleStep("nongen-delta", (), quant="forall", var="v")
        line = check_step(line, delta)
        gamma = RuleStep("nongen-gamma", (), quant="exists", var="w",
                         scope=line, term=Var("c"))
        end = check_step(line, gamma)
        yield print_script(Derivation("herbrand-original", Or(f, f),
                                      tuple(steps + [delta, gamma]), end))


def _script_family(name):
    if name == "herbrand-original":
        return list(herbrand_original_scripts(12, 4))
    return [(GOLDEN / f"{name}.txt").read_text()]


# counts taken before the rule table, when each rule had its own dispatch
# arm and root check; a refactor of the kernel keeps every one of them.
# Since parse_script refuses a field the step's rule does not take, the 49
# rule swaps that carried such a field are ScriptErrors: 18, 23 and 8 of
# them, once rule-not-in-mode, not-a-delta or delta-term-mismatch.
PINNED_CONDITIONS = {
    "derive_upper": {
        "ScriptError": 187, "premise-mismatch": 140, "rename-target": 98,
        "bad-path": 53, "bad-binder-name": 22, "end-mismatch": 20,
        "bad-step": 16, "context-capture": 15, "binder-collision": 12,
        "not-a-gamma": 9, "not-a-delta": 9, "rename-collision": 9,
        "not-a-junction": 8, "accepted": 7, "not-a-variant": 2},
    "derive_upper_fv": {
        "premise-mismatch": 158, "ScriptError": 136, "bad-path": 32,
        "bad-step": 16, "binder-collision": 16, "bad-binder-name": 14,
        "accepted": 12, "not-a-gamma": 9, "witness-not-gamma-var": 9,
        "not-a-variant": 7, "not-a-junction": 6, "delta-term-mismatch": 5,
        "end-mismatch": 4, "not-a-delta": 4, "registry-mismatch": 1},
    "herbrand-original": {
        "passage-shape": 394, "ScriptError": 310, "bad-path": 98,
        "nongen-context": 60, "premise-mismatch": 28,
        "passage-free-violation": 14, "bad-step": 12, "end-mismatch": 12,
        "accepted": 8, "bad-binder-name": 8, "not-a-delta": 4,
        "rule-not-in-mode": 4, "binder-collision": 4, "not-a-gamma": 4},
}


@pytest.mark.parametrize("family", sorted(PINNED_CONDITIONS))
def test_report_conditions_over_mutated_scripts(family):
    scripts = _script_family(family)
    for text in scripts:
        assert check_derivation(parse_script(text)).ok
    seen = Counter(report_condition(m) for text in scripts
                   for m in mutants(text))
    assert seen == PINNED_CONDITIONS[family]
