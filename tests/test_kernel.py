"""Derivation checking: rules, side conditions, scripts, passage."""

import re
from pathlib import Path

import pytest

from herbrandkit import construct, kernel, syntax
from herbrandkit.cli import main
from herbrandkit.construct import (
    UPPER_BOUND_SELECTION,
    UPPER_BOUND_TEXT,
    construct_derivation,
    construct_fv_derivation,
    demo_upper_bound,
    derivation_order_bound,
    property_c,
)
from herbrandkit.expansion import parse_selection
from herbrandkit.kernel import (
    DELTA_MINUS,
    DELTAPP,
    GAMMA_QUANT,
    GAMMA_SIMP,
    MODES,
    NONGEN_DELTA,
    NONGEN_GAMMA,
    NONGEN_SIMP,
    PASSAGE,
    RENAME,
    RESTRICTED_GAMMA,
    SIMP,
    Derivation,
    RuleStep,
    ScriptError,
    StepError,
    apply_passage,
    check_derivation,
    check_step,
    format_path,
    parse_path,
    parse_script,
    print_script,
)
from herbrandkit.skolem import SkolemRegistry, canonical_key, deltapp_scope
from herbrandkit.syntax import (
    App,
    Atom,
    Forall,
    FormulaError,
    GammaVar,
    Or,
    Var,
    alpha_equal,
    parse_formula,
    parse_term,
    print_formula,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"


def err(f, step, registry=None):
    with pytest.raises(StepError) as e:
        check_step(f, step, registry)
    return e.value.condition


# ---------------------------------------------------------------------------
# paths

def test_path_format_round_trip():
    for p in ((), (0,), (0, 1), (1, 0, 0)):
        assert parse_path(format_path(p)) == p
    assert format_path(()) == "."
    with pytest.raises(FormulaError):
        parse_path("0.x")


# ---------------------------------------------------------------------------
# gamma quantification

def test_gamma_quant_introduces_at_an_accessible_position():
    f = parse_formula("p(c) | r")
    step = RuleStep(GAMMA_QUANT, (0,), quant="exists", var="a",
                    scope=parse_formula("p(a)"), term=parse_term("c"))
    out = check_step(f, step)
    assert print_formula(out) == "(exists a. p(a)) | r"


def test_gamma_quant_generalizes_chosen_occurrences_only():
    f = parse_formula("p(c) | ~p(c)")
    step = RuleStep(GAMMA_QUANT, (), quant="exists", var="a",
                    scope=parse_formula("p(a) | ~p(c)"), term=parse_term("c"))
    out = check_step(f, step)
    assert print_formula(out) == "exists a. p(a) | ~p(c)"


def test_gamma_quant_forall_at_negative_position():
    f = parse_formula("~p(c)")
    step = RuleStep(GAMMA_QUANT, (0,), quant="forall", var="a",
                    scope=parse_formula("p(a)"), term=parse_term("c"))
    assert print_formula(check_step(f, step)) == "~(forall a. p(a))"


def test_gamma_quant_rejects_wrong_polarity():
    f = parse_formula("~p(c)")
    step = RuleStep(GAMMA_QUANT, (0,), quant="exists", var="a",
                    scope=parse_formula("p(a)"), term=parse_term("c"))
    assert err(f, step) == "not-a-gamma"


def test_gamma_quant_rejects_inaccessible_position():
    f = parse_formula("forall b. p(c, b)")
    step = RuleStep(GAMMA_QUANT, (0,), quant="exists", var="a",
                    scope=parse_formula("p(a, b)"), term=parse_term("c"))
    assert err(f, step) == "gamma-not-accessible"


def test_gamma_quant_rejects_capturing_witness():
    f = parse_formula("p(c) | r")
    step = RuleStep(GAMMA_QUANT, (0,), quant="exists", var="a",
                    scope=parse_formula("exists b. p(a) & p(b)"),
                    term=parse_term("b"))
    assert err(f, step) == "witness-capture"


def test_gamma_quant_rejects_premise_mismatch():
    f = parse_formula("p(d)")
    step = RuleStep(GAMMA_QUANT, (), quant="exists", var="a",
                    scope=parse_formula("p(a)"), term=parse_term("c"))
    assert err(f, step) == "premise-mismatch"


def test_gamma_quant_rejects_binder_collision():
    f = parse_formula("exists a. p(a, c)")
    step = RuleStep(GAMMA_QUANT, (), quant="exists", var="a",
                    scope=parse_formula("exists a. p(a, b)"),
                    term=parse_term("c"))
    assert err(f, step) == "binder-collision"


def test_restricted_gamma_needs_an_instantiation_variable():
    f = parse_formula("p(?w)")
    good = RuleStep(RESTRICTED_GAMMA, (), quant="exists", var="a",
                    scope=parse_formula("p(a)"), term=GammaVar("w"))
    assert print_formula(check_step(f, good)) == "exists a. p(a)"
    bad = RuleStep(RESTRICTED_GAMMA, (), quant="exists", var="a",
                   scope=parse_formula("p(a)"), term=parse_term("c"))
    assert err(parse_formula("p(c)"), bad) == "witness-not-gamma-var"


# ---------------------------------------------------------------------------
# delta rules

def test_delta_minus_binds_a_fresh_context_variable():
    f = parse_formula("p(b) | r")
    step = RuleStep(DELTA_MINUS, (0,), quant="forall", var="b")
    assert print_formula(check_step(f, step)) == "(forall b. p(b)) | r"


def test_delta_minus_rejects_variable_free_in_context():
    f = parse_formula("p(b) | q(b)")
    step = RuleStep(DELTA_MINUS, (0,), quant="forall", var="b")
    assert err(f, step) == "context-capture"


def test_delta_minus_rejects_variable_bound_above():
    f = parse_formula("exists b. p(b) & q(b)")
    step = RuleStep(DELTA_MINUS, (0, 0), quant="forall", var="b")
    assert err(f, step) == "context-capture"


def test_delta_minus_rejects_wrong_polarity():
    f = parse_formula("~p(b)")
    step = RuleStep(DELTA_MINUS, (0,), quant="forall", var="b")
    assert err(f, step) == "not-a-delta"


def test_deltapp_records_a_fresh_symbol():
    f = parse_formula("p(sk_b(?x), ?x)")
    step = RuleStep(DELTAPP, (), quant="forall", var="b",
                    scope=parse_formula("p(b, ?x)"))
    reg = SkolemRegistry()
    out = check_step(f, step, reg)
    assert print_formula(out) == "forall b. p(b,?x)"
    assert reg.symbols() == {"sk_b"}


def test_deltapp_requires_exactly_the_scope_gamma_variables():
    f = parse_formula("p(sk_b(?y), ?x)")
    step = RuleStep(DELTAPP, (), quant="forall", var="b",
                    scope=parse_formula("p(b, ?x)"))
    assert err(f, step, SkolemRegistry()) == "delta-term-mismatch"


def test_deltapp_reuses_registry_bindings():
    scope = parse_formula("p(b, ?x)")
    key = canonical_key(parse_formula("forall b. p(b, ?x)"), [GammaVar("x")])
    reg = SkolemRegistry()
    reg.record(key, "sk_q", 1)
    f = parse_formula("p(sk_q(?x), ?x)")
    step = RuleStep(DELTAPP, (), quant="forall", var="b", scope=scope)
    out = check_step(f, step, reg)
    assert print_formula(out) == "forall b. p(b,?x)"
    wrong = parse_formula("p(sk_other(?x), ?x)")
    assert err(wrong, step, reg) == "delta-term-mismatch"


def test_deltapp_rejects_symbol_reuse_for_a_different_scope():
    reg = SkolemRegistry()
    f1 = parse_formula("p(sk_b(?x), ?x)")
    s1 = RuleStep(DELTAPP, (), quant="forall", var="b",
                  scope=parse_formula("p(b, ?x)"))
    check_step(f1, s1, reg)
    f2 = parse_formula("q(sk_b(?x), ?x)")
    s2 = RuleStep(DELTAPP, (), quant="forall", var="b",
                  scope=parse_formula("q(b, ?x)"))
    assert err(f2, s2, reg) == "registry-mismatch"


# A scope built in code that binds an instantiation variable's name, which
# the parser refuses: (forall ?a. q(x)) | r(?a), with the step variable x.
CAPTURING_SCOPE = Or(Forall("?a", Atom("q", (Var("x"),))), Atom("r", (GammaVar("a"),)))


def capturing_premise(t):
    return Or(Forall("?a", Atom("q", (t,))), Atom("r", (GammaVar("a"),)))


@pytest.mark.parametrize("known", [False, True], ids=["fresh-registry", "known-scope"])
@pytest.mark.parametrize("tag, premise, quant, term", [
    (DELTAPP, capturing_premise(App("sk_d", True, (GammaVar("a"),))), "forall", None),
    (GAMMA_QUANT, capturing_premise(Var("c")), "exists", Var("c")),
    (NONGEN_GAMMA, capturing_premise(Var("c")), "exists", Var("c")),
    (RESTRICTED_GAMMA, capturing_premise(GammaVar("b")), "exists", GammaVar("b")),
    (DELTA_MINUS, CAPTURING_SCOPE, "forall", None),
    (NONGEN_DELTA, CAPTURING_SCOPE, "forall", None),
], ids=[DELTAPP, GAMMA_QUANT, NONGEN_GAMMA, RESTRICTED_GAMMA, DELTA_MINUS, NONGEN_DELTA])
def test_a_scope_that_binds_an_instantiation_variable_is_refused(
        known, tag, premise, quant, term):
    """Every rule that wraps a scope refuses one that binds ?a, and says so.
    deltapp used to accept sk_d(?a) here, its ?a captured by the binder,
    under a fresh registry and under one that knows the scope."""
    reg = SkolemRegistry()
    if known:
        listed, key = deltapp_scope(Forall("x", CAPTURING_SCOPE))
        reg.record(key, "sk_d", len(listed))
    scope = None if tag in (DELTA_MINUS, NONGEN_DELTA) else CAPTURING_SCOPE
    step = RuleStep(tag, (), quant=quant, var="x", scope=scope, term=term)
    with pytest.raises(StepError, match=re.escape(
            "the scope binds the instantiation variable ?a")) as e:
        check_step(premise, step, reg)
    assert e.value.condition == "bad-binder-name"


@pytest.mark.parametrize("name", ["derive_drinker", "derive_upper", "derive_upper_fv"])
def test_the_showcase_scripts_are_still_accepted(name):
    assert check_derivation(parse_script((GOLDEN / f"{name}.txt").read_text())).ok


# ---------------------------------------------------------------------------
# simplification

def test_simp_collapses_a_duplicate_disjunct():
    f = parse_formula("(p(c) | q) | (p(c) | q)")
    step = RuleStep(SIMP, (), keep="left")
    assert print_formula(check_step(f, step)) == "p(c) | q"


def test_simp_collapses_a_duplicate_conjunct_negatively():
    f = parse_formula("~(p & p)")
    step = RuleStep(SIMP, (0,), keep="right")
    assert print_formula(check_step(f, step)) == "~p"


def test_simp_rejects_positive_conjunction():
    f = parse_formula("p & p")
    step = RuleStep(SIMP, (), keep="left")
    assert err(f, step) == "operator-polarity"


def test_simp_rejects_non_junction():
    f = parse_formula("~p")
    step = RuleStep(SIMP, (), keep="left")
    assert err(f, step) == "not-a-junction"


def test_simp_rejects_non_variant_operand():
    f = parse_formula("p | q")
    step = RuleStep(SIMP, (), keep="left")
    assert err(f, step) == "not-a-variant"


def test_simp_accepts_bound_renaming_variants():
    f = parse_formula("(exists a. p(a)) | (exists b. p(b))")
    step = RuleStep(SIMP, (), keep="left")
    assert print_formula(check_step(f, step)) == "exists a. p(a)"


def test_gamma_simp_requires_a_kept_gamma():
    f = parse_formula("(exists a. p(a)) | (exists b. p(b))")
    step = RuleStep(GAMMA_SIMP, (), keep="right")
    assert print_formula(check_step(f, step)) == "exists b. p(b)"
    g = parse_formula("p(c) | p(c)")
    assert err(g, RuleStep(GAMMA_SIMP, (), keep="left")) == "kept-not-gamma"


# ---------------------------------------------------------------------------
# rename

def test_rename_changes_one_binder():
    f = parse_formula("(exists a. p(a)) | r")
    step = RuleStep(RENAME, (0,), var="a", new="b")
    assert print_formula(check_step(f, step)) == "(exists b. p(b)) | r"


def test_rename_rejects_wrong_target():
    f = parse_formula("p(c)")
    assert err(f, RuleStep(RENAME, (), var="a", new="b")) == "rename-target"
    g = parse_formula("exists a. p(a)")
    assert err(g, RuleStep(RENAME, (), var="z", new="b")) == "rename-target"


def test_rename_rejects_collisions():
    g = parse_formula("exists a. p(a, b)")
    assert err(g, RuleStep(RENAME, (), var="a", new="b")) == "rename-collision"
    h = parse_formula("exists a. exists b. p(a, b)")
    assert err(h, RuleStep(RENAME, (), var="a", new="b")) == "rename-collision"


def test_rename_to_a_skolem_named_variable():
    f = parse_formula("exists a. p(a)")
    step = RuleStep(RENAME, (), var="a", new="sk_b(@dot)")
    out = check_step(f, step)
    assert print_formula(out) == "exists sk_b(@dot). p(sk_b(@dot))"


# ---------------------------------------------------------------------------
# passage

PASSAGE_CASES = [
    (1, "~(forall x. p(x))", "exists x. ~p(x)"),
    (2, "~(exists x. p(x))", "forall x. ~p(x)"),
    (3, "(forall x. p(x)) | r", "forall x. p(x) | r"),
    (4, "r | (forall x. p(x))", "forall x. r | p(x)"),
    (5, "(exists x. p(x)) | r", "exists x. p(x) | r"),
    (6, "r | (exists x. p(x))", "exists x. r | p(x)"),
]


@pytest.mark.parametrize("eq,src,dst", PASSAGE_CASES)
def test_passage_equations_both_directions(eq, src, dst):
    f, g = parse_formula(src), parse_formula(dst)
    assert check_step(f, RuleStep(PASSAGE, (), eq=eq, direction="prenex")) == g
    assert check_step(g, RuleStep(PASSAGE, (), eq=eq,
                                  direction="antiprenex")) == f


@pytest.mark.parametrize("eq,src,dst", PASSAGE_CASES)
def test_passage_round_trip_is_alpha_stable(eq, src, dst):
    f = parse_formula(src)
    there = apply_passage(f, (), eq, "prenex")
    back = apply_passage(there, (), eq, "antiprenex")
    assert alpha_equal(back, f)


def test_passage_prenex_renames_on_collision():
    f = parse_formula("(forall x. p(x)) | q(x)")
    out = apply_passage(f, (), 3, "prenex")
    assert print_formula(out) == "forall x_1. p(x_1) | q(x)"


def test_passage_antiprenex_rejects_free_occurrence():
    f = parse_formula("forall x. p(x) | q(x)")
    with pytest.raises(StepError) as e:
        apply_passage(f, (), 3, "antiprenex")
    assert e.value.condition == "passage-free-violation"


def test_passage_shape_errors():
    f = parse_formula("p | q")
    assert err(f, RuleStep(PASSAGE, (), eq=1, direction="prenex")) == \
        "passage-shape"
    assert err(f, RuleStep(PASSAGE, (), eq=7, direction="prenex")) == \
        "passage-shape"


def test_passage_applies_at_depth(drinker):
    out = apply_passage(drinker, (), 6, "antiprenex")
    assert print_formula(out) == "~(exists b. p(b)) | (exists a. p(a))"
    deeper = apply_passage(out, (0,), 2, "prenex")
    assert print_formula(deeper) == "(forall b. ~p(b)) | (exists a. p(a))"


# ---------------------------------------------------------------------------
# root-only variants

def test_nongen_rules_apply_only_at_the_root():
    f = parse_formula("p(c)")
    root = RuleStep(NONGEN_GAMMA, (), quant="exists", var="a",
                    scope=parse_formula("p(a)"), term=parse_term("c"))
    assert print_formula(check_step(f, root)) == "exists a. p(a)"
    off = RuleStep(NONGEN_GAMMA, (0,), quant="exists", var="a",
                   scope=parse_formula("p(a)"), term=parse_term("c"))
    assert err(parse_formula("~p(c)"), off) == "nongen-context"

    g = parse_formula("p(b)")
    assert print_formula(check_step(
        g, RuleStep(NONGEN_DELTA, (), quant="forall", var="b"))) == \
        "forall b. p(b)"
    assert err(parse_formula("p(b) | r"),
               RuleStep(NONGEN_DELTA, (0,), quant="forall", var="b")) == \
        "nongen-context"

    h = parse_formula("p | p")
    assert print_formula(check_step(
        h, RuleStep(NONGEN_SIMP, (), keep="left"))) == "p"
    assert err(parse_formula("(p | p) | q"),
               RuleStep(NONGEN_SIMP, (0,), keep="left")) == "nongen-context"


# ---------------------------------------------------------------------------
# whole derivations

def test_check_derivation_replays_and_collects_witnesses():
    axiom = parse_formula("p(c) | ~p(c)")
    steps = [RuleStep(GAMMA_QUANT, (), quant="exists", var="a",
                      scope=parse_formula("p(a) | ~p(c)"),
                      term=parse_term("c"))]
    end = parse_formula("exists a. p(a) | ~p(c)")
    report = check_derivation(Derivation("heijenoort", axiom, steps, end))
    assert report.ok
    assert report.axiom_quantifier_free and report.axiom_tautology
    assert [print_formula(x) for x in report.lines] == \
        [print_formula(axiom), print_formula(end)]
    assert [str(t.name) for t in report.witnesses] == ["c"]


def test_check_derivation_rejects_rule_outside_mode():
    axiom = parse_formula("p(b)")
    steps = [RuleStep(DELTAPP, (), quant="forall", var="b",
                      scope=parse_formula("p(b)"))]
    end = parse_formula("forall b. p(b)")
    report = check_derivation(Derivation("heijenoort", axiom, steps, end))
    assert not report.ok and report.error == "rule-not-in-mode"
    assert report.step_index == 0


def test_check_derivation_rejects_end_mismatch():
    axiom = parse_formula("p(c)")
    report = check_derivation(
        Derivation("heijenoort", axiom, [], parse_formula("p(d)")))
    assert not report.ok and report.error == "end-mismatch"


def test_check_derivation_rejects_unknown_mode():
    report = check_derivation(
        Derivation("sequent", parse_formula("p"), [], parse_formula("p")))
    assert not report.ok and report.error == "unknown-mode"


def test_check_derivation_rejects_deltapp_symbol_in_end_signature():
    axiom = parse_formula("p(sk_b(?x), ?x) | q(sk_b(?x))")
    steps = [RuleStep(DELTAPP, (0,), quant="forall", var="b",
                      scope=parse_formula("p(b, ?x)"))]
    end = parse_formula("(forall b. p(b, ?x)) | q(sk_b(?x))")
    report = check_derivation(Derivation("free-variable", axiom, steps, end))
    assert not report.ok and report.error == "skolem-symbol-in-signature"


def test_mode_tables_cover_all_tags():
    assert set(MODES) == {"heijenoort", "herbrand-original", "free-variable"}
    assert MODES["heijenoort"] == {GAMMA_QUANT, DELTA_MINUS, SIMP, GAMMA_SIMP,
                                   RENAME}
    assert MODES["herbrand-original"] == {NONGEN_GAMMA, NONGEN_DELTA,
                                          NONGEN_SIMP, PASSAGE, RENAME}
    assert MODES["free-variable"] == {RESTRICTED_GAMMA, DELTAPP, SIMP,
                                      GAMMA_SIMP, RENAME}


def test_check_step_is_deterministic():
    f = parse_formula("p(c) | r")
    step = RuleStep(GAMMA_QUANT, (0,), quant="exists", var="a",
                    scope=parse_formula("p(a)"), term=parse_term("c"))
    assert check_step(f, step) == check_step(f, step)


# ---------------------------------------------------------------------------
# scripts

def test_script_print_parse_round_trip(showcase_derivation):
    text = print_script(showcase_derivation)
    again = parse_script(text)
    assert again.mode == showcase_derivation.mode
    assert again.axiom == showcase_derivation.axiom
    assert again.end == showcase_derivation.end
    assert len(again.steps) == len(showcase_derivation.steps)
    assert print_script(again) == text


@pytest.mark.parametrize("name", ["showcase", "derive_drinker", "derive_upper",
                                  "derive_upper_fv"])
def test_script_round_trip_keeps_the_check_report(name, showcase_derivation):
    """The showcase derivation and the golden scripts read back from their
    printed scripts with the same report."""
    d = (showcase_derivation if name == "showcase"
         else parse_script((GOLDEN / f"{name}.txt").read_text()))
    text = print_script(d)
    again = parse_script(text)
    assert print_script(again) == text
    assert check_derivation(again) == check_derivation(d)


@pytest.mark.parametrize("fields", ["scope={(}", "term={c} q=sideways"])
def test_script_refuses_a_field_the_rule_does_not_take(fields):
    text = ("mode: heijenoort\nstart: p(c) | p(c)\n"
            f"step: simp path=. keep=left {fields}\nend: p(c)\n")
    key = fields.split("=")[0]
    with pytest.raises(ScriptError, match=f"^line 3: rule simp takes no field {key}$"):
        parse_script(text)
    assert check_derivation(parse_script(text.replace(" " + fields, ""))).ok


def test_script_skips_blank_lines_and_comments():
    text = ("# a comment\n"
            "mode: heijenoort\n\n"
            "start: p(c) | ~p(c)\n"
            "# another\n"
            "end: p(c) | ~p(c)\n")
    d = parse_script(text)
    assert d.mode == "heijenoort" and d.steps == ()


def test_script_errors():
    with pytest.raises(ScriptError):
        parse_script("start: p\nend: p\n")
    with pytest.raises(ScriptError):
        parse_script("mode: heijenoort\nstart: p\nstep: frobnicate path=.\n"
                     "end: p\n")
    with pytest.raises(ScriptError):
        parse_script("mode: heijenoort\nstart: p\n"
                     "step: gamma-quant path=. q=exists var={a}\nend: p\n")


def test_negative_path_step_is_rejected_as_bad_path(capsys, tmp_path):
    script = tmp_path / "negative.txt"
    script.write_text("mode: heijenoort\n"
                      "start: (p(c) | p(c)) | (p(c) | p(c))\n"
                      "step: simp path=-1 keep=left\n"
                      "end: p(c) | p(c)\n")
    assert main(["check-proof", str(script)]) == 1
    assert "rejected at step 0: bad-path" in capsys.readouterr().out


def test_script_mutation_round_trip_through_checker(showcase_derivation):
    text = print_script(showcase_derivation)
    report = check_derivation(parse_script(text))
    assert report.ok


# ---------------------------------------------------------------------------
# remembered checks

@pytest.fixture
def replays(monkeypatch):
    """The derivations the kernel replays step by step, in call order."""
    seen = []
    replay = kernel._replay

    def counted(d, registry):
        seen.append(d)
        return replay(d, registry)

    monkeypatch.setattr(kernel, "_replay", counted)
    return seen


def test_demo_upper_bound_replays_each_derivation_once(replays):
    """The demo checks both constructed derivations again and reads the
    order bound off the first: the constructions' own checks answer."""
    doc = demo_upper_bound()
    assert doc["derivation"]["accepted"] and doc["free_variable"]["accepted"]
    assert [d.mode for d in replays] == ["heijenoort", "free-variable"]


def test_the_upperbound_bench_request_replays_three_derivations(replays):
    """The calls of the benchmark's upperbound request: the construction's
    check, the round trip through the printed script and the free-variable
    construction's check replay; the repeats do not."""
    a = parse_formula(UPPER_BOUND_TEXT)
    sel = parse_selection(UPPER_BOUND_SELECTION)
    assert property_c(a, 4, sel=sel).holds
    d = construct_derivation(a, 4, sel)
    assert check_derivation(parse_script(print_script(d))).ok
    registry = SkolemRegistry()
    fv_d, _, _ = construct_fv_derivation(a, 4, sel, registry)
    assert check_derivation(fv_d, registry).ok
    assert derivation_order_bound(d).value == 16
    assert len(replays) == 3
    assert replays[0] is d and replays[1] == d and replays[1] is not d
    assert replays[2] is fv_d


def test_a_script_read_from_text_is_replayed_in_full(showcase_derivation, replays):
    d = showcase_derivation
    first = check_derivation(d)
    again = parse_script(print_script(d))
    assert again == d
    assert check_derivation(again) == first
    assert replays[-1] is again
    replays.clear()
    assert check_derivation(d) == first and check_derivation(again) == first
    assert replays == []


def test_a_check_from_another_registry_state_replays(
        upper_bound, upper_bound_selection, replays):
    """A free-variable check from other registry entries replays; a repeat
    from the same entries does not, and leaves the registry as a full
    replay of the same script from those entries leaves it.  The
    construction's own check started from the entries it bound."""
    built = SkolemRegistry()
    d, _, _ = construct_fv_derivation(upper_bound, 4, upper_bound_selection, built)
    text = print_script(d)
    other = {"0" * 16: ("sk_z", 0)}
    for start, replayed in ((built.entries, False), ({}, True), (other, True),
                            ({}, False), (other, False), (built.entries, False)):
        ref = SkolemRegistry(dict(start))
        want = check_derivation(parse_script(text), ref)
        reg = SkolemRegistry(dict(start))
        n = len(replays)
        got = check_derivation(d, reg)
        assert (len(replays) > n) == replayed
        assert got == want and got.ok
        assert list(reg.entries.items()) == list(ref.entries.items())
        if start is not built.entries:  # the replay bound the scopes
            assert len(reg.entries) > len(start)


def test_a_returned_report_is_a_copy(showcase_derivation):
    first = check_derivation(showcase_derivation)
    lines, witnesses = list(first.lines), list(first.witnesses)
    first.lines.clear()
    first.witnesses.append(parse_term("c"))
    first.ok = False
    again = check_derivation(showcase_derivation)
    assert again.ok and again.lines == lines and again.witnesses == witnesses


def test_a_derivation_keeps_the_steps_it_was_built_with():
    steps = []
    d = Derivation("heijenoort", parse_formula("p | ~p"), steps,
                   parse_formula("p | ~p"))
    assert check_derivation(d).ok
    steps.append(RuleStep(SIMP, (), keep="left"))
    assert d.steps == () and check_derivation(d).ok


# ---------------------------------------------------------------------------
# one walk per position

def test_a_replay_locates_each_step_once(showcase_derivation, monkeypatch):
    """Every rule reads its premise, the sign and the accessibility of its
    position and the rebuilt line off one walk down the step's path."""
    found = []
    locate = kernel.locate

    def counted(f, path):
        found.append(path)
        return locate(f, path)

    monkeypatch.setattr(kernel, "locate", counted)
    d = parse_script(print_script(showcase_derivation))
    assert check_derivation(d).ok
    assert found == [s.path for s in d.steps]


def test_the_construction_classifies_no_quantifier_apart(
        upper_bound, upper_bound_selection, monkeypatch):
    """The staged removal reads class and accessibility off its walk over
    the line, and the kernel off the premise's position."""
    calls = []
    classify = syntax.classify_quantifier

    def counted(f, path):
        calls.append(path)
        return classify(f, path)

    for module in (syntax, kernel, construct):
        monkeypatch.setattr(module, "classify_quantifier", counted, raising=False)
    construct_derivation(upper_bound, 4, upper_bound_selection)
    assert calls == []
