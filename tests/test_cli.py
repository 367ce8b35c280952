"""Command-line interface: subcommands, exit codes, output formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import herbrandkit
from herbrandkit.cli import main
from herbrandkit.construct import UPPER_BOUND_TEXT
from herbrandkit.syntax import MAX_NESTING, alpha_equal, parse_formula

from conftest import DRINKER_TEXT

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# parsing and printing

def test_parse_reprints_canonically(capsys):
    code, out, _ = run(capsys, "parse", "forall x. ((p(x)) | (q))")
    assert code == 0
    assert out.strip() == "forall x. p(x) | q"


def test_parse_reads_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("p & q"))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0 and out.strip() == "p & q"


def test_parse_reads_file(capsys, tmp_path):
    f = tmp_path / "f.txt"
    f.write_text("~p | q\n")
    code, out, _ = run(capsys, "parse", "--file", str(f))
    assert code == 0 and out.strip() == "~p | q"


def test_deep_nesting_exits_2_with_json_error():
    """Input nested past the parser's depth guard could not be checked: exit
    2 with the JSON error document that names the depth, not a crash, not
    the recursion limit and not the negative exit 1."""
    src = str(Path(herbrandkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "herbrandkit", "--format", "json", "parse", "-"],
        input="(" * 20_000 + "p" + ")" * 20_000, capture_output=True, text=True, env=env,
        timeout=120)
    assert proc.returncode == 2
    doc = json.loads(proc.stdout)
    assert doc == {"error": "ParseError", "message": (
        f"input nested deeper than {MAX_NESTING} levels "
        f"(line 1, column {MAX_NESTING + 2})")}
    assert "recursion" not in proc.stderr


def test_nesting_up_to_the_depth_guard_is_read(capsys):
    text = "(" * MAX_NESTING + "p" + ")" * MAX_NESTING
    code, doc, _ = run_json(capsys, "parse", text)
    assert code == 0 and doc["size"] == 1
    code, _, err = run(capsys, "parse", "(" + text + ")")
    assert code == 2 and f"nested deeper than {MAX_NESTING} levels" in err


def test_a_long_negation_chain_is_decided(capsys):
    """The parser counts a chain of ~ by a loop, so a 100,000-deep chain is
    read and decided with the normal documents, not refused at the
    recursion limit; --max 2 is the least bound that reaches expand."""
    text = "~" * 100_000 + "p(c)"
    code, doc, _ = run_json(capsys, "parse", text)
    assert code == 0 and doc["size"] == 100_001
    code, doc, _ = run_json(capsys, "taut", text)
    assert code == 1 and doc["tautology"] is False and doc["atoms"] == 1
    code, doc, _ = run_json(capsys, "min-order", "--max", "2", text)
    assert code == 1 and doc == {"kind": "C", "max_checked": 2, "min_order": None}


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "parse", "forall . p")
    assert code == 2 and "error" in err.lower()


def test_json_error_doc(capsys):
    code, out, err = run(capsys, "--format", "json", "parse", "p |")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] and doc["message"]


@pytest.mark.parametrize("exc", [ValueError("internal fault"),
                                 OSError("disk gone")], ids=["ValueError", "OSError"])
def test_every_failure_to_check_exits_2_with_json_error(capsys, monkeypatch, exc):
    """Exit 1 is a negative verdict, so an internal fault or an I/O error
    exits 2 with the JSON error document like any other failure to check."""
    def fail(args):
        raise exc

    monkeypatch.setattr("herbrandkit.cli._cmd_parse", fail)
    code, out, _ = run(capsys, "--format", "json", "parse", "p")
    assert code == 2
    assert json.loads(out) == {"error": type(exc).__name__, "message": str(exc)}


def test_rectify(capsys):
    code, out, _ = run(capsys, "rectify",
                       "(exists x. p(x)) | (exists x. q(x))")
    assert code == 0 and out.strip() == "(exists x. p(x)) | (exists x_1. q(x_1))"


@pytest.mark.parametrize("text,want", [
    ("(forall sk_a(x). p(sk_a(x))) & (forall sk_a(x). q(sk_a(x)))",
     "(forall sk_a(x). p(sk_a(x))) & (forall v. q(v))"),
    ("(forall sk_a. p(sk_a)) & (forall sk_a. q(sk_a, sk_a_1))",
     "(forall sk_a. p(sk_a)) & (forall v. q(v,sk_a_1))"),
], ids=["skolem-application", "skolem-constant"])
def test_rectify_renames_a_skolem_named_binder(capsys, text, want):
    """The second binder gets a plain name: sk_a(x)_1 reads as no term, and
    sk_a_1 would capture the Skolem constant of that name."""
    code, out, _ = run(capsys, "rectify", text)
    assert code == 0 and out.strip() == want
    assert alpha_equal(parse_formula(out), parse_formula(text))


def test_classify_lists_quantifiers(capsys):
    code, doc, _ = run_json(capsys, "classify", DRINKER_TEXT)
    assert code == 0
    rows = doc["quantifiers"]
    assert rows[0]["class"] == "gamma" and rows[0]["var"] == "a"
    assert rows[1]["class"] == "delta" and rows[1]["var"] == "b"


# ---------------------------------------------------------------------------
# skolemization and expansion

def test_skolemize_modes(capsys):
    code, out, _ = run(capsys, "skolemize", DRINKER_TEXT)
    assert code == 0 and out.strip() == "exists a. ~p(sk_b(a)) | p(a)"
    code, out, _ = run(capsys, "skolemize", "--mode", "deltapp", DRINKER_TEXT)
    assert code == 0 and out.strip() == "exists a. ~p(sk_b) | p(a)"


def test_champ_counts(capsys):
    code, doc, _ = run_json(capsys, "champ", "--order", "3",
                            "exists a. ~p(sk_b(a)) | p(a)")
    assert code == 0
    assert doc["count"] == 2 and doc["terms"] == ["@dot", "sk_b(@dot)"]


def test_expand_order(capsys):
    code, out, _ = run(capsys, "expand", "--order", "2",
                       "exists a. ~p(sk_b(a)) | p(a)")
    assert code == 0 and out.strip() == "~p(sk_b(@dot)) | p(@dot)"


def test_expand_terms_file(capsys, tmp_path):
    f = tmp_path / "terms.txt"
    f.write_text("c\nd\n")
    code, out, _ = run(capsys, "expand", "--terms-file", str(f),
                       "exists x. p(x)")
    assert code == 0 and out.strip() == "p(c) | p(d)"


def test_subexpand_inline_selection(capsys):
    code, out, _ = run(capsys, "subexpand", "--selection",
                       "(exists a (@dot) _)", "exists a. ~p(sk_b(a)) | p(a)")
    assert code == 0 and out.strip() == "~p(sk_b(@dot)) | p(@dot)"


def test_subexpand_selection_file(capsys, tmp_path):
    f = tmp_path / "sel.sexp"
    f.write_text("; one witness\n(exists a (@dot) _)\n")
    code, out, _ = run(capsys, "subexpand", "--selection", str(f),
                       "exists a. ~p(sk_b(a)) | p(a)")
    assert code == 0 and out.strip() == "~p(sk_b(@dot)) | p(@dot)"


def test_subexpand_reads_the_leaf_selection_inline(capsys):
    code, out, _ = run(capsys, "subexpand", "--selection", " _ ", "p | q")
    assert code == 0 and out.strip() == "p | q"


def test_subexpand_reads_an_inline_selection_that_opens_with_a_comment(capsys):
    code, out, _ = run(capsys, "subexpand", "--selection",
                       "; both\n(exists a (@dot) _)", "exists a. ~p(sk_b(a)) | p(a)")
    assert code == 0 and out.strip() == "~p(sk_b(@dot)) | p(@dot)"
    code, out, _ = run(capsys, "subexpand", "--selection", "; leaf\n _ ", "p | q")
    assert code == 0 and out.strip() == "p | q"


def test_a_deep_selection_is_decided(capsys):
    """The selection reader and printer run from explicit stacks, so a
    selection as deep as a 20,000-deep chain of ~ is read and decided."""
    depth = 20_000
    text = "~" * depth + "(exists a. ~p(a) | p(c))"
    sel = "(not " * depth + "(exists a (c) _)" + ")" * depth
    code, doc, _ = run_json(capsys, "subexpand", "--selection", sel, text)
    assert code == 0 and doc["sub_expansion"] == "~" * depth + "(~p(c) | p(c))"
    code, doc, _ = run_json(capsys, "check-c", "--order", "2",
                            "--selection", sel, text)
    assert code == 0 and doc["status"] == "holds"


DEEP_DISJUNCTION = " | ".join(["p", "~p"] * 2500)


@pytest.mark.parametrize("argv", [
    ["parse"], ["rectify"], ["skolemize"], ["taut"], ["taut", "--emit-cnf"],
    ["check-c", "--order", "1"], ["min-order"], ["models", "--size", "2"]],
    ids=" ".join)
def test_a_5000_way_disjunction_is_decided(capsys, argv):
    code, _, err = run(capsys, *argv, DEEP_DISJUNCTION)
    assert code == 0, err


# ---------------------------------------------------------------------------
# verdict commands and the exit-code trichotomy

def test_taut_exit_codes(capsys):
    code, out, _ = run(capsys, "taut", "p | ~p")
    assert code == 0 and out.strip() == "yes"
    code, out, _ = run(capsys, "taut", "p | q")
    assert code == 1 and out.strip() == "no"
    code, _, _ = run(capsys, "taut", "forall x. p(x)")
    assert code == 2


def test_taut_emit_cnf(capsys):
    code, out, _ = run(capsys, "taut", "--emit-cnf", "p | ~p")
    assert code == 0
    body = [ln for ln in out.splitlines() if not ln.startswith("c")]
    assert any(ln.startswith("p cnf ") for ln in body)


def test_check_c_trichotomy(capsys):
    code, out, _ = run(capsys, "check-c", "--order", "3", DRINKER_TEXT)
    assert code == 0 and "status: holds" in out
    code, out, _ = run(capsys, "check-c", "--order", "2", DRINKER_TEXT)
    assert code == 1 and "status: fails" in out
    code, out, _ = run(capsys, "check-c", "--order", "3", "--selection",
                       "(exists a (@dot) _)", DRINKER_TEXT)
    assert code == 2 and "status: inconclusive" in out


def test_check_c_holds_a_selection_to_the_size_guard(capsys):
    """The sub-expansion of a selection is held to --budget like the full
    expansion, whose 24 nodes are refused under a guard of 20."""
    sel = "(or (not (forall x (a b c) (forall y (a b c) _))) _)"
    text = "(forall x. forall y. p(x,y)) -> p(a,b) & p(b,c) & p(c,a)"
    code, _, err = run(capsys, "check-c", "--order", "2", "--budget", "20", text)
    assert code == 2 and "24 formula nodes" in err
    code, _, err = run(capsys, "check-c", "--order", "2", "--budget", "18",
                       "--selection", sel, text)
    assert code == 2 and "sub-expansion exceeds the size guard of 18" in err
    code, _, err = run(capsys, "check-c", "--order", "2", "--budget", "20",
                       "--selection", sel, text)
    assert code == 2 and "sub-expansion exceeds the size guard of 20" in err
    code, out, _ = run(capsys, "check-c", "--order", "2", "--selection", sel, text)
    assert code == 0 and "status: holds" in out


def test_check_c_star(capsys):
    code, _, _ = run(capsys, "check-c", "--order", "2", "--star", DRINKER_TEXT)
    assert code == 0


# A free variable spelled like a registry-key placeholder (b0 for a bound
# variable, g0 for a listed one) must not share a delta++ symbol with a
# different scope.
PLACEHOLDER_FREE_TEXT = ("(forall u. e(u, b0)) | (forall v. e(v, v)) | "
                         "(exists w. ~e(w, b0) & ~e(w, w))")


def test_free_b0_does_not_pass_the_star_check_of_an_invalid_formula(capsys):
    code, out, _ = run(capsys, "models", "--size", "3", PLACEHOLDER_FREE_TEXT)
    assert code == 1 and "countermodel" in out
    code, out, _ = run(capsys, "check-c", "--star", "--order", "2",
                       PLACEHOLDER_FREE_TEXT)
    assert code == 1 and "status: fails" in out
    code, out, _ = run(capsys, "min-order", "--star", "--max", "3",
                       PLACEHOLDER_FREE_TEXT)
    assert code == 1 and out.strip() == "none"
    code, _, err = run(capsys, "derive", "--fv", "--order", "2",
                       PLACEHOLDER_FREE_TEXT)
    assert code == 2 and "not established" in err


def test_free_g0_gets_its_own_deltapp_symbol(capsys):
    code, out, _ = run(capsys, "skolemize", "--mode", "deltapp",
                       "(exists g0. forall u. p(u, g0)) | (forall v. p(v, g0))")
    assert code == 0
    assert out.strip() == "(exists g0_1. p(sk_u(g0_1),g0_1)) | p(sk_v,g0)"


def test_min_order(capsys):
    code, doc, _ = run_json(capsys, "min-order", DRINKER_TEXT)
    assert code == 0 and doc["min_order"] == 3
    code, doc, _ = run_json(capsys, "min-order", "--star", DRINKER_TEXT)
    assert code == 0 and doc["min_order"] == 2
    code, doc, _ = run_json(capsys, "min-order", "--max", "2", DRINKER_TEXT)
    assert code == 1 and doc["min_order"] is None


def test_models_verdicts(capsys):
    code, out, _ = run(capsys, "models", DRINKER_TEXT)
    assert code == 0 and "valid in every interpretation" in out
    code, out, _ = run(capsys, "models", "p(x)")
    assert code == 1 and "countermodel" in out


@pytest.mark.parametrize("argv", [
    ["models", "--size", "0", "p(c) & ~p(c)"],
    ["min-order", "--max", "0", DRINKER_TEXT],
    ["check-c", "--order", "0", DRINKER_TEXT]], ids=" ".join)
def test_a_bound_below_one_exits_2(capsys, argv):
    """A bound below one leaves nothing to check, so it is refused."""
    code, _, err = run(capsys, *argv)
    assert code == 2 and "must be at least 1, got 0" in err


def test_bound_gd(capsys):
    code, doc, _ = run_json(capsys, "bound-gd", "--n", "2", "--r", "1",
                            "--N", "3")
    assert code == 0 and doc["bound"] == 32


def test_passage(capsys):
    code, out, _ = run(capsys, "passage", "--eq", "3", "--dir", "prenex",
                       "(forall x. p(x)) | q")
    assert code == 0 and out.strip() == "forall x. p(x) | q"
    code, _, _ = run(capsys, "passage", "--eq", "3", "--dir", "antiprenex",
                     "--path", "0", "~(forall x. p(x) | q(x))")
    assert code == 2


# ---------------------------------------------------------------------------
# derive / check-proof round trips

def test_derive_then_check(capsys, tmp_path):
    code, out, _ = run(capsys, "derive", "--order", "3", DRINKER_TEXT)
    assert code == 0
    script = tmp_path / "proof.txt"
    script.write_text(out)
    code, out2, _ = run(capsys, "check-proof", str(script))
    assert code == 0 and "accepted" in out2


def test_derive_fv_with_registry(capsys, tmp_path):
    reg = tmp_path / "reg.txt"
    code, out, _ = run(capsys, "derive", "--order", "2", "--fv",
                       "--save-registry", str(reg), DRINKER_TEXT)
    assert code == 0
    assert "# opening line: ~p(sk_b) | p(?a)" in out
    assert "# sigma: ?a -> sk_b" in out
    assert reg.exists()
    script = tmp_path / "proof.txt"
    script.write_text(out)
    code, out2, _ = run(capsys, "check-proof", "--registry", str(reg),
                        str(script))
    assert code == 0 and "accepted" in out2


def test_check_proof_rejects_with_condition(capsys, tmp_path):
    script = tmp_path / "bad.txt"
    script.write_text(
        "mode: heijenoort\n"
        "start: p(c) | ~p(c)\n"
        "step: gamma-quant path=. q=exists var=a scope={p(a) | ~p(c)} "
        "term={d}\n"
        "end: exists a. p(a) | ~p(c)\n")
    code, out, _ = run(capsys, "check-proof", str(script))
    assert code == 1
    assert "rejected" in out and "premise-mismatch" in out


def test_check_proof_refuses_to_drop_a_shadowed_non_variant(capsys, tmp_path):
    """Under the shadowing exists x, the p(x,y) on the left reads the
    exists, while p(c,b) on the right reads the forall after it: the two
    operands are no variants of each other, and the right one does not
    imply the left one."""
    script = tmp_path / "shadow.txt"
    script.write_text(
        "mode: heijenoort\n"
        "start: (forall x. exists x. forall y. p(x,y)) | "
        "(forall a. exists b. forall c. p(c,b))\n"
        "step: simp path=. keep=left\n"
        "end: forall x. exists x. forall y. p(x,y)\n")
    code, doc, _ = run_json(capsys, "check-proof", str(script))
    assert code == 1
    assert doc["accepted"] is False and doc["error"] == "not-a-variant"
    assert doc["step_index"] == 0


def test_check_proof_reads_eq_as_an_integer(capsys, tmp_path):
    """A non-integer eq= is a script error with its line number; an
    integer outside 1-6 reaches the kernel's passage-shape check."""
    script = tmp_path / "eq.txt"
    text = ("mode: herbrand-original\nstart: ~(forall x. p(x))\n"
            "step: passage path=. eq={} dir=prenex\nend: exists x. ~p(x)\n")
    script.write_text(text.format("x"))
    code, doc, err = run_json(capsys, "check-proof", str(script))
    assert code == 2 and "Traceback" not in err
    assert doc == {"error": "ScriptError",
                   "message": "line 3: bad equation number 'x'"}
    script.write_text(text.format("-1"))
    code, out, _ = run(capsys, "check-proof", str(script))
    assert code == 1
    assert "rejected at step 0: passage-shape: no passage equation -1" in out


def test_check_proof_json_report(capsys, tmp_path):
    script = tmp_path / "ok.txt"
    script.write_text("mode: heijenoort\nstart: p | ~p\nend: p | ~p\n")
    code, doc, _ = run_json(capsys, "check-proof", str(script))
    assert code == 0
    assert doc["accepted"] and doc["mode"] == "heijenoort"
    assert doc["axiom_tautology"] is True


def test_demo_false_lemma(capsys):
    code, doc, _ = run_json(capsys, "demo", "false-lemma")
    assert code == 0
    assert doc["order_invariant_standard"] is False


def test_missing_formula_is_an_error(capsys):
    code, _, err = run(capsys, "parse")
    assert code == 2 and err


def test_json_output_is_sorted_and_stable(capsys):
    _, doc1, _ = run_json(capsys, "classify", DRINKER_TEXT)
    _, doc2, _ = run_json(capsys, "classify", DRINKER_TEXT)
    assert doc1 == doc2


# ---------------------------------------------------------------------------
# golden output: the README examples and the upper-bound scripts, byte for
# byte as tests/data/golden holds them

GOLDEN = {
    "taut": ["taut", "p(c) | ~p(c)"],
    "skolemize_drinker": ["skolemize", DRINKER_TEXT],
    "min_order": ["min-order", DRINKER_TEXT],
    "min_order_star": ["min-order", "--star", DRINKER_TEXT],
    "check_c": ["check-c", "--order", "3", DRINKER_TEXT],
    "derive_drinker": ["derive", "--order", "3", DRINKER_TEXT],
    "skolemize_upper": ["skolemize", UPPER_BOUND_TEXT],
    "skolemize_upper_deltapp": ["skolemize", "--mode", "deltapp",
                                UPPER_BOUND_TEXT],
    "derive_upper": ["derive", "--order", "4", "--selection",
                     str(DATA / "upper_bound.sel"), UPPER_BOUND_TEXT],
    "derive_upper_fv": ["derive", "--fv", "--order", "4", "--selection",
                        str(DATA / "upper_bound.sel"), UPPER_BOUND_TEXT],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(capsys, name):
    code, out, _ = run(capsys, *GOLDEN[name])
    assert code == 0
    assert out == (DATA / "golden" / f"{name}.txt").read_text()


# ---------------------------------------------------------------------------
# every subcommand on random input: the exit-code trichotomy, JSON that
# parses, no internal fault, and the same bytes from a second run in the
# same process (the parser and the champs are shared between runs)

ATOM_TEXTS = ("p(x)", "p(c)", "q(x,y)", "q(c,x)", "r", "p(sk_f(c))", "p(?g)",
              "x < y", "p(@dot)")
FUZZ_BUDGET = "3000"


def formula_texts():
    def extend(kids):
        return st.one_of(
            st.builds("~{}".format, kids),
            st.builds("({} {} {})".format, kids, st.sampled_from("&|") | st.just("->"),
                      kids),
            st.builds("({} {}. {})".format, st.sampled_from(["forall", "exists"]),
                      st.sampled_from("xya"), kids))
    leaves = st.recursive(st.sampled_from(ATOM_TEXTS), extend, max_leaves=6)
    return st.builds(lambda n, f: "~" * n + f, st.sampled_from([0, 0, 1, 2, 3000]),
                     leaves)


def selection_texts():
    def quant(kind, var, terms, kids):
        return f"({kind} {var} ({' '.join(terms)}) {' '.join(kids)})"

    def extend(kids):
        return st.one_of(
            st.builds("(not {})".format, kids),
            st.builds("({} {} {})".format, st.sampled_from(["and", "or"]), kids, kids),
            st.builds(quant, st.sampled_from(["forall", "exists"]),
                      st.sampled_from("xya"),
                      st.lists(st.sampled_from(["c", "x", "@dot", "sk_f(c)", "?g"]),
                               min_size=1, max_size=2),
                      st.lists(kids, max_size=2)))
    nodes = st.recursive(st.just("_"), extend, max_leaves=5)
    return st.builds(lambda n, s: "(not " * n + s + ")" * n,
                     st.sampled_from([0, 0, 1, 3000]), nodes)


STEP_LINES = ("step: simp path=. keep=left", "step: passage path=. eq=3 dir=prenex",
              "step: rename path=0 var={x} new={y}",
              "step: gamma-quant path=. q=exists var={a} scope={p(a)} term={c}",
              "step: delta-minus path=0 q=exists var={x}", "step: bogus")


def command_lines():
    f, order, sel = formula_texts(), st.integers(0, 3), selection_texts()
    on = st.booleans()

    def flag(name, set_):
        return [name] if set_ else []

    def optional(name, value):
        return [] if value is None else [name, value]

    return st.one_of(
        st.builds(lambda c, f: [c, f],
                  st.sampled_from(["parse", "rectify", "classify", "taut"]), f),
        st.builds(lambda f: ["taut", "--emit-cnf", f], f),
        st.builds(lambda m, f: ["skolemize", "--mode", m, f],
                  st.sampled_from(["outer", "deltapp"]), f),
        st.builds(lambda c, n, hh, f: [c, "--order", str(n),
                                       *flag("--herbrand-heights", hh),
                                       "--budget", FUZZ_BUDGET, f],
                  st.sampled_from(["champ", "expand"]), order, on, f),
        st.builds(lambda s, f: ["subexpand", "--selection", s, f], sel, f),
        st.builds(lambda n, star, hh, s, f: [
            "check-c", "--order", str(n), *flag("--star", star),
            *flag("--herbrand-heights", hh), *optional("--selection", s),
            "--budget", FUZZ_BUDGET, f], order, on, on, st.none() | sel, f),
        st.builds(lambda n, star, hh, f: [
            "min-order", "--max", str(n), *flag("--star", star),
            *flag("--herbrand-heights", hh), "--budget", FUZZ_BUDGET, f],
            st.integers(0, 2), on, on, f),
        st.builds(lambda n, fv, s, f: [
            "derive", "--order", str(n), *flag("--fv", fv),
            *optional("--selection", s), "--budget", FUZZ_BUDGET, f],
            order, on, st.none() | sel, f),
        st.builds(lambda path, eq, d, f: ["passage", "--path", path, "--eq", str(eq),
                                          "--dir", d, f],
                  st.sampled_from([".", "0", "1", "0.0"]), st.integers(1, 6),
                  st.sampled_from(["prenex", "antiprenex"]), f),
        st.builds(lambda n, f: ["models", "--size", str(n), "--budget", FUZZ_BUDGET, f],
                  st.integers(0, 2), f),
        st.builds(lambda n, r, big_n: ["bound-gd", "--n", str(n), "--r", str(r),
                                       "--N", str(big_n)],
                  st.integers(0, 3), st.integers(-1, 2), st.integers(0, 3)),
        st.builds(lambda mode, start, steps, end: [
            "check-proof", f"mode: {mode}\nstart: {start}\n"
            + "".join(s + "\n" for s in steps) + f"end: {end}\n"],
            st.sampled_from(["heijenoort", "herbrand-original", "free-variable"]),
            f, st.lists(st.sampled_from(STEP_LINES), max_size=2), f),
        st.sampled_from([["demo", "false-lemma"], ["demo", "upperbound"]]))


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command_lines(), st.sampled_from(["text", "json"]))
def test_every_subcommand_on_random_input(argv, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "check-proof":  # the script goes in through a file
            script = Path(tmp) / "proof.txt"
            script.write_text(argv[1])
            argv = ["check-proof", str(script)]
        first = run_in_process(["--format", fmt, *argv])
        code, out, err = first
        assert code in (0, 1, 2)
        assert "Traceback" not in err, err
        if fmt == "json":
            json.loads(out)
        assert run_in_process(["--format", fmt, *argv]) == first
