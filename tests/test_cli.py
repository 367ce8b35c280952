"""Command-line interface: subcommands, exit codes, output formats."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import herbrandkit
from herbrandkit import construct
from herbrandkit.cli import main
from herbrandkit.construct import UPPER_BOUND_TEXT
from herbrandkit.skolem import outer_skolemize
from herbrandkit.syntax import (
    alpha_equal, formula_size, parse_formula, print_formula, rectify,
)

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


def test_deep_parentheses_are_read():
    """The parser keeps its open operators on an explicit stack, so 20,000
    nested parentheses are read in a fresh process, with no depth guard
    and no recursion limit in the way."""
    src = str(Path(herbrandkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "herbrandkit", "--format", "json", "parse", "-"],
        input="(" * 20_000 + "p" + ")" * 20_000, capture_output=True, text=True, env=env,
        timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"formula": "p", "size": 1}
    assert "recursion" not in proc.stderr


def test_a_deep_quantifier_nest_is_read_and_classified(capsys):
    """A 20,000-deep forall nest is read; classify lists each quantifier
    of a 2,000-deep one (its output grows with the square of the depth,
    as each row prints its path)."""
    assert formula_size(parse_formula("forall x. " * 20_000 + "p(x)")) == 20_001
    code, doc, _ = run_json(capsys, "classify", "forall x. " * 2_000 + "p(x)")
    rows = doc["quantifiers"]
    assert code == 0 and len(rows) == 2_000
    assert rows[-1]["path"] == ".".join("0" * 1_999)
    assert [r["accessible"] for r in rows] == [True] + [False] * 1_999


DEEP_TERM = "f(" * 2_000 + "c" + ")" * 2_000


def test_a_deep_term_is_read_in_a_formula_and_in_a_selection(capsys):
    code, doc, _ = run_json(capsys, "parse", f"p({DEEP_TERM})")
    assert code == 0 and doc == {"formula": f"p({DEEP_TERM})", "size": 1}
    code, doc, _ = run_json(capsys, "subexpand", "--selection",
                            f"(forall x ({DEEP_TERM}) _)", "forall x. p(x)")
    assert code == 0 and doc["sub_expansion"] == f"p({DEEP_TERM})"


def test_a_long_negation_chain_is_decided(capsys):
    """The parser keeps each ~ on its explicit stack, so a 100,000-deep
    chain is read and decided with the normal documents, not refused at
    the recursion limit; --max 2 is the least bound that reaches expand."""
    text = "~" * 100_000 + "p(c)"
    code, doc, _ = run_json(capsys, "parse", text)
    assert code == 0 and doc["size"] == 100_001
    code, doc, _ = run_json(capsys, "taut", text)
    assert code == 1 and doc["tautology"] is False and doc["atoms"] == 1
    code, doc, _ = run_json(capsys, "min-order", "--max", "2", text)
    assert code == 1 and doc == {"kind": "C", "max_checked": 2, "min_order": None}


SUCCESSOR = "p(c) & (forall x. (p(x) -> p(f(x))))"


@pytest.mark.parametrize("order", [500, 1000])
def test_a_champ_of_deep_terms_is_listed(capsys, order):
    """A term is made with its print and heights, so the champ's sort
    hashes and compares no term by walking it, at any depth."""
    code, out, _ = run(capsys, "champ", "--order", str(order), SUCCESSOR)
    lines = out.splitlines()
    assert code == 0 and lines[0] == f"{order - 1} terms"
    assert lines[-1] == "f(" * (order - 2) + "c" + ")" * (order - 2)


def test_check_c_holds_over_deep_terms(capsys):
    code, out, _ = run(capsys, "check-c", "--order", "500", f"({SUCCESSOR}) -> p(c)")
    assert code == 0 and "status: holds" in out.splitlines()


# runs the CLI after allocating and freeing byte strings of every small size,
# so that the objects the run makes lie at other addresses, in another order
PADDED = ("import runpy, sys; pad = [bytes(k % 500) for k in range(20_000)]; "
          "del pad[::3]; sys.argv[0] = 'herbrandkit'; "
          "runpy.run_module('herbrandkit', run_name='__main__')")


def test_output_does_not_depend_on_the_hash_seed_or_on_addresses():
    """String hashes vary with the hash seed, and term ids and hashes with
    where the terms are allocated; neither orders any output."""
    src = str(Path(herbrandkit.__file__).resolve().parent.parent)
    skolemized = print_formula(outer_skolemize(rectify(parse_formula(UPPER_BOUND_TEXT))))
    commands = [("champ", "--order", "4", skolemized),
                ("min-order", "--max", "3", UPPER_BOUND_TEXT),
                ("check-c", "--order", "3", UPPER_BOUND_TEXT),
                ("--format", "json", "demo", "upperbound")]
    outputs = []
    for seed, start in (("0", ["-m", "herbrandkit"]), ("12345", ["-c", PADDED])):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        outputs.append([subprocess.run(
            [sys.executable, *start, *argv], capture_output=True, env=env,
            timeout=300) for argv in commands])
    assert outputs[0][0].stdout.startswith(b"147 terms\n")
    for first, second in zip(*outputs):
        assert first.returncode in (0, 1)
        assert (first.returncode, first.stdout) == (second.returncode, second.stdout)


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "parse", "forall . p")
    assert code == 2 and "error" in err.lower()


def test_json_error_doc(capsys):
    code, out, err = run(capsys, "--format", "json", "parse", "p |")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] and doc["message"]


@pytest.mark.parametrize("exc", [ValueError("internal fault"), OSError("disk gone"),
                                 RecursionError("too deep")],
                         ids=["ValueError", "OSError", "RecursionError"])
def test_every_failure_to_check_exits_2_with_json_error(capsys, monkeypatch, exc):
    """Exit 1 is a negative verdict, so an internal fault or an I/O error
    exits 2 with the JSON error document like any other failure to check."""
    def fail(args):
        raise exc

    monkeypatch.setattr("herbrandkit.cli._cmd_parse", fail)
    code, out, _ = run(capsys, "--format", "json", "parse", "p")
    assert code == 2
    assert json.loads(out) == {"error": type(exc).__name__, "message": str(exc)}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_error_without_a_message_prints_its_type(capsys, monkeypatch, fmt):
    """MemoryError() says nothing of itself; the error line names its type
    instead of ending at "error: ", and the exit stays 2."""
    def fail(args):
        raise MemoryError()

    monkeypatch.setattr("herbrandkit.cli._cmd_parse", fail)
    code, out, err = run(capsys, "--format", fmt, "parse", "p")
    assert code == 2 and err.rstrip().endswith("error: MemoryError")
    if fmt == "json":
        assert json.loads(out) == {"error": "MemoryError", "message": "MemoryError"}


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


def test_a_leaf_selection_over_a_deep_quantifier_is_refused_in_linear_time(capsys):
    """The walk compiled the subformula again at each node of the path down
    to the quantifier: 0.68 s at 2,000 negations and 1.77 s at 4,000."""
    start = time.perf_counter()
    code, _, err = run(capsys, "subexpand", "--selection", "_",
                       "~" * 20_000 + "forall x. p(x)")
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert err == "error: the selection chooses no witness terms for forall x\n"


def test_a_leaf_selection_meets_the_size_guard_before_the_quantifier(capsys):
    f = "~" * 51 + "forall x. p(x)"
    code, _, err = run(capsys, "check-c", "--order", "2", "--selection", "_",
                       "--budget", "5", f)
    assert (code, err) == (2, "error: sub-expansion exceeds the size guard of 5 nodes\n")
    code, _, err = run(capsys, "check-c", "--order", "2", "--selection", "_",
                       "--budget", "100", f)
    assert (code, err) == (2, "error: the selection chooses no witness terms for forall x\n")


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


def test_taut_emit_cnf_builds_the_clausal_form_once(capsys, monkeypatch):
    """The verdict and the DIMACS text read one clausal form, and the text
    is the one emit_dimacs gives."""
    from herbrandkit import cli, taut
    built = []
    build = taut.clausal_refutation_form

    def counted(f):
        built.append(f)
        return build(f)

    for module in (cli, taut):
        monkeypatch.setattr(module, "clausal_refutation_form", counted)
    text = "((p -> q) & (q -> r)) -> (p -> r)"
    code, out, _ = run(capsys, "taut", "--emit-cnf", text)
    assert code == 0 and len(built) == 1
    assert out == taut.emit_dimacs(parse_formula(text)) + "\n"


def test_check_c_trichotomy(capsys):
    code, out, _ = run(capsys, "check-c", "--order", "3", DRINKER_TEXT)
    assert code == 0 and "status: holds" in out
    code, out, _ = run(capsys, "check-c", "--order", "2", DRINKER_TEXT)
    assert code == 1 and "status: fails" in out
    code, out, _ = run(capsys, "check-c", "--order", "3", "--selection",
                       "(exists a (@dot) _)", DRINKER_TEXT)
    assert code == 2 and "status: inconclusive" in out


EMPTY_DOMAIN_CASES = [
    ("forall y. (p(y) | ~p(y))", 0, {
        "status": "holds", "witness": "full-expansion", "tautology": True,
        "skolemized": "p(sk_y) | ~p(sk_y)",
        "detail": "empty term domain; the quantifier-free form itself decides"}),
    ("forall y. p(y)", 1, {
        "status": "fails", "witness": "none", "tautology": False,
        "skolemized": "p(sk_y)",
        "detail": "empty term domain; the quantifier-free form itself decides"}),
    ("(exists x. p(x)) | forall y. ~p(y)", 1, {
        "status": "fails", "witness": "none", "tautology": None,
        "skolemized": "(exists x. p(x)) | ~p(sk_y)",
        "detail": "no terms of height below 1 but quantifiers remain"}),
]


@pytest.mark.parametrize("text, code, doc", EMPTY_DOMAIN_CASES,
                         ids=["holds", "fails", "quantifiers-remain"])
def test_check_c_over_an_empty_term_domain(capsys, text, code, doc):
    """Under Herbrand heights a Skolem constant has height 1, so the order-1
    champ of a formula with no other symbol is empty: a quantifier-free
    Skolemized form decides itself, with no node count, and one with
    quantifiers left fails."""
    got = run_json(capsys, "check-c", "--order", "1", "--herbrand-heights", text)
    assert got[:2] == (code, {**doc, "kind": "C", "order": 1, "term_count": 0})


def test_check_c_holds_an_empty_term_domain_to_the_size_guard(capsys):
    """Over no terms the expansion is the Skolemized form itself, held to
    --budget as the same form is over one term."""
    for text, heights in [("forall y. (p(y) | ~p(y))", ["--herbrand-heights"]),
                          ("p | ~p", [])]:
        code, _, err = run(capsys, "check-c", "--order", "1", *heights,
                           "--budget", "3", text)
        assert code == 2
        assert "the order-1 expansion has 4 formula nodes, over the size guard of 3" in err


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


SHOWCASE_GUARD_ERROR = ("error: the order-4 expansion has 22322979 formula nodes, "
                        "over the size guard of 10000000\n")


@pytest.fixture
def no_grounding(monkeypatch):
    """Fails a check whose full route grounds the expansion, so a test bounds
    its work by the route it takes rather than by a clock."""
    def grounded(*_):
        raise AssertionError("the full route grounded the expansion")
    for name in ("abstraction", "decide_form"):
        monkeypatch.setattr(construct, name, grounded)


@pytest.mark.parametrize("star", [[], ["--star"]], ids=["outer", "deltapp"])
def test_check_c_decides_the_upper_bound_at_its_own_order(capsys, no_grounding, star):
    """Under a guard that admits its 22,322,979-node expansion, the order-4
    check of the upper-bound example holds, decided by forward chaining
    without grounding it; the default guard still refuses it with the same
    message."""
    code, doc, _ = run_json(capsys, "check-c", "--order", "4", *star,
                            "--budget", "30000000", UPPER_BOUND_TEXT)
    assert code == 0 and doc["status"] == "holds" and doc["tautology"]
    assert (doc["term_count"], doc["node_count"]) == (147, 22322979)
    assert run(capsys, "check-c", "--order", "4", *star, UPPER_BOUND_TEXT) == (
        2, "", SHOWCASE_GUARD_ERROR)


def test_min_order_reaches_the_upper_bound_at_its_own_order(capsys, no_grounding):
    code, out, _ = run(capsys, "min-order", "--max", "4", "--budget", "30000000",
                       UPPER_BOUND_TEXT)
    assert (code, out) == (0, "4\n")
    assert run(capsys, "min-order", "--max", "4", UPPER_BOUND_TEXT) == (
        2, "", SHOWCASE_GUARD_ERROR)


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
# golden output: the README examples, the upper-bound scripts and registry
# dump, and both demo documents, byte for byte as tests/data/golden holds
# them; a command that saves a registry is judged by the registry it saves

SAVED_REGISTRY = "<saved registry>"

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
    "derive_upper_fv_registry": ["derive", "--fv", "--order", "4", "--selection",
                                 str(DATA / "upper_bound.sel"), "--save-registry",
                                 SAVED_REGISTRY, UPPER_BOUND_TEXT],
    "demo_upperbound": ["demo", "upperbound"],
    "demo_upperbound_json": ["--format", "json", "demo", "upperbound"],
    "demo_false_lemma": ["demo", "false-lemma"],
    "demo_false_lemma_json": ["--format", "json", "demo", "false-lemma"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(capsys, tmp_path, name):
    saved = tmp_path / "registry.txt"
    argv = [str(saved) if a == SAVED_REGISTRY else a for a in GOLDEN[name]]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if SAVED_REGISTRY in GOLDEN[name]:
        out = saved.read_text()
    assert out == (DATA / "golden" / f"{name}.txt").read_text()


# ---------------------------------------------------------------------------
# every subcommand on random input: the exit-code trichotomy, JSON that
# parses, no internal fault, and the same bytes from a second run in the
# same process (the parser and the champs are shared between runs)

FUZZ_DEEP_TERM = "f(" * 300 + "c" + ")" * 300
ATOM_TEXTS = ("p(x)", "p(c)", "q(x,y)", "q(c,x)", "r", "p(sk_f(c))", "p(?g)",
              "x < y", "p(@dot)", f"p({FUZZ_DEEP_TERM})")
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
    return st.builds(lambda n, w, f: "~" * n + "(" * w + f + ")" * w,
                     st.sampled_from([0, 0, 1, 2, 3000]), st.sampled_from([0, 0, 1, 3000]),
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
                      st.lists(st.sampled_from(["c", "x", "@dot", "sk_f(c)", "?g",
                                                FUZZ_DEEP_TERM]),
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
