"""Command-line front door: every pipeline stage as a subcommand.

Exit codes follow one convention across subcommands: 0 when the requested
check succeeds or the property holds, 1 when the check ran to completion
and came out negative, 2 for errors and for verdicts that could not be
reached (size guards, bad input, inconclusive selections).

Output comes in two formats: ``--format text`` prints the primary result
raw (a formula, a term list, a proof script) so commands compose in a
pipeline, and ``--format json`` prints one stable, self-describing document
per run.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from pathlib import Path

from .construct import (
    construct_derivation,
    construct_fv_derivation,
    demo_false_lemma,
    demo_upper_bound,
    goedel_dreben_bound,
    min_order,
    property_c,
)
from .expansion import (
    DEFAULT_BUDGET,
    build_sub_expansion,
    champ,
    expand,
    parse_selection,
)
from .kernel import (
    apply_passage,
    check_derivation,
    format_path,
    parse_path,
    parse_script,
    print_script,
)
from .oracle import find_countermodel
from .skolem import SkolemRegistry, deltapp_skolemize, outer_skolemize
from .syntax import (
    FormulaError,
    formula_size,
    is_gamma,
    parse_formula,
    parse_term,
    print_formula,
    print_term,
    quant_kind,
    quantifier_sites,
    rectify,
)
from .taut import decide, emit_dimacs


class CliError(FormulaError):
    pass


# ---------------------------------------------------------------------------
# input plumbing

def _read_formula(args) -> "Formula":
    if getattr(args, "file", None):
        text = Path(args.file).read_text()
    elif getattr(args, "formula", None) is not None:
        text = sys.stdin.read() if args.formula == "-" else args.formula
    else:
        raise CliError("give a formula inline or via --file")
    return parse_formula(text)


_BLANKS = re.compile(r"(?:\s|;[^\n]*)*")  # blanks and ; comment lines


def _read_selection(args):
    raw = args.selection
    if raw is None:
        return None
    # inline text opens with "(" or is "_" once blanks and comments are skipped
    rest = raw[_BLANKS.match(raw).end():]
    inline = rest.startswith("(") or rest.rstrip() == "_"
    text = raw if inline else Path(raw).read_text()
    return parse_selection(text)


def _load_registry(args) -> SkolemRegistry:
    path = getattr(args, "registry", None)
    if path is None:
        return SkolemRegistry()
    return SkolemRegistry.load(Path(path).read_text())


def _store_registry(args, reg: SkolemRegistry) -> None:
    path = getattr(args, "save_registry", None)
    if path is not None:
        Path(path).write_text(reg.dump())


# ---------------------------------------------------------------------------
# text rendering

def _scalar(v) -> str:
    if v is True:
        return "yes"
    if v is False:
        return "no"
    if v is None:
        return "none"
    return str(v)


def _lines(doc: dict, indent: int = 0) -> list[str]:
    out = []
    pad = "  " * indent
    for k, v in doc.items():
        if isinstance(v, dict):
            out.append(f"{pad}{k}:")
            out.extend(_lines(v, indent + 1))
        elif isinstance(v, (list, tuple)):
            out.append(f"{pad}{k}:")
            for item in v:
                if isinstance(item, dict):
                    out.append(f"{pad}  -")
                    out.extend(_lines(item, indent + 2))
                else:
                    out.append(f"{pad}  - {_scalar(item)}")
        else:
            out.append(f"{pad}{k}: {_scalar(v)}")
    return out


# ---------------------------------------------------------------------------
# subcommands: each returns (exit code, document, raw text or None)

def _cmd_parse(args):
    f = _read_formula(args)
    return 0, {"formula": print_formula(f), "size": formula_size(f)}, print_formula(f)


def _cmd_rectify(args):
    f = _read_formula(args)
    r = rectify(f)
    return 0, {"formula": print_formula(f), "rectified": print_formula(r)}, \
        print_formula(r)


def _cmd_classify(args):
    f = _read_formula(args)
    rows = [{"path": format_path(path), "kind": quant_kind(g), "var": g.var,
             "class": "gamma" if is_gamma(quant_kind(g), sign) else "delta",
             "accessible": accessible}
            for path, g, sign, accessible in quantifier_sites(f)]
    raw = [f"{r['path']} {r['kind']} {r['var']} {r['class']}"
           f"{' accessible' if r['accessible'] else ''}" for r in rows]
    return 0, {"formula": print_formula(f), "quantifiers": rows}, "\n".join(raw)


def _cmd_skolemize(args):
    f = rectify(_read_formula(args))
    if args.mode == "outer":
        symbols: dict[str, str] = {}
        out = outer_skolemize(f, record=symbols)
        doc = {"mode": "outer", "formula": print_formula(f),
               "skolemized": print_formula(out),
               "symbols": dict(sorted(symbols.items()))}
        return 0, doc, print_formula(out)
    reg = _load_registry(args)
    out = deltapp_skolemize(f, reg)
    _store_registry(args, reg)
    doc = {"mode": "deltapp", "formula": print_formula(f),
           "skolemized": print_formula(out),
           "symbols": sorted(reg.symbols())}
    return 0, doc, print_formula(out)


def _cmd_champ(args):
    f = _read_formula(args)
    ch = champ(f, args.order, herbrand=args.herbrand_heights, budget=args.budget)
    prints = [print_term(t) for t in ch.terms]
    doc = {"order": args.order, "herbrand_heights": args.herbrand_heights,
           "count": len(prints), "terms": prints}
    return 0, doc, "\n".join([f"{len(prints)} terms"] + prints)


def _cmd_expand(args):
    f = _read_formula(args)
    if args.order is None and not args.terms_file:
        raise CliError("expand needs --order or --terms-file")
    if args.terms_file:
        lines = Path(args.terms_file).read_text().splitlines()
        terms = [parse_term(ln.strip()) for ln in lines
                 if ln.strip() and not ln.strip().startswith("#")]
        e = expand(f, terms, budget=args.budget,
                   herbrand=args.herbrand_heights)
    else:
        ch = champ(f, args.order, herbrand=args.herbrand_heights,
                   budget=args.budget)
        e = expand(f, ch, budget=args.budget)
    doc = {"formula": print_formula(f), "expansion": print_formula(e),
           "nodes": formula_size(e)}
    return 0, doc, print_formula(e)


def _cmd_subexpand(args):
    f = _read_formula(args)
    e = build_sub_expansion(f, _read_selection(args))
    doc = {"formula": print_formula(f), "sub_expansion": print_formula(e),
           "nodes": formula_size(e)}
    return 0, doc, print_formula(e)


def _cmd_taut(args):
    f = _read_formula(args)
    verdict, atoms = decide(f)
    doc = {"formula": print_formula(f), "tautology": verdict, "atoms": atoms}
    raw = emit_dimacs(f) if args.emit_cnf else _scalar(verdict)
    return (0 if verdict else 1), doc, raw


def _cmd_check_c(args):
    f = _read_formula(args)
    sel = _read_selection(args)
    reg = _load_registry(args)
    res = property_c(f, args.order, star=args.star, sel=sel,
                     herbrand_heights=args.herbrand_heights,
                     budget=args.budget, registry=reg)
    _store_registry(args, reg)
    doc = {"status": res.status, "order": res.order, "kind": res.kind,
           "witness": res.witness, "term_count": res.term_count,
           "tautology": res.tautology,
           "skolemized": print_formula(res.skolemized)}
    if res.node_count is not None:
        doc["node_count"] = res.node_count
    if res.detail:
        doc["detail"] = res.detail
    code = {"holds": 0, "fails": 1}.get(res.status, 2)
    return code, doc, None


def _cmd_min_order(args):
    f = _read_formula(args)
    n = min_order(f, star=args.star, n_max=args.max,
                  herbrand_heights=args.herbrand_heights, budget=args.budget)
    doc = {"kind": "C*" if args.star else "C", "max_checked": args.max,
           "min_order": n}
    return (0 if n is not None else 1), doc, _scalar(n)


def _cmd_derive(args):
    f = _read_formula(args)
    sel = _read_selection(args)
    if args.fv:
        reg = _load_registry(args)
        d, b, sigma = construct_fv_derivation(f, args.order, sel, reg,
                                              budget=args.budget)
        _store_registry(args, reg)
        script = print_script(d)
        notes = [f"# opening line: {print_formula(b)}"]
        notes += [f"# sigma: {k} -> {print_term(t)}" for k, t in sigma.items()]
        doc = {"mode": d.mode, "steps": len(d.steps), "script": script,
               "opening_line": print_formula(b),
               "sigma": {k: print_term(t) for k, t in sorted(sigma.items())}}
        return 0, doc, script + "\n".join(notes)
    d = construct_derivation(f, args.order, sel, budget=args.budget)
    script = print_script(d)
    doc = {"mode": d.mode, "steps": len(d.steps), "script": script}
    return 0, doc, script.rstrip("\n")


def _cmd_check_proof(args):
    text = sys.stdin.read() if args.script == "-" else Path(args.script).read_text()
    d = parse_script(text)
    reg = _load_registry(args)
    report = check_derivation(d, reg)
    _store_registry(args, reg)
    doc = {"accepted": report.ok, "mode": d.mode, "steps": len(d.steps),
           "axiom_quantifier_free": report.axiom_quantifier_free,
           "axiom_tautology": report.axiom_tautology,
           "witnesses": [print_term(t) for t in report.witnesses],
           "registry_symbols": sorted(set(report.deltapp_symbols))}
    if report.ok:
        doc["end"] = print_formula(report.final)
        return 0, doc, "accepted"
    doc["error"] = report.error
    doc["error_message"] = report.error_message
    doc["step_index"] = report.step_index
    where = "" if report.step_index is None else f" at step {report.step_index}"
    msg = report.error_message or ""
    if report.error and not msg.startswith(report.error):
        msg = f"{report.error}: {msg}" if msg else report.error
    return 1, doc, f"rejected{where}: {msg}"


def _cmd_passage(args):
    f = _read_formula(args)
    out = apply_passage(f, parse_path(args.path), args.eq, args.dir)
    doc = {"formula": print_formula(f), "path": args.path, "equation": args.eq,
           "direction": args.dir, "result": print_formula(out)}
    return 0, doc, print_formula(out)


def _cmd_models(args):
    f = _read_formula(args)
    cm = find_countermodel(f, max_size=args.size, budget=args.budget)
    if cm is None:
        doc = {"formula": print_formula(f), "valid_up_to": args.size,
               "countermodel": None}
        return 0, doc, f"valid in every interpretation up to size {args.size}"
    doc = {"formula": print_formula(f), "valid_up_to": args.size,
           "countermodel": {
               "size": cm.size,
               "functions": {k: list(v) for k, v in sorted(cm.functions.items())},
               "predicates": {k: [int(b) for b in v]
                              for k, v in sorted(cm.predicates.items())},
               "env": dict(sorted(cm.env.items()))}}
    return 1, doc, "countermodel: " + cm.describe()


def _cmd_demo(args):
    doc = demo_false_lemma() if args.which == "false-lemma" else demo_upper_bound()
    return 0, doc, "\n".join(_lines(doc))


def _cmd_bound_gd(args):
    value = goedel_dreben_bound(args.n, args.r, args.big_n)
    doc = {"n": args.n, "r": args.r, "N": args.big_n, "bound": value}
    return 0, doc, str(value)


# ---------------------------------------------------------------------------
# wiring

def _add_formula_args(p):
    p.add_argument("formula", nargs="?", help="formula text, or - for stdin")
    p.add_argument("--file", help="read the formula from a file instead")


def _add_budget(p):
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="size guard for expansions and enumerations")


def _add_registry_args(p):
    p.add_argument("--registry", help="load Skolem symbol bindings from this file")
    p.add_argument("--save-registry",
                   help="write the (possibly extended) bindings back to this file")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    top = argparse.ArgumentParser(
        prog="herbrandkit",
        description="Skolemize, expand, check and construct quantifier "
                    "derivations from the command line.")
    top.add_argument("--format", choices=("text", "json"), default="text",
                     help="raw text output (pipeable) or one json document")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a formula")
    _add_formula_args(p)

    p = sub.add_parser("rectify", help="make binders unique, drop vacuous ones")
    _add_formula_args(p)

    p = sub.add_parser("classify", help="list quantifiers with polarity class")
    _add_formula_args(p)

    p = sub.add_parser("skolemize", help="remove one polarity of quantifiers")
    _add_formula_args(p)
    p.add_argument("--mode", choices=("outer", "deltapp"), default="outer")
    _add_registry_args(p)

    p = sub.add_parser("champ", help="terms of height below the order")
    _add_formula_args(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--herbrand-heights", action="store_true",
                   help="count variables as height 0, constants as 1")
    _add_budget(p)

    p = sub.add_parser("expand", help="expand quantifiers over a term domain")
    _add_formula_args(p)
    p.add_argument("--order", type=int)
    p.add_argument("--terms-file", help="explicit term list, one per line")
    p.add_argument("--herbrand-heights", action="store_true")
    _add_budget(p)

    p = sub.add_parser("subexpand", help="expand along a selection tree")
    _add_formula_args(p)
    p.add_argument("--selection", required=True,
                   help="selection s-expression, inline or a file path")

    p = sub.add_parser("taut", help="sentential tautology check")
    _add_formula_args(p)
    p.add_argument("--emit-cnf", action="store_true",
                   help="print the refutation clauses in DIMACS form")

    p = sub.add_parser("check-c",
                       help="does the order-n expansion come out tautological?")
    _add_formula_args(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--star", action="store_true",
                   help="use the scope-sensitive Skolemized form")
    p.add_argument("--selection",
                   help="restrict to a chosen sub-expansion (sound for yes only)")
    p.add_argument("--herbrand-heights", action="store_true")
    _add_registry_args(p)
    _add_budget(p)

    p = sub.add_parser("min-order", help="least order that works, if any")
    _add_formula_args(p)
    p.add_argument("--max", type=int, default=8)
    p.add_argument("--star", action="store_true")
    p.add_argument("--herbrand-heights", action="store_true")
    _add_budget(p)

    p = sub.add_parser("derive",
                       help="construct a derivation from an established order")
    _add_formula_args(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--selection",
                   help="witness choices; omitted means the full domain")
    p.add_argument("--fv", action="store_true",
                   help="free-variable calculus with placeholder witnesses")
    _add_registry_args(p)
    _add_budget(p)

    p = sub.add_parser("check-proof", help="replay a proof script")
    p.add_argument("script", help="script file, or - for stdin")
    _add_registry_args(p)

    p = sub.add_parser("passage", help="move a quantifier across a junction")
    _add_formula_args(p)
    p.add_argument("--path", default=".", help="position, e.g. . or 0.1")
    p.add_argument("--eq", type=int, required=True, choices=range(1, 7))
    p.add_argument("--dir", required=True, choices=("prenex", "antiprenex"))

    p = sub.add_parser("models", help="brute-force validity over tiny domains")
    _add_formula_args(p)
    p.add_argument("--size", type=int, default=2)
    _add_budget(p)

    p = sub.add_parser("demo", help="run a showcase computation end to end")
    p.add_argument("which", choices=("false-lemma", "upperbound"))

    p = sub.add_parser("bound-gd", help="repaired order transfer arithmetic")
    p.add_argument("--n", type=int, required=True, help="starting order")
    p.add_argument("--r", type=int, required=True, help="maximal arity")
    p.add_argument("--N", type=int, required=True, dest="big_n",
                   help="domain size")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        code, doc, raw = run(args)
    except Exception as e:
        # Exit 1 means checked and negative, so every failure to check, be
        # it bad input, unreadable files, input nested deeper than the
        # recursive walkers reach or an internal fault, exits 2.
        if not isinstance(e, (FormulaError, OSError, RecursionError)):
            import traceback  # here, so that no start-up pays for it
            traceback.print_exc()
        if args.format == "json":
            print(json.dumps({"error": type(e).__name__, "message": str(e)},
                             indent=2, sort_keys=True))
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(raw if raw is not None else "\n".join(_lines(doc)))
    return code


if __name__ == "__main__":
    sys.exit(main())
