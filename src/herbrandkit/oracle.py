"""Brute-force finite-model validity: enumerate every interpretation over
domains of size 1..d and evaluate.  Used as the independent semantic ground
truth the calculi are tested against.

Free variables, free instantiation variables and free Skolem-named
variables are all read universally: they range over the domain through the
environment.  Skolem symbols are ordinary function symbols here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .syntax import (
    And, App, Atom, Exists, Forall, Formula, FormulaError, GammaVar, Not, Or,
    SkolemNamedVar, Term, Var, collect_signature, term_var_name,
)

DEFAULT_BUDGET = 1_000_000


class OracleError(FormulaError):
    pass


class OracleBudgetError(OracleError):
    pass


@dataclass
class Countermodel:
    size: int
    functions: dict[str, tuple[int, ...]]  # tables in mixed-radix arg order
    predicates: dict[str, tuple[bool, ...]]
    env: dict[str, int]

    def describe(self) -> str:
        parts = [f"domain size {self.size}"]
        for name, table in sorted(self.functions.items()):
            parts.append(f"{name}: {list(table)}")
        for name, table in sorted(self.predicates.items()):
            parts.append(f"{name}: {[int(b) for b in table]}")
        if self.env:
            parts.append("env " + ", ".join(f"{k}={v}" for k, v in sorted(self.env.items())))
        return "; ".join(parts)


def _eval_term(t: Term, funcs, env, size) -> int:
    match t:
        case Var() | GammaVar() | SkolemNamedVar():
            return env[term_var_name(t)]
        case App(sym, _, args):
            table = funcs[sym]
            idx = 0
            for a in args:
                idx = idx * size + _eval_term(a, funcs, env, size)
            return table[idx]


def _eval(f: Formula, funcs, preds, env, size) -> bool:
    match f:
        case Atom(p, args):
            table = preds[p]
            idx = 0
            for a in args:
                idx = idx * size + _eval_term(a, funcs, env, size)
            return table[idx]
        case Not(s):
            return not _eval(s, funcs, preds, env, size)
        case And(l, r):
            return _eval(l, funcs, preds, env, size) and _eval(r, funcs, preds, env, size)
        case Or(l, r):
            return _eval(l, funcs, preds, env, size) or _eval(r, funcs, preds, env, size)
        case Forall(v, b):
            return all(_eval(b, funcs, preds, {**env, v: d}, size) for d in range(size))
        case Exists(v, b):
            return any(_eval(b, funcs, preds, {**env, v: d}, size) for d in range(size))


def find_countermodel(f: Formula, max_size: int = 2,
                      budget: int = DEFAULT_BUDGET) -> Countermodel | None:
    """The first falsifying interpretation with domain size <= max_size, or
    None.  Errors out if the total number of interpretations to enumerate
    exceeds the budget."""
    sig = collect_signature(f)
    fsyms = dict(sig.functions)
    if sig.uses_dot:
        fsyms["@dot"] = (0, False)
    var_names = list(sig.free_vars) + ["?" + g for g in sig.gamma_vars]

    total = 0
    for size in range(1, max_size + 1):
        n = 1
        for _, (arity, _) in fsyms.items():
            n *= size ** (size ** arity)
        for _, arity in sig.predicates.items():
            n *= 2 ** (size ** arity)
        n *= size ** len(var_names)
        total += n
    if total > budget:
        raise OracleBudgetError(
            f"{total} interpretations to enumerate, over the budget of {budget}")

    fnames = sorted(fsyms)
    pnames = sorted(sig.predicates)
    for size in range(1, max_size + 1):
        func_tables = [
            list(itertools.product(range(size), repeat=size ** fsyms[name][0]))
            for name in fnames]
        pred_tables = [
            list(itertools.product((False, True), repeat=size ** sig.predicates[name]))
            for name in pnames]
        for fchoice in itertools.product(*func_tables):
            funcs = dict(zip(fnames, fchoice))
            for pchoice in itertools.product(*pred_tables):
                preds = dict(zip(pnames, pchoice))
                for env_vals in itertools.product(range(size), repeat=len(var_names)):
                    env = dict(zip(var_names, env_vals))
                    if not _eval(f, funcs, preds, env, size):
                        return Countermodel(size, funcs, preds, env)
    return None


def valid_up_to(f: Formula, max_size: int = 2,
                budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f holds in every interpretation with domain size
    <= max_size."""
    return find_countermodel(f, max_size, budget) is None
