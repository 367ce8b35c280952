"""Brute-force finite-model validity: enumerate every interpretation over
domains of size 1..d and evaluate, all predicate tables at once as the bits
of an int.  Used as the independent semantic ground truth the calculi are
tested against.

Free variables, free instantiation variables and free Skolem-named
variables are all read universally: they range over the domain through the
environment.  Skolem symbols are ordinary function symbols here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .syntax import (
    And, App, Atom, Forall, Formula, FormulaError, GammaVar, Not,
    SkolemNamedVar, Term, Var, collect_signature, fold, term_free_names,
    term_var_name,
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


def _indices(outer: list[str], inner: list[str], size: int) -> list[int]:
    """For each assignment to the names outer, in mixed radix order, its
    index among the assignments to inner.  A name of inner that outer lacks
    reads 0."""
    out = [0]
    for name in outer:
        step = size ** (len(inner) - 1 - inner.index(name)) if name in inner else 0
        out = [i + d * step for i in out for d in range(size)]
    return out


def _truth_masks(f: Formula, funcs, entry, size: int, full: int):
    """(scope, masks) of f: scope its free names, sorted, and masks[i] the
    set of predicate-table choices, as bits, that make f true at the i-th
    assignment to scope.  entry[p][j] is the mask of choices that make
    entry j of p's table true."""

    def up(g, kids, _):
        t = type(g)
        if t is Atom:
            scope = sorted(set().union(*map(term_free_names, g.args)))
            table, masks = entry[g.pred], []
            for vals in itertools.product(range(size), repeat=len(scope)):
                env = dict(zip(scope, vals))
                idx = 0
                for a in g.args:
                    idx = idx * size + _eval_term(a, funcs, env, size)
                masks.append(table[idx])
            return scope, masks
        if t is Not:
            scope, masks = kids[0]
            return scope, [full ^ m for m in masks]
        op = and_ if t is And or t is Forall else or_
        if len(kids) == 2:
            (ls, lm), (rs, rm) = kids
            scope = sorted(set(ls) | set(rs))
            return scope, [op(lm[i], rm[j]) for i, j in zip(
                _indices(scope, ls, size), _indices(scope, rs, size))]
        body, masks = kids[0]
        if g.var not in body:
            return kids[0]
        scope = [v for v in body if v != g.var]
        stride = size ** (len(body) - 1 - body.index(g.var))
        return scope, [reduce(op, masks[i:i + size * stride:stride])
                       for i in _indices(scope, body, size)]

    return fold(f, up)


def find_countermodel(f: Formula, max_size: int = 2,
                      budget: int = DEFAULT_BUDGET) -> Countermodel | None:
    """The first falsifying interpretation with domain size <= max_size, or
    None.  Errors out if the total number of interpretations to enumerate
    exceeds the budget.

    Interpretations are ordered by size, function tables, predicate tables
    and environment.  All predicate-table choices are evaluated at once:
    choice k is bit k of an int mask, and entry j of the P predicate-table
    entries is true in it iff bit P-1-j of k is set."""
    if max_size < 1:
        raise OracleError(f"the largest domain size must be at least 1, got {max_size}")
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
        widths = [size ** sig.predicates[name] for name in pnames]
        n_entries = sum(widths)
        # entry j's mask: bit k is set iff bit n_entries-1-j of k is
        columns = (int(("1" * (1 << b) + "0" * (1 << b)) * (1 << (n_entries - 1 - b)), 2)
                   for b in reversed(range(n_entries)))
        entry = {name: list(itertools.islice(columns, w)) for name, w in zip(pnames, widths)}
        full = (1 << (1 << n_entries)) - 1
        envs = list(itertools.product(range(size), repeat=len(var_names)))
        for fchoice in itertools.product(*func_tables):
            funcs = dict(zip(fnames, fchoice))
            scope, masks = _truth_masks(f, funcs, entry, size, full)
            fails = [full ^ masks[i] for i in _indices(var_names, scope, size)]
            first = reduce(or_, fails)
            if first:
                k = (first & -first).bit_length() - 1
                preds = {name: tuple(bool(m >> k & 1) for m in entry[name])
                         for name in pnames}
                e = next(i for i, x in enumerate(fails) if x >> k & 1)
                return Countermodel(size, funcs, preds, dict(zip(var_names, envs[e])))
    return None


def valid_up_to(f: Formula, max_size: int = 2,
                budget: int = DEFAULT_BUDGET) -> bool:
    """True iff f holds in every interpretation with domain size
    <= max_size."""
    return find_countermodel(f, max_size, budget) is None
