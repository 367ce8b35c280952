"""Skolemization: the outer form and the delta++ form with its symbol
registry, two conventions for the Skolem term that replaces a
delta-quantifier over one polarity walk.  Both fill an optional ``record``
with each removed binder's name -> its symbol: the choices made, reported
so that a caller reads them rather than making them again.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Sequence
from dataclasses import dataclass, field

from .syntax import (
    App, Atom, Branch, Formula, FormulaError, GammaVar, Not, Quant, Term, Var,
    collect_signature, fold, free_names, is_gamma,
    is_rectified, quant_kind, rebuild, substitute, substitute_term,
    term_var_name,
)
from .syntax import nameify_term  # noqa: F401  (re-exported, public here)


class SkolemError(FormulaError):
    pass


# ---------------------------------------------------------------------------
# canonical scope keys

_PLACEHOLDER = re.compile(r"[bg][0-9]+")


def canonical_key(scope: Formula, listed: Sequence[Term]) -> str:
    """Canonical print of a quantified scope for the delta-function registry.

    Bound variables are numbered b0, b1, ... in preorder binding order and
    the listed argument variables are replaced positionally by g0, g1, ...,
    so the key is invariant under renaming of bound variables and under
    bijective renaming of the listed variables.  Any other free variable
    prints by name, with a leading $ (which no parsed name has) when the
    name is spelled like one of those placeholders."""
    positional = {term_var_name(t): f"g{i}" for i, t in enumerate(listed)}
    counter = [0]

    def name(nm: str, env) -> str:
        free = "$" + nm if _PLACEHOLDER.fullmatch(nm) else nm
        return env.get(nm, positional.get(nm, free))

    def pt(t: Term, env) -> str:  # t's print, its variables renamed
        return substitute_term(t, {nm: Var(name(nm, env)) for nm in t.names}).text

    def down(g, env):
        if not isinstance(g, Quant):
            return env
        bn = f"b{counter[0]}"
        counter[0] += 1
        return {**env, g.var: bn}

    def up(g, kids, env) -> str:
        t = type(g)
        if t is Atom:
            return g.pred + "(" + ",".join(pt(a, env) for a in g.args) + ")"
        if isinstance(g, Quant):
            return f"({quant_kind(g)} {env[g.var]} {kids[0]})"
        return f"({t.__name__.lower()} {' '.join(kids)})"  # not, and, or

    return fold(scope, up, down, {})


def key_hash(key: str) -> str:
    return hashlib.sha256(key.encode()).hexdigest()[:16]


@dataclass
class SkolemRegistry:
    """Maps canonical scope keys to Skolem symbols, shared between
    Skolemization and derivation checking so both use the same symbols.

    Entries are stored under the key hash; a registry loaded from a dump can
    therefore answer lookups without the full key text."""

    entries: dict[str, tuple[str, int]] = field(default_factory=dict)

    def symbols(self) -> set[str]:
        return {sym for sym, _ in self.entries.values()}

    def lookup(self, key: str) -> tuple[str, int] | None:
        return self.entries.get(key_hash(key))

    def bind(self, key: str, base: str, arity: int, avoid: set[str] = frozenset()) -> str:
        h = key_hash(key)
        if h in self.entries:
            sym, known_arity = self.entries[h]
            if known_arity != arity:
                raise SkolemError(
                    f"registry arity clash for {sym}: {known_arity} vs {arity}")
            return sym
        sym = _fresh_symbol(base, self.symbols() | set(avoid))
        self.entries[h] = (sym, arity)
        return sym

    def record(self, key: str, sym: str, arity: int) -> None:
        """Bind a key to a caller-chosen symbol, e.g. one read off a
        derivation line.  Rejects clashes with an existing entry."""
        h = key_hash(key)
        if h in self.entries:
            known_sym, known_arity = self.entries[h]
            if (known_sym, known_arity) != (sym, arity):
                raise SkolemError(
                    f"registry clash: key bound to {known_sym}/{known_arity}, "
                    f"asked to record {sym}/{arity}")
            return
        self.entries[h] = (sym, arity)

    def dump(self) -> str:
        lines = [f"{h} {sym} {arity}" for h, (sym, arity) in self.entries.items()]
        return "\n".join(sorted(lines)) + ("\n" if lines else "")

    @classmethod
    def load(cls, text: str) -> "SkolemRegistry":
        reg = cls()
        for ln, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3 or not parts[2].isdigit():
                raise SkolemError(f"bad registry line {ln}: {line!r}")
            reg.entries[parts[0]] = (parts[1], int(parts[2]))
        return reg


# ---------------------------------------------------------------------------
# the delta rules and the polarity walk they share

def _fresh_symbol(base: str, taken: set[str]) -> str:
    """sk_<base>, or sk_<base>_<i> for the least i >= 2 that is free; the
    chosen symbol is added to taken."""
    sym = f"sk_{base}"
    i = 2
    while sym in taken:
        sym = f"sk_{base}_{i}"
        i += 1
    taken.add(sym)
    return sym


def deltapp_scope(scope: Formula, gammas: Sequence[str] = ()
                  ) -> tuple[tuple[Term, ...], str]:
    """The delta++ rule for the delta-quantifier scope: the variables its
    Skolem term is applied to, and the canonical key the registry files it
    under.  Listed are the free instantiation variables of the scope and the
    names among gammas (enclosing gamma-variables) that occur free in it, in
    order of first occurrence."""
    listed = tuple(GammaVar(nm[1:]) if nm.startswith("?") else Var(nm)
                   for nm in free_names(scope) if nm.startswith("?") or nm in gammas)
    return listed, canonical_key(scope, listed)


def _skolemize(f: Formula, what: str, delta_term,
               record: dict[str, str] | None) -> Formula:
    """Remove every delta-quantifier of f, outermost first, replacing its
    variable by delta_term(quantifier, enclosing gamma-variables in nesting
    order, names to avoid, the Skolem terms of the enclosing removed
    variables), and note its symbol in record.  Gamma-quantifiers stay.
    The terms are applied at the atoms, as rectify renames: f is rectified,
    so no binder captures them."""
    if not is_rectified(f):
        raise SkolemError(f"{what} requires a rectified formula")
    sig = collect_signature(f)
    taken = set(sig.functions) | set(sig.free_vars)

    # the context is (enclosing gamma-variables, polarity, removed variable
    # -> its Skolem term); a removed quantifier's up gets None
    def down(g, ctx):
        gammas, sign, env = ctx
        if isinstance(g, Not):
            return gammas, -sign, env
        if not isinstance(g, Quant):
            return ctx
        if is_gamma(quant_kind(g), sign):
            return gammas + [g.var], sign, env
        term = delta_term(g, gammas, taken, env)
        if record is not None:
            record[g.var] = term.sym
        return Branch(((g.body, (gammas, sign, {**env, g.var: term})),), None)

    def up(g, kids, ctx):
        if type(g) is Atom and ctx[2]:
            return Atom(g.pred, tuple(substitute_term(a, ctx[2]) for a in g.args))
        return rebuild(g, *kids) if ctx else kids[0]  # rebuild gives an atom back as it is

    return fold(f, up, down, ([], 1, {}))


def outer_skolemize(f: Formula, record: dict[str, str] | None = None) -> Formula:
    """Remove every delta-quantifier, replacing its variable by a fresh
    Skolem function applied to the variables of all enclosing
    gamma-quantifiers, in nesting order.  Gamma-quantifiers stay."""

    def delta_term(q, gammas, taken, _):
        return App(_fresh_symbol(q.var, taken), True, tuple(Var(x) for x in gammas))

    return _skolemize(f, "outer Skolemization", delta_term, record)


def deltapp_skolemize(f: Formula, registry: SkolemRegistry,
                      record: dict[str, str] | None = None) -> Formula:
    """Remove every delta-quantifier outermost-first, replacing its variable
    by a registry symbol applied to exactly the gamma-variables that occur in
    the quantifier's scope, in order of first occurrence.  The registry
    reuses the same symbol for scopes equal up to bound renaming and
    bijective renaming of the argument variables."""

    def delta_term(q, gammas, taken, env):
        listed, key = deltapp_scope(substitute(q, env), gammas)
        return App(registry.bind(key, q.var, len(listed), taken), True, listed)

    return _skolemize(f, "delta++ Skolemization", delta_term, record)
