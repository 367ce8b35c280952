"""Sentential tautology checking over quantifier-free formulas.

Atoms are identified by their full printed form, so a Skolem-named variable
and a term that happens to print the same way name the same proposition.
Up to 20 distinct atoms the check runs a truth table (bit-column vectors);
above that it refutes the negation through a structure-preserving clausal
form with unit propagation and backtracking.
"""

from __future__ import annotations

from .syntax import (
    And, Atom, Formula, FormulaError, Not, Or, Quant, fold, print_formula,
    subformulas,
)

TABLE_LIMIT = 20

QUANTIFIER_FREE_ONLY = "tautology checking needs a quantifier-free formula"


class TautError(FormulaError):
    pass


def atom_list(f: Formula) -> list[str]:
    """Distinct atom prints in order of first occurrence.  Raises TautError
    at a quantifier, so one pass both checks and collects."""
    seen: dict[str, None] = {}
    for g in subformulas(f):
        if isinstance(g, Atom):
            seen.setdefault(print_formula(g))
        elif isinstance(g, Quant):
            raise TautError(QUANTIFIER_FREE_ONLY)
    return list(seen)


def _table_tautology(f: Formula, atoms: list[str]) -> bool:
    """Truth table as bit columns: column i holds, for every assignment row,
    the value of atom i; connectives become bitwise operations."""
    n = len(atoms)
    rows = 1 << n
    full = (1 << rows) - 1
    cols: list[int] = []
    width = 1
    for i in range(n):
        cols = [c | (c << width) for c in cols]
        cols.append(((1 << width) - 1) << width)
        width <<= 1
    index = {a: i for i, a in enumerate(atoms)}

    def ev(g, kids, _) -> int:
        t = type(g)
        if t is Atom:
            return cols[index[print_formula(g)]]
        if t is Not:
            return full ^ kids[0]
        if t is And:
            return kids[0] & kids[1]
        if t is Or:
            return kids[0] | kids[1]
        raise TautError(QUANTIFIER_FREE_ONLY)

    return fold(f, ev) == full


def clausal_refutation_form(f: Formula) -> tuple[list[list[int]], dict[str, int], int]:
    """Structure-preserving clausal form whose unsatisfiability certifies
    that f is a tautology: definitional variables for every subformula of f
    plus the unit clause asserting the root false.

    Returns (clauses, atom name -> variable, number of variables).  A
    junction is defined once per (connective, child literals): subformulas
    equal up to double negations and atom prints share one variable, and
    none is hashed whole."""
    atom_var: dict[str, int] = {}
    defined: dict[tuple, int] = {}
    clauses: list[list[int]] = []

    def lit(g, kids, _) -> int:
        t = type(g)
        if t is Atom:
            return atom_var.setdefault(print_formula(g), len(atom_var) + len(defined) + 1)
        if t is Not:
            return -kids[0]
        if t is not And and t is not Or:
            raise TautError(QUANTIFIER_FREE_ONLY)
        key = (t, *kids)
        v = defined.get(key)
        if v is None:
            v = defined[key] = len(atom_var) + len(defined) + 1
            a, b = kids
            if t is And:
                clauses.extend(([-v, a], [-v, b], [v, -a, -b]))
            else:
                clauses.extend(([-v, a, b], [v, -a], [v, -b]))
        return v

    root = fold(f, lit)
    clauses.append([-root])
    return clauses, atom_var, len(atom_var) + len(defined)


def _dpll(clauses: list[list[int]], nvars: int) -> bool:
    """True iff satisfiable.  Unit propagation strengthened with failed
    literal probing (a literal whose propagation closes every clause is
    asserted negatively), then chronological backtracking.  Tautological
    clauses are dropped up front."""
    clauses = [cl for cl in clauses if not any(-l in cl for l in cl)]
    assign: dict[int, bool] = {}

    def value(l: int):
        v = assign.get(abs(l))
        if v is None:
            return None
        return v if l > 0 else not v

    def propagate(trail: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for cl in clauses:
                unassigned = None
                satisfied = False
                open_count = 0
                for l in cl:
                    val = value(l)
                    if val is True:
                        satisfied = True
                        break
                    if val is None:
                        open_count += 1
                        unassigned = l
                if satisfied:
                    continue
                if open_count == 0:
                    return False
                if open_count == 1:
                    assign[abs(unassigned)] = unassigned > 0
                    trail.append(abs(unassigned))
                    changed = True
        return True

    def undo(trail: list[int]):
        for v in trail:
            del assign[v]

    def probe(trail: list[int]) -> bool:
        """Assert the negation of every literal that fails by propagation
        alone; False on an outright contradiction."""
        progress = True
        while progress:
            progress = False
            for v in range(1, nvars + 1):
                if v in assign:
                    continue
                for guess in (True, False):
                    assign[v] = guess
                    sub: list[int] = []
                    ok = propagate(sub)
                    undo(sub)
                    del assign[v]
                    if not ok:
                        assign[v] = not guess
                        trail.append(v)
                        if not propagate(trail):
                            return False
                        progress = True
                        break
        return True

    def solve() -> bool:
        trail: list[int] = []
        if not (propagate(trail) and probe(trail)):
            undo(trail)
            return False
        var = next((v for v in range(1, nvars + 1) if v not in assign), None)
        if var is None:
            return True
        for guess in (True, False):
            assign[var] = guess
            if solve():
                return True
            del assign[var]
        undo(trail)
        return False

    return solve()


def is_tautology(f: Formula) -> bool:
    atoms = atom_list(f)
    if len(atoms) <= TABLE_LIMIT:
        return _table_tautology(f, atoms)
    clauses, _, nvars = clausal_refutation_form(f)
    return not _dpll(clauses, nvars)


def emit_dimacs(f: Formula) -> str:
    """The clausal abstraction used for refutation, as DIMACS text with
    comment lines mapping propositional variables to atom prints."""
    clauses, atom_var, nvars = clausal_refutation_form(f)
    lines = [f"c refutation form: unsatisfiable iff the formula is a tautology"]
    for name, v in sorted(atom_var.items(), key=lambda kv: kv[1]):
        lines.append(f"c atom {v} {name}")
    lines.append(f"p cnf {nvars} {len(clauses)}")
    for cl in clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"
