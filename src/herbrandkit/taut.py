"""Sentential tautology checking over quantifier-free formulas.

Atoms are identified by their full printed form, so a Skolem-named variable
and a term that happens to print the same way name the same proposition.
The propositional abstraction numbers atoms and junctions together as they
first close, each junction defined once per (connective, child literals),
through one numbering helper (numbering).  A formula is read into it by one
post-order fold (_abstract); the expansion walk's literal builder numbers
the instances of an expansion straight into it.  The check has one route:
it refutes the negation through the structure-preserving clausal form of an
abstraction (refutation_clauses) with a CDCL solver (two watched literals,
first-UIP clause learning and non-chronological backjumping), whatever the
atom count.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .syntax import And, Atom, Formula, FormulaError, Not, Or, fold, print_atom

QUANTIFIER_FREE_ONLY = "tautology checking needs a quantifier-free formula"


class TautError(FormulaError):
    pass


def numbering() -> tuple[list, object]:
    """A fresh numbering of abstraction nodes: (nodes, number), where
    number(key) gives the variable of key (an atom's print, or a junction
    (And or Or, left literal, right literal)), appending key to nodes when
    it is new, so node v - 1 is variable v."""
    nodes: list = []
    var: dict = {}

    def number(key) -> int:
        v = var.get(key)
        if v is None:
            nodes.append(key)
            v = var[key] = len(nodes)
        return v

    return nodes, number


def _abstract(f: Formula) -> tuple[list, int]:
    """The propositional abstraction of f, from one fold: its nodes, as
    numbering gives them, and the literal of f's root.  Subformulas equal up
    to double negations and atom prints share one variable, and none is
    hashed whole.  Raises TautError at a quantifier."""
    nodes, number = numbering()

    def lit(g, kids, _) -> int:
        t = type(g)
        if t is Atom:
            return number(print_atom(g))
        if t is Not:
            return -kids[0]
        if t is And or t is Or:
            return number((t, *kids))
        raise TautError(QUANTIFIER_FREE_ONLY)

    return nodes, fold(f, lit)


def atom_list(f: Formula) -> list[str]:
    """Distinct atom prints in order of first occurrence.  Raises TautError
    at a quantifier."""
    return [node for node in _abstract(f)[0] if type(node) is str]


def clausal_refutation_form(f: Formula) -> tuple[list[list[int]], dict[str, int], int]:
    """Structure-preserving clausal form whose unsatisfiability certifies
    that f is a tautology: refutation_clauses of f's abstraction."""
    return refutation_clauses(*_abstract(f))


def refutation_clauses(nodes: list, root: int) -> tuple[list[list[int]], dict[str, int], int]:
    """The clausal form of an abstraction (nodes, root): definitional
    clauses for every junction, defined once per (connective, child
    literals), plus the unit clause asserting the root false.

    Returns (clauses, atom name -> variable, number of variables)."""
    clauses: list[list[int]] = []
    atom_var: dict[str, int] = {}
    for v, node in enumerate(nodes, 1):
        if type(node) is str:
            atom_var[node] = v
            continue
        t, a, b = node
        if t is And:
            clauses.extend(([-v, a], [-v, b], [v, -a, -b]))
        else:
            clauses.extend(([-v, a, b], [v, -a], [v, -b]))
    clauses.append([-root])
    return clauses, atom_var, len(nodes)


def _cdcl(clauses: list[list[int]], nvars: int) -> bool:
    """True iff the clauses over variables 1..nvars are satisfiable.

    Conflict-driven clause learning as in Chaff and MiniSat, as one loop:
    each clause of two or more literals is watched on its first two
    literals in flat storage, a conflict is analysed to its first unique
    implication point, and the learnt clause sends the search back to the
    second-highest level in it.  Decisions take the unassigned variable of
    highest activity, the lowest-numbered on a tie, in its saved phase
    (false at first), so the search is deterministic.  A clause may repeat
    a literal or hold one with its negation: a watch on a repeated literal
    is visited once per copy, and a clause with both signs always keeps a
    true watch, so neither needs preprocessing."""
    # Lists indexed by a literal hold 2 * nvars + 1 slots: a negative
    # literal -v indexes from the end, so l and -l never share a slot.
    size = 2 * nvars + 1
    val = [0] * size                    # 1 true, -1 false, 0 unassigned
    watches: list[list[int]] = [[] for _ in range(size)]
    lits: list[int] = []                # clause c is lits[start[c]:start[c + 1]]
    start = [0]
    units: list[int] = []
    for cl in clauses:
        if len(cl) < 2:
            if not cl:
                return False
            units.append(cl[0])
            continue
        c = len(start) - 1
        watches[cl[0]].append(c)
        watches[cl[1]].append(c)
        lits.extend(cl)
        start.append(len(lits))

    level = [0] * (nvars + 1)
    reason = [-1] * (nvars + 1)         # the clause that implied a variable
    phase = [False] * (nvars + 1)
    activity = [0.0] * (nvars + 1)
    bump = 1.0
    seen = [False] * (nvars + 1)
    trail: list[int] = []
    lim: list[int] = []                 # trail length at each decision
    # (-activity, variable): every unassigned variable has an entry, and
    # entries popped for assigned ones are dropped
    heap = [(0.0, v) for v in range(1, nvars + 1)]
    for u in units:
        if val[u] < 0:
            return False
        if not val[u]:
            val[u], val[-u] = 1, -1
            trail.append(u)
    qhead = 0
    while True:
        conflict = -1
        while qhead < len(trail):
            fl = -trail[qhead]
            qhead += 1
            ws = watches[fl]
            watches[fl] = kept = []
            i, n = 0, len(ws)
            while i < n:
                c = ws[i]
                i += 1
                s = start[c]
                a = lits[s]
                if a == fl:
                    a = lits[s + 1]
                    lits[s], lits[s + 1] = a, fl
                if val[a] > 0:
                    kept.append(c)
                    continue
                for k in range(s + 2, start[c + 1]):
                    b = lits[k]
                    if val[b] >= 0:
                        lits[s + 1], lits[k] = b, fl
                        watches[b].append(c)
                        break
                else:
                    kept.append(c)
                    if val[a] < 0:
                        conflict = c
                        kept.extend(ws[i:])
                        break
                    val[a], val[-a] = 1, -1
                    level[abs(a)] = len(lim)
                    reason[abs(a)] = c
                    trail.append(a)
            if conflict >= 0:
                break

        if conflict < 0:
            while heap:
                v = heappop(heap)[1]
                if not val[v]:
                    break
            else:
                return True
            d = v if phase[v] else -v
            lim.append(len(trail))
            val[d], val[-d] = 1, -1
            level[v] = len(lim)
            reason[v] = -1
            trail.append(d)
            continue

        if not lim:
            return False
        # first-UIP analysis: resolve backwards along the trail until one
        # literal of the conflict level is left
        top = len(lim)
        learnt = [0]
        pending = 0
        p = 0
        idx = len(trail) - 1
        c = conflict
        while True:
            for k in range(start[c], start[c + 1]):
                q = lits[k]
                v = abs(q)
                if q != p and not seen[v] and level[v]:
                    seen[v] = True
                    activity[v] += bump
                    if level[v] == top:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[abs(p)] = False
            pending -= 1
            if not pending:
                break
            c = reason[abs(p)]
        learnt[0] = -p
        back = 0
        for k in range(1, len(learnt)):
            v = abs(learnt[k])
            seen[v] = False
            if level[v] > back:
                back = level[v]
                learnt[1], learnt[k] = learnt[k], learnt[1]

        keep = lim[back]
        for q in trail[keep:]:
            v = abs(q)
            phase[v] = q > 0
            val[q] = val[-q] = 0
            heappush(heap, (-activity[v], v))
        del trail[keep:], lim[back:]
        qhead = keep
        a = learnt[0]
        if len(learnt) > 1:
            c = len(start) - 1
            watches[a].append(c)
            watches[learnt[1]].append(c)
            lits.extend(learnt)
            start.append(len(lits))
        else:
            c = -1
        val[a], val[-a] = 1, -1
        level[abs(a)] = back
        reason[abs(a)] = c
        trail.append(a)

        # activities decay by a growing bump (VSIDS); rescale them before
        # floats overflow, and rebuild the heap then or once stale entries
        # pile up
        bump *= 1 / 0.95
        if bump > 1e100 or len(heap) > 4 * nvars:
            if bump > 1e100:
                activity = [x * 1e-100 for x in activity]
                bump *= 1e-100
            heap = [(-activity[v], v) for v in range(1, nvars + 1) if not val[v]]
            heapify(heap)


def decide(f: Formula) -> tuple[bool, int]:
    """Whether f is a tautology, and how many distinct atoms it has: f is
    one exactly when the CDCL solver refutes its clausal form."""
    return decide_form(*clausal_refutation_form(f))


def decide_form(clauses, atom_var, nvars) -> tuple[bool, int]:
    """decide on a clausal_refutation_form, which it leaves as it is."""
    return not _cdcl(clauses, nvars), len(atom_var)


def is_tautology(f: Formula) -> bool:
    return decide(f)[0]


def emit_dimacs(f: Formula) -> str:
    """The clausal abstraction used for refutation, as DIMACS text with
    comment lines mapping propositional variables to atom prints."""
    return dimacs(*clausal_refutation_form(f))


def dimacs(clauses, atom_var, nvars) -> str:
    """A clausal_refutation_form as the DIMACS text of emit_dimacs."""
    lines = [f"c refutation form: unsatisfiable iff the formula is a tautology"]
    for name, v in sorted(atom_var.items(), key=lambda kv: kv[1]):
        lines.append(f"c atom {v} {name}")
    lines.append(f"p cnf {nvars} {len(clauses)}")
    for cl in clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"
