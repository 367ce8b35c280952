"""The three workloads of the verdict benchmark.

Every request is generated from ``(seed, index)`` alone and carries the
answer the benchmark expects, derived here and never from the toolkit under
test: reachability from a transitive closure computed below, least orders
from the structure of each family, the order bound of the upper-bound
derivation from the heights of the selection's witness terms.

Each request renames every symbol with its own prefix, so no two requests
share formula text or Skolem symbols and the toolkit's memo tables never
hit across requests.  A prefix keeps the relative sort order of the
symbols, so renaming does not reorder the term domain or the clauses the
solver sees.

The functions of the toolkit are looked up on their module at call time
(``construct.property_c``, not a name imported into this file), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass

from herbrandkit import cli, construct, expansion, kernel, skolem, syntax


@dataclass
class Request:
    kind: str
    run: object                      # callable () -> None, raises Mismatch


class Mismatch(Exception):
    """The toolkit answered, but not what the benchmark expects."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def request_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1_000_003 + index)


def stratified_slot(seed: int, index: int, slots: int) -> int:
    """Each block of ``slots`` consecutive requests holds every slot once,
    in a seeded order, so every run sees the same mix of request kinds."""
    block, pos = divmod(index, slots)
    order = list(range(slots))
    random.Random(seed * 7919 + block).shuffle(order)
    return order[pos]


def namer(prefix: str):
    return lambda base: prefix + base


# ---------------------------------------------------------------------------
# reachability, computed independently of the toolkit

def transitive_closure(n: int, edges) -> set[tuple[int, int]]:
    reach = set(edges)
    for k in range(n):
        for i in range(n):
            if (i, k) in reach:
                for j in range(n):
                    if (k, j) in reach:
                        reach.add((i, j))
    return reach


def random_graph(rng: random.Random, n: int, edges_lo: int, edges_hi: int):
    """A random edge set over n constants that mentions every constant."""
    while True:
        m = rng.randint(edges_lo, edges_hi)
        edges = set()
        while len(edges) < m:
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                edges.add((a, b))
        if len({x for e in edges for x in e}) == n:
            return sorted(edges)


def transitivity_text(nm, n: int, edges, query) -> str:
    r, a, b, c = nm("r"), nm("a"), nm("b"), nm("c")
    k = [nm(f"k{i}") for i in range(n)]
    facts = " & ".join(f"{r}({k[s]},{k[t]})" for s, t in edges)
    return (f"((forall {a}. forall {b}. forall {c}. "
            f"(({r}({a},{b}) & {r}({b},{c})) -> {r}({a},{c}))) & {facts})"
            f" -> {r}({k[query[0]]},{k[query[1]]})")


# ---------------------------------------------------------------------------
# orders: short requests through the command line, in process

def succ_text(nm, k: int, twin: bool) -> str:
    """p(c), p(x) -> p(f(x)) entail p(f^k(c)): least order k+1.  The twin
    asks for p(f^k(d)) instead, which is not valid: d = 1, c = 0, f the
    identity and p = {0} is a two-element countermodel."""
    c, d, f, p, x = nm("c"), nm("d"), nm("f"), nm("p"), nm("x")
    goal = d if twin else c
    for _ in range(k):
        goal = f"{f}({goal})"
    return f"({p}({c}) & (forall {x}. ({p}({x}) -> {p}({f}({x}))))) -> {p}({goal})"


def drinker_text(nm) -> str:
    a, b, p = nm("a"), nm("b"), nm("p")
    return f"exists {a}. (~(exists {b}. {p}({b})) | {p}({a}))"


def two_disjunct_text(nm, moved: bool) -> str:
    """The two-disjunct passage pair; ``moved`` is the form after prenexing
    the existential of the left disjunct (rule of passage 6)."""
    a, b, x, y, p, q = (nm(s) for s in "abxypq")
    left = (f"(exists {a}. (~(exists {b}. {p}({b})) | {q}({a})))" if moved else
            f"(~(exists {b}. {p}({b})) | (exists {a}. {q}({a})))")
    return f"{left} | ((exists {x}. {p}({x})) & ~(exists {y}. {q}({y})))"


def upper2_text(nm) -> str:
    """Two-element upper bound from a binary bound and transitivity: least
    order 3 in both Skolemizations, which coincide here."""
    x, y, m, a, b, c, u, v, z = (nm(s) for s in "xymabcuvz")
    return (f"((forall {x}. forall {y}. exists {m}. ({x} < {m} & {y} < {m})) & "
            f"(forall {c}. forall {b}. forall {a}. "
            f"(({a} < {b} & {b} < {c}) -> {a} < {c}))) -> "
            f"(forall {u}. forall {v}. exists {z}. ({u} < {z} & {v} < {z}))")


def transitivity_case(rng: random.Random, nm, n: int, entailed: bool) -> str:
    while True:
        edges = random_graph(rng, n, n - 1, n + 2)
        reach = transitive_closure(n, edges)
        pairs = [(s, t) for s in range(n) for t in range(n) if s != t
                 and ((s, t) in reach) == entailed
                 and (s, t) not in edges]
        if pairs:
            return transitivity_text(nm, n, edges, rng.choice(pairs))


def _min_order(text, expected, star=False, n_max=None):
    flags = ["--star"] if star else []
    if n_max is not None:
        flags += ["--max", str(n_max)]
    return ["min-order", *flags, text], ("min-order", expected, star, n_max)


def _models(text, valid):
    return ["models", "--size", "2", text], ("models", valid)


def _orders_slot(slot: int, block: int, rng: random.Random, nm):
    """(argv tail, expectation) for one of the sixteen request kinds, in
    the ``block``-th block of sixteen requests."""
    k = rng.randint(1, 6)
    star = rng.random() < 0.5
    if slot == 0:
        return _min_order(succ_text(nm, k, False), k + 1, star)
    if slot == 1:
        return _models(succ_text(nm, k, False), True)
    if slot == 2:
        return _min_order(succ_text(nm, k, True), None, star, n_max=4)
    if slot == 3:
        return _models(succ_text(nm, k, True), False)
    if slot == 4:
        return _min_order(drinker_text(nm), 3)
    if slot == 5:
        return _min_order(drinker_text(nm), 2, star=True)
    if slot == 6:
        return _min_order(two_disjunct_text(nm, False), 2)
    if slot == 7:
        return _min_order(two_disjunct_text(nm, True), 3)
    if slot == 8:
        text = drinker_text(nm) if star else two_disjunct_text(nm, k % 2 == 0)
        return _models(text, True)
    if slot == 9:
        return _min_order(upper2_text(nm), 3, star)
    if slot == 10:
        return _models(upper2_text(nm), True)
    # The transitivity kinds cycle through 3-6 constants block by block, so
    # that every run holds the same share of the slowest requests.
    n = 3 + block % 4
    if slot in (11, 12):
        # Five or more constants give 25+ atoms: the clausal route.
        return _min_order(transitivity_case(rng, nm, n, True), 2, star)
    if slot == 13:
        return _models(transitivity_case(rng, nm, n, True), True)
    if slot == 14:
        # Three or four constants only: a non-entailed query over five or
        # more makes the solver search for seconds, which is what the
        # countermodel workload measures.
        text = transitivity_case(rng, nm, 3 + block % 2, False)
        return _min_order(text, None, star, n_max=3)
    return _models(transitivity_case(rng, nm, n, False), False)


ORDERS_SLOTS = 16


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(["--format", "json", *argv])
        except SystemExit as e:   # argparse rejects the command line
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue()


def check_cli(code: int, out: str, expectation) -> None:
    expect(code in (0, 1, 2), f"exit code {code} outside the 0/1/2 trichotomy")
    expect(code != 2, f"could not check: {out.strip()[:200]}")
    doc = json.loads(out)
    if expectation[0] == "min-order":
        _, want, star, n_max = expectation
        expect(code == (0 if want is not None else 1),
               f"min-order exit {code}, expected order {want}")
        expect(doc["min_order"] == want,
               f"min-order {doc['min_order']}, expected {want}")
        expect(doc["kind"] == ("C*" if star else "C"), f"kind {doc['kind']}")
        expect(doc["max_checked"] == (8 if n_max is None else n_max),
               f"max_checked {doc['max_checked']}")
    else:
        _, valid = expectation
        expect(code == (0 if valid else 1),
               f"models exit {code}, expected {'valid' if valid else 'a countermodel'}")
        cm = doc["countermodel"]
        expect((cm is None) == valid, f"countermodel {cm}")
        expect(valid or cm["size"] in (1, 2), f"countermodel size {cm and cm['size']}")


def orders_request(seed: int, index: int, prefix: str) -> Request:
    rng = request_rng(seed, index)
    slot = stratified_slot(seed, index, ORDERS_SLOTS)
    argv, expectation = _orders_slot(slot, index // ORDERS_SLOTS, rng,
                                     namer(prefix))

    def run():
        code, out = run_cli(argv)
        check_cli(code, out, expectation)

    return Request(f"orders/{slot}", run)


# ---------------------------------------------------------------------------
# upperbound: the public calls of the upper-bound demonstration

UPPER_BOUND_ORDER = 4


def rename_upper_bound(text: str, prefix: str) -> str:
    """Prefix every variable and, to match, every Skolem symbol sk_<var>."""
    text = re.sub(r"\bsk_(\w+)", lambda m: f"sk_{prefix}{m.group(1)}", text)
    return re.sub(r"\b([xymcbauvwz])\b", lambda m: prefix + m.group(1), text)


def selection_order_bound(selection: str) -> int:
    """One plus the summed heights of the witness terms the selection
    lists: the order bound a derivation built from it must carry.

    In ``(forall x (t1 t2) branch...)`` the parenthesised group after the
    variable lists the terms, separated by spaces."""
    total = 0
    for m in re.finditer(r"\((?:forall|exists) \w+ \(", selection):
        i = m.end()
        while selection[i].isalpha():
            depth = height = 0
            while True:
                ch = selection[i]
                if ch == "(":
                    depth += 1
                    height = max(height, depth)
                elif ch == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif ch == " " and depth == 0:
                    break
                i += 1
            total += height + 1
            while selection[i] == " ":
                i += 1
    return 1 + total


UPPER_BOUND_EXPECTED_ORDER_BOUND = selection_order_bound(
    construct.UPPER_BOUND_SELECTION)


def upperbound_request(seed: int, index: int, prefix: str) -> Request:
    text = rename_upper_bound(construct.UPPER_BOUND_TEXT, prefix)
    sel_text = rename_upper_bound(construct.UPPER_BOUND_SELECTION, prefix)

    def run():
        a = syntax.parse_formula(text)
        sel = expansion.parse_selection(sel_text)
        res = construct.property_c(a, UPPER_BOUND_ORDER, sel=sel)
        expect(res.status == "holds", f"property C at order 4: {res.status}")
        d = construct.construct_derivation(a, UPPER_BOUND_ORDER, sel)
        replay = kernel.check_derivation(
            kernel.parse_script(kernel.print_script(d)))
        expect(replay.ok, f"derivation rejected: {replay.error}")
        registry = skolem.SkolemRegistry()
        fv_d, _, _ = construct.construct_fv_derivation(
            a, UPPER_BOUND_ORDER, sel, registry)
        fv_replay = kernel.check_derivation(fv_d, registry)
        expect(fv_replay.ok, f"free-variable derivation rejected: {fv_replay.error}")
        bound = construct.derivation_order_bound(d)
        expect(bound.value == UPPER_BOUND_EXPECTED_ORDER_BOUND,
               f"order bound {bound.value}, expected "
               f"{UPPER_BOUND_EXPECTED_ORDER_BOUND}")

    return Request("upperbound", run)


# ---------------------------------------------------------------------------
# countermodel: property C on non-entailed reachability queries

# (constants, pairs the closure may leave open: the query is one of them).
# The solver's search time grows with the number of open pairs, so each
# stratum fixes it; every run cycles through the same strata.  With eight or fewer open pairs over six
# constants, or six or fewer over five, the search is trivial; with ten or
# more a request takes up to seconds and a run holds too few requests for
# a steady median.
COUNTERMODEL_STRATA = (
    (5, (7,)),
    (5, (8,)),
    (5, (9,)),
    (6, (9,)),
)


def countermodel_instance(rng: random.Random, n: int, open_counts):
    while True:
        edges = random_graph(rng, n, n - 1, 2 * n)
        reach = transitive_closure(n, edges)
        open_pairs = [(s, t) for s in range(n) for t in range(n)
                      if s != t and (s, t) not in reach]
        if len(open_pairs) in open_counts:
            return edges, rng.choice(open_pairs)


def countermodel_request(seed: int, index: int, prefix: str) -> Request:
    rng = request_rng(seed, index)
    slot = stratified_slot(seed, index, len(COUNTERMODEL_STRATA))
    n, open_counts = COUNTERMODEL_STRATA[slot]
    edges, query = countermodel_instance(rng, n, open_counts)
    text = transitivity_text(namer(prefix), n, edges, query)

    def run():
        res = construct.property_c(syntax.parse_formula(text), 2)
        expect(res.status == "fails",
               f"query not entailed, yet property C says {res.status}")
        expect(res.tautology is False, "a failing check must report no tautology")

    return Request(f"countermodel/{n}", run)


@dataclass(frozen=True)
class Workload:
    name: str
    make: object                    # (seed, index, prefix) -> Request
    tail_percentile: float
    # Peak memory is read after this many requests: the toolkit's memo
    # tables grow with every request, so reading it at the end of the run
    # would make a faster toolkit look hungrier.
    rss_requests: int


WORKLOADS = {
    "orders": Workload("orders", orders_request, 99, 1000),
    "upperbound": Workload("upperbound", upperbound_request, 66, 10),
    "countermodel": Workload("countermodel", countermodel_request, 90, 40),
}
