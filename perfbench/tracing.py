"""Per-layer spans around herbrandkit's public functions, from outside the
package.

``Tracer.install`` replaces each traced function by a wrapper on every
loaded herbrandkit module that holds it, so calls between modules and calls
through a module's own globals are both seen.  A wrapper records a span:
its name, the request it belongs to, its parent span, start and end.  A
span's self time is its duration minus the time its child spans cover.

``print_formula`` runs once per atom occurrence, thousands of times in some
requests, so its calls are folded into a call count and a time on the
enclosing span instead of one span each.  The atom count of a tautology
check is read off the atom list ``is_tautology`` builds itself.  The node
count of an expansion needs a walk of its own, taken after the span ends;
that time is excluded from every span's self time.

Spans stay in memory until ``write`` puts them out as tab-separated lines.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from herbrandkit import (
    cli, construct, expansion, kernel, oracle, skolem, syntax, taut,
)

# function -> span name; spans of one name add up to one layer metric
SPAN_NAMES = {
    cli.main: "cli.self",
    syntax.parse_formula: "syntax.parse",
    syntax.rectify: "syntax.rectify",
    skolem.outer_skolemize: "skolem.outer",
    skolem.deltapp_skolemize: "skolem.deltapp",
    expansion.champ: "expansion.champ",
    expansion.expand: "expansion.expand",
    expansion.build_sub_expansion: "expansion.subexpand",
    taut.is_tautology: "taut.solve",
    taut.clausal_refutation_form: "taut.cnf",
    construct.property_c: "construct.property_c",
    construct.min_order: "construct.min_order",
    construct.construct_derivation: "construct.derive",
    construct.construct_fv_derivation: "construct.derive",
    construct.derivation_order_bound: "construct.derive",
    kernel.check_derivation: "kernel.check",
    kernel.print_script: "kernel.script",
    kernel.parse_script: "kernel.script",
    oracle.find_countermodel: "oracle.search",
}
FOLDED = syntax.print_formula
ATOMS = taut.atom_list
ROOT = "request"

_formula_size = syntax.formula_size


def _size(name, args, kwargs, result):
    """The size a span records: terms, nodes, atoms, clauses or steps."""
    if name == "expansion.champ":
        return len(result.terms)
    if name == "expansion.expand":
        return _formula_size(result)
    if name == "taut.cnf":
        return len(result[0])
    if name == "kernel.check":
        return len(args[0].steps)
    if name == "construct.derive":
        d = result[0] if isinstance(result, tuple) else result
        return len(getattr(d, "steps", ()))
    return 0


def _champ_key(args, kwargs):
    f, order = args[0], args[1]
    herbrand = args[2] if len(args) > 2 else kwargs.get("herbrand", False)
    return hash(f), order, herbrand


class Tracer:
    def __init__(self):
        # closed spans: [id, name, request, parent, start, end, child time,
        #                folded calls, folded time, size]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.request = -1
        self.next_id = 0
        self.champ_keys: set = set()

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name):
        parent = self.stack[-1][0] if self.stack else -1
        rec = [self.next_id, name, self.request, parent, 0.0, 0.0, 0.0, 0, 0.0, 0]
        self.next_id += 1
        self.stack.append(rec)
        return rec

    def _close(self, rec, start, end):
        rec[4], rec[5] = start, end
        self.stack.pop()
        self.spans.append(rec)
        if self.stack:
            self.stack[-1][6] += end - start

    def request_span(self, index, run):
        self.request = index
        rec = self._open(ROOT)
        start = time.perf_counter()
        try:
            run()
        finally:
            self._close(rec, start, time.perf_counter())

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._close(rec, start, end)
            # print calls made while counting land on a record that is dropped
            self.stack.append([-1, "", -1, -1, 0.0, 0.0, 0.0, 0, 0.0, 0])
            rec[9] += _size(name, args, kwargs, result)
            if name == "expansion.champ":
                self.champ_keys.add((self.request, _champ_key(args, kwargs)))
            self.stack.pop()
            if self.stack:
                self.stack[-1][6] += time.perf_counter() - end
            return result
        return wrapper

    def _folded(self, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                if self.stack:
                    top = self.stack[-1]
                    top[6] += spent
                    top[7] += 1
                    top[8] += spent
        return wrapper

    def _atoms(self, fn):
        def wrapper(f):
            atoms = fn(f)
            if self.stack and self.stack[-1][1] == "taut.solve":
                self.stack[-1][9] += len(atoms)
            return atoms
        return wrapper

    def install(self):
        wrappers = {id(fn): self._span(name, fn) for fn, name in SPAN_NAMES.items()}
        wrappers[id(FOLDED)] = self._folded(FOLDED)
        wrappers[id(ATOMS)] = self._atoms(ATOMS)
        for modname, mod in list(sys.modules.items()):
            if modname != "herbrandkit" and not modname.startswith("herbrandkit."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    # -- results ---------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: self seconds and call counts per request,
        sizes per call, and the ratios named in the benchmark."""
        self_s = defaultdict(float)
        calls = Counter()
        sizes = defaultdict(int)
        by_id = {}
        print_calls, print_s = 0, 0.0
        for rec in self.spans:
            _, name, _, _, start, end, child, fcalls, ftime, size = rec
            by_id[rec[0]] = rec
            self_s[name] += end - start - child
            calls[name] += 1
            sizes[name] += size
            print_calls += fcalls
            print_s += ftime
        under_min_order = 0
        clausal_parents = set()
        for rec in self.spans:
            parent = by_id.get(rec[3])
            if parent is None:
                continue
            if rec[1] == "construct.property_c" and parent[1] == "construct.min_order":
                under_min_order += 1
            if rec[1] == "taut.cnf" and parent[1] == "taut.solve":
                clausal_parents.add(parent[0])

        def per_request(x):
            return x / requests

        def ratio(num, den):
            return num / den if den else 0.0

        derivations = sum(1 for rec in self.spans
                          if rec[1] == "construct.derive" and rec[9])
        m = {
            "cli.self_s": (per_request(self_s["cli.self"]), "s"),
            "cli.requests": (calls["cli.self"], "count"),
            "syntax.parse_s": (per_request(self_s["syntax.parse"]), "s"),
            "syntax.rectify_s": (per_request(self_s["syntax.rectify"]), "s"),
            "syntax.print_s": (per_request(print_s), "s"),
            "syntax.print_calls": (per_request(print_calls), "count"),
            "skolem.outer_s": (per_request(self_s["skolem.outer"]), "s"),
            "skolem.deltapp_s": (per_request(self_s["skolem.deltapp"]), "s"),
            "expansion.champ_s": (per_request(self_s["expansion.champ"]), "s"),
            "expansion.champ_calls": (per_request(calls["expansion.champ"]), "count"),
            "expansion.champ_terms": (ratio(sizes["expansion.champ"],
                                            calls["expansion.champ"]), "count"),
            "expansion.champ_repeat_ratio": (ratio(calls["expansion.champ"],
                                                   len(self.champ_keys)), "ratio"),
            "expansion.expand_s": (per_request(self_s["expansion.expand"]), "s"),
            "expansion.expand_nodes": (ratio(sizes["expansion.expand"],
                                             calls["expansion.expand"]), "count"),
            "expansion.subexpand_s": (per_request(self_s["expansion.subexpand"]), "s"),
            "taut.solve_s": (per_request(self_s["taut.solve"]), "s"),
            "taut.cnf_s": (per_request(self_s["taut.cnf"]), "s"),
            "taut.calls": (per_request(calls["taut.solve"]), "count"),
            "taut.atoms": (ratio(sizes["taut.solve"], calls["taut.solve"]), "count"),
            "taut.clauses": (ratio(sizes["taut.cnf"], calls["taut.cnf"]), "count"),
            "taut.clausal_share": (ratio(len(clausal_parents),
                                         calls["taut.solve"]), "ratio"),
            "construct.property_c_s": (per_request(self_s["construct.property_c"]), "s"),
            "construct.min_order_s": (per_request(self_s["construct.min_order"]), "s"),
            "construct.derive_s": (per_request(self_s["construct.derive"]), "s"),
            "construct.orders_per_verdict": (ratio(under_min_order,
                                                   calls["construct.min_order"]), "ratio"),
            "construct.derivation_steps": (ratio(sizes["construct.derive"],
                                                 derivations), "count"),
            "kernel.check_s": (per_request(self_s["kernel.check"]), "s"),
            "kernel.steps_replayed": (per_request(sizes["kernel.check"]), "count"),
            "kernel.script_s": (per_request(self_s["kernel.script"]), "s"),
            "oracle.search_s": (per_request(self_s["oracle.search"]), "s"),
            "oracle.calls": (per_request(calls["oracle.search"]), "count"),
            "request.other_s": (per_request(self_s[ROOT]), "s"),
        }
        return m

    def write(self, path) -> None:
        """One line per span: request, id, parent, name, start and end in
        nanoseconds from the first span, folded print calls and time, size."""
        base = min((rec[4] for rec in self.spans), default=0.0)
        with open(path, "w") as out:
            out.write("request\tid\tparent\tname\tstart_ns\tend_ns\t"
                      "print_calls\tprint_ns\tsize\n")
            for rec in sorted(self.spans, key=lambda r: r[0]):
                sid, name, req, parent, start, end, _, fcalls, ftime, size = rec
                out.write(f"{req}\t{sid}\t{parent}\t{name}\t"
                          f"{round((start - base) * 1e9)}\t{round((end - base) * 1e9)}\t"
                          f"{fcalls}\t{round(ftime * 1e9)}\t{size}\n")
