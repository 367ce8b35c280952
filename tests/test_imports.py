"""Every name a src module imports is used there, and every name it
defines is used somewhere.

No linter ships with the project, so these are AST scans: one in the
spirit of pyflakes' F401, one in the spirit of vulture's dead-code check.
A re-export is marked on its import line with ``# noqa: F401``.  The
package ``__init__.py`` exists to re-export and is not scanned, but its
imports count as uses.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "herbrandkit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name in used or "# noqa: F401" in lines[alias.lineno - 1]:
                continue
            out.append(f"{path.name}:{alias.lineno}: {name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# Definitions that only tests use; the reference checkers live in tests/.
# taut.atom_list stays for callers outside the package (perfbench's tracer
# reads it); the library takes its atoms from the one fold of a check.
USED_ONLY_IN_TESTS = {"atom_list"}


def defined_names(stmt: ast.stmt) -> list[str]:
    """Top-level function, class and constant names a statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def referenced_names(node: ast.AST) -> Counter:
    """Names read in node: plain names, attributes and imported names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def dispatched_names(node: ast.AST) -> Counter:
    """The function cli.main runs for each subcommand the parser defines:
    sub.add_parser("check-c", ...) is run as _cmd_check_c."""
    return Counter("_cmd_" + n.args[0].value.replace("-", "_")
                   for n in ast.walk(node)
                   if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr == "add_parser" and n.args
                   and isinstance(n.args[0], ast.Constant))


def dead_definitions() -> tuple[list[str], set[str]]:
    """Definitions no src code references outside the defining statement
    (a recursive call is no use), and those among them that tests use."""
    src_refs = Counter()
    stmts = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        src_refs += referenced_names(tree) + dispatched_names(tree)
        if path.name != "__init__.py":
            stmts += [(path.name, stmt) for stmt in tree.body]
    test_refs = Counter()
    for path in sorted(TESTS.glob("*.py")):
        test_refs += referenced_names(ast.parse(path.read_text()))
    dead, test_only = [], set()
    for module, stmt in stmts:
        own = referenced_names(stmt)
        for name in defined_names(stmt):
            if src_refs[name] > own[name]:
                continue
            if test_refs[name]:
                test_only.add(name)
            else:
                dead.append(f"{module}: {name}")
    return dead, test_only


def test_no_dead_definitions():
    dead, test_only = dead_definitions()
    assert dead == []
    assert test_only == USED_ONLY_IN_TESTS


def library_table_names() -> list[tuple[str, str]]:
    """(module file, name) for every backticked identifier in the README's
    library table, but for the command the cli row names."""
    out = []
    for row in (TESTS.parent / "README.md").read_text().splitlines():
        m = re.match(r"\| `herbrandkit\.(\w+)` \|(.*)\|$", row)
        if m is None:
            continue
        module = m.group(1) + ".py"
        out += [(module, name) for name in re.findall(r"`([^`]+)`", m.group(2))
                if name.isidentifier()
                and (module, name) != ("cli.py", "herbrandkit")]
    return out


def test_the_readme_library_table_names_definitions():
    """A name the library table shows its module to define is defined
    there at the top level."""
    table = library_table_names()
    assert ("syntax.py", "locate") in table
    defined = {path.name: {name for stmt in ast.parse(path.read_text()).body
                           for name in defined_names(stmt)}
               for path in MODULES}
    assert [(m, n) for m, n in table if n not in defined[m]] == []


# The formula walkers, the walks driven by a selection tree and the
# comparisons of two formulas fold from an explicit stack (syntax.fold), and
# the selection reader and printer run from explicit stacks of their own.
# The SAT search is one loop.  The functions that stay recursive: the
# formula parser, the term walkers and the CLI's printer of nested documents.
STILL_RECURSIVE = {
    "syntax.py": {
        "print_term", "term_free_names", "substitute_term", "term_height",
        "first_occurrences.walk_term", "_alpha_term",
        "nameify_term", "collect_signature.walk_term",
        "_parse_term", "_bind_named.conv", "_parse_unary",
        "_check_arities.walk_term",
    },
    "skolem.py": {"canonical_key.pt"},
    "kernel.py": {"_solve_instance.wt"},
    "oracle.py": {"_eval_term"},
    "cli.py": {"_lines"},
}


def self_calling_functions(path: Path) -> set[str]:
    """Functions, nested ones named by their enclosing path, whose body
    reads their own name: a call, or a hand-off as in map(walk, ...)."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                       and n.id == child.name for n in ast.walk(child)):
                    out.add(name)
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_formula_walkers_do_not_recurse(path):
    assert self_calling_functions(path) == STILL_RECURSIVE.get(path.name, set())
