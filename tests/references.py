"""Reference checkers that the tests compare the library against: equality
up to a renaming of free instantiation variables, and up to the grouping
and order of junction operands."""

from herbrandkit.syntax import (
    And,
    App,
    Atom,
    Exists,
    Forall,
    GammaVar,
    Not,
    Or,
    SkolemNamedVar,
    Var,
    print_formula,
    quant_kind,
    term_var_name,
)


def variant_equal_gamma(f, g):
    """Equal up to renaming of bound variables plus a bijective renaming of
    free instantiation variables."""
    gmap = {}

    def term_eq(s, t, envf, envg):
        sv = isinstance(s, (Var, SkolemNamedVar))
        tv = isinstance(t, (Var, SkolemNamedVar))
        if sv and tv:
            sn, tn = term_var_name(s), term_var_name(t)
            if sn in envf or tn in envg:
                return envf.get(sn) == envg.get(tn)
            return sn == tn
        if isinstance(s, GammaVar) and isinstance(t, GammaVar):
            if s.name in gmap:
                return gmap[s.name] == t.name
            if t.name in gmap.values():
                return False
            gmap[s.name] = t.name
            return True
        if isinstance(s, App) and isinstance(t, App):
            return (s.sym == t.sym and s.skolem == t.skolem
                    and len(s.args) == len(t.args)
                    and all(term_eq(a, b, envf, envg)
                            for a, b in zip(s.args, t.args)))
        return False

    def walk(f, g, envf, envg):
        match f, g:
            case Atom(p1, a1), Atom(p2, a2):
                return (p1 == p2 and len(a1) == len(a2)
                        and all(term_eq(x, y, envf, envg) for x, y in zip(a1, a2)))
            case Not(s1), Not(s2):
                return walk(s1, s2, envf, envg)
            case (And(l1, r1), And(l2, r2)) | (Or(l1, r1), Or(l2, r2)):
                return walk(l1, l2, envf, envg) and walk(r1, r2, envf, envg)
            case (Forall(v1, b1), Forall(v2, b2)) | (Exists(v1, b1), Exists(v2, b2)):
                lvl = len(envf)
                return walk(b1, b2, {**envf, v1: lvl}, {**envg, v2: lvl})
        return False

    return walk(f, g, {}, {})


def ac_flatten_equal(f, g):
    """Equal after flattening nested And / Or into multisets."""

    def norm(h):
        match h:
            case And() | Or():
                parts = []
                stack = [h]
                while stack:
                    x = stack.pop()
                    if type(x) is type(h):
                        stack.append(x.right)
                        stack.append(x.left)
                    else:
                        parts.append(norm(x))
                return ("and" if isinstance(h, And) else "or",) + tuple(sorted(parts))
            case Not(s):
                return ("not", norm(s))
            case Atom():
                return ("atom", print_formula(h))
            case Forall(v, b) | Exists(v, b):
                return (quant_kind(h), v, norm(b))

    return norm(f) == norm(g)
