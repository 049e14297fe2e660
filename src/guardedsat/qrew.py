"""Back-translation of a saturated clausal set into a Skolem-free formula.

The saturation of (rules + negated query) consists of loosely guarded
clauses and query clauses.  They are made *normal*, *unique*, *globally
compatible* and *globally linear* by three equivalence-preserving steps:

* ``con_abs``: a constant occurring inside a compound term is replaced
  everywhere in the clause by a fresh variable ``y`` guarded by ``y != a``;
* ``var_abs``: a variable duplicated among a compound term's arguments is
  replaced (at the later positions, in every compound term) by a fresh
  variable ``y`` guarded by ``y != x``;
* ``var_re``: clauses are partitioned into closed sets (connected by shared
  function symbols or shared Skolem constants; flat clauses stand alone)
  and within each set every compound term's argument sequence is renamed to
  one shared variable tuple.

After that each Skolem function ``f(X1,...,Xm)`` stands for one existential
witness over the shared universals, and each Skolem constant for one
outer existential, so the set can be written as a first-order formula with
prefix exists/forall/exists (``unsko``; a flat set has no shared tuple and
no Skolem function, so its prefix is exists/forall).  The negation of the
conjunction of these formulas is the rewriting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .syntax import And, AtomF, Exists, Forall, Formula, Not, Or, Top
from .terms import (
    EQ, App, Clause, Const, Literal, SymbolOrigin, SymbolTable, Subst, Term,
    Var, apply_clause, clause_funcs, clause_vars, compound_terms,
    connected_groups,
)


class RewriteError(ValueError):
    pass


@dataclass
class AbstractedClause:
    clause: Clause
    disequations: int = 0  # how many guards abstraction added


@dataclass
class ClosedSet:
    """A closed set of clauses (:func:`partition_closed`): interconnected
    when it has ``functions``, flat otherwise."""
    clauses: list[Clause]
    functions: frozenset[str] = frozenset()
    skolem_consts: frozenset[str] = frozenset()


@dataclass
class RewriteResult:
    sigma_q: Formula
    skolem_constants_internalized: list[str]
    equality_used: bool
    conjuncts: list[Formula] = field(default_factory=list)


def _fresh_var(base: str, counter: list[int], avoid: set[str]) -> Var:
    while True:
        name = f"{base}{counter[0]}"
        counter[0] += 1
        if name not in avoid:
            avoid.add(name)
            return Var(name)


# ---------------------------------------------------------------------------
# abstraction


def con_abs(c: Clause) -> AbstractedClause:
    """Replace constants occurring inside compound terms by guarded fresh
    variables, to a fixpoint."""
    avoid: Optional[set[str]] = None  # the clause's variables, on demand
    counter = [0]
    added = 0
    while True:
        target: Optional[Const] = None
        for t in compound_terms(c):
            for a in t.args:
                if isinstance(a, Const):
                    target = a
                    break
            if target:
                break
        if target is None:
            return AbstractedClause(c, added)
        if avoid is None:
            avoid = set(clause_vars(c))
        y = _fresh_var("Yc", counter, avoid)
        lits = [_replace_const(l, target, y) for l in c]
        lits.append(Literal(False, EQ, (y, target)))
        c = Clause(lits)
        added += 1


def _replace_const(lit: Literal, a: Const, y: Var) -> Literal:
    return Literal(lit.pos, lit.pred,
                   tuple(_const_to_var(t, a, y) for t in lit.args))


def _const_to_var(t: Term, a: Const, y: Var) -> Term:
    if t == a:
        return y
    if isinstance(t, App):
        return App(t.fn, tuple(_const_to_var(x, a, y) for x in t.args))
    return t


def var_abs(c: Clause) -> AbstractedClause:
    """Replace duplicated compound-term argument variables by guarded fresh
    variables, to a fixpoint.

    All compound terms of a strongly compatible clause share one argument
    tuple, so the replacement happens at the same position in every term;
    flat occurrences of the duplicated variable are left alone (the clause
    stays covering either way, and the two forms are equivalent thanks to
    the added disequation).
    """
    avoid: Optional[set[str]] = None  # the clause's variables, on demand
    counter = [0]
    added = 0
    while True:
        comps = compound_terms(c)
        pos_dup: Optional[tuple[int, Var]] = None
        for t in comps:
            seen: dict[Term, int] = {}
            for i, a in enumerate(t.args):
                if a in seen and isinstance(a, Var):
                    pos_dup = (i, a)
                    break
                seen.setdefault(a, i)
            if pos_dup:
                break
        if pos_dup is None:
            return AbstractedClause(c, added)
        i, x = pos_dup
        if avoid is None:
            avoid = set(clause_vars(c))
        y = _fresh_var("Yd", counter, avoid)
        lits = [_replace_arg_pos(l, i, y) for l in c]
        lits.append(Literal(False, EQ, (y, x)))
        c = Clause(lits)
        added += 1


def _replace_arg_pos(lit: Literal, i: int, y: Var) -> Literal:
    return Literal(lit.pos, lit.pred,
                   tuple(_arg_pos_to_var(t, i, y) for t in lit.args))


def _arg_pos_to_var(t: Term, i: int, y: Var) -> Term:
    if isinstance(t, App):
        return App(t.fn, tuple(y if j == i else _arg_pos_to_var(a, i, y)
                               for j, a in enumerate(t.args)))
    return t


def abstract(c: Clause) -> AbstractedClause:
    a1 = con_abs(c)
    a2 = var_abs(a1.clause)
    return AbstractedClause(a2.clause, a1.disequations + a2.disequations)


# ---------------------------------------------------------------------------
# closed sets


def _skolem_consts(c: Clause, symbols: SymbolTable) -> frozenset[str]:
    out: set[str] = set()
    for lit in c:
        for a in lit.args:
            _add_skolem_consts(a, symbols, out)
    return frozenset(out)


def _add_skolem_consts(t: Term, symbols: SymbolTable, out: set[str]) -> None:
    if isinstance(t, Const):
        sym = symbols.get(t.name)
        if sym is not None and sym.origin is SymbolOrigin.SKOLEM:
            out.add(t.name)
    elif isinstance(t, App):
        for a in t.args:
            _add_skolem_consts(a, symbols, out)


def partition_closed(clauses: list[Clause],
                     symbols: SymbolTable) -> list[ClosedSet]:
    """Group clauses into closed sets.

    Clauses connected through shared function symbols belong together.
    Clauses sharing a Skolem constant also belong together, since the
    constant is internalized as a single existential witness.  All
    remaining flat clauses form one flat set.
    """
    keyed = [(c, clause_funcs(c), _skolem_consts(c, symbols))
             for c in clauses]
    sets: list[ClosedSet] = []
    plain_flat: list[Clause] = []
    for g in connected_groups([[f"f:{f}" for f in fns] +
                               [f"c:{s}" for s in sks]
                               for _, fns, sks in keyed]):
        c, fns, sks = keyed[g[0]]
        if not (fns or sks):  # a clause with no token stands alone
            plain_flat.append(c)
            continue
        fns = frozenset().union(*(keyed[i][1] for i in g))
        sks = frozenset().union(*(keyed[i][2] for i in g))
        sets.append(ClosedSet([keyed[i][0] for i in g], fns, sks))
    if plain_flat:
        sets.append(ClosedSet(plain_flat))
    return sets


# ---------------------------------------------------------------------------
# property gate


@dataclass(frozen=True, slots=True)
class PropertyGate:
    normal: bool
    unique: bool
    locally_compatible: bool
    locally_linear: bool
    globally_compatible: bool
    globally_linear: bool

    def violated(self) -> Optional[str]:
        """The first of the properties unskolemisation needs that fails."""
        for name in ("normal", "unique", "globally_compatible",
                     "globally_linear"):
            if not getattr(self, name):
                return name
        return None


def property_gate(clauses: Iterable[Clause]) -> PropertyGate:
    """Report the six renaming-related syntactic properties.

    normal: compound-term arguments are variables only; unique: no
    duplicate arguments within a compound term; locally compatible /
    linear: one shared argument tuple (of distinct variables) per clause;
    globally compatible / linear: one shared argument tuple across the
    whole set.
    """
    clauses = list(clauses)
    comps = [t for c in clauses for t in compound_terms(c)]
    normal = all(isinstance(a, Var) for t in comps for a in t.args)
    unique = all(len(set(t.args)) == len(t.args) for t in comps)
    locally_compatible = all(
        len({t.args for t in compound_terms(c)}) <= 1 for c in clauses)
    globally_compatible = len({t.args for t in comps}) <= 1
    return PropertyGate(
        normal=normal,
        unique=unique,
        locally_compatible=locally_compatible,
        locally_linear=locally_compatible and unique,
        globally_compatible=globally_compatible,
        globally_linear=globally_compatible and unique,
    )


# ---------------------------------------------------------------------------
# variable renaming (VarRe) and unskolemisation


def var_re(s: ClosedSet) -> tuple[list[Clause], tuple[str, ...]]:
    """Rename every clause of an interconnected set so all compound terms
    share one argument tuple of fresh variables."""
    arities = {len(t.args) for c in s.clauses for t in compound_terms(c)}
    if len(arities) > 1:
        raise RewriteError(
            f"closed set mixes compound-term arities {sorted(arities)}")
    m = arities.pop() if arities else 0
    shared = tuple(f"X{i + 1}" for i in range(m))
    out: list[Clause] = []
    for c in s.clauses:
        comps = compound_terms(c)
        tuples = {t.args for t in comps}
        if len(tuples) > 1:
            raise RewriteError("clause is not strongly compatible")
        args = tuples.pop() if tuples else ()
        if not all(isinstance(a, Var) for a in args):
            raise RewriteError("compound-term arguments are not variables")
        sub: Subst = {a.name: Var(v)  # type: ignore[union-attr]
                      for a, v in zip(args, shared)}
        # keep the remaining variables out of the shared names
        taken = set(shared)
        counter = [0]
        for v in sorted(clause_vars(c)):
            if v not in sub and v in taken:
                sub[v] = _fresh_var("W", counter, taken)
        out.append(apply_clause(c, sub) if sub else c)
    return out, shared


def _clause_to_disjunction(c: Clause) -> Formula:
    items: list[Formula] = []
    for l in c:
        atom = AtomF(l.pred if not l.is_eq else "=", l.args)
        items.append(atom if l.pos else Not(atom))
    if len(items) == 1:
        return items[0]
    return Or(tuple(items))


def _internalize_consts(clauses: list[Clause], consts: Iterable[str]
                        ) -> tuple[list[Clause], list[str]]:
    """Replace Skolem constants by fresh variables; returns the variable
    names, one per constant, in sorted constant order."""
    names: list[str] = []
    out = clauses
    for i, cname in enumerate(sorted(consts)):
        v = Var(f"Z{i + 1}")
        names.append(v.name)
        repl: list[Clause] = []
        for c in out:
            repl.append(Clause(
                _replace_const(l, Const(cname), v) for l in c))
        out = repl
    return out, names


def unsko(s: ClosedSet) -> Formula:
    """Unskolemise a closed set.

    Prefix: one existential per Skolem constant, the shared universal
    tuple, one existential per Skolem function (in name order), then any
    residual variables universally.
    """
    renamed, shared = var_re(s)
    clauses, const_vars = _internalize_consts(renamed, s.skolem_consts)
    bad = property_gate(clauses).violated()
    if bad:
        raise RewriteError(f"closed set violates property: {bad}")
    fns = sorted(s.functions)
    fn_vars = {fn: f"Y{i + 1}" for i, fn in enumerate(fns)}
    final = [Clause(_replace_apps(l, fn_vars) for l in c)
             for c in clauses] if fns else clauses
    residual: list[str] = []
    for c in final:
        for v in sorted(clause_vars(c)):
            if v not in shared and v not in fn_vars.values() and \
                    v not in const_vars and v not in residual:
                residual.append(v)
    matrix: Formula = And(tuple(_clause_to_disjunction(c) for c in final)) \
        if len(final) > 1 else _clause_to_disjunction(final[0])
    f: Formula = matrix
    if residual:
        f = Forall(tuple(residual), f)
    if fns:
        f = Exists(tuple(fn_vars[fn] for fn in fns), f)
    if shared:
        f = Forall(shared, f)
    if const_vars:
        f = Exists(tuple(const_vars), f)
    return f


def _replace_apps(lit: Literal, fn_vars: dict[str, str]) -> Literal:
    return Literal(lit.pos, lit.pred,
                   tuple(_apps_to_vars(t, fn_vars) for t in lit.args))


def _apps_to_vars(t: Term, fn_vars: dict[str, str]) -> Term:
    if isinstance(t, App):
        if t.fn in fn_vars:
            return Var(fn_vars[t.fn])
        return App(t.fn, tuple(_apps_to_vars(a, fn_vars) for a in t.args))
    return t


# ---------------------------------------------------------------------------
# the full rewriting


def q_rew(saturation: list[Clause], symbols: SymbolTable) -> RewriteResult:
    """Rewrite a saturated clausal set into the query rewriting formula.

    The result is the negation of the conjunction of the unskolemised
    closed sets; it contains no Skolem symbols, but may use equality with
    input constants (the abstraction guards, flipped positive by the
    negation).
    """
    if any(c.is_empty() for c in saturation):
        raise RewriteError(
            "the saturation contains the empty clause: the query holds in "
            "every dataset, there is nothing to rewrite")
    abstracted = [abstract(_uppercase_vars(c)) for c in saturation]
    equality_used = any(a.disequations for a in abstracted)
    sets = partition_closed([a.clause for a in abstracted], symbols)
    conjuncts: list[Formula] = []
    internalized: list[str] = []
    for s in sets:
        conjuncts.append(unsko(s))
        internalized.extend(sorted(s.skolem_consts))
    # an empty saturation rewrites to the empty conjunction
    big: Formula = And(tuple(conjuncts)) if len(conjuncts) > 1 \
        else conjuncts[0] if conjuncts else Top()
    return RewriteResult(
        sigma_q=Not(big),
        skolem_constants_internalized=internalized,
        equality_used=equality_used,
        conjuncts=conjuncts,
    )


def _uppercase_vars(c: Clause) -> Clause:
    sub: Subst = {}
    for i, v in enumerate(sorted(clause_vars(c))):
        name = f"U{i + 1}"
        if v != name:
            sub[v] = Var(name)
    return apply_clause(c, sub) if sub else c
